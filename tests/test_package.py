import os
import subprocess
import sys

import twistamp

# the public names, in order; each module's __all__ lists its own share
PUBLIC_NAMES = [
    "__version__",
    "TwistampError",
    "StructuralError",
    "ValidationError",
    "UnsupportedTopology",
    "DegenerateInput",
    "InvariantViolation",
    "PrecisionError",
    "as_fraction",
    "GaussianRational",
    "MultiPoly",
    "AlternatingForm",
    "pfaffian_numeric",
    "pfaffian_symbolic",
    "det_symbolic",
    "matrix_rank",
    "FourVector",
    "Edge",
    "Graph",
    "CycleBasis",
    "MomentumRouting",
    "loop_number",
    "cycle_basis",
    "route_momenta",
    "triangle",
    "box",
    "bowtie",
    "complete4",
    "SymanzikPair",
    "first_symanzik_det",
    "first_symanzik_trees",
    "second_symanzik",
    "spanning_trees",
    "two_forest_polynomial",
    "TwistorBlock",
    "TwistorPoint",
    "PropagatorForm",
    "embed4",
    "build_propagator_form",
    "propagator_forms",
    "pair",
    "o_block_form",
    "quadratic_rank_check",
    "PfaffianSymanzikRatio",
    "pfaffian_symanzik_ratio",
    "IntegrationConfig",
    "IntegrationResult",
    "direct_amplitude",
    "parametric_amplitude",
    "pfaffian_amplitude",
    "FeynmanTrickResult",
    "feynman_trick_check",
    "ExtractedConstants",
    "extract_constants",
    "log_divergent_integrand",
]


def test_public_names_are_pinned_and_resolve():
    assert twistamp.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 55
    for name in PUBLIC_NAMES:
        assert getattr(twistamp, name) is not None


def test_import_loads_no_scipy():
    # only --qmc and the N = 2 Feynman check use scipy, which takes about a
    # second to import
    src = os.path.dirname(os.path.dirname(twistamp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, twistamp; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert done.stdout.strip() == "[]"
