import ast
import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import twistamp
from conftest import multi_loop_graph

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


def test_every_benchmark_span_target_resolves():
    # the benchmark tracer reports a target the package lacks as absent, with
    # value 0, instead of failing the run; its TARGETS are read, not imported
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    tree = ast.parse(spans.read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    pairs = [(row.elts[0].value, row.elts[1].value) for row in table.elts]
    assert len(pairs) >= 17
    for module_name, attr in pairs:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert leaf in vars(owner), f"{module_name}.{attr}"


def test_pfaffian_batch_gets_the_loop_matrix_stack_the_benchmark_reads(monkeypatch):
    # bench/spans.py reads the kernel's first argument as (B, n, n); any other
    # shape would give a wrong byte count, not an error
    import twistamp.integrate as integrate

    kernel = integrate._pfaffian_batch
    shapes = []

    def recording(lmat, border):
        shapes.append(lmat.shape)
        return kernel(lmat, border)

    monkeypatch.setattr(integrate, "_pfaffian_batch", recording)
    g = multi_loop_graph("loop4", random.Random(3))
    integrate.pfaffian_amplitude(g, integrate.IntegrationConfig(n_samples=66_536, seed=0))
    assert shapes
    for batch, rows, cols in shapes:
        assert (rows, cols) == (4, 4)
        assert 1 <= batch <= integrate._SIMPLEX_LANES
    assert sum(batch for batch, _, _ in shapes) == 66_536
