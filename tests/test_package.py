import ast
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import twistamp
from twistamp.cli import graph_from_document
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


def _fresh_python(*args: str) -> str:
    """Standard output of a new interpreter run with `args` (`-c` and code,
    or `-m` and a module) that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(twistamp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    return done.stdout.strip()


def test_integrate_names_are_looked_up_on_each_access(monkeypatch):
    import twistamp.integrate as integrate

    assert list(twistamp._INTEGRATE_NAMES) == integrate.__all__
    star = {}
    exec("from twistamp import *", star)
    assert {name: star[name] for name in PUBLIC_NAMES} == {
        name: getattr(twistamp, name) for name in PUBLIC_NAMES
    }
    assert set(PUBLIC_NAMES) <= set(dir(twistamp))
    # the benchmark tracer patches twistamp.integrate and undoes the patch;
    # the package must follow both steps
    original = integrate.direct_amplitude

    def traced(g, cfg):
        return original(g, cfg)

    with monkeypatch.context() as patch:
        patch.setattr(integrate, "direct_amplitude", traced)
        assert twistamp.direct_amplitude is traced
    assert twistamp.direct_amplitude is original
    assert "direct_amplitude" not in vars(twistamp)
    # the submodule stays an attribute of the package, as before it loaded lazily
    code = "import twistamp; print(twistamp.integrate.IntegrationConfig.__module__)"
    assert _fresh_python("-c", code) == "twistamp.integrate"


def test_import_loads_no_scipy():
    # only --qmc and the N = 2 Feynman check use scipy, which takes about a
    # second to import
    code = "import sys, twistamp; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert _fresh_python("-c", code) == "[]"


BOX_DOCUMENT = {
    "vertices": [1, 2, 3, 4],
    "edges": [
        {"id": e, "source": e, "target": e % 4 + 1, "mass": mass}
        for e, mass in zip(range(1, 5), ["1/2", "1", "3/4", "1"])
    ],
    "external_momenta": {"1": ["1/2", "0", "1/3", "0"], "3": ["-1/2", "0", "-1/3", "0"]},
}

# prints which of the float layer's modules the code before it has loaded
_FLOAT_LAYER_LOADED = (
    "\nprint([m for m in ('numpy', 'twistamp.integrate') if m in sys.modules])"
)


def test_exact_pipeline_loads_no_numpy():
    code = (
        "import sys\n"
        "from twistamp import Graph, cycle_basis, first_symanzik_trees, pfaffian_symanzik_ratio\n"
        "from twistamp import pfaffian_symbolic, propagator_forms, route_momenta, second_symanzik\n"
        "g = Graph.build([1, 2, 3, 4], [(1, 1, 2, 1), (2, 2, 3, '1/2'), (3, 3, 4, 2),"
        " (4, 4, 1, 1)], {1: [1, 0, 0, 0], 3: [-1, 0, 0, 0]})\n"
        "basis, routing = cycle_basis(g), route_momenta(g)\n"
        "sym = second_symanzik(g, basis, routing)\n"
        "assert sym.s1 == first_symanzik_trees(g)\n"
        "pf = pfaffian_symbolic(f.form for f in propagator_forms(g, basis, routing))\n"
        "assert pf in (sym.s2, -sym.s2)\n"
        "assert pfaffian_symanzik_ratio(g, basis, routing).exact"
    )
    assert _fresh_python("-c", code + _FLOAT_LAYER_LOADED) == "[]"


def test_exact_commands_load_no_numpy(tmp_path):
    graph = tmp_path / "box.json"
    graph.write_text(json.dumps(BOX_DOCUMENT))
    for argv in (["symanzik", str(graph)], ["twistor-check", str(graph)], ["--version"]):
        code = (
            "import sys\n"
            "from twistamp.cli import main\n"
            "try:\n"
            f"    assert main({argv!r}) == 0\n"
            "except SystemExit as done:\n"
            "    assert done.code == 0"
        )
        assert _fresh_python("-c", code + _FLOAT_LAYER_LOADED).splitlines()[-1] == "[]", argv


def test_python_dash_m_runs_the_cli(tmp_path):
    assert _fresh_python("-m", "twistamp", "--version") == f"twistamp {twistamp.__version__}"
    graph = tmp_path / "box.json"
    graph.write_text(json.dumps(BOX_DOCUMENT))
    sym = twistamp.second_symanzik(graph_from_document(BOX_DOCUMENT))
    assert _fresh_python("-m", "twistamp", "symanzik", str(graph)).splitlines() == [
        f"S1 = {sym.s1.text()}",
        f"S2 = {sym.s2.text()}",
    ]


def test_import_makes_no_batch_workspace():
    # the first estimate in a thread makes that thread's workspace
    code = "import twistamp.integrate as i; print(hasattr(i._threads, 'arena'))"
    assert _fresh_python("-c", code) == "False"


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
