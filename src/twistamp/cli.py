"""Command line interface: graph files in, symbolic checks and reports out.

Graph files are JSON:

    {
      "vertices": [1, 2, 3, 4],
      "edges": [{"id": 1, "source": 1, "target": 2, "mass": "1/2"}, ...],
      "external_momenta": {"1": ["3/4", "0", "0", "-1"], ...}
    }

Masses and momentum components may be JSON numbers or decimal/rational
strings; strings are the recommended form since they parse to exact
rationals with no binary-float detour.

`symanzik` and `twistor-check` are exact and load no numpy; `integrate` and
`feynman-check` import the Monte Carlo layer (and numpy) when they run.
From a source checkout, `python -m twistamp` runs the same commands.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys

from . import __version__
from .errors import (
    InvariantViolation,
    PrecisionError,
    StructuralError,
    TwistampError,
    ValidationError,
)
from .graphs import Graph, _is_int, cycle_basis, loop_number, route_momenta
from .symanzik import first_symanzik_trees, second_symanzik
from .twistor import pfaffian_symanzik_ratio, propagator_forms

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# The largest per-sample |Pf|^2 / S2^2 - 1 that `integrate --method all`
# reports as a PASS. The two denominators agree to float64 rounding: the
# deviation reads 1.2e-14 to 2.8e-14 on the benchmark fixtures, and
# 1.8e-12 with unit masses and momenta of 10^3, since the block pfaffian's
# rounding grows with the momentum-to-mass ratio.
IDENTITY_BOUND = 1e-11


def _read_document(path: str):
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return doc, hashlib.sha256(raw).hexdigest()


def _expect(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ValidationError(f"{where}: {message}")


def _is_label(value) -> bool:
    # vertex labels must be hashable and compare by value, and JSON true is no vertex
    return _is_int(value) or isinstance(value, str)


def graph_from_document(doc) -> Graph:
    """Validate the JSON document shape and build the Graph from it."""
    _expect(isinstance(doc, dict), "document", "top level must be an object")
    _expect(isinstance(doc.get("vertices"), list), "vertices", "must be a list")
    _expect(isinstance(doc.get("edges"), list), "edges", "must be a list")
    vertices = doc["vertices"]
    for pos, v in enumerate(vertices):
        _expect(_is_label(v), f"vertices[{pos}]", "must be an integer or a string")

    edges = []
    for pos, entry in enumerate(doc["edges"]):
        where = f"edges[{pos}]"
        _expect(isinstance(entry, dict), where, "must be an object")
        for key in ("id", "source", "target", "mass"):
            _expect(key in entry, where, f"missing field {key!r}")
        _expect(_is_int(entry["id"]), f"{where}.id", "must be an integer")
        for key in ("source", "target"):
            _expect(_is_label(entry[key]), f"{where}.{key}", "must be an integer or a string")
        _expect(
            isinstance(entry["mass"], (int, float, str)),
            f"{where}.mass",
            "must be a number or a decimal/rational string",
        )
        edges.append((entry["id"], entry["source"], entry["target"], entry["mass"]))

    momenta = {}
    raw_momenta = doc.get("external_momenta", {}) or {}
    _expect(isinstance(raw_momenta, dict), "external_momenta", "must be an object")
    # momentum keys are JSON strings, so 1 and "1" would name the same vertex
    by_name = {}
    for pos, v in enumerate(vertices):
        other = by_name.setdefault(str(v), v)
        _expect(other == v, f"vertices[{pos}]", f"labels {other!r} and {v!r} read the same")
    for key, comps in raw_momenta.items():
        where = f"external_momenta[{key!r}]"
        _expect(key in by_name, where, "no such vertex")
        _expect(
            isinstance(comps, list) and len(comps) == 4,
            where,
            "must be a list of 4 components",
        )
        momenta[by_name[key]] = comps

    return Graph.build(vertices, edges, momenta)


def load_graph(path: str):
    doc, digest = _read_document(path)
    return graph_from_document(doc), digest


def _symbolic_checks(g: Graph) -> dict:
    """Exact verdicts: Pf vs S2, matrix-tree match, propagator form ranks."""
    basis = cycle_basis(g)
    routing = route_momenta(g)
    ratio = pfaffian_symanzik_ratio(g, basis, routing)  # builds S1 and S2 as well
    checks = {"first_symanzik_match": bool(ratio.symanzik.s1 == first_symanzik_trees(g))}
    forms = propagator_forms(g, basis, routing)
    ranks = [f.form.rank() for f in forms]
    expected = [4 if any(f.alpha) else 2 for f in forms]
    checks["propagator_ranks"] = {"ranks": ranks, "expected": expected, "pass": ranks == expected}
    checks["pfaffian_symanzik"] = {
        "lambda2": [ratio.lambda2.real, ratio.lambda2.imag],
        "residual": ratio.residual,
        "exact": ratio.exact,
        "verdict": "PASS" if ratio.exact else "FAIL",
    }
    return checks


def cmd_symanzik(args) -> int:
    g, _ = load_graph(args.graph)
    sym = second_symanzik(g)
    print(f"S1 = {sym.s1.text()}")
    print(f"S2 = {sym.s2.text()}")
    return EXIT_OK


def cmd_twistor_check(args) -> int:
    g, _ = load_graph(args.graph)
    ratio = pfaffian_symanzik_ratio(g)
    lam = ratio.lambda2
    print(f"lambda^2 = {lam.real:+.12g}{lam.imag:+.12g}i")
    print(f"residual = {ratio.residual:.3g} (exact: {ratio.exact})")
    print("PASS" if ratio.exact else "FAIL")
    return EXIT_OK if ratio.exact else EXIT_NUMERIC


def _error_entry(exc: TwistampError) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


@contextlib.contextmanager
def _report_file(path):
    """The report's destination: the file at `path`, opened at once, or
    stdout without one. An unwritable path is a ValidationError."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def cmd_integrate(args) -> int:
    import os
    import platform

    import numpy

    from .integrate import IntegrationConfig

    g, digest = load_graph(args.graph)
    cfg = IntegrationConfig(n_samples=args.samples, seed=args.seed)
    # opened before any estimate runs, so an unwritable path costs no run
    with _report_file(args.output) as handle:
        report, failures = _integrate(args, g, digest, cfg)
        report["environment"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
        }
        handle.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if failures:
        validation = any(isinstance(f, ValidationError) for f in failures)
        return EXIT_VALIDATION if validation else EXIT_NUMERIC
    return EXIT_OK


def _integrate(args, g: Graph, digest: str, cfg) -> tuple:
    """The `integrate` report of g on cfg, and the estimators' refusals.
    `--method all` runs the direct estimate and both simplex estimates from
    one draw, and reports the largest |Pf|^2 / S2^2 - 1 over that draw with
    IDENTITY_BOUND and its verdict."""
    from .integrate import (
        _simplex_estimates,
        direct_amplitude,
        extract_constants,
        parametric_amplitude,
        pfaffian_amplitude,
    )
    from .rqmc import _REPLICATES

    runners = {
        "direct": direct_amplitude,
        "parametric": parametric_amplitude,
        "pfaffian": pfaffian_amplitude,
    }
    first = "direct" if args.method == "all" else args.method
    try:
        outcomes = {first: runners[first](g, cfg)}
    except TwistampError as exc:
        outcomes = {first: exc}
    if args.method == "all":
        simplex, deviation = _simplex_estimates(g, cfg)
        outcomes.update(zip(("parametric", "pfaffian"), simplex))

    results = {}
    failures = []
    for name, outcome in outcomes.items():
        if isinstance(outcome, TwistampError):
            results[name] = _error_entry(outcome)
            failures.append(outcome)
        else:
            results[name] = outcome.to_dict()

    report = {
        "tool": "twistamp",
        "version": __version__,
        "command": "integrate",
        "input": args.graph,
        "input_hash": f"sha256:{digest}",
        "graph": {"edges": g.n_edges, "vertices": g.n_vertices, "loops": loop_number(g)},
        "seed": cfg.seed,
        "samples": cfg.n_samples,
        "replicates": _REPLICATES,
        "method": args.method,
        "results": results,
    }

    if args.method == "all" and not any(isinstance(o, TwistampError) for o in simplex):
        report["identity"] = {
            "max_rel_dev": deviation,
            "bound": IDENTITY_BOUND,
            "verdict": "PASS" if deviation <= IDENTITY_BOUND else "FAIL",
        }
    if args.method == "all" and not failures:
        try:
            consts = extract_constants(
                g, cfg, (outcomes["direct"], outcomes["parametric"], outcomes["pfaffian"])
            )
            report["constants"] = {
                "c_hat": consts.c_hat,
                "c_hat_std_error": consts.c_hat_std_error,
                "C_hat": consts.big_c_hat,
                "C_hat_std_error": consts.big_c_hat_std_error,
            }
        except TwistampError as exc:
            report["constants"] = _error_entry(exc)

    if args.exact:
        try:
            report["symbolic_checks"] = _symbolic_checks(g)
        except TwistampError as exc:
            report["symbolic_checks"] = _error_entry(exc)

    return report, failures


def cmd_feynman_check(args) -> int:
    from .integrate import IntegrationConfig, feynman_trick_check

    cfg = IntegrationConfig(n_samples=args.samples, seed=args.seed)
    result = feynman_trick_check(args.values, cfg)
    print(f"lhs = {result.lhs:.12g}")
    print(f"rhs = {result.rhs:.12g} ({result.method}, std error {result.std_error:.3g})")
    print(f"relative gap = {result.rel_gap:.3g}")
    if result.method == "quadrature":
        ok = result.rel_gap <= 1e-10
    else:
        ok = abs(result.rhs - result.lhs) <= 3.0 * result.std_error
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistamp",
        description="Loop amplitudes three ways: direct, parametric, pfaffian.",
    )
    parser.add_argument("--version", action="version", version=f"twistamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sym = sub.add_parser("symanzik", help="print S1 and S2 for a graph file")
    p_sym.add_argument("graph", help="path to the graph JSON file")
    p_sym.set_defaults(func=cmd_symanzik)

    p_tw = sub.add_parser(
        "twistor-check",
        help="verify Pf(sum a Q)^2 = lambda^2 S2^2 exactly",
    )
    p_tw.add_argument("graph", help="path to the graph JSON file")
    p_tw.set_defaults(func=cmd_twistor_check)

    p_int = sub.add_parser("integrate", help="run the Monte Carlo amplitude estimators")
    p_int.add_argument("graph", help="path to the graph JSON file")
    p_int.add_argument(
        "--method",
        choices=["direct", "parametric", "pfaffian", "all"],
        default="all",
    )
    p_int.add_argument("--samples", type=int, default=1_000_000)
    p_int.add_argument("--seed", type=int, default=0)
    p_int.add_argument(
        "--exact",
        action="store_true",
        help="embed the exact symbolic verdicts (Pf vs S2, matrix-tree, ranks) in the report",
    )
    p_int.add_argument("--output", default=None, help="write the JSON report to a file")
    p_int.set_defaults(func=cmd_integrate)

    p_f = sub.add_parser("feynman-check", help="check the simplex denominator identity")
    p_f.add_argument("values", type=float, nargs="+", help="positive denominators A_1..A_N")
    p_f.add_argument("--samples", type=int, default=200_000)
    p_f.add_argument("--seed", type=int, default=0)
    p_f.set_defaults(func=cmd_feynman_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InvariantViolation, PrecisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
