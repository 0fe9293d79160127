"""The three workloads: one timed pass each, plus the correctness gate.

A pass returns its wall time and a Tally of operations attempted and failed.
An operation fails when the package raises a TwistampError, when
`extract_constants` refuses, or when its output misses the gate; a gate miss
also makes the run incorrect. Nothing aborts the run.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

from fixtures import Prepared

METHODS = ("direct", "parametric", "pfaffian")
SAMPLER_SEED = 0  # fixed, so an estimate and its error repeat bit for bit


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    misses: list = field(default_factory=list)
    # (fixture, method) -> (wall_time_s, rel_err)
    estimates: dict = field(default_factory=dict)
    report_bytes: int = 0
    # fixture -> (c_hat, C_hat) as multiples of pi^(2n)
    constants: dict = field(default_factory=dict)

    def op(self, ok: bool, miss: str | None = None) -> None:
        """One operation; `miss` names a gate failure (which also fails it)."""
        self.attempted += 1
        if miss is not None:
            self.misses.append(miss)
        if not ok or miss is not None:
            self.failed += 1

    def t_to_1pct(self, method: str) -> float:
        """Sum over fixtures of wall_time_s * (rel_err / 0.01)^2."""
        return sum(
            wall * (rel / 0.01) ** 2
            for (_, m), (wall, rel) in self.estimates.items()
            if m == method
        )


def _gate_estimate(tally, fixture, method, estimate, std_error, wall):
    ok = math.isfinite(estimate) and estimate > 0.0 and math.isfinite(std_error)
    tally.op(True, None if ok else f"{fixture}/{method}: estimate {estimate!r}")
    if ok:
        tally.estimates[(fixture, method)] = (wall, std_error / estimate)


def _gate_constants(tally, fixture, n, constants, tolerance):
    if "error" in constants:  # extract_constants refused
        tally.op(False)
        return
    miss = None
    tol = tolerance.get(str(n))
    ratios = tuple(constants[key] / math.pi ** (2 * n) for key in ("c_hat", "C_hat"))
    tally.constants[fixture] = ratios
    if tol is not None and not all(abs(r - 1.0) <= tol for r in ratios):
        miss = f"{fixture}: (c_hat, C_hat) / pi^{2 * n} = {ratios}, not within {tol:.0%} of 1"
    tally.op(True, miss)


class CliPass:
    """`twistamp integrate --method all` on every fixture, in process."""

    def __init__(self, ta, prepared, samples, workdir, tolerance):
        from twistamp import cli

        self.cli = cli
        self.prepared = prepared
        self.samples = samples
        self.tolerance = tolerance
        self.paths = []
        for p in prepared:
            graph = os.path.join(workdir, f"{p.spec.name}.json")
            with open(graph, "w", encoding="utf-8") as handle:
                json.dump(p.spec.document(), handle)
            self.paths.append((graph, os.path.join(workdir, f"{p.spec.name}.report.json")))

    def run(self) -> tuple:
        start = time.perf_counter()
        for graph, report in self.paths:
            self.cli.main(
                [
                    "integrate", graph, "--method", "all",
                    "--samples", str(self.samples), "--seed", str(SAMPLER_SEED),
                    "--output", report,
                ]
            )
        wall = time.perf_counter() - start
        return wall, self.check()

    def check(self) -> Tally:
        tally = Tally()
        for p, (_, path) in zip(self.prepared, self.paths):
            name = p.spec.name
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
            except OSError:
                tally.op(False, f"{name}: no report written")
                continue
            tally.report_bytes += len(raw)
            report = json.loads(raw)
            for method in METHODS:
                entry = report["results"][method]
                if "error" in entry:
                    tally.op(False)
                else:
                    _gate_estimate(
                        tally, name, method, entry["estimate"], entry["std_error"],
                        entry["wall_time_s"],
                    )
            if "constants" in report:
                _gate_constants(tally, name, p.spec.loops, report["constants"], self.tolerance)
            os.remove(path)
        return tally


class ExactPass:
    """The exact layer on every fixture, then one MC batch per method where
    the identity is checked, so that every end-to-end metric has a value.

    Identity checks (matrix-tree, form ranks, Pf^2 = lambda^2 S2^2) run where
    the squaring is affordable; on the largest fixture S2 and the symbolic
    pfaffian are built and compared directly (Pf = +-S2 when lambda^2 = 1).
    """

    IDENTITY_MAX_LOOPS = 3

    def __init__(self, ta, prepared, samples, workdir, tolerance):
        self.ta = ta
        self.prepared = prepared
        self.cfg = ta.IntegrationConfig(n_samples=samples, seed=SAMPLER_SEED)

    def _exact(self, tally: Tally, p: Prepared) -> None:
        ta, g, name = self.ta, p.graph, p.spec.name
        n = p.spec.loops
        try:
            sym = ta.second_symanzik(g, p.basis, p.routing)
            if n <= self.IDENTITY_MAX_LOOPS:
                trees = ta.first_symanzik_trees(g)
                tally.op(True, None if sym.s1 == trees else f"{name}: S1 det != S1 trees")
            else:
                ok = sym.s2.homogeneous_degree() == n + 1
                tally.op(True, None if ok else f"{name}: S2 not of degree n+1")
        except ta.TwistampError:
            tally.op(False)
            return
        try:
            forms = ta.propagator_forms(g, p.basis, p.routing)
            if n <= self.IDENTITY_MAX_LOOPS:
                ranks = [f.form.rank() for f in forms]
                expected = [4 if any(f.alpha) else 2 for f in forms]
                tally.op(True, None if ranks == expected else f"{name}: form ranks {ranks}")
            else:
                pf = ta.pfaffian_symbolic([f.form for f in forms])
                ok = pf == sym.s2 or pf == -sym.s2
                tally.op(True, None if ok else f"{name}: Pf != +-S2")
        except ta.TwistampError:
            tally.op(False)
        if n > self.IDENTITY_MAX_LOOPS:
            return
        try:
            ratio = ta.pfaffian_symanzik_ratio(g, p.basis, p.routing)
            ok = ratio.exact and ratio.residual == 0.0 and ratio.lambda2_exact == 1
            tally.op(
                True,
                None if ok else f"{name}: residual {ratio.residual}, lambda^2 {ratio.lambda2}",
            )
        except ta.TwistampError:
            tally.op(False)

    def run(self) -> tuple:
        ta = self.ta
        tally = Tally()
        results = []
        start = time.perf_counter()
        for p in self.prepared:
            self._exact(tally, p)
        for p in self.prepared:
            if p.spec.loops > self.IDENTITY_MAX_LOOPS:
                continue
            for method in METHODS:
                estimator = getattr(ta, f"{method}_amplitude")
                try:
                    results.append((p.spec.name, method, estimator(p.graph, self.cfg)))
                except ta.TwistampError:
                    tally.op(False)
        wall = time.perf_counter() - start
        for name, method, r in results:
            _gate_estimate(tally, name, method, r.estimate, r.std_error, r.wall_time_s)
        return wall, tally


@dataclass(frozen=True)
class Workload:
    fixtures: tuple
    samples: int
    runner: type  # CliPass or ExactPass
    why: str


WORKLOADS = {
    "mc-small": Workload(
        ("box", "bowtie"),
        1_000_000,
        CliPass,
        "box and bowtie through `twistamp integrate --method all` at 1M samples: "
        "d=4/6 Parlett-Reid, form assembly and direct sampling dominate; S2 "
        "evaluation is small",
    ),
    "mc-large": Workload(
        ("theta", "loop3", "loop4"),
        131_072,
        CliPass,
        "2-4 loop graphs, all methods at 131k samples: S2 evaluation with "
        "44-686 terms and d=6..10 pfaffians dominate",
    ),
    "exact": Workload(
        ("theta", "loop3", "loop4"),
        65_536,
        ExactPass,
        "exact Pf vs S2 identity, matrix-tree check and form ranks; 4-loop S2 "
        "and symbolic pfaffian; then one 65k-sample batch per method on 2-3 loops",
    ),
}
