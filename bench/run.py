"""twistamp benchmark: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py --workload mc-small --seed 1 --seconds 28 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
environment, fixture sizes, gate misses and, when traced, every span name
with its calls, total and self time.

--trace 0  end-to-end metrics. `setup_s` is the median of SETUP_REPEATS
           fresh processes, each timing `import twistamp` plus building
           every fixture. Passes repeat while the next one fits in
           --seconds (at least one runs); `pass_s` and each
           `t_to_1pct.<method>` are medians over passes.
--trace 1  per-layer metrics. Untraced and traced rounds alternate
           within --seconds (at least one of each); a traced round wraps
           the package's functions (see spans.py) around fixture set-up
           plus one pass. Span metrics are medians over traced rounds;
           `trace.overhead_s` is the traced minus the untraced median pass
           time.

Failed operations (typed package errors, refusals by extract_constants,
gate misses) count in `failed` out of `attempted`; only a gate miss makes
`correct` false. The gate tolerances live in reference.json.

Other modes:
  --write-manifest  regenerate BENCHMARK.json from the tables below
  --record-spread   rel_err of every MC fixture at sampler seeds 0-4, into
                    rel_err_spread.json (shows which time-to-1% figures rest
                    on infinite-variance estimators)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from fixtures import make_specs, matchings, prepare
from spans import Tracer
from workloads import METHODS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.basename(HERE)

RUN_SECONDS = 28
SETUP_REPEATS = 5
SPREAD_SEEDS = range(5)

# name, unit, better, bound (share of the parent's median). The time bounds
# are wide because the machine itself drifts: identical pure-Python work
# varied by up to 1.5x between windows on a shared 2-vCPU VM, and medians
# of these metrics spread by 0.03-0.16 (IQR/median) over ten seeds there.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("t_to_1pct.direct", "s", "lower", 0.25),
    ("t_to_1pct.parametric", "s", "lower", 0.25),
    ("t_to_1pct.pfaffian", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

_SPAN_METRICS = (
    "graphs.build", "graphs.cycle_basis", "graphs.route_momenta",
    "symanzik.second_symanzik", "symanzik.first_symanzik_trees",
    "twistor.propagator_forms", "twistor.pfaffian_symanzik_ratio",
    "algebra.pfaffian_symbolic",
    "integrate.direct", "integrate.parametric", "integrate.pfaffian",
    "integrate.sampler", "integrate.s2_eval", "integrate.pfaffian_batch",
    "integrate.accumulate", "integrate.extract_constants", "cli.integrate",
)

# name, unit, better, span it is read from (None: not a span).
# What each should move: graphs.* -> setup_s everywhere; symanzik.*,
# twistor.*, algebra.* -> pass_s on exact (second_symanzik also setup_s on
# mc-large); integrate.<method>.* -> t_to_1pct.<method>, where rel_err enters
# squared; sampler_s -> t_to_1pct.parametric and .pfaffian; s2_eval_s ->
# t_to_1pct.parametric; pfaffian_batch_s and pfaffian.self_s ->
# t_to_1pct.pfaffian; accumulate_s -> nothing measurable;
# extract_constants_s and cli.* -> pass_s on mc-small.
PER_LAYER = (
    *((f"{s}_s", "s", "lower", s) for s in _SPAN_METRICS),
    ("symanzik.s2_terms", "count", "lower", None),
    ("algebra.pf_terms", "count", "lower", None),
    ("algebra.matchings", "count", "lower", None),
    *(
        row
        for m in METHODS
        for row in (
            (f"integrate.{m}.samples", "count", "higher", f"integrate.{m}"),
            (f"integrate.{m}.batches", "count", "higher", f"integrate.{m}"),
            (f"integrate.{m}.rel_err", "1", "lower", f"integrate.{m}"),
            (f"integrate.{m}.samples_per_s", "1/s", "higher", f"integrate.{m}"),
            (f"integrate.{m}.self_s", "s", "lower", f"integrate.{m}"),
        )
    ),
    ("integrate.pfaffian_batch.bytes", "B", "lower", "integrate.pfaffian_batch"),
    ("cli.report_bytes", "B", "lower", "cli.integrate"),
    ("trace.pass_s", "s", "lower", None),
    ("trace.overhead_s", "s", "lower", None),
    ("trace.spans", "count", "lower", None),
)


def manifest() -> dict:
    return {
        "command": ["python3", f"{BENCH_DIR}/run.py"],
        "paths": [BENCH_DIR],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w.why} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


# -- environment -------------------------------------------------------------

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Limit BLAS threads to the CPUs this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in _BLAS_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


def _blas_threads():
    """Threads OpenBLAS reports, if numpy bundles a findable OpenBLAS."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "blas_threads": _blas_threads(),
        "blas_thread_cap": int(os.environ[_BLAS_VARS[0]]),
        "platform": platform.platform(),
    }


def import_twistamp():
    """The package from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "twistamp", "__init__.py")):
        sys.exit(f"error: no twistamp package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import twistamp

    if os.path.dirname(os.path.dirname(os.path.abspath(twistamp.__file__))) != SRC:
        sys.exit(f"error: imported twistamp from {twistamp.__file__}, not {SRC}")
    return twistamp


# -- set-up ------------------------------------------------------------------


def setup_once(workload: str, seed: int) -> float:
    """Import plus fixture preparation, timed in this (fresh) process."""
    specs = make_specs(WORKLOADS[workload].fixtures, seed)
    start = time.perf_counter()
    ta = import_twistamp()
    for spec in specs:
        prepare(ta, spec)
    return time.perf_counter() - start


def setup_samples(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, check=True, cwd=ROOT,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# -- metrics -----------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def span_metrics(tracer, tally, info) -> dict:
    """One traced round's per-layer values (name -> value); absent spans are
    left out."""
    totals = tracer.totals()
    out = {}
    for name, _, _, span in PER_LAYER:
        if span is None or span in tracer.absent:
            continue
        entry = totals.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
        counts = entry["counts"]
        suffix = name[len(span) + 1:]
        if name == "cli.report_bytes":
            out[name] = tally.report_bytes
        elif suffix == "s":
            out[name] = entry["total_s"]
        elif suffix == "self_s":
            out[name] = entry["self_s"]
        elif suffix == "samples":
            out[name] = sum(counts.get("samples", []))
        elif suffix == "batches":
            out[name] = tracer.count_under("integrate.accumulate", span)
        elif suffix == "rel_err":
            out[name] = max(counts.get("rel_err", []), default=0.0)
        elif suffix == "samples_per_s":
            total = entry["total_s"]
            out[name] = sum(counts.get("samples", [])) / total if total else 0.0
        elif suffix == "bytes":
            out[name] = sum(counts.get("bytes", []))
    out["symanzik.s2_terms"] = info["s2_terms"]
    out["algebra.pf_terms"] = info["pf_terms"]
    out["algebra.matchings"] = info["matchings"]
    out["trace.spans"] = len(tracer.spans)
    return out


def fixture_info(ta, prepared, with_pfaffian: bool) -> dict:
    rows = {}
    for p in prepared:
        row = {
            "loops": p.spec.loops,
            "edges": p.graph.n_edges,
            "s2_terms": p.symanzik.s2.nterms,
            "matchings": matchings(p.spec.loops),
        }
        if with_pfaffian:
            row["pf_terms"] = ta.pfaffian_symbolic([f.form for f in p.forms]).nterms
        rows[p.spec.name] = row
    info = {key: sum(r.get(key, 0) for r in rows.values()) for key in ("s2_terms", "pf_terms", "matchings")}
    info["fixtures"] = rows
    return info


# -- the run -----------------------------------------------------------------


def run(args) -> int:
    nproc = cap_blas_threads()
    workload = WORKLOADS[args.workload]
    ta = import_twistamp()
    setups = setup_samples(args.workload, args.seed) if not args.trace else []
    env = environment(nproc)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        tolerance = json.load(handle)["pi_power_tolerance"]
    specs = make_specs(workload.fixtures, args.seed)
    prepared = [prepare(ta, s) for s in specs]
    info = fixture_info(ta, prepared, with_pfaffian=bool(args.trace))

    attempted = failed = 0
    misses: list = []
    constants: dict = {}
    walls: list = []
    traced_walls: list = []
    rounds: list = []
    t_pct = {m: [] for m in METHODS}
    span_table = {}
    absent: list = []
    accounting: list = []

    def record(tally):
        nonlocal attempted, failed
        attempted += tally.attempted
        failed += tally.failed
        misses.extend(m for m in tally.misses if m not in misses)
        constants.update(tally.constants)

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        plain = workload.runner(ta, prepared, workload.samples, workdir, tolerance)
        start = time.perf_counter()
        while True:
            # stop before a pass that would run past --seconds
            elapsed = time.perf_counter() - start
            enough = walls and (traced_walls or not args.trace)
            if enough and elapsed + statistics.median(walls) > args.seconds:
                break
            if args.trace and len(traced_walls) < len(walls):
                tracer = Tracer()
                tracer.install()
                try:
                    fresh = [prepare(ta, s) for s in specs]
                    wall, tally = workload.runner(
                        ta, fresh, workload.samples, workdir, tolerance
                    ).run()
                finally:
                    tracer.uninstall()
                traced_walls.append(wall)
                rounds.append(span_metrics(tracer, tally, info))
                span_table = tracer.totals()
                absent = tracer.absent
                accounting.extend(tracer.accounting_errors())
            else:
                wall, tally = plain.run()
                walls.append(wall)
                for m in METHODS:
                    t_pct[m].append(tally.t_to_1pct(m))
            record(tally)

    misses.extend(accounting)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = {}
        for name, unit, _, span in PER_LAYER:
            if span in absent:
                metrics[name] = {"value": 0.0, "unit": unit, "absent": True}
            elif name == "trace.pass_s":
                metrics[name] = metric(statistics.median(traced_walls), unit)
            elif name == "trace.overhead_s":
                metrics[name] = metric(
                    statistics.median(traced_walls) - statistics.median(walls), unit
                )
            else:
                metrics[name] = metric(statistics.median(r[name] for r in rounds), unit)
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "pass_s": metric(statistics.median(walls), "s"),
            **{
                f"t_to_1pct.{m}": metric(statistics.median(t_pct[m]), "s")
                for m in METHODS
            },
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "fixtures": info["fixtures"],
        "passes": len(walls),
        "traced_rounds": len(traced_walls),
        "pass_s": walls,
        "traced_pass_s": traced_walls,
        "setup_s": setups,
        "error_rate": failed / attempted if attempted else 0.0,
        "gate_misses": misses,
        "constants_over_pi_2n": constants,
        "absent_spans": absent,
        "spans": span_table,
    }
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": not misses,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def record_spread() -> int:
    """rel_err per method and MC fixture over sampler seeds 0-4."""
    cap_blas_threads()
    ta = import_twistamp()
    table = {}
    for name in ("mc-small", "mc-large"):
        workload = WORKLOADS[name]
        for p in (prepare(ta, s) for s in make_specs(workload.fixtures, 0)):
            rows = {}
            for method in METHODS:
                rels = []
                for seed in SPREAD_SEEDS:
                    cfg = ta.IntegrationConfig(n_samples=workload.samples, seed=seed)
                    r = getattr(ta, f"{method}_amplitude")(p.graph, cfg)
                    rels.append(r.std_error / abs(r.estimate))
                rows[method] = {
                    "rel_err": rels,
                    "max_over_min": max(rels) / min(rels),
                }
            table[p.spec.name] = {"workload": name, "samples": workload.samples, **rows}
            print(p.spec.name, json.dumps(rows), file=sys.stderr)
    out = {
        "note": (
            "Relative standard error of each estimator at the workload's sample "
            "count, over sampler seeds 0-4 (the benchmark itself uses seed 0). "
            "A wide max_over_min marks an estimator whose sample variance is "
            "not a stable figure, so its t_to_1pct rests on one seed's draw."
        ),
        "seeds": list(SPREAD_SEEDS),
        "fixtures": table,
    }
    with open(os.path.join(HERE, "rel_err_spread.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=2)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--record-spread", action="store_true")
    args = parser.parse_args(argv)

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            json.dump(manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.record_spread:
        return record_spread()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        print(repr(setup_once(args.workload, args.seed)))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
