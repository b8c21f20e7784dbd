"""Closed-loop benchmark of verified cases per second.

    python3 bench/run.py --workload oracle-d2 --seed 1 --seconds 30 --trace 0

One client in one process runs verified cases back to back (see cases.py),
serially (NONLOCAL_LAB_THREADS unset), with BLAS capped at one thread and
the default QuadratureSpec.  Run it from the root of a checkout: it imports
``nonlocal_lab`` from ``src/`` of that checkout and refuses to run otherwise.

--trace 0 runs whole rounds for about --seconds and reports the end-to-end
metrics; cases_per_s is the number of cases in a round over a round time
built from the median time of each kind.  Fresh-interpreter set-up probes
(import plus one d = 2 f1 case) are spread across the run.  --trace 1 runs
a fixed number of rounds under the per-layer tracer and reports the
per-layer metrics.  The last line of standard output is the JSON result;
the lines before it are a readable report and the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9
THREADS2_S = 3.5  # nominal cost of the two threads2_speedup measurements
REL_ERR_FLOOR = 1e-14  # rounding level of the composed closed forms
LAYERS = ("specfun", "model", "closedform", "symcalc", "pvquad", "riesz",
          "energy", "regularity", "cli", "util")

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_s.p50": "s",
    "case_s.tail": "s",
    "rel_err.digits": "digits",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# p50 of the inclusive duration of one public function
P50_OF = {
    "closedform.delta_of_epsilon_s.p50": "closedform.delta_of_epsilon",
    "symcalc.pipeline_s.p50": "symcalc.pipeline",
    "regularity.dyadic_seminorm_s.p50": "regularity.dyadic_seminorm",
    "energy.convexity_s.p50": "energy.convexity_identity_check",
    "energy.probe_s.p50": "energy.gamma_limit_probe",
    "cli.sweep_s.p50": "cli.run",
}


def per_layer_units(workloads) -> dict[str, str]:
    """Every per-layer metric and its unit; one err_calibration metric per
    oracle kind that some workload runs."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "pvquad.nodes.d2": "count",
        "pvquad.mnodes_per_s.d2": "Mnodes/s",
        "pvquad.nodes.d3": "count",
        "pvquad.mnodes_per_s.d3": "Mnodes/s",
        "pvquad.nodes.d4": "count",
        "pvquad.converged_ratio": "ratio",
        "pvquad.err_calibration.max": "ratio",
    })
    for w in workloads.values():
        for kind in w.round:
            if kind.calibrated:
                units[f"pvquad.err_calibration.{kind.name}"] = "ratio"
    units.update({name: "s" for name in P50_OF})
    units.update({
        "util.map_ordered.items": "count",
        "util.threads2_speedup.d2": "ratio",
        "util.threads2_speedup.d3": "ratio",
        "trace.overhead_s": "s",
    })
    return units


class Refused(Exception):
    """The benchmark cannot run here; nothing is reported."""


def _import_package() -> None:
    if not (SRC / "nonlocal_lab" / "__init__.py").is_file():
        raise Refused(f"no package source at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import nonlocal_lab

    where = Path(nonlocal_lab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise Refused(f"imported nonlocal_lab from {where}, not from {SRC}")


# --- environment record ----------------------------------------------------


def _cpu_times():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return None
    return fields


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nonlocal_lab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(cpu_start, load_start) -> dict:
    import numpy

    record = {
        "commit": _commit(),
        "source_digest": _source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "NONLOCAL_LAB_THREADS": os.environ.get("NONLOCAL_LAB_THREADS"),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }
    cpu_end = _cpu_times()
    if cpu_start and cpu_end:
        delta = [b - a for a, b in zip(cpu_start, cpu_end)]
        # user nice system idle iowait irq softirq steal (guest is in user)
        total = sum(delta[:8]) or 1
        record["cpu_steal_share"] = delta[7] / total if len(delta) > 7 else None
    return record


# --- running cases ---------------------------------------------------------

class Recorder:
    """Outcomes and case times of one run."""

    def __init__(self):
        self.times: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.passed = 0
        # raised, or a wrong answer the oracle did not flag (a Monte Carlo
        # miss at d = 4 is a failed case, not an error)
        self.errors = 0
        self.rel_errs: list[float] = []
        self.calibration: dict[str, float] = {}

    def run(self, kind, params):
        t0 = time.perf_counter()
        try:
            out = kind.run(**params)
        except Exception:
            from cases import Outcome

            out = Outcome(passed=False)
            print(f"case {kind.name} {params} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.by_kind.setdefault(kind.name, []).append(dt)
        self.passed += bool(out.passed)
        if not (out.passed or out.flagged or kind.monte_carlo):
            self.errors += 1
            print(f"case {kind.name} {params} failed: {out}", file=sys.stderr)
        if out.rel_err is not None:
            self.rel_errs.append(out.rel_err)
        if out.calibration is not None:
            self.calibration[kind.name] = max(self.calibration.get(kind.name, 0.0), out.calibration)
        return dt

    def run_round(self, workload, params) -> float:
        return sum(self.run(k, p) for k, p in zip(workload.round, params))


PROBE = """
import sys
sys.path.insert(0, {src!r})
import nonlocal_lab.cli
from nonlocal_lab import closedform, pvquad
res = pvquad.f_integral_num("f1", 2, 0.5, 0.25, pvquad.QuadratureSpec())
ref = closedform.f1_closed(2, 0.5, 0.25)
sys.exit(0 if abs(res.value - ref) <= 1e-3 * abs(ref) else 1)
"""


def setup_probe(rec: Recorder) -> float:
    """Wall time of a fresh interpreter that imports the package and runs
    one verified d = 2 f1 case; a failed probe counts as a wrong answer."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-I", "-c", PROBE.format(src=str(SRC))],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=120,
        check=False,
    )
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        rec.errors += 1
        print(f"set-up probe failed: {proc.stderr.decode()[-500:]}", file=sys.stderr)
    return dt


def draw_round(workload, rng):
    return [k.draw(rng) for k in workload.round]


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the median when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def median_round_s(workload, rec: Recorder) -> float:
    """Time of one round built from the median time of each kind in it.

    A shared host alternates between faster and slower phases of seconds
    and stalls now and then.  A mean over the run follows the share of time
    spent in each phase and every stall; a median per kind follows the
    phase the run mostly ran in and ignores stalls.
    """
    return sum(statistics.median(rec.by_kind[k.name]) for k in workload.round)


def run_untraced(workload, rng, seconds, rec: Recorder) -> dict:
    probes: list[float] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for kind, params in zip(workload.round, draw_round(workload, rng)):
            if len(probes) < SETUP_PROBES and time.perf_counter() - start >= len(probes) * seconds / SETUP_PROBES:
                probes.append(setup_probe(rec))
            rec.run(kind, params)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(rec))
    n = len(rec.times)
    tail_value, tail_pct = tail(rec.times)
    median_err = statistics.median(rec.rel_errs) if rec.rel_errs else REL_ERR_FLOOR
    print(f"rounds {rounds}, cases {n}, wall {time.perf_counter() - start:.1f} s")
    print(f"case_s: p50 {statistics.median(rec.times):.6f} s, tail p{tail_pct:.1f} "
          f"{tail_value:.6f} s over {n} samples; setup probes {len(probes)}: "
          + ", ".join(f"{p:.3f}" for p in probes))
    return {
        "setup_s": statistics.median(probes),
        "cases_per_s": len(workload.round) / median_round_s(workload, rec),
        "case_s.p50": statistics.median(rec.times),
        "case_s.tail": tail_value,
        "rel_err.digits": -math.log10(max(median_err, REL_ERR_FLOOR)),
        "pass_ratio": rec.passed / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def threads2_speedup(d: int, rec: Recorder) -> float:
    """Serial over two-thread time of one f1 case; value and node count
    must agree exactly, else the run is not correct."""
    from nonlocal_lab import pvquad

    results = []
    for threads in (None, "2"):
        if threads is None:
            os.environ.pop("NONLOCAL_LAB_THREADS", None)
        else:
            os.environ["NONLOCAL_LAB_THREADS"] = threads
        try:
            t0 = time.perf_counter()
            res = pvquad.f_integral_num("f1", d, 0.5, 0.25, pvquad.QuadratureSpec())
            results.append((time.perf_counter() - t0, res))
        finally:
            os.environ.pop("NONLOCAL_LAB_THREADS", None)
    (t1, r1), (t2, r2) = results
    if (r1.value, r1.nodes_used) != (r2.value, r2.nodes_used):
        rec.errors += 1
        print(f"d={d}: two threads changed the result: {r1} vs {r2}", file=sys.stderr)
    return t1 / t2


def run_traced(workload, rng, seconds, rec: Recorder) -> dict:
    """Round 0 untraced, then a fixed number of traced rounds, so that the
    counts repeat exactly for a seed; the number is sized from nominal
    costs to fill about --seconds."""
    from tracing import Tracer

    rounds = max(1, round((seconds - THREADS2_S - workload.round_s) / workload.traced_round_s))
    speedup = {d: threads2_speedup(d, rec) for d in (2, 3)}
    first = draw_round(workload, rng)
    untraced = Recorder().run_round(workload, first)
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        rec.run_round(workload, first)
        traced = time.perf_counter() - t0
        for _ in range(rounds - 1):
            rec.run_round(workload, draw_round(workload, rng))
    print(f"traced cases {len(rec.times)}; round 0 untraced {untraced:.3f} s, traced {traced:.3f} s")

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = tracer.calls.get(layer, 0)
        m[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
    pv = tracer.pv_calls
    for d in (2, 3, 4):
        at_d = [c for c in pv if c[0] == d]
        nodes = sum(c[1] for c in at_d)
        m[f"pvquad.nodes.d{d}"] = nodes / len(at_d) if at_d else 0
        if d < 4:
            busy = sum(c[3] for c in at_d)
            m[f"pvquad.mnodes_per_s.d{d}"] = nodes / busy / 1e6 if busy else 0.0
    m["pvquad.converged_ratio"] = sum(c[2] for c in pv) / len(pv) if pv else 0.0
    m["pvquad.err_calibration.max"] = max(rec.calibration.values(), default=0.0)
    for name, value in rec.calibration.items():
        m[f"pvquad.err_calibration.{name}"] = value
    for name, fn in P50_OF.items():
        samples = tracer.durations.get(fn)
        m[name] = statistics.median(samples) if samples else 0.0
    m["util.map_ordered.items"] = tracer.map_items
    m["util.threads2_speedup.d2"] = speedup[2]
    m["util.threads2_speedup.d3"] = speedup[3]
    m["trace.overhead_s"] = traced - untraced
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("NONLOCAL_LAB_THREADS", None)
    try:
        _import_package()
    except (Refused, ImportError) as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 2

    import numpy as np

    import cases

    workload = cases.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(cases.WORKLOADS)}",
              file=sys.stderr)
        return 2

    cpu_start, load_start = _cpu_times(), list(os.getloadavg())
    rng = np.random.default_rng(args.seed)
    kind, params = cases.WARMUP
    warm = Recorder()
    warm.run(kind, params)
    rec = Recorder()
    if args.trace:
        metrics = run_traced(workload, rng, args.seconds, rec)
        units = per_layer_units(cases.WORKLOADS)
    else:
        setup_probe(rec)  # compiles bytecode and fills the file cache
        metrics = run_untraced(workload, rng, args.seconds, rec)
        units = END_TO_END
    print("env " + json.dumps(environment(cpu_start, load_start), sort_keys=True))
    correct = warm.passed == 1 and rec.errors == 0
    result = {
        "correct": correct,
        "attempted": len(rec.times),
        "failed": len(rec.times) - rec.passed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
