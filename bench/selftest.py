"""Self-test of the benchmark; run from the root of a checkout:

    python3 bench/selftest.py

It checks that the generators stay in the domain of the functions they feed,
that every metric named in BENCHMARK.json is emitted with its unit, that each
workload reaches the layers it exercises and none that it bypasses, that
traced counts repeat exactly for equal seeds, and that the benchmark refuses
to run without the checkout's own package.  Exits 1 on the first failure.
It takes about two minutes on a 2-vCPU host.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import cases  # noqa: E402
from nonlocal_lab import closedform as cf  # noqa: E402
from nonlocal_lab import riesz as rz  # noqa: E402

# layers each workload must reach, and layers it must never call
REACHES = {
    "oracle-d2": {"pvquad", "riesz", "closedform", "specfun", "cli", "util"},
    "oracle-nd": {"pvquad", "riesz", "closedform", "specfun", "util"},
    "pv-free": {"energy", "specfun", "util", "closedform", "symcalc", "model", "riesz",
                "regularity"},
}
BYPASSES = {
    "oracle-d2": {"energy", "symcalc", "regularity"},
    "oracle-nd": {"energy", "symcalc", "regularity", "cli"},
    "pv-free": {"pvquad", "cli"},
}


def _unit_near_e1(x, d):
    return x.shape == (d,) and abs(float(np.linalg.norm(x)) - 1.0) < 1e-12 and x[0] >= 0.7


def in_domain(check: str, p: dict) -> bool:
    """Domain of the entry point each check calls, for one draw."""
    d = p.get("d", 2)
    if "s" in p and not 0.0 < p["s"] < 1.0:
        return False
    if check == "f2":
        return 0.0 < p["delta"] <= 0.5 and abs(cf.f2_closed(d, p["s"], p["delta"])) >= cases.F2_FLOOR
    if check == "f1":
        return 0.0 < p["delta"] <= 0.5
    if check in ("f3", "f4", "riesz_pot"):
        return 0.0 < p["delta"] < 0.5 * d and ("x" not in p or _unit_near_e1(p["x"], d))
    if check == "riesz_div":
        return 0.0 < p["delta"] < 0.5 * d and 0.0 < p["eps"] < 1.0 and _unit_near_e1(p["x"], d)
    if check in ("frac_op", "sweep"):
        # delta < delta0 at the coupling, so b(delta) < 1/2
        delta = p["u"] * cf.delta0(d, p["s"])
        return 0.0 < p["u"] < 1.0 and 0.0 < cf.b_of_delta(d, p["s"], delta) < 0.5
    if check == "roundtrip":
        return 0.0 < p["u"] < 1.0
    if check == "pipelines":
        # s + delta/2 = 1 is a Gamma pole of the f2 pipeline at d = 2
        return (0.0 < p["delta"] <= 0.5 and p["s"] + 0.5 * p["delta"] < 0.95
                and abs(cf.f2_closed(d, p["s"], p["delta"])) >= cases.F2_FLOOR)
    if check == "d2_bounds":
        return 0.0 < p["delta"] < 2.0 * p["s"] ** 2 / (1.0 - p["s"])
    if check == "riesz_bracket":
        eps = rz.riesz_coupling(d, p["delta"])
        return 0.0 < eps < 1.0 and eps + p["probe"] < 1.0 and _unit_near_e1(p["x"], d)
    if check == "ellipticity":
        return 0.0 <= p["eps"] <= 0.5 and _unit_near_e1(p["x"], d)
    if check == "regularity":
        return (p["delta"], p["t"], p["q"]) in cases._REGULARITY_GRID
    if check == "convexity":
        return 0.0 <= p["eps"] <= 0.5 and all(0.0 < p[r] < 1.0 for r in ("r1", "r2"))
    if check == "probe":
        return 0.0 <= p["eps"] <= 0.5 and 0.0 < p["r"] < 1.0
    if check == "chain":
        return all(in_domain(kind.check, params) for kind, params in p["parts"])
    raise KeyError(check)


def check_generators() -> None:
    for w in cases.WORKLOADS.values():
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for _ in range(max(1, 200 // len(w.round))):
                for kind in w.round:
                    p = kind.draw(rng)
                    if not in_domain(kind.check, p):
                        raise AssertionError(f"{w.name}/{kind.name} drew {p} outside its domain")
    print("ok: generators stay in the domain")


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds: int = 1):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        raise AssertionError(f"{what}: not correct\n{proc.stderr[-2000:]}")
    return result


def check_metrics(spec: dict) -> None:
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        name = w["name"]
        end = result_of(run_bench(name, 0), f"{name} untraced")
        traced = [result_of(run_bench(name, 1), f"{name} traced") for _ in range(2)]
        for trace, result in ((0, end), (1, traced[0])):
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                raise AssertionError(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                                     f"{sorted(set(got) ^ set(want[trace]))}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    raise AssertionError(f"{name}: {k} = {v['value']!r}")
        for k, v in end["metrics"].items():
            if v["value"] == 0:
                raise AssertionError(f"{name}: end-to-end metric {k} is 0")
        m = traced[0]["metrics"]
        for layer in REACHES[name]:
            if m[f"{layer}.calls"]["value"] == 0:
                raise AssertionError(f"{name} does not reach {layer}")
        for layer in BYPASSES[name]:
            if m[f"{layer}.calls"]["value"] != 0:
                raise AssertionError(f"{name} calls {layer}, which it should bypass")
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"}
                  for t in traced]
        if counts[0] != counts[1] or traced[0]["attempted"] != traced[1]["attempted"]:
            raise AssertionError(f"{name}: traced counts differ for one seed: "
                                 f"{ {k: (v, counts[1][k]) for k, v in counts[0].items() if counts[1][k] != v} }")
        print(f"ok: {name} emits every metric, reaches {sorted(REACHES[name])}, "
              f"bypasses {sorted(BYPASSES[name])}, traced counts repeat")


def check_refusal() -> None:
    """A copy that holds only BENCHMARK.json and bench/ has no package; once
    its src/nonlocal_lab links to this checkout's package, the import
    resolves outside the copy.  Both must exit non-zero and print nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        _expect_refusal(bare, "a bare directory")
        (bare / "src").mkdir()
        (bare / "src" / "nonlocal_lab").symlink_to(ROOT / "src" / "nonlocal_lab")
        _expect_refusal(bare, "a package outside the checkout")
    print("ok: refuses to run without the checkout's package")


def _expect_refusal(cwd: Path, what: str) -> None:
    proc = run_bench("pv-free", 0, cwd=cwd)
    if proc.returncode == 0 or proc.stdout.strip() or "refusing" not in proc.stderr:
        raise AssertionError(f"ran against {what}: exit {proc.returncode}, {proc.stdout!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_generators()
        check_refusal()
        check_metrics(spec)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
