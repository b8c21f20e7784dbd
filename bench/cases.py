"""Verified cases and the workloads built from them.

A case draws its parameters from the workload's random generator, calls one
public entry point of ``nonlocal_lab``, computes an independent reference (a
closed form, an identity or a round trip) and applies the tolerance of the
acceptance criterion or CLI rule that covers it.  Only ``run`` is timed.

Package functions are always reached as ``module.function`` so that the
tracer, which rebinds module attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nonlocal_lab import cli
from nonlocal_lab import closedform as cf
from nonlocal_lab import energy as en
from nonlocal_lab import model as md
from nonlocal_lab import pvquad as pq
from nonlocal_lab import regularity as rg
from nonlocal_lab import riesz as rz
from nonlocal_lab import specfun as sf
from nonlocal_lab import symcalc as sc

SPEC = pq.QuadratureSpec()
ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Outcome:
    """Verdict of one case.

    passed: the case met its tolerance.
    flagged: a failed oracle case whose own err_estimate already reported
        that the tolerance was not reached (an honest non-convergence, not a
        wrong answer).
    rel_err: relative error against the reference, None when the check is
        a predicate without a numeric reference.
    calibration: observed error divided by err_estimate (oracle cases).
    """

    passed: bool
    flagged: bool = False
    rel_err: float | None = None
    calibration: float | None = None


@dataclass(frozen=True)
class Kind:
    name: str  # e.g. "f1.d3"; the part before the dot names the check
    draw: Callable[[np.random.Generator], dict]
    run: Callable[..., Outcome]
    calibrated: bool = False  # run reports observed error / err_estimate
    # d = 4: pvquad falls back to seeded Monte Carlo, which does not reach
    # the tolerance today; a miss is a failed case, not a wrong answer
    monte_carlo: bool = False

    @property
    def check(self) -> str:
        return self.name.split(".")[0]


def _e1(d: int) -> np.ndarray:
    x = np.zeros(d)
    x[0] = 1.0
    return x


def _direction(rng: np.random.Generator, d: int) -> np.ndarray:
    """Unit vector within 45 degrees of e1, so that xhat_1 >= 0.707.

    Every reference below is proportional to xhat_1; keeping it away from 0
    keeps relative errors meaningful.  |x| = 1 fixes the patch geometry, so
    the node count of a case does not depend on the draw.
    """
    theta = rng.uniform(0.0, 0.25 * math.pi)
    w = rng.standard_normal(d - 1)
    w /= np.linalg.norm(w)
    return np.concatenate(([math.cos(theta)], math.sin(theta) * w))


def _oracle(res, ref: float, tol: float) -> Outcome:
    """Acceptance rule for a quadrature value: both the error and the
    err_estimate must meet the tolerance, relative to the reference."""
    err = abs(res.value - ref)
    bar = tol * abs(ref)
    estimate_ok = res.err_estimate <= bar
    return Outcome(
        passed=err <= bar and estimate_ok,
        flagged=not estimate_ok,
        rel_err=err / abs(ref),
        calibration=err / res.err_estimate if res.err_estimate > 0 else None,
    )


# --- pvquad oracles --------------------------------------------------------

# criteria 01, 02 (f1, f2) and 11 plus the `riesz` command (f3, f4, Riesz)
_TOL = {"f1": 1e-3, "f2": 5e-3, "f3": 1e-3, "f4": 1e-3}
F2_FLOOR = 0.1


def _draw_f(which: str, d: int, s_range=(0.25, 0.75)):
    delta_hi = 0.5 if which in ("f1", "f2") else 0.7

    def draw(rng):
        while True:
            s, delta = rng.uniform(*s_range), rng.uniform(0.1, delta_hi)
            # f2 changes sign inside the range; a relative tolerance needs
            # the reference away from 0
            if which != "f2" or abs(cf.f2_closed(d, s, delta)) >= F2_FLOOR:
                return {"which": which, "d": d, "s": s, "delta": delta}

    return draw


def _run_f(which, d, s, delta):
    res = pq.f_integral_num(which, d, s, delta, SPEC)
    if which == "f1":
        ref = cf.f1_closed(d, s, delta)
    elif which == "f2":
        ref = cf.f2_closed(d, s, delta)
    else:
        c_star, c_star_star = rz.riesz_constants(d, s, delta)
        norm = rz.riesz_kernel_constant(d, 1.0 - s)
        ref = c_star / norm if which == "f3" else c_star_star / (c_star * norm)
    return _oracle(res, ref, _TOL[which])


def _draw_riesz_pot(d):
    def draw(rng):
        return {
            "d": d,
            "s": rng.uniform(0.25, 0.75),
            "delta": rng.uniform(0.1, 0.7),
            "x": _direction(rng, d),
        }

    return draw


def _run_riesz_pot(d, s, delta, x):
    res = rz.riesz_potential_num(d, s, delta, x, SPEC)
    c_star, _ = rz.riesz_constants(d, s, delta)
    ref = c_star * float(np.linalg.norm(x)) ** (-delta) * float(x[0])
    return _oracle(res, ref, 1e-3)


def _draw_riesz_div(d):
    def draw(rng):
        delta = rng.uniform(0.1, 0.7)
        # off the coupling, where the divergence and the reference vanish,
        # as the `riesz` command probes it
        eps = min(0.9, rz.riesz_coupling(d, delta) + rng.uniform(0.15, 0.3))
        return {
            "d": d,
            "s": rng.uniform(0.25, 0.75),
            "delta": delta,
            "eps": eps,
            "x": _direction(rng, d),
        }

    return draw


def _run_riesz_div(d, s, delta, eps, x):
    res = rz.riesz_div_conv_num(d, s, delta, eps, x, SPEC)
    _, _, ref = rz.flux_divergence(d, s, delta, eps, x)
    return _oracle(res, ref, 1e-3)


def _draw_coupled(d, on_axis=False):
    def draw(rng):
        return {
            "d": d,
            "s": rng.uniform(0.3, 0.7),
            # delta = u * delta0 < delta0, so b(delta) < 1/2
            "u": rng.uniform(0.2, 0.9),
            "x": _e1(d) if on_axis else _direction(rng, d),
        }

    return draw


def _verify_bar(d, s, delta, x):
    """Scale of the `verify` command: |operator value at eps = 0|."""
    return abs(cf.operator_value(md.FracParams(d, s, delta, 0.0), x))


def _run_frac_op(d, s, u, x, tol=1e-3):
    # the `verify` command's rule: residual and estimate against the
    # eps = 0 operator magnitude, since the value at the coupling is ~0
    delta = u * cf.delta0(d, s)
    params = md.FracParams(d, s, delta, cf.b_of_delta(d, s, delta), extended=True)
    res = pq.frac_op_num(params, x, SPEC)
    kap = sf.kappa(d, s)
    closed = cf.operator_value(params, x)
    bar = tol * max(_verify_bar(d, s, delta, x), 1e-12)
    residual = abs(closed - kap * res.value)
    estimate_ok = kap * res.err_estimate <= bar
    return Outcome(
        passed=residual <= bar and estimate_ok,
        flagged=not estimate_ok,
        rel_err=residual * tol / bar,
        calibration=residual / (kap * res.err_estimate) if res.err_estimate > 0 else None,
    )


def _run_sweep(d, s, u, x, tol=1e-3):
    delta = u * cf.delta0(d, s)
    # the benchmark writes only inside its checkout
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        out = os.path.join(workdir, "sweep.csv")
        argv = ["sweep", "--d", str(d), "--s-range", f"{s!r}:{s!r}:1",
                "--delta-range", f"{delta!r}:{delta!r}:1", "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
        with open(out, encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
    cols = dict(zip(header.split(","), rows[0].split(",")))
    bar = tol * max(_verify_bar(d, s, delta, x), 1e-12)
    residual = float(cols["abs_residual"])
    ok = code == 0 and len(rows) == 1 and int(cols["nodes"]) > 0
    return Outcome(passed=ok and residual <= bar, rel_err=residual * tol / bar)


# d = 4 runs each check at one fixed point: the Monte Carlo fallback is
# seeded from the spec, so every verdict repeats on every run and seed
_X4 = np.array([math.cos(0.3), math.sin(0.3), 0.0, 0.0])
_D4_POINT = {
    "f1": {"which": "f1", "d": 4, "s": 0.5, "delta": 0.25},
    "f2": {"which": "f2", "d": 4, "s": 0.5, "delta": 0.25},
    "f3": {"which": "f3", "d": 4, "s": 0.5, "delta": 0.25},
    "f4": {"which": "f4", "d": 4, "s": 0.5, "delta": 0.25},
    "riesz_pot": {"d": 4, "s": 0.5, "delta": 0.25, "x": _X4},
    "riesz_div": {"d": 4, "s": 0.5, "delta": 0.25,
                  "eps": rz.riesz_coupling(4, 0.25) + 0.2, "x": _X4},
    "frac_op": {"d": 4, "s": 0.5, "u": 0.5, "x": _X4},
}


def _fixed(point: dict):
    def draw(rng):
        return dict(point)

    return draw


def _oracle_kinds(d: int, checks) -> list[Kind]:
    table = {
        "riesz_pot": (_draw_riesz_pot(d), _run_riesz_pot),
        "riesz_div": (_draw_riesz_div(d), _run_riesz_div),
        "frac_op": (_draw_coupled(d), _run_frac_op),
        "sweep": (_draw_coupled(d, on_axis=True), _run_sweep),
    }
    kinds = []
    for check in checks:
        if check in _TOL:
            draw, run = _draw_f(check, d), _run_f
        else:
            draw, run = table[check]
        if d == 4:
            draw = _fixed(_D4_POINT[check])
        kinds.append(Kind(f"{check}.d{d}", draw, run, calibrated=check != "sweep",
                          monte_carlo=d == 4))
    return kinds


# --- energy ----------------------------------------------------------------


def _draw_convexity(rng):
    return {
        "s": rng.uniform(0.3, 0.9),
        "eps": rng.uniform(0.0, 0.5),
        "r1": rng.uniform(0.4, 0.95),
        "r2": rng.uniform(0.4, 0.95),
    }


def _run_convexity(s, eps, r1, r2):
    # criterion 10: the parallelogram identity to 1e-10 on one node set
    params = md.FracParams(2, s, 0.0, eps)
    lhs, rhs = en.convexity_identity_check(params, en.bump_x1(r1), en.bump_x1(r2), SPEC)
    residual = abs(lhs - rhs)
    return Outcome(
        passed=residual <= 1e-10 * (abs(lhs) + 1e-12), rel_err=residual / abs(lhs)
    )


def _draw_probe(rng):
    return {"eps": rng.uniform(0.0, 0.3), "r": rng.uniform(0.5, 0.95)}


def _run_probe(eps, r):
    # criterion 10: the gap to the local energy shrinks along s -> 1
    rows = en.gamma_limit_probe(eps, en.bump_x1(r), (0.9, 0.95, 0.99), spec=SPEC)
    gaps = [row[3] for row in rows]
    finite = all(math.isfinite(g) for g in gaps)
    return Outcome(passed=finite and gaps[0] > gaps[1] > gaps[2])


# --- quadrature-free chain -------------------------------------------------


def _draw_roundtrip(rng):
    return {
        "d": int(rng.integers(2, 6)),
        "s": rng.uniform(0.1, 0.9),
        "u": rng.uniform(0.05, 0.95),  # delta = u * delta0
    }


def _run_roundtrip(d, s, u):
    # criterion 08: b(delta(eps)) returns eps to 1e-10
    delta = u * cf.delta0(d, s)
    eps = cf.b_of_delta(d, s, delta)
    back_delta = cf.delta_of_epsilon(d, s, eps)
    back_eps = cf.b_of_delta(d, s, back_delta)
    return Outcome(
        passed=abs(back_eps - eps) <= 1e-10, rel_err=abs(back_delta - delta) / delta
    )


def _draw_pipelines(d):
    def draw(rng):
        while True:
            s, delta = rng.uniform(0.25, 0.75), rng.uniform(0.1, 0.3)
            if abs(cf.f2_closed(d, s, delta)) >= F2_FLOOR:  # as for the f2 oracle
                return {"d": d, "s": s, "delta": delta}

    return draw


def _run_pipelines(d, s, delta):
    # criterion 04: the symbol pipeline replays each closed form to 1e-10
    c_star, _ = rz.riesz_constants(d, s, delta)
    pairs = (
        (sc.pipeline("f1", d, s, delta), cf.f1_closed(d, s, delta)),
        (sc.pipeline("f2", d, s, delta), cf.f2_closed(d, s, delta)),
        (sc.pipeline("riesz_f3", d, s, delta), c_star / rz.riesz_kernel_constant(d, 1.0 - s)),
    )
    rel = max(abs(got - want) / abs(want) for got, want in pairs)
    return Outcome(passed=rel <= 1e-10, rel_err=rel)


def _draw_d2_bounds(rng):
    s = rng.uniform(0.1, 0.9)
    # the upper bound exists for delta < 2 s^2 / (1 - s)
    hi = min(0.5, 0.95 * 2.0 * s * s / (1.0 - s))
    return {"s": s, "delta": rng.uniform(0.2 * hi, hi)}


def _run_d2_bounds(s, delta):
    # criterion 06: lower <= epsilon <= upper, epsilon equal to b(delta)
    eps, lower, upper = cf.d2_epsilon_and_bounds(s, delta)
    ref = cf.b_of_delta(2, s, delta)
    ok = upper is not None and lower <= eps <= upper
    return Outcome(passed=ok, rel_err=abs(eps - ref) / ref)


def _draw_riesz_bracket(rng):
    d = int(rng.choice((2, 3, 5)))
    return {
        "d": d,
        "s": rng.uniform(0.1, 0.9),
        "delta": rng.uniform(0.1, 0.5),
        "probe": rng.uniform(0.1, 0.3),
        "x": _direction(rng, d),
    }


def _run_riesz_bracket(d, s, delta, probe, x):
    # the `riesz` command: the divergence vanishes at the coupling (1e-14);
    # criterion 11: off the coupling it matches central differences of the
    # flux (1e-6)
    eps = rz.riesz_coupling(d, delta)
    _, div_at, _ = rz.flux_divergence(d, s, delta, eps, x)
    eps_probe = min(0.9, eps + probe)
    _, div, _ = rz.flux_divergence(d, s, delta, eps_probe, x)
    h, fd = 1e-5, 0.0
    for i in range(d):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd += (
            rz.flux_divergence(d, s, delta, eps_probe, xp)[0][i]
            - rz.flux_divergence(d, s, delta, eps_probe, xm)[0][i]
        ) / (2.0 * h)
    rel = abs(div - fd) / abs(div)
    return Outcome(passed=abs(div_at) <= 1e-14 and rel <= 1e-6, rel_err=rel)


def _draw_ellipticity(rng):
    d = int(rng.choice((2, 3, 5)))
    return {
        "d": d,
        "s": rng.uniform(0.1, 0.9),
        "eps": rng.uniform(0.0, 0.5),
        "x": _direction(rng, d),
    }


def _run_ellipticity(d, s, eps, x):
    # criterion 07: ellipticity window and log-norm bound; the analytic
    # eigenvalues against those of the assembled matrix at x
    params = md.FracParams(d, s, 0.0, eps)
    lam_rad, lam_tan = md.coeff_eigen("fractional", params)
    ok = 0.25 <= lam_tan <= lam_rad <= 1.0 + (d - 1) / 4.0
    ok = ok and md.log_coeff_norm(params) <= 0.5 * (1 + d + 4 * s) * eps
    got = md.coeff_matrix("fractional", params, x).eigenvalues()
    want = np.array([lam_tan] * (d - 1) + [lam_rad])
    rel = float(np.max(np.abs(np.sort(got) - np.sort(want)) / np.abs(want)))
    return Outcome(passed=ok and rel <= 1e-12, rel_err=rel)


# criterion 09's grid; the witness runs at its public defaults
_REGULARITY_GRID = [
    (delta, t, q)
    for delta in (0.0, 0.15, 0.3, 0.45, 0.5)
    for t in (0.3, 0.55, 0.75, 0.9, 0.97)
    for q in (1.5, 4.0)
]


def _draw_regularity(rng):
    delta, t, q = _REGULARITY_GRID[int(rng.integers(len(_REGULARITY_GRID)))]
    return {"delta": delta, "t": t, "q": q}


def _run_regularity(delta, t, q):
    res = rg.dyadic_seminorm(2, delta, t, q)
    return Outcome(passed=(res.verdict == "converging") == rg.membership(2, delta, t, q))


def _times(n, kinds):
    return [k for k in kinds for _ in range(n)]


# One chain case runs every quadrature-free check above in a fixed mix.
# These checks are scalar Python and run up to 1.8x slower while the shared
# host is busy, against 1.1-1.3x for the numpy-bound kinds; as single
# millisecond cases they would set the median of their workload and make it
# swing with the host, so they are timed together as one ~0.1 s case.
CHAIN_PARTS = tuple(
    [Kind("regularity", _draw_regularity, _run_regularity)]
    + _times(2, [Kind(f"pipelines.d{d}", _draw_pipelines(d), _run_pipelines)
                 for d in (2, 3, 5)])
    + _times(4, [Kind("roundtrip", _draw_roundtrip, _run_roundtrip)])
    + _times(2, [Kind("d2_bounds", _draw_d2_bounds, _run_d2_bounds),
                 Kind("riesz_bracket", _draw_riesz_bracket, _run_riesz_bracket),
                 Kind("ellipticity", _draw_ellipticity, _run_ellipticity)])
)


def _draw_chain(rng):
    return {"parts": [(kind, kind.draw(rng)) for kind in CHAIN_PARTS]}


def _run_chain(parts):
    outcomes = [kind.run(**params) for kind, params in parts]
    errs = [o.rel_err for o in outcomes if o.rel_err is not None]
    return Outcome(passed=all(o.passed for o in outcomes), rel_err=max(errs))


# --- workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A fixed multiset of kinds per round.

    Every round has the same composition, so the pass ratio does not depend
    on how many rounds a run completes, and percentiles stay inside one
    cost cluster.  round_s and traced_round_s are nominal round times on a
    2-vCPU x86 host; they only size the traced run.
    """

    name: str
    round: tuple[Kind, ...]
    round_s: float
    traced_round_s: float


ORACLE_CHECKS = ("f1", "f2", "f3", "f4", "riesz_pot", "riesz_div", "frac_op")
_D2 = {k.check: k for k in _oracle_kinds(2, ORACLE_CHECKS + ("sweep",))}
_D4 = {k.check: k for k in _oracle_kinds(4, ORACLE_CHECKS)}

WORKLOADS = {
    w.name: w
    for w in (
        # the four cheapest d = 2 kinds twice, so the median sits inside
        # their cluster and the tail inside that of f2 and the sweep
        Workload(
            "oracle-d2",
            tuple(
                _times(2, [_D2[c] for c in ("f3", "f4", "riesz_pot", "riesz_div")])
                + [_D2[c] for c in ("f1", "f2", "frac_op", "sweep")]
            ),
            round_s=1.3,
            traced_round_s=1.4,
        ),
        # Each d = 3 case takes 1.5-3 s and each d = 4 case 0.08-0.14 s.
        # The five cheapest d = 4 kinds run three times, so that with two
        # rounds the median sits inside their cluster (30 of 48 cases) and
        # the tail inside the d = 3 cluster (14 cases).
        Workload(
            "oracle-nd",
            tuple(
                _oracle_kinds(3, ORACLE_CHECKS)
                + _times(3, [_D4[c] for c in ("f1", "f3", "f4", "riesz_pot", "riesz_div")])
                + [_D4["f2"], _D4["frac_op"]]
            ),
            round_s=14.5,
            traced_round_s=15.0,
        ),
        # No pv_integral call, so pvquad changes should show nothing here.
        # Convexity (1.3-1.6 s) runs twice a round and the probe (1.4-1.8 s)
        # once, so with 6-7 rounds the median and the tail (p58-p64) both
        # fall among these energy cases, well above the chain case (~0.07 s).
        Workload(
            "pv-free",
            tuple(
                _times(2, [Kind("convexity", _draw_convexity, _run_convexity)])
                + [Kind("probe", _draw_probe, _run_probe), Kind("chain", _draw_chain, _run_chain)]
            ),
            round_s=4.5,
            traced_round_s=4.7,
        ),
    )
}

# warm-up case, the same d = 2 f1 case the set-up probe runs
WARMUP = (_D2["f1"], {"which": "f1", "d": 2, "s": 0.5, "delta": 0.25})
