"""Gamma-function closed forms: f1, f21, f2, the operator value, the coupling.

The anisotropic fractional operator applied to the homogeneous field reduces
to a Gamma-ratio prefactor times a bracket that is affine in epsilon.  The
coupling b(delta) is the epsilon that kills the bracket; it is strictly
increasing, maps [0, delta0] onto [0, 1/2], and is inverted here by bisection.
All Gamma ratios go through log space with sign tracking.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .model import FracParams, _check_range, _coeffs, _point, homogeneous_field
from .specfun import gamma_ratio, lgamma_signed

__all__ = [
    "f1_closed",
    "f21_closed",
    "f21_sum_form",
    "f2_closed",
    "operator_bracket",
    "operator_value",
    "b_denominator",
    "b_of_delta",
    "delta0",
    "delta_of_epsilon",
    "d2_epsilon_and_bounds",
    "d2_G",
    "coupling_L",
    "classical_epsilon",
    "empirical_coupling_ratio",
]

# Treat the coupling denominator as singular below this.
_DENOM_TOL = 1e-13


def _ctilde(d: int, s: float, delta: float) -> float:
    """Gamma prefactor of the operator value; equals 1 in the limit s -> 1."""
    return gamma_ratio(
        (0.5 * d - 0.5 * delta, 0.5 * delta + s),
        (0.5 * d - s + 1.0 - 0.5 * delta, 1.0 + 0.5 * delta),
    )


def f1_closed(d: int, s: float, delta: float) -> float:
    """Isotropic part of the operator at e1, divided by -2 kappa."""
    _check_range(d, s, delta)
    if delta == 0.0:
        return 0.0
    lg_neg_s, _ = lgamma_signed(-s)  # |Gamma(-s)| carries the sign already
    ratio = gamma_ratio(
        (1.0 - 0.5 * delta + 0.5 * d, s + 0.5 * delta),
        (1.0 - 0.5 * delta + 0.5 * d - s, 1.0 + 0.5 * delta),
    )
    lg_ds, _ = lgamma_signed(0.5 * d + s)
    # 2^(2s-1)/kappa = pi^(d/2) |Gamma(-s)| / Gamma(d/2+s)
    prefactor = math.exp(0.5 * d * math.log(math.pi) + lg_neg_s - lg_ds)
    return -prefactor * ratio * 0.5 * delta


def f21_sum_form(d: int, s: float, delta: float) -> float:
    """Six-term sum form of the rational factor f21."""
    _check_range(d, s, delta, s_one=True)
    a = d + 2.0 * s
    b = d - 2.0 * s + 2.0 - delta
    t = 2.0 * s + delta
    return (
        -2.0 * (1.0 - s) * (t - 3.0) * (t - 1.0) / (a * b)
        + (1.0 - s) * (t - 3.0) / b
        + (t - 1.0) * t / a
        - (a + 3.0) * (t - 1.0) / a
        + (a - 1.0) / 2.0
        - (d - 2.0 * s - delta) * t / (2.0 * s * a)
    )


def f21_closed(d: int, s: float, delta: float) -> float:
    """Rational factor f21; the sum form is evaluated alongside as a guard.

    The numerator is written as (d - delta) [delta (delta - d - 2) + s P],
    the O(1) parts that cancel as s -> 0 taken out by hand, so that it
    keeps its digits at small s.
    """
    _check_range(d, s, delta, s_one=True)
    p = (d - 1.0) * (d + 2.0) - 2.0 * delta * (d + 1.0 - delta) + 2.0 * s * (1.0 - d + 2.0 * delta)
    num = (d - delta) * (delta * (delta - d - 2.0) + s * p)
    den = 2.0 * s * (d + 2.0 * s) * (d - 2.0 * s + 2.0 - delta)
    value = num / den
    other = f21_sum_form(d, s, delta)
    if abs(value - other) > 1e-12 * max(1.0, abs(value)):
        raise AssertionError(
            f"f21 forms disagree at (d={d}, s={s}, delta={delta}): {value} vs {other}"
        )
    return value


def f2_closed(d: int, s: float, delta: float) -> float:
    """Anisotropic part of the operator at e1 (two-term Gamma expression)."""
    _check_range(d, s, delta)
    front = 0.5 * math.pi ** (0.5 * d) * gamma_ratio((1.0 - s,), (0.5 * d + s,))
    iso = gamma_ratio((0.5 * d, s), (0.5 * d - s,)) * (d - 1.0) / (d + 2.0 * s)
    return front * (_ctilde(d, s, delta) * f21_closed(d, s, delta) - iso)


def operator_bracket(d: int, s: float, delta: float, epsilon: float) -> float:
    """The bracket (d - delta) delta a_iso - b_rad X, whose root in epsilon is the coupling.

    (a_iso, b_rad) is the fractional pair at epsilon, and X, the radial
    term's factor, does not depend on epsilon, so the bracket is affine in it.
    """
    _check_range(d, s, delta, epsilon, extended=True)
    a_iso, b_rad = _coeffs("fractional", d, s, epsilon)
    ct_ratio = _ctilde(d, s, 0.0) / _ctilde(d, s, delta)
    radial = 2.0 * s * f21_closed(d, s, delta) - (
        ct_ratio * s * (d - 1.0) * (d - 2.0 * s) / (d + 2.0 * s)
    )
    return (d - delta) * delta * a_iso - b_rad * radial


def operator_value(params: FracParams, x) -> float:
    """Pointwise value of the operator applied to the homogeneous field.

    Equals (2^(2s) ctilde / 4) * bracket * |x|^(1-2s-delta) * xhat_1; zero for
    every x exactly when epsilon = b_of_delta(d, s, delta).  x = 0, a point
    holding nan or inf, and one whose |x| overflows raise DomainError, as in
    the quadrature oracles, as does a point that is not in R^d.
    """
    _point(x, params.d)
    d, s, delta = params.d, params.s, params.delta
    bracket = operator_bracket(d, s, delta, params.epsilon)
    prefactor = 0.25 * 2.0 ** (2.0 * s) * _ctilde(d, s, delta)
    return prefactor * bracket * homogeneous_field(1.0 - 2.0 * s - delta, x)


def b_denominator(d: int, s: float, delta: float) -> float:
    """Denominator b1(delta) of the coupling; positive on [0, delta0]."""
    _check_range(d, s, delta)
    ratio = gamma_ratio(
        (0.5 * d, s + 1.0, 0.5 * d - s - 0.5 * delta + 2.0, 1.0 + 0.5 * delta),
        (0.5 * d - s, 0.5 * d - 0.5 * delta + 1.0, 0.5 * delta + s),
    )
    return (d - 1.0) * s * (d - 2.0 * s + 2.0) - 2.0 * (d - 1.0) * ratio


def _b_or_inf(d: int, s: float, delta: float) -> float:
    den = b_denominator(d, s, delta)
    if den <= _DENOM_TOL:
        return math.inf
    return 2.0 * (d - 2.0 * s + 2.0 - delta) * delta / den


def b_of_delta(d: int, s: float, delta: float) -> float:
    """Coupling epsilon = b(delta) making the homogeneous field a solution."""
    b = _b_or_inf(d, s, delta)
    if b == math.inf:
        raise DomainError(
            f"coupling denominator non-positive at delta={delta!r} (past delta0)"
        )
    return b


def _bisect_b(d: int, s: float, target: float, hi: float, tol: float) -> float:
    """The delta in [0, hi] with b(delta) = target, to width tol.

    b is strictly increasing while its denominator is positive, and
    _b_or_inf is +inf past that, so bisection on b < target brackets it.
    """
    lo = 0.0
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if _b_or_inf(d, s, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def delta0(d: int, s: float) -> float:
    """Right endpoint of the bijection interval: the delta with b(delta) = 1/2.

    Resolved by bisection; capped at 1/2.
    """
    _check_range(d, s)
    if _b_or_inf(d, s, 0.5) < 0.5:
        return 0.5
    return _bisect_b(d, s, 0.5, 0.5, 1e-12)


def delta_of_epsilon(d: int, s: float, epsilon: float) -> float:
    """Inverse of the coupling on [0, delta0], by monotone bisection."""
    _check_range(d, s, epsilon=epsilon)
    if epsilon == 0.0:
        return 0.0
    return _bisect_b(d, s, epsilon, delta0(d, s), 1e-15)


def d2_G(s: float, delta: float) -> float:
    """Gamma-ratio helper of the two-dimensional coupling; lies in (0, 1/2]."""
    _check_range(2, s, delta)
    return gamma_ratio(
        (s + 1.0, 3.0 - s - 0.5 * delta, 1.0 + 0.5 * delta),
        (3.0 - s, 3.0 - 0.5 * delta, s + 1.0 + 0.5 * delta),
    )


def coupling_L(d: int, s: float, delta: float) -> float:
    """Gamma-ratio factor of the coupling denominator; strictly increasing."""
    _check_range(d, s, delta)
    return gamma_ratio(
        (2.0 + 0.5 * d - s - 0.5 * delta, 1.0 + 0.5 * delta),
        (1.0 + 0.5 * d - 0.5 * delta, s + 0.5 * delta),
    )


def d2_epsilon_and_bounds(s: float, delta: float) -> tuple[float, float, float | None]:
    """Two-dimensional coupling plus its elementary lower/upper bounds.

    The upper bound exists only for delta < 2 s^2 / (1 - s); when present the
    sandwich lower <= epsilon <= upper holds in exact arithmetic.
    """
    _check_range(2, s, delta)
    num = 2.0 * (2.0 - s - 0.5 * delta) * delta
    ratio = gamma_ratio(
        (s + 1.0, 3.0 - s - 0.5 * delta, 1.0 + 0.5 * delta),
        (1.0 - s, 2.0 - 0.5 * delta, s + 0.5 * delta),
    )
    den = s * (2.0 - s) - ratio
    if den <= _DENOM_TOL:
        raise DomainError(f"coupling denominator non-positive at delta={delta!r}")
    eps = num / den
    lower = num / (s * (2.0 - s))
    upper = None
    if delta < 2.0 * s * s / (1.0 - s):
        upper = num / ((2.0 - s) * (s - (1.0 - s) * (s + 0.5 * delta)))
    cross = b_of_delta(2, s, delta)
    if abs(eps - cross) > 1e-12 * max(1.0, abs(eps)):
        raise AssertionError(
            f"d=2 coupling disagrees with the general formula: {eps} vs {cross}"
        )
    if not lower <= eps or (upper is not None and not eps <= upper):
        raise AssertionError(
            f"coupling bounds violated at (s={s}, delta={delta}): "
            f"{lower} <= {eps} <= {upper}"
        )
    return eps, lower, upper


def classical_epsilon(d: int, delta: float) -> float:
    """Coupling of the local model: (d - delta) delta / (d - 1)."""
    _check_range(d, delta=delta)
    return (d - delta) * delta / (d - 1.0)


def empirical_coupling_ratio(d: int, s: float, n: int = 100) -> float:
    """sup b(delta)/delta over a grid of (0, delta0]; an observed Lipschitz bound."""
    d0 = delta0(d, s)
    sup = 0.0
    for k in range(1, n + 1):
        delta = d0 * k / n
        sup = max(sup, b_of_delta(d, s, delta) / delta)
    return sup
