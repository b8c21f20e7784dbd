"""Fractional-gradient model: Riesz potentials, flux, divergence, coupling.

The model composes the Riesz potential I_(1-s) with the classical gradient.
Applied to the homogeneous field |x|^(s-delta) x1/|x|, every object in the
chain is again a homogeneous field with a Gamma-function constant:

    grad^s u = c* |x|^(-delta) (e1 - delta xhat xhat_1)
    div(M^2 grad^s u) = c* [bracket] |x|^(-delta-1) xhat_1
    I_(1-s) * div(...) = c** [bracket] |x|^(-s-delta) xhat_1

with bracket = -delta(1-delta) + (1-delta-(1-eps)^2)(d-1) and M the
rank-one-perturbed identity of the local model.  The coupling makes the
bracket vanish; both constants tend to 1 as s -> 1.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import DomainError
from .model import _check_range, _point, _point_power
from .pvquad import PVResult, QuadratureSpec, _on_axis, _potential_even
from .specfun import gamma_ratio

__all__ = [
    "riesz_kernel_constant",
    "riesz_constants",
    "frac_gradient",
    "flux_divergence",
    "riesz_coupling",
    "riesz_potential_num",
    "riesz_div_conv_num",
]


def riesz_kernel_constant(d: int, alpha: float) -> float:
    """Normalization of I_alpha: 2^(-alpha) G((d-alpha)/2) / (pi^(d/2) G(alpha/2))."""
    _check_range(d)
    if not 0.0 < alpha < d:
        raise DomainError(f"potential order must lie in (0, d), got {alpha!r}")
    ratio = gamma_ratio((0.5 * (d - alpha),), (0.5 * alpha,))
    return 2.0 ** (-alpha) * ratio / math.pi ** (0.5 * d)


def riesz_constants(d: int, s: float, delta: float) -> tuple[float, float]:
    """(c*, c**): potential and double-potential constants of the chain."""
    _check_range(d, s, delta, riesz=True)
    c_star = 2.0 ** (s - 1.0) * gamma_ratio(
        (0.5 * (d + s - delta + 1.0), 0.5 * delta),
        (0.5 * (d - delta + 2.0), 0.5 * (-s + delta + 1.0)),
    )
    c_star_star = c_star * 2.0 ** (s - 1.0) * gamma_ratio(
        (0.5 * (d - delta), 0.5 * (s + delta + 1.0)),
        (0.5 * (d - s - delta + 1.0), 0.5 * (delta + 2.0)),
    )
    return c_star, c_star_star


def frac_gradient(d: int, s: float, delta: float, x) -> np.ndarray:
    """grad^s of the homogeneous field: c* |x|^(-delta) (e1 - delta xhat xhat_1)."""
    _check_range(d, s, delta, riesz=True)
    x, r = _point(x, d)
    xh = x / r
    c_star, _ = riesz_constants(d, s, delta)
    e1 = np.zeros(d)
    e1[0] = 1.0
    return c_star * _point_power(r, -delta) * (e1 - delta * xh[0] * xh)


def _bracket(d: int, delta: float, epsilon: float) -> float:
    return -delta * (1.0 - delta) + (1.0 - delta - (1.0 - epsilon) ** 2) * (d - 1.0)


def flux_divergence(
    d: int, s: float, delta: float, epsilon: float, x
) -> tuple[np.ndarray, float, float]:
    """(flux, div, potential-smoothed div) of the model chain at x != 0."""
    _check_range(d, s, delta, epsilon, riesz=True)
    x, r = _point(x, d)
    xh = x / r
    c_star, c_star_star = riesz_constants(d, s, delta)
    e1 = np.zeros(d)
    e1[0] = 1.0
    sq = (1.0 - epsilon) ** 2
    flux = c_star * _point_power(r, -delta) * (sq * e1 + (1.0 - delta - sq) * xh[0] * xh)
    br = _bracket(d, delta, epsilon)
    div = c_star * _point_power(r, -delta - 1.0) * br * xh[0]
    riesz_div = c_star_star * br * _point_power(r, -s - delta) * xh[0]
    return flux, div, riesz_div


def riesz_coupling(d: int, delta: float) -> float:
    """epsilon killing the divergence bracket: 1 - sqrt(1 - delta - delta(1-delta)/(d-1))."""
    _check_range(d, delta=delta, riesz=True)
    if d == 2:
        # the radicand completes to (1 - delta)^2, so the value is delta
        return delta
    radicand = 1.0 - delta - delta * (1.0 - delta) / (d - 1.0)
    if radicand < 0.0:
        raise DomainError(f"coupling undefined: negative radicand {radicand!r}")
    return 1.0 - math.sqrt(radicand)


def riesz_potential_num(
    d: int, s: float, delta: float, x, spec: QuadratureSpec
) -> PVResult:
    """Quadrature of (I_(1-s) * u_(s,delta))(x); oracle for the c* chain."""
    _check_range(d, s, delta, riesz=True)
    norm = riesz_kernel_constant(d, 1.0 - s)
    return _on_axis(partial(_potential_even, d, s, s - delta), d, x, spec, norm, 1.0 - delta)


def riesz_div_conv_num(
    d: int, s: float, delta: float, epsilon: float, x, spec: QuadratureSpec
) -> PVResult:
    """Quadrature of (I_(1-s) * div(M^2 grad^s u))(x) from the analytic div field."""
    _check_range(d, s, delta, epsilon, riesz=True)
    norm = riesz_kernel_constant(d, 1.0 - s)
    c_star, _ = riesz_constants(d, s, delta)
    factor = norm * c_star * _bracket(d, delta, epsilon)
    return _on_axis(partial(_potential_even, d, s, -1.0 - delta), d, x, spec, factor, -s - delta)
