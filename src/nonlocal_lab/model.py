"""Geometric objects of the model: solution fields, coefficient matrices, kernel.

The solution family is the homogeneous field |x|^p * x1/|x| (p = 1 - delta for
the difference model, p = s - delta for the Riesz model).  Coefficient fields
come in two parametric families, both rank-one perturbations of the identity
along the radial direction:

    classical   : (1 - eps) I + eps xhat (x) xhat
    fractional  : (1 - (1+2s)/2 eps) I + (d+2s)/2 eps xhat (x) xhat

and the jump kernel weights |x-y|^(-d-2s) by the averaged quadratic form of
the fractional field at the endpoints.  This module is the one place that
defines the field, the kernel, the coefficient pair and the parameter ranges;
every other module goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "FracParams",
    "SymMatrix",
    "homogeneous_field",
    "coeff_matrix",
    "coeff_eigen",
    "kernel_eval",
    "log_coeff_norm",
]

# |x| below this is treated as the singular point rather than normalized.
_ORIGIN_GUARD = 1e-300
# The least normal float: a point's x . x must reach it to keep |x|'s digits.
_NORMAL_MIN = float(np.finfo(float).tiny)


def _check_range(
    d, s=None, delta=None, epsilon=None, *, riesz=False, extended=False, s_one=False
) -> None:
    """Raise DomainError unless the parameters lie in the range of the model.

    d is an integer >= 2 and s lies in (0, 1); s_one admits s = 1, where the
    rational factor f21 stays finite.  The difference model takes delta in
    [0, 1/2] and epsilon in [0, 1/2], or in [0, inf) with extended; the
    Riesz model (riesz=True) takes delta in (0, d/2), delta = 0 being a pole
    of its constants, and epsilon in (0, 1).  A parameter given as None is
    not checked.
    """
    if int(d) != d or d < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {d!r}")
    if s is not None and not (0.0 < s < 1.0 or (s_one and s == 1.0)):
        raise DomainError(f"order s must lie in (0, {'1]' if s_one else '1)'}, got {s!r}")
    if riesz:
        if delta is not None and not 0.0 < delta < 0.5 * d:
            raise DomainError(f"delta must lie in (0, d/2), got {delta!r}")
        if epsilon is not None and not 0.0 < epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
        return
    if delta is not None and not 0.0 <= delta <= 0.5:
        raise DomainError(f"delta must lie in [0, 1/2], got {delta!r}")
    if epsilon is not None and not (0.0 <= epsilon < math.inf and (extended or epsilon <= 0.5)):
        hi = "inf)" if extended else "1/2]"
        raise DomainError(f"epsilon must lie in [0, {hi}, got {epsilon!r}")


@dataclass(frozen=True)
class FracParams:
    """Parameter tuple (d, s, delta, epsilon) of the difference model.

    delta and epsilon lie in [0, 1/2].  extended=True widens epsilon's
    range to [0, inf): the coupling b(delta) exceeds 1/2 for small s, and
    the solution identity extends to every finite epsilon >= 0 because the
    kernel is affine in epsilon; the comparability constants and
    positive-definiteness guarantees then no longer apply and are not
    asserted.  The Riesz model's entry points take their parameters as
    scalars.
    """

    d: int
    s: float
    delta: float = 0.0
    epsilon: float = 0.0
    extended: bool = False

    def __post_init__(self):
        _check_range(self.d, self.s, self.delta, self.epsilon, extended=self.extended)


@dataclass(frozen=True)
class SymMatrix:
    """Dense d x d symmetric matrix value of a coefficient field."""

    d: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.shape != (self.d, self.d):
            raise DomainError(f"expected shape {(self.d, self.d)}, got {a.shape}")
        if not np.array_equal(a, a.T):
            raise DomainError("matrix entries are not exactly symmetric")
        object.__setattr__(self, "entries", a)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)


def _norm(x: np.ndarray) -> float:
    return math.sqrt(float(np.dot(x, x)))


def _point(x, d: int, *, origin: bool = False) -> tuple[np.ndarray, float]:
    """(x as a float array, |x|) of a point x of R^d: the one point guard.

    DomainError for any shape but (d,), at a nan or inf coordinate, and where
    x . x is not a normal float: at the origin, and where an overflowing or
    subnormal x . x would cost |x| its value or its digits, so that about
    1.5e-154 < |x| < 1.3e154.  origin=True admits x = 0, with |x| = 0.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise DomainError(f"x must be a point in R^{d}, got shape {x.shape}")
    if origin and not x.any():
        return x, 0.0
    with np.errstate(over="ignore"):
        square = float(np.dot(x, x))
    if not _NORMAL_MIN <= square < math.inf:
        raise DomainError(f"x must be a finite point with x . x a normal float, got {x.tolist()}")
    return x, math.sqrt(square)


def _point_power(r: float, p: float) -> float:
    """r^p of a point's norm r from _point; DomainError where it overflows."""
    try:
        return r**p
    except OverflowError:
        raise DomainError(f"|x|^{p!r} overflows at |x| = {r!r}") from None


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i, b_i> for each row pair of two (n, d) arrays, summed column by column.

    For d <= 7 this adds in the order of np.sum(a * b, axis=1), so it gives
    the same bits, at a fraction of the cost of numpy's reduction over
    short rows; for longer rows numpy sums pairwise and the last bits can
    differ.
    """
    out = a[:, 0] * b[:, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j] * b[:, j]
    return out


def _norms(pts: np.ndarray) -> np.ndarray:
    """|z| for each row z of an (n, d) array."""
    return np.sqrt(_rowdot(pts, pts))


def _safe_norms(pts: np.ndarray) -> np.ndarray:
    """max(|z|, _ORIGIN_GUARD) for each row z of an (n, d) array: |z| where it divides."""
    return np.maximum(_norms(pts), _ORIGIN_GUARD)


def _power(log_r: np.ndarray, alpha: float) -> np.ndarray:
    """exp(alpha log_r), i.e. r^alpha, for each log-norm log_r, as a new array.

    One multiply and one exponential, both in place, where r ** alpha would
    take a pow per row: the kernel and the field share it, and the oracles
    cache log_r per row.
    """
    out = np.multiply(log_r, alpha)
    return np.exp(out, out=out)


def _field(p: float, z1: np.ndarray, log_r: np.ndarray) -> np.ndarray:
    """|z|^(p-1) z1 for each point z, from its first coordinates z1 and log_r = log|z|.

    The field as exp((p-1) log|z|) z1, with |z| from _safe_norms.  The
    caller passes log|z| because the oracles cache it per plan row and the
    kernel takes it too.  z1 and log_r broadcast to the shape of the
    result.  Quadrature never samples z = 0, because its singular points
    are patched.  At z = 0 the row gives 0 for p >= 1, as homogeneous_field
    does; for p < 1 the field has no value there, and the row holds 0 or
    nan depending on p.
    """
    out = _power(log_r, p - 1.0)
    out *= z1
    return out


def homogeneous_field(p: float, x) -> float:
    """|x|^(p-1) * x1, i.e. |x|^p * xhat_1, at one point; odd and p-homogeneous.

    The one-point field of the closed forms, with the origin decided: 0 for
    p >= 1.  It takes the power |x| ** (p-1) rather than _field's
    exponential of a log: a closed form is the reference an oracle is
    checked against, so it should not share the oracle's rounding.  x is a
    point of R^n for its own n; DomainError at a non-finite p, at every
    other point _point refuses, and where the value overflows.
    """
    if not math.isfinite(p):
        raise DomainError(f"exponent p must be finite, got {p!r}")
    x, r = _point(x, np.size(x), origin=p >= 1.0)
    if r == 0.0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        value = float((_safe_norms(x[None, :]) ** (p - 1.0) * x[:1])[0])
    if not math.isfinite(value):
        raise DomainError(f"|x|^{p!r} xhat_1 overflows at x = {x.tolist()}")
    return value


def _coeffs(flavor: str, d: int, s: float | None, epsilon: float) -> tuple[float, float]:
    """The pair (a_iso, b_rad) of the family, A = a_iso I + b_rad xhat (x) xhat.

    The classical family does not depend on d or s.
    """
    if flavor == "classical":
        return 1.0 - epsilon, epsilon
    if flavor == "fractional":
        return 1.0 - 0.5 * (1.0 + 2.0 * s) * epsilon, 0.5 * (d + 2.0 * s) * epsilon
    raise DomainError(f"unknown coefficient flavor {flavor!r}")


def coeff_matrix(flavor: str, params: FracParams, x) -> SymMatrix:
    """Coefficient matrix a I + b xhat (x) xhat at x != 0."""
    a, b = _coeffs(flavor, params.d, params.s, params.epsilon)
    x, r = _point(x, params.d)
    xh = x / r
    m = a * np.eye(params.d) + b * np.outer(xh, xh)
    return SymMatrix(params.d, m)


def coeff_eigen(flavor: str, params: FracParams) -> tuple[float, float]:
    """(radial, tangential) eigenvalues, the same at every x."""
    a, b = _coeffs(flavor, params.d, params.s, params.epsilon)
    return a + b, a


def _geometry(x: np.ndarray, h: np.ndarray, y: np.ndarray) -> tuple:
    """(log|h|, log|y|, <hhat, xhat>^2 + <hhat, yhat>^2) for a point x != 0 and rows h and y.

    The kernel's geometry at the pairs (x, y), with y = x + h or x - h: the
    log of its |h| and its angular terms, and log|y| for the field at y.
    Each norm is _safe_norms', and its log is taken after the angular terms
    have used it.  At y = x - h the <hhat, yhat> of h is minus that of -h,
    to the bit, so its square is that of -h.
    """
    r, ry = _safe_norms(h), _safe_norms(y)
    cos_x2 = ((h @ x) / (r * _norm(x))) ** 2
    hhat = [h[:, j] / r for j in range(len(x))]
    # <hhat, yhat> in _rowdot's order, one column at a time: no (n, d) temporaries
    cos_y = sum(hhat[j] * (y[:, j] / ry) for j in range(len(x)))
    return np.log(r, out=r), np.log(ry, out=ry), cos_x2 + cos_y**2


def _kernel(pair, d: int, s: float, log_r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Jump kernel k(x, y) from the geometry (log|h|, c) of _geometry, h = y - x.

    k(x, y) = |h|^(-d-2s) <(A(x) + A(y))/2 hhat, hhat> with A = a_iso I +
    b_rad xhat (x) xhat and pair = (a_iso, b_rad), which is
    exp(-(d+2s) log|h|) (a_iso + b_rad c / 2) with
    c = <hhat, xhat>^2 + <hhat, yhat>^2.  log_r and c broadcast, so one
    |h| serves the c of several ys; the result has c's shape.
    """
    a_iso, b_rad = pair
    out = np.multiply(c, 0.5 * b_rad)
    out += a_iso
    out *= _power(log_r, -d - 2.0 * s)
    return out


def kernel_eval(params: FracParams, x, y) -> float:
    """Jump kernel |x-y|^(-d-2s) <(A(x)+A(y))/2 zhat, zhat>: _kernel at one pair."""
    x, _ = _point(x, params.d)  # A has no value at the origin, nor at a non-finite point
    y, _ = _point(y, params.d)
    pair = _coeffs("fractional", params.d, params.s, params.epsilon)
    with np.errstate(over="ignore", invalid="ignore"):
        h = y - x
        if _norm(h) < _ORIGIN_GUARD:
            raise DomainError("kernel is singular on the diagonal x = y")
        log_r, _, c = _geometry(x, h[None, :], y[None, :])
        k = _kernel(pair, params.d, params.s, log_r, c)
    if not math.isfinite(k[0]):
        raise DomainError("kernel overflows: |x - y|^(-d-2s) or |x - y| is out of range")
    return float(k[0])


def log_coeff_norm(params: FracParams) -> float:
    """Spectral norm of log A_(s,eps); x-independent.

    The matrix logarithm splits along the radial/tangential eigenspaces, so
    the norm is the larger of |log lambda| over the two analytic eigenvalues.
    """
    _check_range(params.d, epsilon=params.epsilon)
    lam_rad, lam_tan = coeff_eigen("fractional", params)
    return max(abs(math.log(lam_rad)), abs(math.log(lam_tan)))
