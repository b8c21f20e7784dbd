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


def _check_range(
    d, s=None, delta=None, epsilon=None, *, model="meyers", extended=False, s_one=False
) -> None:
    """Raise DomainError unless the parameters lie in the range of the model.

    d is an integer >= 2 and s lies in (0, 1); s_one admits s = 1, where the
    rational factor f21 stays finite.  model="meyers": delta in [0, 1/2] and
    epsilon in [0, 1/2], or in [0, inf) with extended.  model="riesz": delta
    in (0, d/2) and epsilon in (0, 1).  A parameter given as None is not
    checked.
    """
    if int(d) != d or d < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {d!r}")
    if s is not None and not (0.0 < s < 1.0 or (s_one and s == 1.0)):
        raise DomainError(f"order s must lie in (0, {'1]' if s_one else '1)'}, got {s!r}")
    if model == "meyers":
        if delta is not None and not 0.0 <= delta <= 0.5:
            raise DomainError(f"delta must lie in [0, 1/2], got {delta!r}")
        if epsilon is not None and not 0.0 <= epsilon <= (math.inf if extended else 0.5):
            hi = "inf)" if extended else "1/2]"
            raise DomainError(f"epsilon must lie in [0, {hi}, got {epsilon!r}")
    elif model == "riesz":
        if delta is not None and not 0.0 < delta < 0.5 * d:
            raise DomainError(f"delta must lie in (0, d/2), got {delta!r}")
        if epsilon is not None and not 0.0 < epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    else:
        raise DomainError(f"unknown model flavor {model!r}")


@dataclass(frozen=True)
class FracParams:
    """Parameter tuple (d, s, delta, epsilon), validated per model flavor.

    model="meyers": delta, epsilon in [0, 1/2] (difference-quotient model).
    model="riesz":  delta in (0, d/2), epsilon in (0, 1) (fractional-gradient
    model; delta = 0 is a genuine pole of its constants).

    extended=True lifts the upper epsilon bound of the meyers flavor.  The
    coupling b(delta) exceeds 1/2 for small s, and the solution identity
    extends to any epsilon >= 0 because the kernel is affine in epsilon; the
    comparability constants and positive-definiteness guarantees then no
    longer apply and are not asserted.
    """

    d: int
    s: float
    delta: float = 0.0
    epsilon: float = 0.0
    model: str = "meyers"
    extended: bool = False

    def __post_init__(self):
        _check_range(
            self.d, self.s, self.delta, self.epsilon, model=self.model, extended=self.extended
        )


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


def _unit(x) -> tuple[np.ndarray, float]:
    """(x/|x|, |x|) at x != 0."""
    x = np.asarray(x, dtype=float)
    r = _norm(x)
    if r < _ORIGIN_GUARD:
        raise DomainError("evaluation at the singular point x = 0")
    return x / r, r


def _field(p: float, pts: np.ndarray) -> np.ndarray:
    """|z|^(p-1) z1 for each row z of an (n, d) array.

    Quadrature never samples z = 0, because its singular points are patched.
    At z = 0 the row gives 0 for p >= 1, as homogeneous_field does; for p < 1
    the field has no value there, and the row holds 0 or nan depending on p.
    """
    safe = np.maximum(_norms(pts), _ORIGIN_GUARD)
    return safe ** (p - 1.0) * pts[:, 0]


def homogeneous_field(p: float, x) -> float:
    """|x|^(p-1) * x1, i.e. |x|^p * xhat_1, at one point; odd and p-homogeneous.

    The one-point case of _field, with the origin decided: 0 for p >= 1,
    DomainError for p < 1.
    """
    x = np.asarray(x, dtype=float)
    if _norm(x) < _ORIGIN_GUARD:
        if p < 1.0:
            raise DomainError("field is singular (or has no value) at x = 0")
        return 0.0
    return float(_field(p, x[None, :])[0])


def _coeffs(flavor: str, params: FracParams) -> tuple[float, float]:
    """(isotropic, radial-rank-one) weights of the selected family."""
    eps = params.epsilon
    if flavor == "classical":
        return 1.0 - eps, eps
    if flavor == "fractional":
        return 1.0 - 0.5 * (1.0 + 2.0 * params.s) * eps, 0.5 * (params.d + 2.0 * params.s) * eps
    raise DomainError(f"unknown coefficient flavor {flavor!r}")


def coeff_matrix(flavor: str, params: FracParams, x) -> SymMatrix:
    """Coefficient matrix a I + b xhat (x) xhat at x != 0."""
    a, b = _coeffs(flavor, params)
    xh, _ = _unit(x)
    m = a * np.eye(params.d) + b * np.outer(xh, xh)
    return SymMatrix(params.d, m)


def coeff_eigen(flavor: str, params: FracParams, x=None) -> tuple[float, float]:
    """(radial, tangential) eigenvalues; x-independent, x accepted for symmetry."""
    a, b = _coeffs(flavor, params)
    return a + b, a


def _kernel(pair, d: int, s: float, x: np.ndarray, h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Jump kernel k(x, y) for one point x != 0 and the rows of h, y = x + h.

    k(x, y) = |h|^(-d-2s) <(A(x) + A(y))/2 hhat, hhat> with A = a_iso I +
    b_rad xhat (x) xhat and pair = (a_iso, b_rad).  y comes with h because
    the callers need x + h for the field as well, and form it once.  With
    b_rad = 0 the angular factor is skipped: the general formula would only
    add 0.5 * 0.0 * (...), so the bits are the same.
    """
    a_iso, b_rad = pair
    r = np.maximum(_norms(h), _ORIGIN_GUARD)
    rpow = r ** (-d - 2.0 * s)
    if b_rad == 0.0:
        return a_iso * rpow
    ry = np.maximum(_norms(y), _ORIGIN_GUARD)
    cos_x = (h @ x) / (r * _norm(x))
    # <hhat, yhat> in _rowdot's order, one column at a time: no (n, d) temporaries
    cos_y = sum((h[:, j] / r) * (y[:, j] / ry) for j in range(len(x)))
    return rpow * (a_iso + 0.5 * b_rad * (cos_x**2 + cos_y**2))


def kernel_eval(params: FracParams, x, y) -> float:
    """Jump kernel |x-y|^(-d-2s) <(A(x)+A(y))/2 zhat, zhat>: _kernel at one pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = y - x
    if _norm(h) < _ORIGIN_GUARD:
        raise DomainError("kernel is singular on the diagonal x = y")
    for pt in (x, y):
        _unit(pt)  # A has no value at the origin
    pair = _coeffs("fractional", params)
    return float(_kernel(pair, params.d, params.s, x, h[None, :], y[None, :])[0])


def log_coeff_norm(params: FracParams) -> float:
    """Spectral norm of log A_(s,eps); x-independent.

    The matrix logarithm splits along the radial/tangential eigenspaces, so
    the norm is the larger of |log lambda| over the two analytic eigenvalues.
    """
    _check_range(params.d, epsilon=params.epsilon)
    lam_rad, lam_tan = coeff_eigen("fractional", params)
    return max(abs(math.log(lam_rad)), abs(math.log(lam_tan)))
