"""Real-argument special functions and the fractional-Laplacian normalization.

Everything downstream (closed forms, symbol calculus, Riesz constants) is a
ratio of Gamma values.  Gamma and log|Gamma| come from the standard library
(`math.gamma`, `math.lgamma`) behind one pole check; digamma is a shifted
asymptotic series implemented here.  Ratios are assembled in log space with
explicit sign tracking so that widely different magnitudes (e.g. Gamma near
a pole against a large positive argument) do not overflow.
"""

from __future__ import annotations

import math

from .errors import PoleError
from .model import _check_range

__all__ = [
    "EULER_GAMMA",
    "gamma",
    "lgamma_signed",
    "gamma_ratio",
    "digamma",
    "kappa",
    "sphere_area",
]

# Euler-Mascheroni constant, psi(1) = -EULER_GAMMA.
EULER_GAMMA = 0.57721566490153286060651209008240243

_POLE_TOL = 1e-12


def _check_pole(x: float) -> None:
    n = round(x)
    if n <= 0 and abs(x - n) <= _POLE_TOL * max(1.0, abs(n)):
        raise PoleError(f"argument {x!r} is (numerically) a non-positive integer")


def gamma(x: float) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ..."""
    _check_pole(x)
    return math.gamma(x)


def lgamma_signed(x: float) -> tuple[float, float]:
    """(log |Gamma(x)|, sign of Gamma(x)); stable for ratio assembly."""
    _check_pole(x)
    # Gamma is negative on (n, n + 1) exactly for the odd negative n
    return math.lgamma(x), -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0


def sphere_area(d: int) -> float:
    """|S^(d-1)| = 2 pi^(d/2) / Gamma(d/2)."""
    return 2.0 * math.pi ** (0.5 * d) / gamma(0.5 * d)


def gamma_ratio(num: tuple[float, ...], den: tuple[float, ...]) -> float:
    """prod Gamma(num_i) / prod Gamma(den_j), computed in log space."""
    total = 0.0
    sign = 1.0
    for a in num:
        l, s = lgamma_signed(a)
        total += l
        sign *= s
    for b in den:
        l, s = lgamma_signed(b)
        total -= l
        sign *= s
    return sign * math.exp(total)


# Asymptotic coefficients B_{2k}/(2k) for psi, used for x >= 8.
_PSI_ASYMP = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for real x away from the poles."""
    _check_pole(x)
    if x < 0.0:
        # reflection: psi(1-x) - psi(x) = pi cot(pi x)
        n = math.floor(x)
        r = x - n
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * r)
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for c in _PSI_ASYMP:
        series += c * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - series


def kappa(d: int, s: float) -> float:
    """Normalization 2^(2s-1) Gamma(d/2+s) / (pi^(d/2) |Gamma(-s)|).

    Makes the difference quotient form of the fractional Laplacian carry
    the Fourier symbol (2 pi |xi|)^(2s).
    """
    _check_range(d, s)
    ratio = abs(gamma_ratio((0.5 * d + s,), (-s,)))
    return 2.0 ** (2.0 * s - 1.0) * ratio / math.pi ** (0.5 * d)
