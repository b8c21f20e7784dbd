"""Real-argument special functions and the fractional-Laplacian normalization.

Everything downstream (closed forms, symbol calculus, Riesz constants) is a
ratio of Gamma values, so Gamma and digamma are implemented here in-repo:
a Lanczos approximation for Gamma and a shifted asymptotic series for
digamma.  Ratios are assembled in log space with explicit sign tracking so
that widely different magnitudes (e.g. Gamma near a pole against a large
positive argument) do not overflow.
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
    "sinpi",
]

# Euler-Mascheroni constant, psi(1) = -EULER_GAMMA.
EULER_GAMMA = 0.57721566490153286060651209008240243

# Lanczos coefficients for g = 7, n = 9 (about 15 correct digits on the
# positive real axis).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_POLE_TOL = 1e-12


def _check_pole(x: float) -> None:
    n = round(x)
    if n <= 0 and abs(x - n) <= _POLE_TOL * max(1.0, abs(n)):
        raise PoleError(f"argument {x!r} is (numerically) a non-positive integer")


def sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction, exact zeros at integers."""
    n = math.floor(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def _lanczos_series(z: float) -> float:
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z + i)
    return acc


def gamma(x: float) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ..."""
    _check_pole(x)
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (sinpi(x) * gamma(1.0 - x))
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * _lanczos_series(z)


def lgamma_signed(x: float) -> tuple[float, float]:
    """(log |Gamma(x)|, sign of Gamma(x)); stable for ratio assembly."""
    _check_pole(x)
    if x >= 0.5:
        z = x - 1.0
        t = z + _LANCZOS_G + 0.5
        val = (
            0.5 * math.log(2.0 * math.pi)
            + (z + 0.5) * math.log(t)
            - t
            + math.log(_lanczos_series(z))
        )
        return val, 1.0
    s = sinpi(x)
    lg1, _ = lgamma_signed(1.0 - x)
    return math.log(math.pi) - math.log(abs(s)) - lg1, math.copysign(1.0, s)


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
    lg_num, _ = lgamma_signed(0.5 * d + s)
    lg_den, _ = lgamma_signed(-s)
    return math.exp(
        (2.0 * s - 1.0) * math.log(2.0) + lg_num - 0.5 * d * math.log(math.pi) - lg_den
    )
