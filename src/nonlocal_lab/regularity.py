"""Sharp Sobolev-membership threshold and a dyadic-scaling seminorm witness.

The homogeneous field of exponent 1 - delta belongs to W^{t,q} near the
origin exactly when 1 - delta > t - d/q.  The witness computes the seminorm
mass of one reference annulus pair by seeded Monte Carlo (d = 2) and extends
it towards the origin by exact homogeneity: successive dyadic bands are a
geometric sequence whose ratio crosses 1 precisely at the threshold.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotConverged
from .model import _check_range, _field, _safe_norms

__all__ = ["membership", "reference_band", "dyadic_seminorm", "DyadicResult"]


def _check(d: int, delta: float, t: float, q: float) -> None:
    _check_range(d, delta=delta)
    if not 0.0 < t < 1.0:
        raise DomainError(f"smoothness t must lie in (0, 1), got {t!r}")
    if not 1.0 < q < math.inf:
        raise DomainError(f"integrability q must lie in (1, inf), got {q!r}")


def membership(d: int, delta: float, t: float, q: float) -> bool:
    """Local W^{t,q} membership of the homogeneous field near the origin."""
    _check(d, delta, t, q)
    return 1.0 - delta > t - d / q


def band_ratio(d: int, delta: float, t: float, q: float) -> float:
    """Per-band factor 2^(-((1-delta-t) q + d)) of the dyadic extension."""
    _check(d, delta, t, q)
    return 2.0 ** (-((1.0 - delta - t) * q + d))


def reference_band(
    d: int,
    delta: float,
    t: float,
    q: float,
    scale: float = 1.0,
    samples: int = 200000,
    seed: int = 42,
) -> tuple[float, float]:
    """(value, standard error) of the reference-annulus seminorm mass.

    Integrates |u(x) - u(y)|^q / |x - y|^(d + t q) over x in the annulus
    {scale/2 <= |x| <= scale} and y in the annulus widened one ring inwards
    (the neighbor ring absorbs the near-diagonal mass).  y is sampled around
    x with a log-uniform radius, which keeps the variance finite through the
    near-diagonal singularity.
    """
    _check(d, delta, t, q)
    if d != 2:
        raise DomainError("the Monte-Carlo reference is implemented for d = 2")
    if not 0.0 < scale < math.inf:
        raise DomainError(f"scale must be finite and > 0, got {scale!r}")
    if not isinstance(samples, numbers.Integral) or samples < 2:
        raise DomainError(f"need an integer number of samples >= 2, got {samples!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    lo, hi = 0.5 * scale, scale
    y_lo = 0.25 * scale

    # x uniform in the annulus
    u01 = rng.uniform(size=samples)
    rx = np.sqrt(lo**2 + u01 * (hi**2 - lo**2))
    th = rng.uniform(0.0, 2.0 * math.pi, size=samples)
    x = np.stack([rx * np.cos(th), rx * np.sin(th)], axis=1)
    area_x = math.pi * (hi**2 - lo**2)

    # y = x + z; |z| drawn from a half/half mixture of a log-uniform radius
    # (resolves the near-diagonal singularity) and uniform-in-area (carries
    # the bulk when q(1-t) is large)
    z_lo, z_hi = 1e-8 * scale, 2.0 * scale
    pick_log = rng.uniform(size=samples) < 0.5
    rz = np.where(
        pick_log,
        np.exp(rng.uniform(math.log(z_lo), math.log(z_hi), size=samples)),
        z_hi * np.sqrt(rng.uniform(size=samples)),
    )
    ph = rng.uniform(0.0, 2.0 * math.pi, size=samples)
    y = x + np.stack([rz * np.cos(ph), rz * np.sin(ph)], axis=1)
    p_log = np.where(
        (rz >= z_lo), 1.0 / (math.log(z_hi / z_lo) * 2.0 * math.pi * rz**2), 0.0
    )
    p_area = 1.0 / (math.pi * z_hi**2)
    w_z = 1.0 / (0.5 * p_log + 0.5 * p_area)

    ry = np.linalg.norm(y, axis=1)
    inside = (ry >= y_lo) & (ry <= hi)

    u_x, u_y = (_field(1.0 - delta, z[:, 0], np.log(_safe_norms(z))) for z in (x, y))
    du = np.abs(u_x - u_y)
    vals = np.where(inside, du**q * rz ** (-d - t * q), 0.0) * w_z * area_x
    value = float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(samples))
    return value, se


@dataclass(frozen=True)
class DyadicResult:
    partial_sums: list[float]
    band_ratio: float
    verdict: str
    reference: float
    reference_se: float
    seed: int
    bands: int = field(default=0)


def dyadic_seminorm(
    d: int,
    delta: float,
    t: float,
    q: float,
    bands: int = 12,
    samples: int = 200000,
    seed: int = 42,
) -> DyadicResult:
    """Geometric-series witness for the membership threshold.

    Band k carries reference * ratio^k by homogeneity; the verdict
    "converging" (ratio < 1) coincides with the membership predicate.
    """
    if not isinstance(bands, numbers.Integral) or bands < 4:
        raise DomainError(f"need an integer number of dyadic bands >= 4, got {bands!r}")
    ref, se = reference_band(d, delta, t, q, samples=samples, seed=seed)
    if ref > 0 and se > 0.2 * ref:
        raise NotConverged(f"reference-band variance too high: {se} vs {ref}")
    ratio = band_ratio(d, delta, t, q)
    partial = []
    acc = 0.0
    for k in range(bands):
        acc += ref * ratio**k
        partial.append(acc)
    verdict = "converging" if ratio < 1.0 else "diverging"
    return DyadicResult(
        partial_sums=partial,
        band_ratio=ratio,
        verdict=verdict,
        reference=ref,
        reference_se=se,
        seed=seed,
        bands=bands,
    )
