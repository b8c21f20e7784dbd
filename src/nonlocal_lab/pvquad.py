"""Principal-value quadrature for the singular integrals of the model.

Every integral here is of the form  p.v. integral g(h) dh  over R^d with a
non-integrable singularity at the origin, possible kinks or integrable
singularities at e1, and slow power decay at infinity.  The evaluation
strategy:

  * the integrand gives its even part (g(h) + g(-h))/2, whose antipodal
    symmetry cancels the odd leading parts of g pointwise, which makes both
    the origin and the tail absolutely convergent and realizes the
    principal value at the level of the integrand; it also turns the point
    e1 into the antipodal pair +-e1.  The oracles' even parts
    (`_operator_even`, `_potential_even`) take what g(h) and g(-h) share
    once per row, with the bits of the average of the two;
  * log-graded geometric radial bands with Gauss-Legendre nodes in log r and
    the rules below on the sphere handle each annulus.  `_stage` runs
    the main bands, and then the patch below, on the nominal and a
    downgraded jackknife rule.  Each pass is a plan and a run: the plan
    (`_pass`) is flat, every band's points one after another, each with
    its weight (radial times angular weight, times the cutoff where the
    band has one), and each band's first row; the run (`_band_values`)
    calls the integrand on chunks of at most _BATCH rows and sums the
    weighted values band by band in one `np.add.reduceat`, so no band value
    depends on the chunking or on the other bands.  The points are stored
    column-major: a C-ordered (n, 2) array would make every broadcast
    x + h and every column h[:, j] in the integrands a numpy loop over rows
    of 2 elements, or a strided read; column-major, each is one contiguous
    loop over the rows, and x + h keeps the layout;
  * the pair +-e1 is cut out of the main bands by smooth partition-of-unity
    cutoffs, which only the bands where they differ from 1 carry, and filled
    by a patch at the rows e1 + l, in polar coordinates with graded bands;
    the patch at -e1 is its mirror image, with the same even-part values,
    so one patch is integrated and taken twice.  The pair is fixed, so
    `_plan` caches one plan per (spec, d) and whether the pair is there;
  * the truncation at r_min / r_max is removed by geometric completion: the
    per-decade shell sums of a homogeneous-tail integrand form a geometric
    sequence, whose measured ratio extrapolates the missing mass at both
    ends (this is the Richardson limit over shrinking/growing windows).

The integrand depends on h only through (h . e1, |h|).  By Funk-Hecke its
sphere integral in any d >= 2 is
|S^(d-2)| int g(mu) (1 - mu^2)^((d-3)/2) dmu, taken on the meridian rule at
the Gauss nodes of that weight (Golub-Welsch); at d = 2 it is the circle
rule folded by h2 -> -h2, a half circle.  So every point is a row (h1, h2)
of the meridian half-plane, standing for h = h1 e1 + h2 e_perp, in every
d: d enters only through the rule weights, the band weight r^d and the
integrand's exponents.  The rule's nodes +-mu are mirror images to the
bit, where the even part takes the same bits, so the main bands run on
the even rule (`_even_rule`): the meridian rule's nodes j >= n/2, each
carrying its mirror's weight too, at half the integrand evaluations.  The
patch, not even about e1, runs on the full meridian rule.

There are two oracles on fields u = |z|^(p-1) z1: the operator
2 p.v. int k(x, x+h) (u(x) - u(x+h)) dh, whose kernel takes a coefficient
pair (a_iso, b_rad), and the potential p.v. int u(x - h) |h|^(-(d-1+s)) dh
of I_(1-s).  Both commute with rotations and are homogeneous, of degree
p - 2s and p + 1 - s, so `_on_axis` takes each at e1, on the one plan of
(spec, d), and scales it by |x|^degree x1/|x| and the oracle's constant
factor: 2 for `frac_op_num`, the operator with the fractional pair, and the
potential's constants for the Riesz oracles.
The named integrals are the two oracles at e1: f1 and f2 are -1/2 times
the operator, so -1 times its p.v. integral, on the difference model's field
(p = 1 - delta) with the isotropic pair (1, 0) and the radial pair (0, 1);
f3 and f4 are the potential of the Riesz model's field (p = s - delta) and
of its divergence field (p = -1 - delta).  The energy's x rule takes the
meridian rule too.  Every path is deterministic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError, NotConverged
from .model import (
    FracParams,
    _check_range,
    _coeffs,
    _field,
    _kernel,
    _norms,
    _point,
    _point_power,
    _safe_norms,
    homogeneous_field,
)
from .specfun import sphere_area

__all__ = ["QuadratureSpec", "PVResult", "pv_integral", "f_integral_num", "frac_op_num"]

# Radius of the partition-of-unity patches at the singular pair +-e1, and
# the inner end of their radial bands.
_PATCH_RADIUS = 0.3
_PATCH_RHO_MIN = 1e-10

# Most points per integrand call: a pass's points are taken in chunks of at
# most this many, which bound the integrand's temporaries (about 64 kB per
# column).  The chunks of the column-major points have contiguous columns,
# so the integrand's cost per row falls with the chunk length up to about
# this size; the bits do not depend on it.
_BATCH = 8192

# The floors of a band's rules: at least _ANGULAR_FLOOR meridian nodes, and
# at least _RADIAL_FLOOR radii in the jackknife pass.  QuadratureSpec refuses
# a resolution where a floor makes the jackknife pass no coarser than the
# nominal one (`_jackknife_resolution`).
_ANGULAR_FLOOR = 8
_RADIAL_FLOOR = 4

# Largest edge ratio |q| of shell sums that a completion extrapolates.
_MAX_RATIO = 0.98

# Most plans kept by _plan, one per (spec, d, singular_pair): the oracles
# take one plan per spec and d, whatever their x.  At the default spec a
# plan's arrays hold 1.37 MB at d = 2 and 0.87 MB at every d >= 3, whose
# rows have two columns as at d = 2, so a full cache holds at most about
# 22 MB.
_PLAN_CACHE = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for one principal-value evaluation.

    The window [r_min, r_max] is symmetric in the sense that both ends are
    extrapolated to their limits by shell completion, so the defaults pass
    the acceptance tolerances without hand-tuning.
    """

    r_min: float = 1e-6
    r_max: float = 1e6
    bands_per_decade: int = 4
    radial_nodes: int = 10
    angular_nodes: int = 64
    target_rel_err: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.r_min < 1.0 < self.r_max:
            raise DomainError("window must satisfy r_min < 1 < r_max")
        if not math.isfinite(self.r_max / self.r_min):
            raise DomainError("window ratio r_max / r_min must be finite")
        if not 0.0 < self.target_rel_err < math.inf:
            raise DomainError("target_rel_err must be finite and > 0")
        if not all(isinstance(n, numbers.Integral) for n in (self.radial_nodes, self.angular_nodes)):
            raise DomainError("radial_nodes and angular_nodes must be integers")
        if self.bands_per_decade < 1:
            raise DomainError("degenerate quadrature resolution")
        # a jackknife rule no coarser than its nominal rule hides that rule's error
        radial, angular = _jackknife_resolution(self)
        nominal = self.radial_nodes, self.angular_nodes
        if radial >= nominal[0] or _band_nodes(angular, 1) >= _band_nodes(nominal[1], 1):
            raise DomainError(
                "the jackknife pass is no coarser than the nominal one at (radial_nodes, "
                f"angular_nodes) = {nominal}: its rules keep at least {_RADIAL_FLOOR} radii "
                f"and {_ANGULAR_FLOOR} meridian nodes"
            )


def _band_nodes(angular_nodes: int, grade: int) -> int:
    """Meridian nodes of a band of the grade, in a pass of angular_nodes."""
    return max(_ANGULAR_FLOOR, angular_nodes * grade // 2)


def _jackknife_resolution(spec: QuadratureSpec) -> tuple[int, int]:
    """(radial nodes, angular nodes) of the downgraded jackknife pass."""
    return max(_RADIAL_FLOOR, spec.radial_nodes - 3), spec.angular_nodes // 2


@dataclass(frozen=True)
class PVResult:
    value: float
    err_estimate: float
    nodes_used: int
    converged: bool


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# e1 as a meridian row: the point every oracle is taken at, and the singular pair +-e1
_E1 = _frozen(np.array([1.0, 0.0]))


@lru_cache(maxsize=32)
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return _frozen(x), _frozen(w)


@lru_cache(maxsize=32)
def _meridian_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating functions of omega_1 alone over S^(d-1).

    The (n, 2) nodes are meridian rows (mu, sqrt(1 - mu^2)), each standing
    for the directions mu e1 + sqrt(1 - mu^2) e_perp, in every d; the
    weights carry d.  mu are the Gauss nodes for the weight (1 - mu^2)^lam,
    lam = (d - 3)/2: the eigenvalues of the Jacobi matrix of the Gegenbauer
    recurrence, with weights from the first eigenvector components (Golub &
    Welsch 1969).  The weights sum to
    |S^(d-1)| = |S^(d-2)| int (1 - mu^2)^lam dmu.  At d = 3 the nodes are
    the Gauss-Legendre nodes.  At d = 2 the recurrence is 0/0 (lam = -1/2);
    the rule there is the upper half of the 2n-node circle rule (angles
    pi (k + 1/2)/n, weights pi/n) with doubled weights, the circle rule
    folded by omega_2 -> -omega_2.  Its nodes j < n/2 (mu >= 0) are
    computed, and node n-1-j is their exact mirror (-mu_j, sin theta_j),
    with (0, 1) in the middle for odd n, so that, as in d >= 3, nodes j and
    n-1-j are mirror images to the bit.
    """
    if d == 2:
        half = n // 2
        theta = math.pi * (np.arange(half) + 0.5) / n
        omegas = np.empty((n, 2))
        omegas[:half] = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        omegas[n - half :] = omegas[:half][::-1] * (-1.0, 1.0)
        if n % 2:
            omegas[half] = (0.0, 1.0)
        return _frozen(omegas), _frozen(np.full(n, 2.0 * math.pi / n))
    lam = 0.5 * (d - 3)
    k = np.arange(1, n)
    jacobi = np.diag(np.sqrt(k * (k + 2.0 * lam) / (4.0 * (k + lam) ** 2 - 1.0)), -1)
    mu, vecs = np.linalg.eigh(jacobi)
    w = vecs[0] ** 2
    # the weight is even: symmetrize away the eigensolver's rounding
    mu, w = 0.5 * (mu - mu[::-1]), 0.5 * (w + w[::-1])
    omegas = np.stack([mu, np.sqrt(1.0 - mu**2)], axis=1)
    return _frozen(omegas), _frozen(sphere_area(d) * w)


@lru_cache(maxsize=32)
def _even_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node meridian rule for even integrands, on its nodes j >= n//2.

    Node n-1-j of the meridian rule is the mirror of node j, where an
    integrand even in h takes one value, so each kept node carries its
    mirror's weight as well: 2w, or w for the middle node of an odd n,
    its own mirror.  The nodes have the bits of the meridian rule's.
    """
    omegas, w = _meridian_rule(d, n)
    j = np.arange(n // 2, n)
    weights = np.where(j == n - 1 - j, w[j], w[j] + w[n - 1 - j])
    return _frozen(omegas[n // 2 :]), _frozen(weights)


def _band_edges(lo: float, hi: float, per_decade: int) -> np.ndarray:
    n = max(1, math.ceil(math.log10(hi / lo) * per_decade))
    return np.exp(np.linspace(math.log(lo), math.log(hi), n + 1))


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C^infinity monotone 0 -> 1 on [0, 1]: exactly 0 below it and 1 above it.

    The exponentials are taken only at the u strictly inside (0, 1), the
    rows where the value is neither 0 nor 1.
    """
    out = np.where(u < 1.0, 0.0, 1.0)
    inner = (u > 0.0) & (u < 1.0)
    v = u[inner]
    with np.errstate(over="ignore"):  # -1/v is -inf for the smallest v, and exp(-inf) = 0
        a = np.exp(-1.0 / v)
    b = np.exp(-1.0 / (1.0 - v))
    out[inner] = a / (a + b)
    return out


def _chi(pts: np.ndarray) -> np.ndarray:
    """Smooth patch cutoff at the rows l of pts: 1 inside |l| = R/2, 0 outside |l| = R."""
    half = 0.5 * _PATCH_RADIUS
    return 1.0 - _smoothstep((_norms(pts) - half) / half)


def _log_band(a, b, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre radii in log r on [a, b], with the weights of r^(d-1) dr."""
    t, wt = _gl(n)
    ta, tb = math.log(a), math.log(b)
    tm, th = 0.5 * (ta + tb), 0.5 * (tb - ta)
    r = np.exp(tm + th * t)
    return r, wt * th * r**d  # dh = r^(d-1) dr dsigma and dr = r dt


def _pass(bands, d: int, radial_nodes: int, center=None) -> tuple:
    """(points, weights, starts) of one pass over the bands (a, b, (omegas, oweights), cutoff).

    A band's points are `center` (if given) plus its radii times its angular
    nodes, meridian rows (h1, h2) one radius after another, and each point's
    weight is its radial weight times its angular weight, times the band's
    cutoff where it has one, taken before the offset.  starts holds each
    band's first row.  The points are column-major (Fortran order), so
    that each column, and each column of a chunk of rows, is contiguous:
    the integrands' x + h and x - h keep that layout, and their loops run
    over the rows rather than over rows of two.  Every array is read-only,
    so a cached pass stays intact.
    """
    points, weights = [], []
    for a, b, (omegas, oweights), cutoff in bands:
        r, wr = _log_band(a, b, radial_nodes, d)
        pts = (r[:, None, None] * omegas[None, :, :]).reshape(-1, 2)
        w = (wr[:, None] * oweights[None, :]).ravel()
        points.append(pts if center is None else center + pts)
        weights.append(w if cutoff is None else w * cutoff(pts))
    starts = np.cumsum([0] + [len(p) for p in points[:-1]])
    points = np.asfortranarray(np.concatenate(points))
    return tuple(_frozen(a) for a in (points, np.concatenate(weights), starts))


def _band_values(fn, plan) -> np.ndarray:
    """Values of one pass's bands, in order: the weighted sum of fn over each band's rows.

    fn is called on consecutive chunks of at most _BATCH rows, which bound
    its temporaries; a row's value does not depend on its chunk, so no band
    value depends on the chunking.
    """
    points, weights, starts = plan
    vals = np.concatenate([fn(points[i : i + _BATCH]) for i in range(0, len(points), _BATCH)])
    return np.add.reduceat(vals * weights, starts)


def _geometric_tail(shells: list[float], scale: float) -> tuple[float, float] | None:
    """Single-ratio extrapolation; shells[0] is adjacent to the edge."""
    if len(shells) < 2 or shells[1] == 0.0:
        return None
    q = shells[0] / shells[1]
    if not abs(q) < _MAX_RATIO:
        return None
    tail = shells[0] * q / (1.0 - q)
    if len(shells) >= 3 and shells[2] != 0.0:
        drift = abs(q - shells[1] / shells[2]) / max(1.0 - abs(q), 0.02)
    else:
        drift = 0.5
    return tail, abs(tail) * min(1.0, drift) + 1e-13 * scale


def _prony_tail(shells: list[float], scale: float) -> float | None:
    """Two-power extrapolation via the linear shell recurrence.

    A tail made of two power families gives shell sums obeying
    s_{k+1} = alpha s_k + beta s_{k-1} (k increasing towards the edge);
    the recurrence is fitted on four shells and iterated past the edge.
    """
    if len(shells) < 4:
        return None
    # k increasing towards the edge: s0..s3 = shells[3]..shells[0]
    s0, s1, s2, s3 = shells[3], shells[2], shells[1], shells[0]
    det = s1 * s1 - s0 * s2
    if abs(det) <= 1e-28 * scale * scale:
        return None
    alpha = (s1 * s2 - s0 * s3) / det
    beta = (s1 * s3 - s2 * s2) / det
    disc = alpha * alpha + 4.0 * beta
    if disc >= 0.0:
        root = max(abs(alpha + math.sqrt(disc)), abs(alpha - math.sqrt(disc))) / 2.0
    else:
        root = math.hypot(alpha, math.sqrt(-disc)) / 2.0
    if not root < _MAX_RATIO:
        return None
    prev, cur = s2, s3
    tail = 0.0
    for _ in range(2000):
        prev, cur = cur, alpha * cur + beta * prev
        tail += cur
        if abs(cur) <= 1e-16 * scale:
            break
    return tail


def _completion(shells: list[float], scale: float, stage: str) -> tuple[float, float]:
    """(missing mass beyond the edge, error bound) from edge-ordered shells.

    shells[0] is the decade adjacent to the window edge, shells[1] the next
    one inward.  Power-law tails make consecutive shells geometric; a
    two-power recurrence fit extrapolates the rest, with a one-shell-deeper
    refit as the jackknife error.  Raises NotConverged on a growth signal,
    naming the stage and end (`stage`) and the edge ratio it saw.
    """
    floor = 1e-13 * scale
    if len(shells) < 2 or abs(shells[0]) <= floor:
        return 0.0, abs(shells[0]) if shells else 0.0
    geo = _geometric_tail(shells, scale)
    if geo is None:
        # an edge shell far below the total (or small in absolute terms --
        # rounding noise of a vanishing integrand) is not a divergence
        # signal; it is charged to the error estimate instead
        if abs(shells[0]) <= max(1e-7 * scale, 1e-9):
            return 0.0, abs(shells[0])
        if not all(map(math.isfinite, shells)):
            raise NotConverged(f"{stage} completion: non-finite shell sums")
        q = shells[0] / shells[1] if shells[1] else math.inf
        raise NotConverged(
            f"{stage} completion: shell sums do not contract towards the window edge "
            f"(edge ratio q = {q:.6g}, |q| must be < {_MAX_RATIO})"
        )
    tail, err = geo
    two = _prony_tail(shells, scale)
    if two is not None:
        # jackknife: refit one shell deeper and propagate to the edge
        deeper = _prony_tail(shells[1:], scale)
        if deeper is not None:
            implied = deeper - shells[0]  # deeper tail includes the edge shell
            err = abs(two - implied) + floor
        else:
            err = abs(two - tail) + floor
        tail = two
    return tail, err


def _shell_sums(shells, values) -> list[float]:
    """Band values summed by their log10 shells, inner shell first."""
    sums: dict[int, float] = {}
    for k, v in zip(shells, values):
        sums[k] = sums.get(k, 0.0) + v
    return [sums[k] for k in sorted(sums)]


def _split(edges, lo: float, hi: float, width: float) -> list:
    """(a, b, split) bands between the edges; those meeting (lo, hi) are split
    into at most 64 log sub-bands of roughly `width` linear width."""
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b > lo and a < hi:
            pieces = min(64, max(1, math.ceil((b - a) / width)))
            sub = np.exp(np.linspace(math.log(a), math.log(b), pieces + 1))
            out.extend((float(p), float(q), True) for p, q in zip(sub[:-1], sub[1:]))
        else:
            out.append((a, b, False))
    return out


def _main_bands(spec: QuadratureSpec, d: int, singular_pair: bool) -> list:
    """(a, b, grade, cut) bands of [r_min, r_max]; grade multiplies the angular nodes.

    With the singular pair, bands meeting the annulus [1 - R, 1 + R] are
    split to about R/4 and cut: they carry the pair cutoff
    1 - chi(h - e1) - chi(h + e1), which is exactly 1 off the annulus.
    They and a factor-2 halo, which still has patch-scale angular features,
    take the fine rule: 7 times the angular nodes at d = 2 and 2 times
    above.  On the d = 2 meridian rule +-e1 sit at a mirror-symmetric phase
    of the fine bands' equispaced nodes, the phase where their aliasing
    error is largest; 6 times lost about 0.1 digits there.
    """
    edges = _band_edges(spec.r_min, spec.r_max, spec.bands_per_decade)
    if not singular_pair:
        return [(a, b, 1, False) for a, b in zip(edges[:-1], edges[1:])]
    lo, hi = 1.0 - _PATCH_RADIUS, 1.0 + _PATCH_RADIUS
    fine_mult = 7 if d == 2 else 2
    bands = []
    for a, b, split in _split(edges, lo, hi, _PATCH_RADIUS / 4.0):
        fine = split or (b > 0.5 * lo and a < 2.0 * hi)
        bands.append((a, b, fine_mult if fine else 1, b > lo and a < hi))
    return bands


def _patch_bands(spec: QuadratureSpec) -> list:
    """The patch's (a, b, 1, cut) bands of [_PATCH_RHO_MIN, R], split to about
    R/8; those reaching past R/2 are cut: they carry chi, which is exactly 1
    inside R/2."""
    edges = _band_edges(_PATCH_RHO_MIN, _PATCH_RADIUS, spec.bands_per_decade)
    bands = _split(edges, 0.0, _PATCH_RADIUS, _PATCH_RADIUS / 8.0)
    return [(a, b, 1, b > 0.5 * _PATCH_RADIUS) for a, b, _ in bands]


def _pair_cutoff(pts: np.ndarray) -> np.ndarray:
    """1 - chi(h - e1) - chi(h + e1) at the rows h of pts."""
    return 1.0 - _chi(pts - _E1) - _chi(pts + _E1)


def _stage_plan(bands, d: int, spec: QuadratureSpec, cutoff, center=None):
    """(shells, (nominal pass, jackknife pass)) of one stage's (a, b, grade, cut) bands.

    Each pass is a flat plan (points, weights, starts) (`_pass`).  A band
    of grade g takes `_band_nodes(m, g)` meridian nodes, m the pass's
    angular nodes: the even rule, or about a `center` the full meridian
    rule, as the integrand is even in h but not in h - center.  The weights
    of the cut bands carry `cutoff`.  shells holds each band's log10 shell,
    by its midpoint.  The jackknife pass runs the downgraded rules of
    `_jackknife_resolution`, whose difference from the nominal ones bounds
    the nominal discretization error.
    """
    fold = _even_rule if center is None else _meridian_rule
    resolutions = (spec.radial_nodes, spec.angular_nodes), _jackknife_resolution(spec)
    passes = tuple(
        _pass([(a, b, fold(d, _band_nodes(m, g)), cutoff if cut else None) for a, b, g, cut in bands],
              d, n, center)
        for n, m in resolutions
    )
    shells = tuple(math.floor(0.5 * (math.log10(a) + math.log10(b))) for a, b, *_ in bands)
    return shells, passes


def _stage(fn, plan):
    """(sum, scale, shell sums, jackknife difference, rows) of one stage plan.

    scale is the sum of |band values|, and rows counts the points fn saw
    in both passes.
    """
    shells, passes = plan
    values, low_values = (_band_values(fn, p).tolist() for p in passes)
    total = sum(values)
    scale = sum(map(abs, values)) + 1e-300
    jack = total - sum(low_values)
    return total, scale, _shell_sums(shells, values), jack, sum(len(p[0]) for p in passes)


@lru_cache(maxsize=_PLAN_CACHE)
def _plan(spec: QuadratureSpec, d: int, singular_pair: bool):
    """(main stage plan, patch stage plan or None) of pv_integral, with or without the pair +-e1.

    The plans of the pair hold its cutoff values.  Every row has h2 >= 0.
    """
    if not singular_pair:
        return _stage_plan(_main_bands(spec, d, False), d, spec, None), None
    main = _stage_plan(_main_bands(spec, d, True), d, spec, _pair_cutoff)
    return main, _stage_plan(_patch_bands(spec), d, spec, _chi, _E1)


def pv_integral(integrand, d: int, spec: QuadratureSpec, singular_pair: bool = False) -> PVResult:
    """Symmetric-window principal value of a vectorized even axial integrand.

    `integrand` maps an (n, 2) array of meridian rows (h1, h2), each
    standing for h = h1 e1 + h2 e_perp in R^d, to the (n,) float values of
    the even part (g(h) + g(-h))/2 of the integrand g, without writing into
    its argument.  g depends on h only through h1 and |h|, and every row
    has h2 >= 0.  d enters only through the rule weights and r^d.  With
    `singular_pair`, g may be singular at the pair +-e1 besides the origin,
    and the integrand is only ever evaluated away from both.  Integrating
    the even part realizes the principal value, and it makes +-e1 one
    patch, taken twice: the patch at -e1 is the mirror image of the one at
    e1, with its values.  The returned value extrapolates the window to
    (0, infinity) by shell completion at both ends.  `nodes_used` counts
    the samples of g: two per row, at h and -h.

    The main bands take the even rule: the meridian rule's nodes +-mu are
    mirror images, where the even part takes one value, so it is evaluated
    on one of each pair, which carries both weights.  The patch, whose
    integrand is not even about e1, takes the full meridian rule at the
    rows e1 + l.  Each pass is a flat plan of points, weights and band
    starts, cached by (spec, d, singular_pair) (`_plan`), and its band
    values are one weighted reduction.
    """
    _check_range(d)
    main_plan, patch_plan = _plan(spec, d, singular_pair)
    main_sum, scale, shells, main_jack, rows = _stage(integrand, main_plan)
    inner_tail, inner_err = _completion(shells, scale, "main inner")
    outer_tail, outer_err = _completion(shells[::-1], scale, "main outer")

    patch_sum = patch_err = patch_jack = 0.0
    if patch_plan is not None:
        p_sum, p_scale, p_shells, patch_jack, patch_rows = _stage(integrand, patch_plan)
        p_tail, p_tail_err = _completion(p_shells, p_scale, "patch inner")
        # the patch at -e1 has these values: double the sum, tail error and jackknife
        patch_sum = 2.0 * (p_sum + p_tail)
        patch_err = 2.0 * (p_tail_err + 1e-13 * p_scale)
        rows += patch_rows

    disc_err = 0.5 * abs(main_jack) + abs(patch_jack)
    value = main_sum + inner_tail + outer_tail + patch_sum
    err = inner_err + outer_err + patch_err + disc_err + 1e-13 * scale
    converged = err <= spec.target_rel_err * abs(value) + 1e-10
    # the even part samples g at h and -h
    return PVResult(value=value, err_estimate=err, nodes_used=2 * rows, converged=converged)


def _on_axis(even_at, d: int, x, spec: QuadratureSpec, factor: float, degree: float) -> PVResult:
    """factor times p.v. int of an oracle's integrand at x != 0, from its value at e1.

    even_at(c) is the even part in h of the integrand at the point c, on
    meridian rows.  The oracle commutes with rotations, its field
    |z|^(p-1) z1 is the e1 component of the rotation-equivariant
    |z|^(p-1) z, and it is homogeneous of the given degree, so its value at
    x is |x|^degree (x1/|x|) times that at e1, where the integrand is axial:
    every x takes the one plan of (spec, d).  value and err_estimate are
    scaled; nodes_used and converged are those at e1.  A point _point refuses,
    and one where |x|^degree or the value overflows, raise DomainError.
    """
    x, r = _point(x, d)
    scale = _point_power(r, degree) * (float(x[0]) / r)
    res = pv_integral(even_at(_E1), d, spec, singular_pair=True)
    value, err = factor * (scale * res.value), abs(factor) * (abs(scale) * res.err_estimate)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"the oracle's value overflows at |x| = {r!r}")
    return PVResult(value, err, res.nodes_used, res.converged)


def _operator_even(pair, d: int, s: float, p: float, x: np.ndarray):
    """Even part in h of the operator's integrand k_pair(x, x+h) (u(x) - u(x+h)).

    u = |z|^(p-1) z1.  The kernel at x + h and x - h shares |h|, its power
    and <hhat, xhat>^2, and the field is taken at both points; |x + h| and
    |x - h| are taken once per row, for the kernel and the field.  x - h has
    the bits of x + (-h), so each row has the bits of (g(h) + g(-h))/2.
    """
    ux = homogeneous_field(p, x)

    def even(h):
        y_plus, y_minus = x + h, x - h
        r_plus, r_minus = _safe_norms(y_plus), _safe_norms(y_minus)
        k_plus, k_minus = _kernel(pair, d, s, x, h, (y_plus, r_plus), (y_minus, r_minus))
        u_plus, u_minus = _field(p, y_plus, r_plus), _field(p, y_minus, r_minus)
        return 0.5 * (k_plus * (ux - u_plus) + k_minus * (ux - u_minus))

    return even


def _potential_even(d: int, s: float, power: float, x: np.ndarray):
    """Even part in h of the potential's integrand u(x - h) |h|^(-(d-1+s)).

    u = |z|^(power-1) z1.  |h| and its power are taken once per row for
    x - h and x + h, with the bits of (g(h) + g(-h))/2: |-h| has the bits
    of |h|, and x - (-h) those of x + h.
    """

    def even(h):
        w = _norms(h) ** (-(d - 1.0 + s))
        y_minus, y_plus = x - h, x + h
        u_minus = _field(power, y_minus, _safe_norms(y_minus))
        u_plus = _field(power, y_plus, _safe_norms(y_plus))
        return 0.5 * (u_minus * w + u_plus * w)

    return even


def f_integral_num(which: str, d: int, s: float, delta: float, spec: QuadratureSpec) -> PVResult:
    """Direct quadrature of one of the named singular integrals, at e1."""
    if which in ("f1", "f2"):
        # -1/2 of the isotropic and the radial part of the difference model's operator
        _check_range(d, s, delta)
        pair = (1.0, 0.0) if which == "f1" else (0.0, 1.0)
        p = 1.0 - delta
        even_at, factor, degree = partial(_operator_even, pair, d, s, p), -1.0, p - 2.0 * s
    elif which in ("f3", "f4"):
        # the potential of the Riesz model's field and of its divergence field
        _check_range(d, s, delta, riesz=True)
        power = s - delta if which == "f3" else -1.0 - delta
        even_at, factor, degree = partial(_potential_even, d, s, power), 1.0, power + 1.0 - s
    else:
        raise DomainError(f"unknown integral {which!r}")
    return _on_axis(even_at, d, np.eye(d)[0], spec, factor, degree)


def frac_op_num(params: FracParams, x, spec: QuadratureSpec) -> PVResult:
    """Annulus-limit value 2 lim int k(x, x+h) (u(x) - u(x+h)) dh.

    This is the kappa-free strong form; multiply by kappa(d, s) to compare
    with the closed-form operator value.
    """
    d, s, p = params.d, params.s, 1.0 - params.delta
    pair = _coeffs("fractional", d, s, params.epsilon)
    return _on_axis(partial(_operator_even, pair, d, s, p), d, x, spec, 2.0, p - 2.0 * s)
