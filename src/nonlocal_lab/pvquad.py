"""Principal-value quadrature for the singular integrals of the model.

Every integral here is of the form  p.v. integral g(h) dh  over R^d with a
non-integrable singularity at the origin, possible kinks or integrable
singularities at a pair of antipodal points, and slow power decay at
infinity.  The evaluation strategy:

  * antipodal symmetrization g_sym(h) = (g(h) + g(-h))/2 cancels the odd
    leading parts pointwise, which makes both the origin and the tail
    absolutely convergent and realizes the principal value at the level of
    the integrand;
  * log-graded geometric radial bands with Gauss-Legendre nodes in log r and
    a spectral rule on the sphere handle each annulus; each pass over the
    bands (the main bands, their downgraded jackknife copy, each patch)
    evaluates the integrand on groups of whole bands, one call per group,
    and reduces every band on its own, so the grouping does not change a
    bit of any band value;
  * off-origin singular points are wrapped in smooth partition-of-unity
    patches integrated in their own polar coordinates with graded bands;
  * the truncation at r_min / r_max is removed by geometric completion: the
    per-decade shell sums of a homogeneous-tail integrand form a geometric
    sequence, whose measured ratio extrapolates the missing mass at both
    ends (this is the Richardson limit over shrinking/growing windows).

The full sphere rule covers d = 2 and 3.  In any d >= 3 an integrand that
depends on h only through (h . e1, |h|), with its singular points on the e1
axis, is integrated on a meridian rule (`axial=True`): by Funk-Hecke the
sphere integral is |S^(d-2)| int g(mu) (1 - mu^2)^((d-3)/2) dmu, taken at
the Gauss nodes of that weight (Golub-Welsch).

There are two oracles on fields u = |z|^(p-1) z1: the operator
2 p.v. int k(x, x+h) (u(x) - u(x+h)) dh, whose kernel takes a coefficient
pair (a_iso, b_rad), and the potential p.v. int u(x - h) |h|^(-(d-1+s)) dh
of I_(1-s).  Both commute with rotations, so their value at x is (x1/|x|)
times their value at |x| e1, where the integrand is axial.  `_on_axis` alone
picks the rule: the meridian rule for d >= 3, the full circle at x itself
for d = 2.  `frac_op_num` is the operator with the fractional pair, and the
Riesz oracles scale the potential.  The named integrals are the two oracles
at e1: f1 and f2 are -1/2 times the operator on the difference model's field
(p = 1 - delta) with the isotropic pair (1, 0) and the radial pair (0, 1);
f3 and f4 are the potential of the Riesz model's field (p = s - delta) and
of its divergence field (p = -1 - delta).  The meridian rule also has a
closed form at d = 2, which the energy's x rule uses.  Every path is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NotConverged
from .model import FracParams, _check_range, _coeffs, _field, _kernel, _norms, _unit
from .specfun import sphere_area

__all__ = ["QuadratureSpec", "PVResult", "pv_integral", "f_integral_num", "frac_op_num"]

# Largest radius of a partition-of-unity patch around a singular point, and
# the inner end of the patch's radial bands.
_PATCH_RADIUS = 0.3
_PATCH_RHO_MIN = 1e-10

# Fewest points per integrand call: consecutive bands of a pass are grouped
# until they hold this many, so the per-call overhead is paid per group.
_BATCH = 4096


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
        if self.bands_per_decade < 1 or self.radial_nodes < 2 or self.angular_nodes < 4:
            raise DomainError("degenerate quadrature resolution")


@dataclass(frozen=True)
class PVResult:
    value: float
    err_estimate: float
    nodes_used: int
    converged: bool


@lru_cache(maxsize=32)
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=32)
def _sphere_rule(d: int, angular_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating smooth functions over S^(d-1)."""
    if d == 2:
        theta = 2.0 * math.pi * (np.arange(angular_nodes) + 0.5) / angular_nodes
        omegas = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(angular_nodes, 2.0 * math.pi / angular_nodes)
        return omegas, weights
    if d == 3:
        n_mu = max(8, angular_nodes // 2)
        n_phi = max(8, angular_nodes)
        mu, wmu = _gl(n_mu)
        phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
        sin_t = np.sqrt(1.0 - mu**2)
        omegas = np.stack(
            [
                np.repeat(mu, n_phi),
                np.repeat(sin_t, n_phi) * np.tile(np.cos(phi), n_mu),
                np.repeat(sin_t, n_phi) * np.tile(np.sin(phi), n_mu),
            ],
            axis=1,
        )
        weights = np.repeat(wmu, n_phi) * (2.0 * math.pi / n_phi)
        return omegas, weights
    raise DomainError("the full sphere rule covers d in {2, 3}; use the meridian rule")


@lru_cache(maxsize=32)
def _meridian_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating functions of omega_1 alone over S^(d-1).

    The nodes omega = (mu, sqrt(1 - mu^2), 0, ...) carry the Gauss nodes mu
    for the weight (1 - mu^2)^lam, lam = (d - 3)/2: the eigenvalues of the
    Jacobi matrix of the Gegenbauer recurrence, with weights from the first
    eigenvector components (Golub & Welsch 1969).  The weights sum to
    |S^(d-1)| = |S^(d-2)| int (1 - mu^2)^lam dmu.  At d = 3 the nodes are
    the Gauss-Legendre nodes of the product rule's mu factor.  At d = 2 the
    recurrence is 0/0 (lam = -1/2); the rule there is the upper half of the
    2n-node circle rule with doubled weights, the circle rule folded by
    omega_2 -> -omega_2.
    """
    if d == 2:
        omegas, weights = _sphere_rule(2, 2 * n)
        return omegas[:n], 2.0 * weights[:n]
    lam = 0.5 * (d - 3)
    k = np.arange(1, n)
    jacobi = np.diag(np.sqrt(k * (k + 2.0 * lam) / (4.0 * (k + lam) ** 2 - 1.0)), -1)
    mu, vecs = np.linalg.eigh(jacobi)
    w = vecs[0] ** 2
    # the weight is even: symmetrize away the eigensolver's rounding
    mu, w = 0.5 * (mu - mu[::-1]), 0.5 * (w + w[::-1])
    omegas = np.zeros((n, d))
    omegas[:, 0] = mu
    omegas[:, 1] = np.sqrt(1.0 - mu**2)
    return omegas, sphere_area(d) * w


def _band_edges(lo: float, hi: float, per_decade: int) -> np.ndarray:
    n = max(1, math.ceil(math.log10(hi / lo) * per_decade))
    return np.exp(np.linspace(math.log(lo), math.log(hi), n + 1))


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C^infinity monotone 0 -> 1 on [0, 1]."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def _chi(rho: np.ndarray, radius: float) -> np.ndarray:
    """Smooth cutoff: 1 inside radius/2, 0 outside radius."""
    return 1.0 - _smoothstep((rho - 0.5 * radius) / (0.5 * radius))


class _Evaluator:
    """Symmetrized, patch-masked integrand with an evaluation counter."""

    def __init__(self, integrand, patches):
        self.integrand = integrand
        self.patches = patches
        self.nodes = 0

    def sym(self, pts: np.ndarray) -> np.ndarray:
        self.nodes += 2 * len(pts)
        return 0.5 * (
            np.asarray(self.integrand(pts), dtype=float)
            + np.asarray(self.integrand(-pts), dtype=float)
        )

    def masked(self, pts: np.ndarray) -> np.ndarray:
        vals = self.sym(pts)
        if self.patches:
            mask = np.ones(len(pts))
            for center, radius in self.patches:
                mask -= _chi(_norms(pts - center), radius)
            vals = vals * mask
        return vals


def _log_band(a, b, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre radii in log r on [a, b], with the weights of r^(d-1) dr."""
    t, wt = _gl(n)
    ta, tb = math.log(a), math.log(b)
    tm, th = 0.5 * (ta + tb), 0.5 * (tb - ta)
    r = np.exp(tm + th * t)
    return r, wt * th * r**d  # dh = r^(d-1) dr dsigma and dr = r dt


def _band_values(ev_fn, bands, d, radial_nodes) -> list[float]:
    """Values of the bands (a, b, (omegas, oweights)) of one pass, in order.

    Consecutive whole bands are grouped until they hold at least _BATCH
    points, and each group is one ev_fn call.  Each band is still reduced on
    its own rows, so its value does not depend on the grouping.
    """
    values: list[float] = []
    group, size = [], 0
    for i, (a, b, (omegas, oweights)) in enumerate(bands):
        r, wr = _log_band(a, b, radial_nodes, d)
        pts = (r[:, None, None] * omegas[None, :, :]).reshape(-1, omegas.shape[1])
        group.append((pts, wr, oweights))
        size += len(pts)
        if size < _BATCH and i + 1 < len(bands):
            continue
        vals = ev_fn(np.concatenate([g_pts for g_pts, _, _ in group]))
        start = 0
        for g_pts, g_wr, g_ow in group:
            band = vals[start : start + len(g_pts)].reshape(len(g_wr), -1)
            values.append(float(g_wr @ (band @ g_ow)))
            start += len(g_pts)
        group, size = [], 0
    return values


def _geometric_tail(shells: list[float], scale: float) -> tuple[float, float] | None:
    """Single-ratio extrapolation; shells[0] is adjacent to the edge."""
    if len(shells) < 2 or shells[1] == 0.0:
        return None
    q = shells[0] / shells[1]
    if not abs(q) < 0.98:
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
    if not root < 0.98:
        return None
    prev, cur = s2, s3
    tail = 0.0
    for _ in range(2000):
        prev, cur = cur, alpha * cur + beta * prev
        tail += cur
        if abs(cur) <= 1e-16 * scale:
            break
    return tail


def _completion(shells: list[float], scale: float) -> tuple[float, float]:
    """(missing mass beyond the edge, error bound) from edge-ordered shells.

    shells[0] is the decade adjacent to the window edge, shells[1] the next
    one inward.  Power-law tails make consecutive shells geometric; a
    two-power recurrence fit extrapolates the rest, with a one-shell-deeper
    refit as the jackknife error.  Raises NotConverged on a growth signal.
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
        raise NotConverged("shell sums do not contract towards the window edge")
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


def _shell_sums(bands, values) -> list[float]:
    """Group band values into log10 shells by band midpoint, inner first."""
    sums: dict[int, float] = {}
    for (a, b), v in zip(bands, values):
        k = math.floor(0.5 * (math.log10(a) + math.log10(b)))
        sums[k] = sums.get(k, 0.0) + v
    return [sums[k] for k in sorted(sums)]


def _split_near_patches(base_bands, patches, fine_width: float):
    """Refine bands whose radius range crosses a patch annulus.

    The partition-of-unity mask is smooth but varies on the patch scale, so
    bands meeting any annulus [|p|-R, |p|+R] are split into log sub-bands of
    roughly `fine_width` linear width and flagged for a finer sphere rule.
    """
    if not patches:
        return [(a, b, False) for a, b in base_bands]
    annuli = [
        (float(np.linalg.norm(p)) - r, float(np.linalg.norm(p)) + r) for p, r in patches
    ]
    # the sphere rule is also upgraded on a factor-2 neighborhood, where the
    # integrand still carries patch-scale angular features
    halo = [(0.5 * lo, 2.0 * hi) for lo, hi in annuli]
    out = []
    for a, b in base_bands:
        if any(b > lo and a < hi for lo, hi in annuli):
            pieces = min(64, max(1, math.ceil((b - a) / fine_width)))
            sub = np.exp(np.linspace(math.log(a), math.log(b), pieces + 1))
            out.extend((float(sub[i]), float(sub[i + 1]), True) for i in range(pieces))
        elif any(b > lo and a < hi for lo, hi in halo):
            out.append((a, b, True))
        else:
            out.append((a, b, False))
    return out


def _patch_geometry(singular_points):
    pts = [np.asarray(p, dtype=float) for p in singular_points]
    radii = []
    for i, p in enumerate(pts):
        r = min(_PATCH_RADIUS, 0.5 * float(np.linalg.norm(p)))
        for j, q in enumerate(pts):
            if i != j:
                r = min(r, 0.45 * float(np.linalg.norm(p - q)))
        if r <= _PATCH_RHO_MIN:
            raise DomainError("singular points too close together (or to 0) to patch")
        radii.append(r)
    return list(zip(pts, radii))


def pv_integral(
    integrand, d: int, spec: QuadratureSpec, singular_points=(), axial: bool = False
) -> PVResult:
    """Symmetric-window principal value of a vectorized integrand.

    `integrand` maps an (n, d) array of points to (n,) values; it is only
    ever evaluated away from the origin and from the declared
    `singular_points` patch centers.  The returned value extrapolates the
    window to (0, infinity) by shell completion at both ends.

    With `axial=True` the integrand must depend on h only through
    (h . e1, |h|), and every sphere rule is the meridian rule; the singular
    points must then lie on the e1 axis.  Without it, d is 2 or 3.
    """
    _check_range(d)
    if axial and any(np.any(np.asarray(p, dtype=float)[1:]) for p in singular_points):
        raise DomainError("an axial integral needs its singular points on the e1 axis")

    def rule(ang_nodes):
        return _meridian_rule(d, max(8, ang_nodes // 2)) if axial else _sphere_rule(d, ang_nodes)

    patches = _patch_geometry(singular_points)
    ev = _Evaluator(integrand, patches)

    edges = _band_edges(spec.r_min, spec.r_max, spec.bands_per_decade)
    fine_width = min((r for _, r in patches), default=1.0) / 4.0
    bands = _split_near_patches(list(zip(edges[:-1], edges[1:])), patches, fine_width)
    fine_mult = 6 if d == 2 else 2

    def run_bands(radial_nodes, ang_nodes):
        coarse = rule(ang_nodes)
        fine = rule(ang_nodes * fine_mult)
        graded = [(a, b, fine if is_fine else coarse) for a, b, is_fine in bands]
        return _band_values(ev.masked, graded, d, radial_nodes)

    band_vals = run_bands(spec.radial_nodes, spec.angular_nodes)
    # resolution jackknife: the same bands on a downgraded rule bound the
    # discretization error of the nominal one
    band_vals_low = run_bands(max(4, spec.radial_nodes - 3), max(8, spec.angular_nodes // 2))

    main_sum = float(sum(band_vals))
    scale = float(sum(abs(v) for v in band_vals)) + 1e-300
    disc_err = 0.5 * abs(main_sum - float(sum(band_vals_low)))

    shells = _shell_sums([(a, b) for a, b, _ in bands], band_vals)
    inner_tail, inner_err = _completion(shells, scale)
    outer_tail, outer_err = _completion(shells[::-1], scale)

    patch_sum = 0.0
    patch_err = 0.0
    for center, radius in patches:
        p_edges = _band_edges(_PATCH_RHO_MIN, radius, spec.bands_per_decade)
        p_bands = _split_near_patches(
            list(zip(p_edges[:-1], p_edges[1:])), [(np.zeros(d), radius)], radius / 8.0
        )

        def patch_fn(local_pts, _c=center, _r=radius):
            # antipodal averaging inside the ball kills the odd leading
            # part of the local singularity at evaluation level
            rho = _norms(local_pts)
            pair = ev.sym(_c[None, :] + local_pts) + ev.sym(_c[None, :] - local_pts)
            return 0.5 * pair * _chi(rho, _r)

        def run_patch(radial_nodes, ang_nodes):
            p_rule = rule(ang_nodes)
            return _band_values(patch_fn, [(a, b, p_rule) for a, b, _ in p_bands], d, radial_nodes)

        p_vals = run_patch(spec.radial_nodes, spec.angular_nodes)
        p_vals_low = run_patch(max(4, spec.radial_nodes - 3), max(8, spec.angular_nodes // 2))

        p_shells = _shell_sums([(a, b) for a, b, _ in p_bands], p_vals)
        p_scale = float(sum(abs(v) for v in p_vals)) + 1e-300
        p_tail, p_tail_err = _completion(p_shells, p_scale)
        patch_sum += float(sum(p_vals)) + p_tail
        patch_err += p_tail_err + 1e-13 * p_scale
        disc_err += 0.5 * abs(float(sum(p_vals)) - float(sum(p_vals_low)))

    value = main_sum + inner_tail + outer_tail + patch_sum
    err = inner_err + outer_err + patch_err + disc_err + 1e-13 * scale
    converged = err <= spec.target_rel_err * abs(value) + 1e-10
    return PVResult(value=value, err_estimate=err, nodes_used=ev.nodes, converged=converged)


def _scaled(res: PVResult, factor: float) -> PVResult:
    return PVResult(
        value=factor * res.value,
        err_estimate=abs(factor) * res.err_estimate,
        nodes_used=res.nodes_used,
        converged=res.converged,
    )


def _on_axis(integrate, d: int, x) -> PVResult:
    """integrate(x, axial) of an operator on the field phi(|z|) z1, at x != 0.

    The operators here commute with rotations, and phi(|z|) z1 is the e1
    component of the vector field phi(|z|) z, which is rotation-equivariant.
    So the value at x is (x1/|x|) times the value at |x| e1, where the
    integrand depends on h only through (h . e1, |h|) and the meridian rule
    applies.  At d = 2 the integral runs at x itself on the full rule.  This
    is the one place that chooses between the two rules.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise DomainError(f"x must be a point in R^{d}")
    _, r = _unit(x)
    if d == 2:
        return integrate(x, False)
    on_axis = np.zeros(d)
    on_axis[0] = r
    return _scaled(integrate(on_axis, True), float(x[0]) / r)


def _operator_integrand(pair, d: int, s: float, p: float, x: np.ndarray):
    """Integrand k_pair(x, x+h) (u(x) - u(x+h)) of the operator on u = |z|^(p-1) z1."""
    ux = float(_field(p, x[None, :])[0])

    def g(h):
        y = x[None, :] + h
        return _kernel(pair, d, s, x, h, y) * (ux - _field(p, y))

    return g


def _operator(pair, d: int, s: float, p: float, x, spec: QuadratureSpec) -> PVResult:
    """2 p.v. int k_pair(x, x+h) (u(x) - u(x+h)) dh at x != 0, u = |z|^(p-1) z1."""

    def integrate(x, axial):
        g = _operator_integrand(pair, d, s, p, x)
        return pv_integral(g, d, spec, singular_points=(-x, x), axial=axial)

    return _scaled(_on_axis(integrate, d, x), 2.0)


def _potential(d: int, s: float, power: float, x, spec: QuadratureSpec) -> PVResult:
    """p.v. int u(x - h) |h|^(-(d-1+s)) dh at x != 0, u = |z|^(power-1) z1: I_(1-s) of u."""

    def integrate(x, axial):
        def g(h):
            return _field(power, x[None, :] - h) * _norms(h) ** (-(d - 1.0 + s))

        return pv_integral(g, d, spec, singular_points=(x, -x), axial=axial)

    return _on_axis(integrate, d, x)


def f_integral_num(which: str, d: int, s: float, delta: float, spec: QuadratureSpec) -> PVResult:
    """Direct quadrature of one of the named singular integrals, at e1."""
    if which in ("f1", "f2"):
        # the isotropic and the radial part of the difference model's operator
        _check_range(d, s, delta)
        pair = (1.0, 0.0) if which == "f1" else (0.0, 1.0)
        return _scaled(_operator(pair, d, s, 1.0 - delta, np.eye(d)[0], spec), -0.5)
    if which in ("f3", "f4"):
        # the potential of the Riesz model's field and of its divergence field
        _check_range(d, s, delta, model="riesz")
        power = s - delta if which == "f3" else -1.0 - delta
        return _potential(d, s, power, np.eye(d)[0], spec)
    raise DomainError(f"unknown integral {which!r}")


def frac_op_num(params: FracParams, x, spec: QuadratureSpec) -> PVResult:
    """Annulus-limit value 2 lim int k(x, x+h) (u(x) - u(x+h)) dh.

    This is the kappa-free strong form; multiply by kappa(d, s) to compare
    with the closed-form operator value.
    """
    pair = _coeffs("fractional", params)
    return _operator(pair, params.d, params.s, 1.0 - params.delta, x, spec)
