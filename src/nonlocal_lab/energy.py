"""Nonlocal quadratic energy on compactly supported test functions.

A test function is v(x) = phi(|x|) x1, given by its radial profile phi.
Such a v is invariant under every rotation that fixes e1, and so is the
kernel, so every x integrand here depends on x only through (x1, |x|).  The
one x rule is Gauss-Legendre radii times the meridian rule of `pvquad`; its
radial factor alone carries the first variation.

The energy is a quadratic form in samples of the test function on a frozen
node set: v at the x nodes, v(x) - v(x + h) for the near h nodes, and grad v
at the x nodes.  Each function is sampled once; averages and differences are
formed on the sample arrays by linearity, so the parallelogram identity

    J(v1)/2 + J(v2)/2 - J((v1+v2)/2) = (1/4) J-form of (v1 - v2)

holds at node level to rounding.  The node geometry depends on (d, support
radius, spec) only and is shared by every s and epsilon; the weights for one
(s, epsilon) are cheap next to it.  The form has four parts: pairs over a
graded mesh in |h| for the near h nodes (some x + h inside the support
ball); one per-x weight on v(x)^2 folding the far h nodes, where
v(x + h) = 0; an analytic Taylor correction for |h| below the mesh (quadratic
in the gradient, so identity-preserving); and an analytic far tail
(quadratic in the value).  The h mesh keeps the full sphere rule, so the
energy runs at d = 2 and 3.  At the default spec one d = 3 energy takes
about 2.7 s and 590 MB peak (288 x nodes, 73728 h nodes), against 0.4 s
and 90 MB at d = 2 (288 and 4608), serially on a 2-vCPU x86 host.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NotConverged
from .model import _ORIGIN_GUARD, FracParams, _check_range, _coeffs, _norms, _rowdot
from .pvquad import QuadratureSpec, _band_edges, _gl, _log_band, _meridian_rule, _sphere_rule
from .pvquad import frac_op_num
from .closedform import operator_value
from .specfun import gamma, kappa, sphere_area

__all__ = [
    "TestFunction",
    "bump_x1",
    "energy_eval",
    "convexity_identity_check",
    "first_variation_residual",
    "gamma_limit_probe",
    "sphere_moment2",
    "sphere_moment4",
    "local_energy",
]


@dataclass(frozen=True)
class TestFunction:
    """The test function v(x) = phi(|x|) x1, supported in the ball B_radius.

    phi and dphi map an array of radii to the profile and its derivative;
    phi vanishes from the radius on.
    """

    phi: callable
    dphi: callable
    radius: float

    def value(self, pts) -> np.ndarray:
        """v at each row of an (n, d) array of points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.phi(_norms(pts)) * pts[:, 0]

    def grad(self, pts) -> np.ndarray:
        """grad v = phi(r) e1 + phi'(r) x1 x / r at each row."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = _norms(pts)
        g = (self.dphi(r) * pts[:, 0] / np.maximum(r, _ORIGIN_GUARD))[:, None] * pts
        g[:, 0] += self.phi(r)
        return g


def bump_x1(radius: float = 1.0) -> TestFunction:
    """Analytic odd bump exp(-1/(1-|x/r|^2)) * (x1/r), supported in B_r."""

    def gap(r):
        # 1 - (r/radius)^2, floored where exp(-1/gap) underflows to 0 anyway
        # (below about 1/745): no value changes, and phi is 0 from the radius on
        return np.maximum(1.0 - r * r / radius**2, 1e-3)

    def phi(r):
        return np.exp(-1.0 / gap(r)) / radius

    def dphi(r):
        return -2.0 * r / (radius * gap(r)) ** 2 * phi(r)

    return TestFunction(phi, dphi, radius)


class _Samples(NamedTuple):
    """One test function sampled on a grid.

    The energy is quadratic in these arrays, and a linear combination of
    functions is sampled by the same combination of their arrays.  Keeping
    the pair differences rather than v(x+h) keeps that linearity exact to
    relative rounding even where v(x) - v(x+h) cancels, at small |h|.
    """

    vx: np.ndarray  # v(x)
    dv: np.ndarray  # v(x) - v(x+h) on the near h nodes
    gx: np.ndarray  # grad v(x)


def _row_chunks(n_rows: int, width: int, fn) -> list:
    """fn(i0, i1) over x-row chunks of about a million pair entries each."""
    chunk = max(1, int(1e6 / max(1, width)))
    return [fn(i0, min(n_rows, i0 + chunk)) for i0 in range(0, n_rows, chunk)]


def _radii(radius: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes and weights for int_0^radius dr."""
    t, w = _gl(n)
    return 0.5 * radius * (t + 1.0), 0.5 * radius * w


def _ball_rule(d: int, radius: float, n_r: int, n_mu: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre radii x meridian rule on B_radius, for functions of (x1, |x|) alone."""
    om, ow = _meridian_rule(d, n_mu)
    r, wr = _radii(radius, n_r)
    wr = wr * r ** (d - 1)  # jacobian r^(d-1)
    nodes = (r[:, None, None] * om[None, :, :]).reshape(-1, d)
    return nodes, (wr[:, None] * ow[None, :]).reshape(-1)


@dataclass(frozen=True)
class _Form:
    """kappa/2 times the double integral, as a quadratic form in samples."""

    kappa: float
    pair: np.ndarray  # (x, near h) weights on (v(x) - v(x+h))^2
    diag: np.ndarray  # per-x weight on v(x)^2: far h nodes and far tail
    taylor: np.ndarray  # (x, omega) weights on (grad v(x) . omega)^2
    om_h: np.ndarray

    def energy(self, *terms: tuple[float, _Samples]) -> np.longdouble:
        """The energy of the function sum(c * v for c, v in terms).

        Identities between energies cancel down to |v1 - v2|^2, so the
        combination, the squares and the sums are taken in extended precision
        (plain double where long double is double).
        """

        def combine(field, rows=slice(None)):
            parts = (np.multiply(getattr(v, field)[rows], c, dtype=np.longdouble)
                     for c, v in terms)
            return functools.reduce(np.add, parts)

        def pair(i0, i1):
            d = combine("dv", slice(i0, i1))
            d *= d
            d *= self.pair[i0:i1]
            return np.sum(d)

        gdot = combine("gx") @ self.om_h.T
        total = np.sum(self.diag * combine("vx") ** 2) + np.sum(self.taylor * gdot**2)
        total += sum(_row_chunks(len(self.pair), self.pair.shape[1], pair))
        return 0.5 * self.kappa * total


class _EnergyGrid:
    """Frozen node set on which the energy is a quadratic form in samples.

    The x nodes are the module's x rule on the support ball; for each x
    the h mesh is a shared set of log-graded radial bands times the full
    sphere rule.  The geometry depends on (d, radius, spec) only, so one grid
    serves every s, epsilon and test function entering one comparison.
    """

    def __init__(self, d: int, radius: float, spec: QuadratureSpec):
        # the full sphere rule raises for any d but 2 and 3, before any allocation
        om_h, ow_h = _sphere_rule(d, max(16, spec.angular_nodes // 2))
        self.d = d
        self.x, self.wx = _ball_rule(d, radius, 18, max(12, spec.angular_nodes // 4))

        # inner h nodes: log bands from the near cutoff to the far cutoff
        h_min, h_max = 1e-7, 1e5
        edges = _band_edges(h_min, h_max, 2)
        rr, ww = zip(*(_log_band(a, b, 6, d) for a, b in zip(edges[:-1], edges[1:])))
        r_h = np.repeat(np.concatenate(rr), len(om_h))
        hhat = np.tile(om_h, (len(r_h) // len(om_h), 1))
        h = r_h[:, None] * hhat
        w_h = (np.concatenate(ww)[:, None] * ow_h[None, :]).reshape(-1)
        self.h_min, self.h_max = h_min, h_max
        self.om_h, self.ow_h = om_h, ow_h

        # the kernel is k(x, x+h) = (a_iso + b_rad C) |h|^(-d-2s) with
        # C = ((x.hhat / |x|)^2 + ((x+h).hhat / |x+h|)^2) / 2, on x-chunks
        rx2 = _rowdot(self.x, self.x)
        c = np.empty((len(self.x), len(h)))
        outside = np.empty(c.shape, dtype=bool)

        def fill(i0, i1):
            xh = self.x[i0:i1] @ hhat.T
            y2 = rx2[i0:i1, None] + r_h * (2.0 * xh + r_h)  # |x+h|^2
            # a cosine squared: the clip guards the rounding where x+h ~ 0
            cy2 = np.minimum((xh + r_h) ** 2 / np.maximum(y2, 1e-300), 1.0)
            c[i0:i1] = 0.5 * (xh * xh / rx2[i0:i1, None] + cy2)
            outside[i0:i1] = y2 > radius**2

        _row_chunks(len(self.x), len(h), fill)

        # near set: the h nodes for which some x+h lies inside the ball.  On
        # every other node v(x+h) = 0 for any v supported in the ball, so
        # those pairs fold into one weight per x.
        near = ~outside.all(axis=0)
        self.h_near = h[near]
        self.c_near, self.c_far = c[:, near], c[:, ~near]
        self.r_near, self.r_far = r_h[near], r_h[~near]
        self.wh_far = w_h[~near]
        # The x nodes cover the ball only; ordered pairs leaving it appear
        # once here but twice in the full double integral: factor 2.
        self.base_near = self.wx[:, None] * w_h[near] * np.where(outside[:, near], 2.0, 1.0)
        # near-field Taylor directions (x.omega / |x|)^2
        self.c_taylor = (self.x @ om_h.T) ** 2 / rx2[:, None]

    def samples(self, v: TestFunction) -> _Samples:
        """v and grad v at every node the form reads, each taken once."""
        vx = v.value(self.x)
        dv = np.empty(self.c_near.shape)

        def fill(i0, i1):
            pts = (self.x[i0:i1, None, :] + self.h_near[None, :, :]).reshape(-1, self.d)
            dv[i0:i1] = vx[i0:i1, None] - v.value(pts).reshape(i1 - i0, -1)

        _row_chunks(len(self.x), len(self.h_near), fill)
        return _Samples(vx, dv, v.grad(self.x))

    def weights(self, params: FracParams) -> _Form:
        """The quadratic form's weights at (s, epsilon); cheap next to the grid."""
        d, s = self.d, params.s
        a_iso, b_rad = _coeffs("fractional", params)

        pair = np.empty(self.c_near.shape)
        rpow_near = self.r_near ** (-d - 2.0 * s)

        def fill(i0, i1):
            pair[i0:i1] = self.base_near[i0:i1] * rpow_near * (a_iso + b_rad * self.c_near[i0:i1])

        _row_chunks(len(self.x), len(self.r_near), fill)

        # far h nodes: every pair leaves the ball, factor 2, v(x+h) = 0
        w_far = self.wh_far * self.r_far ** (-d - 2.0 * s)
        far = 2.0 * (a_iso * float(np.sum(w_far)) + b_rad * (self.c_far @ w_far))

        # far tail: int_(|h|>h_max) k dh * v(x)^2, with A(x+h) -> A(hhat);
        # the far region is entirely outside the support ball: factor 2
        surf = sphere_area(d)
        tail_a = a_iso + 0.5 * b_rad * (1.0 + 1.0 / d)
        tail = 2.0 * self.h_max ** (-2.0 * s) / (2.0 * s) * surf * tail_a

        # near-field Taylor weights: int_(|h|<h_min) k (grad v . h)^2 dh
        # = h_min^(2-2s)/(2-2s) * sum_omega w <A(x)w,w> (grad v . w)^2
        near_scale = self.h_min ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
        taylor = (near_scale * self.wx)[:, None] * self.ow_h * (a_iso + b_rad * self.c_taylor)
        return _Form(kappa(d, s), pair, self.wx * (far + tail), taylor, self.om_h)


def energy_eval(params: FracParams, v: TestFunction, spec: QuadratureSpec) -> float:
    """Value of the nonlocal energy for one test function."""
    grid = _EnergyGrid(params.d, v.radius, spec)
    return float(grid.weights(params).energy((1.0, grid.samples(v))))


def convexity_identity_check(
    params: FracParams, v1: TestFunction, v2: TestFunction, spec: QuadratureSpec
) -> tuple[float, float]:
    """(lhs, rhs) of the parallelogram identity on a shared node set."""
    grid = _EnergyGrid(params.d, max(v1.radius, v2.radius), spec)
    form = grid.weights(params)
    p, q = grid.samples(v1), grid.samples(v2)
    mean = form.energy((0.5, p), (0.5, q))
    lhs = 0.5 * form.energy((1.0, p)) + 0.5 * form.energy((1.0, q)) - mean
    rhs = 0.25 * form.energy((1.0, p), (-1.0, q))
    return float(lhs), float(rhs)


def first_variation_residual(
    params: FracParams, eta: TestFunction, spec: QuadratureSpec
) -> float:
    """Quadrature of the first variation int op(x) eta(x) dx.

    The operator is rotation-equivariant, op(x) = (x1/|x|) op(|x| e1), so
    for eta = phi(|x|) x1 this is m2(d) int op(r e1) phi(r) r^d dr with
    m2 = sphere_moment2(d), on six radii.  Zero (to quadrature accuracy)
    exactly when epsilon is the coupling; the closed-form pairing on the
    same nodes is the guard: the two paths must agree within the accumulated
    quadrature error bound.
    """
    d = params.d
    if eta.radius >= 1.0:
        raise DomainError("test function must be supported strictly inside B_1")
    r, wr = _radii(eta.radius, 6)
    weights = sphere_moment2(d) * wr * eta.phi(r) * r**d
    kap = kappa(d, params.s)
    quad = bound = closed = 0.0
    for x, w in zip(r[:, None] * np.eye(d)[0], weights):
        res = frac_op_num(params, x, spec)
        quad += w * kap * res.value
        bound += abs(w) * kap * res.err_estimate
        closed += w * operator_value(params, x)
    if abs(quad - closed) > 5.0 * bound + 1e-8:
        raise AssertionError(
            f"first-variation paths disagree: quadrature {quad}, closed {closed}, "
            f"bound {bound}"
        )
    return quad


def sphere_moment2(d: int) -> float:
    """int_S sigma_i^2 dsigma = Gamma(1/2)^d / Gamma(d/2 + 1)."""
    return math.pi ** (0.5 * d) / gamma(0.5 * d + 1.0)


def sphere_moment4(d: int, same_axis: bool = False) -> float:
    """int_S sigma_i^2 sigma_1^2 dsigma; 3x larger on the diagonal i = 1."""
    base = sphere_moment2(d) / (d + 2.0)
    return 3.0 * base if same_axis else base


def local_energy(d: int, epsilon: float, v: TestFunction) -> float:
    """(1/2) int <A_eps grad v, grad v> dx, A_eps = (1 - eps) I + eps xhat xhat.

    The integrand is quadratic in x1/|x|, which two meridian nodes integrate
    exactly.  The profile is not polynomial in r: 100 radii take the bump
    to rounding, where the energy grid's 18 leave about 1e-4.
    """
    _check_range(d, epsilon=epsilon)
    x, wx = _ball_rule(d, v.radius, 100, 2)
    g = v.grad(x)
    proj2 = _rowdot(g, x) ** 2 / _rowdot(x, x)
    return 0.5 * float(wx @ ((1.0 - epsilon) * _rowdot(g, g) + epsilon * proj2))


def gamma_limit_probe(
    eps: float,
    v: TestFunction,
    s_list,
    d: int = 2,
    spec: QuadratureSpec | None = None,
) -> list[tuple[float, float, float, float]]:
    """Rows (s, nonlocal energy, local energy, relative gap) along s -> 1."""
    spec = spec or QuadratureSpec()
    loc = local_energy(d, eps, v)
    if not math.isfinite(loc) or loc <= 0.0:
        raise NotConverged("local-energy reference is degenerate")
    grid = _EnergyGrid(d, v.radius, spec)
    samples = grid.samples(v)
    rows = []
    for s in s_list:
        val = float(grid.weights(FracParams(d, s, 0.0, eps)).energy((1.0, samples)))
        rows.append((s, val, loc, abs(val - loc) / loc))
    return rows
