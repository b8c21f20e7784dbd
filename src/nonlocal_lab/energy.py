"""Nonlocal quadratic energy on compactly supported test functions.

A test function is v(x) = phi(|x|) x1, given by its radial profile phi.
Such a v is invariant under every rotation that fixes e1, and so is the
kernel, so every x integrand here depends on x only through (x1, |x|).  The
one x rule is Gauss-Legendre radii times the meridian rule of `pvquad`; its
radial factor alone carries the first variation.

The energy is rotation-invariant, so J(phi x1) = J_vec(V) / d with the field
V(x) = phi(|x|) x, whose inner h integral depends on |x| alone.  So x runs
over x = r e1 at Gauss-Legendre radii, and h over the meridian rule times a
radial rule on each direction, split where x + h leaves the support ball B.
The double integral is symmetric in (x, y), and the kernel's two angular
terms swap with x and y; so with x in B the pairs inside B take the
symmetric-equivalent kernel |h|^(-d-2s) (a_iso + b_rad (xhat.hhat)^2),
which is smooth where x + h passes the origin, and the pairs leaving B,
where V(x + h) = 0, fold into one weight 2 int_out k(x, x + h) dh per radius
on |V(x)|^2, taken with the model's kernel.  The form has four parts: log
bands on the inside of each ray; the outside weight; a Taylor term for
|h| below the bands (quadratic in grad V); and an analytic far tail.  The
band ends scale with the support radius, so the grid does too.

The energy is a quadratic form in samples of the test function on that
frozen node set: V(x), V(x) - V(x + h) on the inside nodes, and (phi,
phi + r phi') for the Taylor term.  Each function is sampled once; averages
and differences are formed on the sample arrays by linearity, so the
parallelogram identity

    J(v1)/2 + J(v2)/2 - J((v1+v2)/2) = (1/4) J-form of (v1 - v2)

holds at node level to rounding.  The node geometry depends on (d, support
radius, spec) only and is shared by every s and epsilon.  At the default
spec the rule has 32 radii, 32 directions, and 180 inside and 100 outside
nodes per direction, in every d >= 2.  One energy of bump_x1 takes 26-33 ms
at d = 2-5 with a traced peak of 22 MB, serially on a 2-vCPU x86 host, and
matches the Fourier form (1/2) int (2 pi |xi|)^(2s) |v^(xi)|^2 dxi at
epsilon = 0 to 5e-7 for s from 0.3 to 0.9999.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NotConverged
from .model import _ORIGIN_GUARD, FracParams, _check_range, _coeffs, _geometry, _kernel, _norms
from .model import _rowdot
from .pvquad import QuadratureSpec, _band_nodes, _gl, _meridian_rule
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

# In units of the support radius: |h| below _H_MIN is the Taylor term, and
# |h| beyond _H_MAX the analytic far tail.  So the grid scales with the radius.
_H_MIN, _H_MAX = 1e-4, 1e5


@dataclass(frozen=True)
class TestFunction:
    """The test function v(x) = phi(|x|) x1, supported in the ball B_radius.

    phi and dphi map an array of radii to the profile and its derivative;
    phi vanishes from the radius on.
    """

    phi: callable
    dphi: callable
    radius: float

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise DomainError(f"support radius must be finite and > 0, got {self.radius!r}")

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
    """One test function v = phi(|x|) x1 sampled on a grid, through V = phi(|x|) x.

    The energy is quadratic in these arrays, and a linear combination of
    functions is sampled by the same combination of their arrays.  Keeping
    the differences rather than V(x+h) keeps that linearity exact to
    relative rounding even where V(x) - V(x+h) cancels, at small |h|.
    """

    vx: np.ndarray  # |V(x)| = r phi(r) at x = r e1
    dv: np.ndarray  # the two nonzero components of V(x) - V(x+h) on the inside nodes
    taylor: np.ndarray  # (phi, phi + r phi') at the radii: grad V(x) = phi I + r phi' e1 e1


def _radii(radius: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes and weights for int_0^radius dr."""
    t, w = _gl(n)
    return 0.5 * radius * (t + 1.0), 0.5 * radius * w


def _ball_rule(d: int, radius: float, n_r: int, n_mu: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre radii x meridian rule on B_radius, for functions of (x1, |x|) alone.

    The nodes are meridian rows (x1, x2), each standing for x1 e1 + x2 e_perp.
    """
    om, ow = _meridian_rule(d, n_mu)
    r, wr = _radii(radius, n_r)
    wr = wr * r ** (d - 1)  # jacobian r^(d-1)
    nodes = (r[:, None, None] * om[None, :, :]).reshape(-1, 2)
    return nodes, (wr[:, None] * ow[None, :]).reshape(-1)


def _log_bands(lo, hi, n_bands: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n_bands equal bands in log rho on [lo, hi], n Gauss-Legendre nodes each.

    lo and hi broadcast; the nodes rho and the weights of d rho / rho gain a
    trailing axis of n_bands * n.
    """
    t, w = _gl(n)
    u = ((np.arange(n_bands)[:, None] + 0.5 * (t + 1.0)) / n_bands).ravel()
    log_lo, log_hi = np.broadcast_arrays(np.log(lo), np.log(hi))
    span = (log_hi - log_lo)[..., None]
    return np.exp(log_lo[..., None] + span * u), span * np.tile(0.5 * w / n_bands, n_bands)


@dataclass(frozen=True)
class _Form:
    """kappa/2 times the double integral, as a quadratic form in samples."""

    kappa: float
    inside: np.ndarray  # weights on |V(x) - V(x+h)|^2 at the inside nodes
    diag: np.ndarray  # per-radius weight on |V(x)|^2: the outside nodes and the far tail
    taylor: np.ndarray  # per-radius weights on phi^2 and (phi + r phi')^2

    def energy(self, *terms: tuple[float, _Samples]) -> np.longdouble:
        """The energy of the function sum(c * v for c, v in terms).

        Identities between energies cancel down to |v1 - v2|^2, so the
        combination, the squares and the sums are taken in extended precision
        (plain double where long double is double).
        """

        def combine(field):
            parts = (np.multiply(getattr(v, field), c, dtype=np.longdouble) for c, v in terms)
            return functools.reduce(np.add, parts)

        dv = combine("dv")
        dv *= dv
        total = np.sum(self.inside * (dv[0] + dv[1]))
        total += np.sum(self.diag * combine("vx") ** 2)
        total += np.sum(self.taylor * combine("taylor") ** 2)
        return 0.5 * self.kappa * total


class _Grid:
    """Frozen node set on which the energy is a quadratic form in samples.

    The x nodes are x = r e1 at Gauss-Legendre radii; for each radius the h
    directions are the meridian rule, and each direction's ray is split where
    x + h leaves the support ball.  The geometry depends on (d, radius, spec)
    only, so one grid serves every s, epsilon and test function entering one
    comparison.
    """

    def __init__(self, d: int, radius: float, spec: QuadratureSpec):
        self.d = d
        n_mu = _band_nodes(spec.angular_nodes, 1)
        self.r, wr = _radii(radius, n_mu)
        # J(phi x1) = J_vec(phi(|x|) x) / d, whose x integrand is radial
        self.wr = wr * self.r ** (d - 1) * sphere_area(d) / d
        self.om, self.ow = _meridian_rule(d, n_mu)
        mu = self.om[:, 0]
        rx = self.r[:, None]
        # the ray x + rho omega leaves the ball at rho* >= R - r; the Taylor
        # cutoff stays below that, also for radii within _H_MIN R of the sphere
        rho_star = np.sqrt(radius**2 - rx**2 * (1.0 - mu**2)) - rx * mu
        self.h_min = np.minimum(_H_MIN, 0.5 * (1.0 - self.r / radius)) * radius
        self.h_max = _H_MAX * radius
        per_decade, n = spec.bands_per_decade, spec.radial_nodes
        n_in = math.ceil(per_decade * math.log10(2.0 / _H_MIN))
        n_out = math.ceil(0.5 * per_decade * math.log10(_H_MAX))
        self.rho_in, self.t_in = _log_bands(self.h_min[:, None], rho_star, n_in, n)
        self.rho_out, self.t_out = _log_bands(rho_star, self.h_max, n_out, n)
        # y = x + h on the inside nodes: its two nonzero components and |y|
        self.y = np.stack([rx[..., None] + self.rho_in * mu[:, None],
                           self.rho_in * self.om[:, 1, None]])
        self.ry = np.hypot(self.y[0], self.y[1])

    def samples(self, v: TestFunction) -> _Samples:
        """V = phi(|x|) x and phi' at every node the form reads, each taken once."""
        phi_x, phi_y = v.phi(self.r), v.phi(self.ry)
        vx = self.r * phi_x
        dv = np.stack([vx[:, None, None] - phi_y * self.y[0], -phi_y * self.y[1]])
        return _Samples(vx, dv, np.stack([phi_x, phi_x + self.r * v.dphi(self.r)], axis=1))

    def weights(self, params: FracParams) -> _Form:
        """The quadratic form's weights at (s, epsilon)."""
        d, s = self.d, params.s
        pair = _coeffs("fractional", d, s, params.epsilon)
        a_iso, b_rad = pair
        mu2 = self.om[:, 0] ** 2

        # Inside the ball the kernel is the symmetric equivalent
        # rho^(-d-2s) (a_iso + b_rad mu^2): over the whole space the double
        # integral is symmetric in (x, y), and the kernel's two angular terms
        # swap with them.  dh = rho^d d(log rho) dsigma.
        ang = self.ow * (a_iso + b_rad * mu2)
        inside = (self.wr[:, None] * ang)[..., None] * self.t_in * self.rho_in ** (-2.0 * s)

        # Outside, V(x+h) = 0: one weight 2 int_out k(x, x+h) dh per radius,
        # the factor 2 for the pairs counted from their point outside.  x
        # enters the kernel through y = x + h and xhat = e1 alone, so one
        # call takes the rows of every radius
        n_r = len(self.r)
        h = self.rho_out[..., None] * self.om[:, None, :]
        x = np.stack([self.r, np.zeros(n_r)], axis=1)[:, None, None, :]
        y = (x + h).reshape(-1, 2)
        log_r, _, c = _geometry(np.array([1.0, 0.0]), h.reshape(-1, 2), y)
        k = _kernel(pair, d, s, log_r, c)
        dh = (self.ow[:, None] * self.t_out * self.rho_out**d).reshape(n_r, -1)
        x_out = np.array([2.0 * kr @ dr for kr, dr in zip(k.reshape(n_r, -1), dh)])
        # far tail: int_(|h|>h_max) k dh with A(x+h) -> A(hhat), doubled
        tail_a = a_iso + 0.5 * b_rad * (1.0 + 1.0 / d)
        tail = 2.0 * self.h_max ** (-2.0 * s) / (2.0 * s) * sphere_area(d) * tail_a

        # near-field Taylor term: int_(|h|<h_min) k |grad V(x) h|^2 dh, where
        # |grad V(x) omega|^2 = phi^2 (1 - mu^2) + (phi + r phi')^2 mu^2
        near = self.h_min ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
        taylor = (near * self.wr)[:, None] * np.array([ang @ (1.0 - mu2), ang @ mu2])
        return _Form(kappa(d, s), inside, self.wr * (x_out + tail), taylor)


def energy_eval(params: FracParams, v: TestFunction, spec: QuadratureSpec) -> float:
    """Value of the nonlocal energy for one test function."""
    grid = _Grid(params.d, v.radius, spec)
    return float(grid.weights(params).energy((1.0, grid.samples(v))))


def convexity_identity_check(
    params: FracParams, v1: TestFunction, v2: TestFunction, spec: QuadratureSpec
) -> tuple[float, float]:
    """(lhs, rhs) of the parallelogram identity on a shared node set."""
    grid = _Grid(params.d, max(v1.radius, v2.radius), spec)
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

    The operator is rotation-equivariant and homogeneous of degree
    gamma = 1 - delta - 2s, op(x) = |x|^gamma (x1/|x|) op(e1), so for
    eta = phi(|x|) x1 this is m2(d) op(e1) int phi(r) r^(d + gamma) dr with
    m2 = sphere_moment2(d), on six radii: one oracle call at e1.  Zero (to
    quadrature accuracy) exactly when epsilon is the coupling; the
    closed-form pairing on the same radii is the guard: the two paths must
    agree within the accumulated quadrature error bound.
    """
    d = params.d
    if eta.radius >= 1.0:
        raise DomainError("test function must be supported strictly inside B_1")
    r, wr = _radii(eta.radius, 6)
    weights = sphere_moment2(d) * wr * eta.phi(r) * r**d
    kap = kappa(d, params.s)
    e1 = np.eye(d)[0]
    res = frac_op_num(params, e1, spec)
    radial = weights * r ** (1.0 - params.delta - 2.0 * params.s)
    quad = kap * res.value * float(np.sum(radial))
    bound = kap * res.err_estimate * float(np.sum(np.abs(radial)))
    closed = sum(w * operator_value(params, radius * e1) for radius, w in zip(r, weights))
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
    to rounding, where the energy grid's angular_nodes // 2 = 32 at the
    default spec leave about 2e-7 (1.4e-4 at 18 radii; d = 2, eps = 0.2,
    bump_x1(1.0)).
    """
    _check_range(d, epsilon=epsilon)
    a_iso, b_rad = _coeffs("classical", d, None, epsilon)
    x, wx = _ball_rule(d, v.radius, 100, 2)
    g = v.grad(x)
    proj2 = _rowdot(g, x) ** 2 / _rowdot(x, x)
    return 0.5 * float(wx @ (a_iso * _rowdot(g, g) + b_rad * proj2))


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
    grid = _Grid(d, v.radius, spec)
    samples = grid.samples(v)
    rows = []
    for s in s_list:
        val = float(grid.weights(FracParams(d, s, 0.0, eps)).energy((1.0, samples)))
        rows.append((s, val, loc, abs(val - loc) / loc))
    return rows
