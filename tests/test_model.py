import math
from functools import partial

import numpy as np
import pytest

from nonlocal_lab import closedform as cf
from nonlocal_lab import energy as en
from nonlocal_lab import pvquad as pq
from nonlocal_lab import regularity as rg
from nonlocal_lab import riesz as rz
from nonlocal_lab import symcalc as sc
from nonlocal_lab.errors import DomainError
from nonlocal_lab.model import (
    FracParams,
    SymMatrix,
    _field,
    _geometry,
    _kernel,
    _rowdot,
    _safe_norms,
    coeff_eigen,
    coeff_matrix,
    homogeneous_field,
    kernel_eval,
    log_coeff_norm,
)
from nonlocal_lab.specfun import kappa


def test_params_validation():
    FracParams(2, 0.5, 0.5, 0.5)
    with pytest.raises(DomainError):
        FracParams(1, 0.5)
    with pytest.raises(DomainError):
        FracParams(2, 1.2)
    with pytest.raises(DomainError):
        FracParams(2, 0.5, 0.7)
    with pytest.raises(DomainError):
        FracParams(2, 0.5, 0.2, 0.7)
    FracParams(2, 0.5, 0.2, 0.7, extended=True)
    with pytest.raises(TypeError):
        FracParams(2, 0.5, 0.9, 0.9, model="riesz")  # the Riesz model takes scalars
    with pytest.raises(DomainError, match=r"epsilon must lie in \[0, inf\)"):
        FracParams(2, 0.5, 0.1, -0.1, extended=True)
    with pytest.raises(DomainError, match=r"epsilon must lie in \[0, 1/2\]"):
        FracParams(2, 0.5, 0.1, -0.1)


_SPEC = pq.QuadratureSpec()
_X = np.array([0.8, 0.6])

# every entry point that takes (d, s, delta), called as fn(d, s, delta)
_MEYERS_ENTRIES = {
    "FracParams": FracParams,
    "f1_closed": cf.f1_closed,
    "f21_closed": cf.f21_closed,
    "f21_sum_form": cf.f21_sum_form,
    "f2_closed": cf.f2_closed,
    "operator_bracket": lambda d, s, delta: cf.operator_bracket(d, s, delta, 0.1),
    "b_denominator": cf.b_denominator,
    "f_integral_num f1": lambda d, s, delta: pq.f_integral_num("f1", d, s, delta, _SPEC),
    "f_integral_num f2": lambda d, s, delta: pq.f_integral_num("f2", d, s, delta, _SPEC),
    "pipeline f2": lambda d, s, delta: sc.pipeline("f2", d, s, delta),
}
_RIESZ_ENTRIES = {
    "riesz_constants": rz.riesz_constants,
    "frac_gradient": lambda d, s, delta: rz.frac_gradient(d, s, delta, _X),
    "flux_divergence": lambda d, s, delta: rz.flux_divergence(d, s, delta, 0.5, _X),
    "riesz_potential_num": lambda d, s, delta: rz.riesz_potential_num(d, s, delta, _X, _SPEC),
    "riesz_div_conv_num": lambda d, s, delta: rz.riesz_div_conv_num(
        d, s, delta, 0.5, _X, _SPEC
    ),
    "f_integral_num f3": lambda d, s, delta: pq.f_integral_num("f3", d, s, delta, _SPEC),
    "f_integral_num f4": lambda d, s, delta: pq.f_integral_num("f4", d, s, delta, _SPEC),
}
# entry points that take d and delta only, called as fn(d, delta)
_D_DELTA_ENTRIES = {
    "classical_epsilon": cf.classical_epsilon,
    "membership": lambda d, delta: rg.membership(d, delta, 0.5, 4.0),
    # the second argument is epsilon here, with the same range [0, 1/2]
    "local_energy": lambda d, eps: en.local_energy(d, eps, en.bump_x1(1.0)),
}
_BAD_D_S = [(1, 0.5), (2.5, 0.5), (2, 0.0), (2, -0.1), (2, 1.2)]


def _riesz_div(d, s, delta, eps):
    return rz.riesz_div_conv_num(d, s, delta, eps, _X, _SPEC)


_BAD = (
    [(name, fn, (d, s, 0.2)) for name, fn in _MEYERS_ENTRIES.items() for d, s in _BAD_D_S]
    + [(name, fn, (2, 0.5, delta)) for name, fn in _MEYERS_ENTRIES.items() for delta in (-0.1, 0.6)]
    + [(name, fn, (2, 1.0, 0.2)) for name, fn in _MEYERS_ENTRIES.items() if "f21" not in name]
    + [(name, fn, (d, s, 0.3)) for name, fn in _RIESZ_ENTRIES.items() for d, s in _BAD_D_S]
    + [(name, fn, (2, 1.0, 0.3)) for name, fn in _RIESZ_ENTRIES.items()]
    + [(name, fn, (2, 0.5, delta)) for name, fn in _RIESZ_ENTRIES.items() for delta in (0.0, 1.0)]
    + [(name, fn, (3, 0.5, 1.5)) for name, fn in _RIESZ_ENTRIES.items()]
    + [(name, fn, (1, 0.2)) for name, fn in _D_DELTA_ENTRIES.items()]
    + [(name, fn, (2.5, 0.2)) for name, fn in _D_DELTA_ENTRIES.items()]
    + [(name, fn, (2, delta)) for name, fn in _D_DELTA_ENTRIES.items() for delta in (-0.1, 0.6)]
    + [("f21_closed", cf.f21_closed, (2, 1.2, 0.2)), ("delta0", cf.delta0, (1, 0.5))]
    + [("delta0", cf.delta0, (2, s)) for s in (0.0, 1.0)]
    + [("riesz_coupling", rz.riesz_coupling, (d, 0.2)) for d in (1, 2.5)]
    + [("riesz_coupling", rz.riesz_coupling, (2, delta)) for delta in (-0.3, 0.0, 1.0, 1.5)]
    + [("riesz_coupling", rz.riesz_coupling, (3, 0.0))]
    # epsilon outside the extended range [0, inf)
    + [
        ("operator_bracket", cf.operator_bracket, (2, 0.5, 0.2, eps))
        for eps in (math.nan, -3.0, math.inf)
    ]
    + [("FracParams extended", partial(FracParams, extended=True), (2, 0.5, 0.2, math.inf))]
    + [("riesz_div_conv_num", _riesz_div, (2, 0.5, 0.3, eps)) for eps in (1.5, -0.3, 0.0)]
    + [("riesz_kernel_constant", rz.riesz_kernel_constant, (d, 0.5)) for d in (1, 2.5)]
    + [("kappa", kappa, (d, s)) for d, s in _BAD_D_S + [(2, 1.0)]]
    # delta <= 0 is a pole of the Riesz pipelines (PoleEncountered), not a range error
    + [("pipeline riesz_f3", sc.pipeline, ("riesz_f3", d, s, 0.3)) for d, s in _BAD_D_S]
    + [("pipeline riesz_f3", sc.pipeline, ("riesz_f3", 2, 0.5, 1.0))]
    + [("pipeline riesz_f3", sc.pipeline, ("riesz_f3", 3, 0.5, 1.5))]
    # the coupling's Gamma-ratio helpers; a nan s reaches no pole check
    + [("d2_G", cf.d2_G, args) for args in ((0.5, -1.0), (math.nan, 0.1))]
    + [("coupling_L", cf.coupling_L, (2, -1.0, 0.2))]
    + [("homogeneous_field", homogeneous_field, (p, [1.0, 0.0])) for p in (math.nan, math.inf)]
    + [("homogeneous_field", homogeneous_field, (-math.inf, [1.0, 0.0]))]
    # the regularity witness: q = inf, and resolutions that are not integers
    + [("membership", rg.membership, (2, 0.2, 0.5, math.inf))]
    + [
        (f"reference_band samples={n}", partial(rg.reference_band, samples=n), (2, 0.3, 0.6, 2.0))
        for n in (0, 1, 2.5)
    ]
    + [
        (f"reference_band scale={a}", partial(rg.reference_band, scale=a), (2, 0.3, 0.6, 2.0))
        for a in (0.0, -1.0, math.inf, math.nan)
    ]
    + [("dyadic_seminorm bands=4.5", partial(rg.dyadic_seminorm, bands=4.5), (2, 0.3, 0.6, 2.0))]
    + [
        (f"reference_band seed={seed}", partial(rg.reference_band, seed=seed), (2, 0.3, 0.6, 2.0))
        for seed in (-1, 2.5)
    ]
)


@pytest.mark.parametrize(
    "fn, args", [(fn, args) for _, fn, args in _BAD], ids=[f"{n}{a}" for n, _, a in _BAD]
)
def test_entry_points_reject_out_of_range(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


def test_range_edges_accepted():
    for fn in (cf.f1_closed, cf.f21_closed, cf.b_denominator, FracParams):
        fn(2, 0.5, 0.0)
        fn(2, 0.5, 0.5)
    cf.f21_closed(2, 1.0, 0.2)
    cf.f21_sum_form(2, 1.0, 0.2)
    rz.riesz_constants(3, 0.5, 1.49)
    FracParams(2, 0.5, 0.0, 7.0, extended=True)
    assert cf.classical_epsilon(2, 0.5) == 0.75
    assert rg.membership(3, 0.0, 0.5, 4.0)


def test_symmatrix_rejects_asymmetry():
    with pytest.raises(DomainError):
        SymMatrix(2, np.array([[1.0, 0.1], [0.2, 1.0]]))


def test_homogeneous_field_examples():
    e1 = [1.0, 0.0]
    assert homogeneous_field(1.0, e1) == 1.0
    delta = 0.3
    assert homogeneous_field(1.0 - delta, [-1.0, 0.0]) == -1.0
    for lam in (0.5, 2.0, 7.0):
        got = homogeneous_field(1.0 - delta, [lam, 0.0])
        assert got == pytest.approx(lam * lam ** (-delta), rel=1e-14)
    with pytest.raises(DomainError):
        homogeneous_field(0.7, [0.0, 0.0])
    assert homogeneous_field(1.0, [0.0, 0.0]) == 0.0


def test_field_rows_match_one_point_field(rng):
    pts = rng.normal(size=(20, 3))
    for p in (-1.25, 0.3, 1.0, 1.7):
        want = [homogeneous_field(p, z) for z in pts]
        assert _field(p, pts[:, 0], np.log(_safe_norms(pts))) == pytest.approx(want, rel=1e-14)
    # z = 0 has the value 0 for p >= 1, as the one-point field says
    origin = np.zeros((1, 3))
    for p in (1.0, 1.5, 3.0):
        at_origin = _field(p, origin[:, 0], np.log(_safe_norms(origin)))[0]
        assert at_origin == 0.0 == homogeneous_field(p, origin[0])


def test_homogeneous_field_keeps_the_power_form(rng):
    # the closed forms' one-point field takes |x| ** (p-1), not _field's
    # exponential of a log, so that a reference value does not share the
    # oracles' rounding: it has the bits of the power form at every sample
    # point, where the log form misses the last bit at some
    log_form_differs = False
    for d in (2, 3, 5):
        pts = rng.normal(size=(200, d)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(200, 1))
        r = np.sqrt(np.sum(pts * pts, axis=1))
        for p in (-1.45, 0.3, 0.95, 1.7):
            want = r ** (p - 1.0) * pts[:, 0]
            got = np.array([homogeneous_field(p, x) for x in pts])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            log_form_differs |= not np.array_equal(_field(p, pts[:, 0], np.log(r)), want)
    assert log_form_differs


@pytest.mark.parametrize("d", range(2, 8))
def test_rowdot_matches_numpy_row_sum_bitwise(rng, d):
    # column-wise sums add in numpy's order for rows of up to 7 entries
    a = rng.normal(size=(2000, d)) * 10.0 ** rng.uniform(-20, 20, size=(2000, 1))
    b = rng.normal(size=(2000, d)) * 10.0 ** rng.uniform(-20, 20, size=(2000, d))
    assert _rowdot(a, a).tobytes() == np.sum(a * a, axis=1).tobytes()
    assert _rowdot(a, b).tobytes() == np.sum(a * b, axis=1).tobytes()


def test_coeff_matrix_examples():
    p0 = FracParams(3, 0.4, 0.0, 0.0)
    m = coeff_matrix("fractional", p0, [0.3, -0.2, 0.9])
    assert np.allclose(m.entries, np.eye(3), atol=0.0)

    p = FracParams(3, 0.4, 0.0, 0.3)
    m = coeff_matrix("fractional", p, [1.0, 0.0, 0.0])
    assert m.entries[0, 0] == pytest.approx(1.0 + 0.5 * (3 - 1) * 0.3, rel=1e-15)

    pc = FracParams(2, 0.5, 0.0, 0.5)
    m = coeff_matrix("classical", pc, [0.0, 1.0])
    assert np.allclose(m.entries, np.diag([0.5, 1.0]), atol=1e-15)

    with pytest.raises(DomainError):
        coeff_matrix("fractional", p, [0.0, 0.0, 0.0])


def test_coeff_eigen_analytic_vs_numeric(rng):
    # dense symmetric eigensolver as the independent oracle
    for _ in range(25):
        d = int(rng.integers(2, 6))
        s = rng.uniform(0.05, 0.95)
        eps = rng.uniform(0.0, 0.5)
        params = FracParams(d, s, 0.0, eps)
        x = rng.normal(size=d)
        lam_rad, lam_tan = coeff_eigen("fractional", params)
        numeric = np.sort(coeff_matrix("fractional", params, x).eigenvalues())
        analytic = np.sort(np.array([lam_rad] + [lam_tan] * (d - 1)))
        assert np.allclose(numeric, analytic, rtol=1e-12, atol=1e-12)
        assert 0.25 <= lam_tan <= lam_rad <= 1.0 + (d - 1) / 4.0


def test_coeff_eigen_examples():
    assert coeff_eigen("fractional", FracParams(2, 0.5, 0.0, 0.5))[1] == pytest.approx(0.5)
    assert coeff_eigen("fractional", FracParams(4, 0.3, 0.0, 0.0)) == (1.0, 1.0)
    assert coeff_eigen("classical", FracParams(3, 0.5, 0.0, 0.2)) == (1.0, 0.8)


def test_eigen_spread_monotone():
    for d in (2, 3, 5):
        for s in (0.1, 0.5, 0.9):
            spreads = []
            for eps in np.linspace(0.0, 0.5, 11):
                lam_rad, lam_tan = coeff_eigen("fractional", FracParams(d, s, 0.0, eps))
                spreads.append(lam_rad - lam_tan)
            assert all(a < b for a, b in zip(spreads, spreads[1:]))


def test_kernel_identity_at_eps_zero(rng):
    params = FracParams(2, 0.35, 0.0, 0.0)
    for _ in range(10):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        got = kernel_eval(params, x, y)
        want = float(np.linalg.norm(x - y)) ** (-2 - 2 * 0.35)
        assert got == pytest.approx(want, rel=1e-14)


def test_kernel_without_radial_part_is_the_isotropic_power(rng):
    # with b_rad = 0 the kernel's one formula adds 0.5 * 0.0 * c = 0.0 to
    # a_iso, so it has the bits of a_iso exp(-(d+2s) log|h|) at every
    # geometry, with log|h| taken from h alone
    for d in (2, 3, 5):
        x = rng.normal(size=d)
        h = rng.normal(size=(200, d)) * 10.0 ** rng.uniform(-4.0, 4.0, size=(200, 1))
        log_r, _, c = _geometry(x, h, x + h)
        log_h = np.log(np.sqrt(np.sum(h * h, axis=1)))
        for a_iso, s in ((1.0, 0.35), (0.6, 0.8)):
            got = _kernel((a_iso, 0.0), d, s, log_r, c)
            want = a_iso * np.exp((-d - 2.0 * s) * log_h)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_kernel_symmetry_and_bounds(rng):
    for _ in range(30):
        d = int(rng.integers(2, 5))
        s = rng.uniform(0.05, 0.95)
        eps = rng.uniform(0.0, 0.5)
        params = FracParams(d, s, 0.0, eps)
        x = rng.normal(size=d)
        y = rng.normal(size=d)
        k1 = kernel_eval(params, x, y)
        k2 = kernel_eval(params, y, x)
        assert k1 == pytest.approx(k2, rel=1e-13)
        base = float(np.linalg.norm(x - y)) ** (-d - 2 * s)
        assert 0.25 * base <= k1 <= (1.0 + (d - 1) / 4.0) * base


def test_kernel_rotation_and_scaling(rng):
    params = FracParams(2, 0.6, 0.0, 0.4)
    for _ in range(10):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        th = rng.uniform(0.0, 2.0 * math.pi)
        q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        assert kernel_eval(params, q @ x, q @ y) == pytest.approx(
            kernel_eval(params, x, y), rel=1e-12
        )
        lam = rng.uniform(0.2, 5.0)
        assert kernel_eval(params, lam * x, lam * y) == pytest.approx(
            lam ** (-2 - 2 * 0.6) * kernel_eval(params, x, y), rel=1e-12
        )


def test_radial_kernel_at_e1_is_the_f2_polynomial(rng):
    # f2 is -1/2 of the operator at e1 with the radial pair (0, 1); its kernel
    # k(e1, e1 + h) in the paper's polynomial form, with g = -h
    for d in (2, 3, 4, 5):
        s = rng.uniform(0.05, 0.95)
        e1 = np.eye(d)[0]
        u = rng.normal(size=(400, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        far = u[:200] * 10.0 ** rng.uniform(-4.0, 4.0, size=(200, 1))
        # and near the other end of the pair, y = e1 + h -> 0; closer in, the
        # polynomial's numerator cancels (2e-10 relative at |y| = 1e-3)
        near = -e1 + u[200:] * 10.0 ** rng.uniform(-1.0, 0.0, size=(200, 1))
        h = np.concatenate([far, near])
        h = h[np.linalg.norm(h + e1, axis=1) > 1e-2]
        y = e1 + h
        log_r, _, c = _geometry(e1, h, y)
        got = _kernel((0.0, 1.0), d, s, log_r, c)
        g = -h
        r2 = np.sum(g * g, axis=1)
        g1 = g[:, 0]
        num = -2.0 * g1**3 + r2 * g1**2 + 2.0 * g1**2 - 2.0 * r2 * g1 + r2**2
        z2 = np.sum((e1 + h) ** 2, axis=1)
        want = num / (2.0 * r2 ** (0.5 * (d + 2.0 * s + 2.0)) * z2)
        assert got == pytest.approx(want, rel=1e-11)


def test_log_norm_zero_at_identity():
    assert log_coeff_norm(FracParams(3, 0.5, 0.0, 0.0)) == 0.0


def test_log_norm_bound_on_grid():
    for d in (2, 3, 5):
        for s in np.arange(0.1, 0.95, 0.1):
            for eps in np.arange(0.0, 0.51, 0.1):
                params = FracParams(d, float(s), 0.0, float(eps))
                assert log_coeff_norm(params) <= 0.5 * (1 + d + 4 * s) * eps + 1e-15


def test_log_norm_matches_matrix_log(rng):
    # eigen-decomposition matrix logarithm as the independent oracle
    for _ in range(20):
        d = int(rng.integers(2, 6))
        s = rng.uniform(0.05, 0.95)
        eps = rng.uniform(0.0, 0.5)
        params = FracParams(d, s, 0.0, eps)
        x = np.zeros(d)
        x[0] = 1.0
        m = coeff_matrix("fractional", params, x).entries
        w, v = np.linalg.eigh(m)
        logm = v @ np.diag(np.log(w)) @ v.T
        numeric = float(np.max(np.abs(np.linalg.eigvalsh(logm))))
        assert log_coeff_norm(params) == pytest.approx(numeric, rel=1e-10, abs=1e-12)


def test_log_norm_domain():
    d2_example = FracParams(2, 0.5, 0.0, 0.5)
    assert log_coeff_norm(d2_example) <= 1.25
    with pytest.raises(DomainError):
        log_coeff_norm(FracParams(2, 0.5, 0.0, 0.6, extended=True))
