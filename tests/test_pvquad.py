import math

import numpy as np
import pytest

from nonlocal_lab import closedform as cf
from nonlocal_lab import pvquad as pq
from nonlocal_lab.errors import DomainError, NotConverged
from nonlocal_lab.model import FracParams
from nonlocal_lab.riesz import riesz_constants, riesz_kernel_constant, riesz_potential_num
from nonlocal_lab.specfun import kappa

E1 = np.array([1.0, 0.0])


def norms(h):
    return np.sqrt(np.sum(h * h, axis=1))


def f1_integrand(d, s, delta):
    # f1 is -1/2 of the operator at e1 with the isotropic pair (1, 0), and the
    # operator is twice its p.v. integral: f1's integrand is the negated one
    g = pq._operator_integrand((1.0, 0.0), d, s, 1.0 - delta, np.eye(d)[0])
    return lambda h: -g(h)


def test_spec_validation():
    with pytest.raises(DomainError):
        pq.QuadratureSpec(r_min=2.0)
    with pytest.raises(DomainError):
        pq.QuadratureSpec(radial_nodes=1)


def test_odd_integrand_is_exactly_zero(spec):
    res = pq.pv_integral(lambda h: norms(h) ** (-2 - 1.0) * h[:, 0], 2, spec)
    assert res.value == 0.0
    assert res.err_estimate >= 0.0
    assert res.converged


def test_pv_integral_f1_example(spec):
    g = f1_integrand(2, 0.5, 0.25)
    res = pq.pv_integral(g, 2, spec, singular_points=(E1, -E1))
    want = cf.f1_closed(2, 0.5, 0.25)
    assert res.value == pytest.approx(want, rel=1e-4)
    assert res.converged


def test_err_estimate_honest_on_f_grid(spec):
    for which, closed in (("f1", cf.f1_closed), ("f2", cf.f2_closed)):
        for s in (0.25, 0.5, 0.75):
            for delta in (0.1, 0.5):
                res = pq.f_integral_num(which, 2, s, delta, spec)
                err = abs(res.value - closed(2, s, delta))
                assert err <= max(res.err_estimate, 1e-9)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_operator_at_e1_is_scaled_f1(spec, d):
    # frac_op_num at epsilon = 0 and f1 integrate one integrand on one rule
    s, delta = 0.4, 0.3
    got = pq.frac_op_num(FracParams(d, s, delta, 0.0), np.eye(d)[0], spec)
    f1 = pq.f_integral_num("f1", d, s, delta, spec)
    assert (got.value, got.err_estimate, got.nodes_used) == (
        -2.0 * f1.value,
        2.0 * f1.err_estimate,
        f1.nodes_used,
    )


def test_f1_zero_at_delta_zero(spec):
    res = pq.f_integral_num("f1", 2, 0.4, 0.0, spec)
    assert abs(res.value) <= 1e-8


def test_f1_three_dimensional(spec):
    res = pq.f_integral_num("f1", 3, 0.4, 0.2, spec)
    assert res.value == pytest.approx(cf.f1_closed(3, 0.4, 0.2), rel=1e-3)


def test_f3_relation_to_potential_constant(spec):
    for s, delta in ((0.5, 0.3), (0.3, 0.1)):
        res = pq.f_integral_num("f3", 2, s, delta, spec)
        c_star, _ = riesz_constants(2, s, delta)
        got = riesz_kernel_constant(2, 1.0 - s) * res.value
        assert got == pytest.approx(c_star, rel=1e-3)


def test_f4_matches_symbol_pipeline(spec):
    from nonlocal_lab.symcalc import pipeline

    s, delta = 0.5, 0.3
    res = pq.f_integral_num("f4", 2, s, delta, spec)
    assert res.value == pytest.approx(pipeline("riesz_f4", 2, s, delta), rel=1e-3)


def test_f_integral_domains(spec):
    with pytest.raises(DomainError):
        pq.f_integral_num("f1", 2, 0.5, 0.7, spec)
    with pytest.raises(DomainError):
        pq.f_integral_num("f3", 2, 0.5, 0.0, spec)
    with pytest.raises(DomainError):
        pq.f_integral_num("f7", 2, 0.5, 0.2, spec)


def test_frac_op_zero_at_coupling(spec):
    s, delta = 0.6, 0.1
    eps = cf.b_of_delta(2, s, delta)
    params = FracParams(2, s, delta, eps, extended=True)
    res = pq.frac_op_num(params, E1, spec)
    assert abs(res.value) <= 1e-4


def test_frac_op_matches_closed_form(spec):
    params = FracParams(2, 0.5, 0.25, 0.1)
    res = pq.frac_op_num(params, E1, spec)
    closed = cf.operator_value(params, E1)
    assert kappa(2, 0.5) * res.value == pytest.approx(closed, rel=1e-3)


def test_frac_op_matches_closed_form_three_dims(spec):
    params = FracParams(3, 0.4, 0.2, 0.15)
    x = np.array([1.0, 0.0, 0.0])
    res = pq.frac_op_num(params, x, spec)
    closed = cf.operator_value(params, x)
    assert kappa(3, 0.4) * res.value == pytest.approx(closed, rel=1e-3)


def test_frac_op_scaling(spec):
    params = FracParams(2, 0.5, 0.25, 0.1)
    v1 = pq.frac_op_num(params, E1, spec).value
    v2 = pq.frac_op_num(params, 2.0 * E1, spec).value
    assert v2 == pytest.approx(2.0 ** (1 - 2 * 0.5 - 0.25) * v1, rel=1e-4)


def test_frac_op_rotation(spec):
    params = FracParams(2, 0.5, 0.25, 0.1)
    v1 = pq.frac_op_num(params, E1, spec).value
    th = 0.93
    x = np.array([math.cos(th), math.sin(th)])
    v2 = pq.frac_op_num(params, x, spec).value
    assert v2 == pytest.approx(math.cos(th) * v1, rel=1e-3)


def test_frac_op_pointwise_bound(spec):
    # |op(x)| <= C |x|^(1-delta-2s), C fitted at |x| = 1
    s, delta = 0.5, 0.25
    params = FracParams(2, s, delta, 0.1)
    c_fit = abs(pq.frac_op_num(params, E1, spec).value)
    for rad in (0.125, 0.25, 0.5, 2.0):
        val = abs(pq.frac_op_num(params, rad * E1, spec).value)
        assert val <= 1.001 * c_fit * rad ** (1 - delta - 2 * s)


def test_frac_op_s_harmonic_linear_field(spec):
    # u = x1 with the isotropic kernel: the symmetrized integrand vanishes
    # up to rounding in the difference quotient
    params = FracParams(2, 0.5, 0.0, 0.0)
    res = pq.frac_op_num(params, E1, spec)
    assert abs(res.value) <= 1e-8
    assert abs(res.value) <= res.err_estimate + 1e-10


def test_symmetrized_tail_decays(spec):
    # per-decade outer shells beyond |h| = 10 shrink by ~10^-(delta+2s)
    d, s, delta = 2, 0.5, 0.25
    g = f1_integrand(d, s, delta)
    patches = pq._patch_geometry((E1, -E1))
    ev = pq._Evaluator(g, patches)
    rule = pq._sphere_rule(d, spec.angular_nodes)
    shell = []
    for k in range(1, 5):
        a, b = 10.0**k, 10.0 ** (k + 1)
        edges = pq._band_edges(a, b, spec.bands_per_decade)
        bands = [(aa, bb, rule) for aa, bb in zip(edges[:-1], edges[1:])]
        shell.append(abs(sum(pq._band_values(ev.masked, bands, d, spec.radial_nodes))))
    for t1, t2 in zip(shell, shell[1:]):
        assert t2 <= 0.6 * t1  # expected factor 10^-(delta+2s) ~ 0.056


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("d", [2, 4])
def test_band_values_grouping_is_bitwise(spec, d):
    # grouped bands keep the bits of one integrand call per band, on the
    # d = 2 full rule masked by both patches and on the d = 4 meridian rule
    e1 = np.eye(d)[0]
    ev = pq._Evaluator(f1_integrand(d, 0.5, 0.25), pq._patch_geometry((e1, -e1)))
    if d == 2:
        coarse, fine = pq._sphere_rule(d, 64), pq._sphere_rule(d, 384)
    else:
        coarse, fine = pq._meridian_rule(d, 32), pq._meridian_rule(d, 64)
    edges = pq._band_edges(1e-3, 1e3, spec.bands_per_decade)
    bands = [
        (a, b, fine if b > 0.5 and a < 2.0 else coarse) for a, b in zip(edges[:-1], edges[1:])
    ]
    sizes = []

    def counted(pts):
        sizes.append(len(pts))
        return ev.masked(pts)

    grouped = pq._band_values(counted, bands, d, spec.radial_nodes)
    assert sum(sizes) > 2 * pq._BATCH
    assert 1 < len(sizes) < len(bands)
    assert all(n >= pq._BATCH for n in sizes[:-1])
    single = [pq._band_values(ev.masked, [band], d, spec.radial_nodes)[0] for band in bands]
    assert _hex(grouped) == _hex(single)


def test_pv_integral_independent_of_grouping(spec, monkeypatch):
    # every pass, patches included, gives the same bits with one band per call
    params = FracParams(2, 0.3, 0.1, 0.4)
    x = np.array([0.78, -1.04])
    batched = pq.frac_op_num(params, x, spec), pq.f_integral_num("f2", 4, 0.5, 0.25, spec)
    monkeypatch.setattr(pq, "_BATCH", 1)
    single = pq.frac_op_num(params, x, spec), pq.f_integral_num("f2", 4, 0.5, 0.25, spec)
    for r1, r2 in zip(batched, single):
        assert _hex([r1.value, r1.err_estimate]) == _hex([r2.value, r2.err_estimate])
        assert r1.nodes_used == r2.nodes_used


def test_determinism_bitwise(spec):
    params = FracParams(2, 0.45, 0.2, 0.15)
    r1 = pq.frac_op_num(params, E1, spec)
    r2 = pq.frac_op_num(params, E1, spec)
    assert (r1.value, r1.err_estimate, r1.nodes_used) == (
        r2.value,
        r2.err_estimate,
        r2.nodes_used,
    )


# (params, x, value, err_estimate, nodes_used) of frac_op_num; the kernel and
# field it takes from `model` keep the integrand's operation order
_FRAC_OP_PINNED = [
    ((2, 0.5, 0.25, 0.1), (1.0, 0.0), 4.887080544562882, 2.9246700334195034e-06, 570240),
    ((2, 0.3, 0.1, 0.4), (0.78, -1.04), 2.428381845509547, 8.779571458129259e-06, 527040),
    ((2, 0.8, 0.4, 0.2), (-0.5, 0.9), -3.0008164176720555, 2.715951719846438e-06, 570240),
    ((3, 0.4, 0.2, 0.15), (0.6, 0.48, 0.64), 5.703865401119118, 3.754558105627898e-05, 219456),
]


@pytest.mark.parametrize("params, x, value, err, nodes", _FRAC_OP_PINNED)
def test_frac_op_values_pinned(spec, params, x, value, err, nodes):
    res = pq.frac_op_num(FracParams(*params), np.array(x), spec)
    assert res.value == pytest.approx(value, rel=1e-13)
    assert res.err_estimate == pytest.approx(err, rel=1e-13)
    assert res.nodes_used == nodes


def test_meridian_rule_beyond_three_dimensions(spec):
    res1 = pq.f_integral_num("f1", 4, 0.5, 0.25, spec)
    res2 = pq.f_integral_num("f1", 4, 0.5, 0.25, spec)
    assert (res1.value, res1.err_estimate, res1.nodes_used) == (
        res2.value,
        res2.err_estimate,
        res2.nodes_used,
    )
    assert res1.converged
    assert res1.value == pytest.approx(cf.f1_closed(4, 0.5, 0.25), rel=1e-3)
    for d in (5, 6):
        res = pq.f_integral_num("f1", d, 0.5, 0.25, spec)
        assert res.converged
        assert res.value == pytest.approx(cf.f1_closed(d, 0.5, 0.25), rel=1e-4)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_meridian_rule_moments(d):
    # int_S 1 = |S^(d-1)| and int_S omega_1^2 = |S^(d-1)| / d
    om, w = pq._meridian_rule(d, 8)
    area = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
    assert float(np.sum(w)) == pytest.approx(area, rel=1e-14)
    assert float(w @ om[:, 0] ** 2) == pytest.approx(area / d, rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_meridian_rule_folds_the_circle_rule(n):
    # at d = 2 the meridian rule is the 2n-node circle rule folded by
    # omega_2 -> -omega_2: the same integral of any g(omega_1)
    om, w = pq._meridian_rule(2, n)
    full_om, full_w = pq._sphere_rule(2, 2 * n)
    assert np.all(om[:, 1] > 0.0)
    for g in (np.exp, lambda m: 1.0 / (2.0 + m)):
        assert float(w @ g(om[:, 0])) == pytest.approx(float(full_w @ g(full_om[:, 0])), rel=1e-15)


def test_axial_path_guards(spec):
    g = f1_integrand(4, 0.5, 0.25)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        pq.pv_integral(g, 4, spec, singular_points=(e1, -e1))  # no full rule at d = 4
    off = np.array([0.8, 0.6, 0.0, 0.0])
    with pytest.raises(DomainError):
        pq.pv_integral(g, 4, spec, singular_points=(off, -off), axial=True)


# f1-f4 at d = 3 on the full product rule (14,053,376 nodes each); the
# meridian rule has the same mu nodes, so only rounding, amplified by the
# shell completion, separates the two
_D3_PINNED = [
    ("f1", 0.3, 0.1, -4.048738679255312),
    ("f1", 0.5, 0.25, -4.818121078473802),
    ("f1", 0.7, 0.4, -6.564708914816432),
    ("f1", 0.45, 0.2, -4.394946055647445),
    ("f2", 0.3, 0.1, -1.1191855960062465),
    ("f2", 0.5, 0.25, -1.145517535583901),
    ("f2", 0.7, 0.4, -1.1012831878444347),
    ("f2", 0.45, 0.2, -1.0291266460259985),
    ("f3", 0.3, 0.1, 108.68756908324912),
    ("f3", 0.5, 0.25, 61.3621471996157),
    ("f3", 0.7, 0.4, 64.45044336117884),
    ("f3", 0.45, 0.2, 68.52762848968425),
    ("f4", 0.3, 0.1, 19.266323879129224),
    ("f4", 0.5, 0.25, 25.551182550728274),
    ("f4", 0.7, 0.4, 41.758860462170425),
    ("f4", 0.45, 0.2, 23.48509794966765),
]


@pytest.mark.parametrize("which, s, delta, want", _D3_PINNED)
def test_three_dimensional_values_pinned(spec, which, s, delta, want):
    res = pq.f_integral_num(which, 3, s, delta, spec)
    assert res.value == pytest.approx(want, rel=1e-9)
    assert res.nodes_used == 219456


def test_axis_reduction_matches_full_rule_off_axis(spec):
    # the value at an off-axis x, reduced to |x| e1, against the integrand
    # at x itself on the d = 3 product rule
    d, s, delta = 3, 0.4, 0.2
    x = np.array([0.6, 0.48, 0.64])
    rx = float(np.linalg.norm(x))

    def field(power, z):
        return norms(z) ** (power - 1.0) * z[:, 0]

    params = FracParams(d, s, delta, 0.15)
    a_iso = 1.0 - 0.5 * (1.0 + 2.0 * s) * params.epsilon
    b_rad = 0.5 * (d + 2.0 * s) * params.epsilon
    ux = float(field(1.0 - delta, x[None, :])[0])

    def op(h):
        y = x[None, :] + h
        r = norms(h)
        cos_x = (h @ x) / (r * rx)
        cos_y = np.sum(h * y, axis=1) / (r * norms(y))
        kern = r ** (-d - 2.0 * s) * (a_iso + 0.5 * b_rad * (cos_x**2 + cos_y**2))
        return kern * (ux - field(1.0 - delta, y))

    full = pq.pv_integral(op, d, spec, singular_points=(-x, x), axial=False)
    got = pq.frac_op_num(params, x, spec)
    assert got.value == pytest.approx(2.0 * full.value, rel=1e-5)

    def pot(h):
        return field(s - delta, x[None, :] - h) * norms(h) ** (-(d - 1.0 + s))

    full = pq.pv_integral(pot, d, spec, singular_points=(x, -x), axial=False)
    got = riesz_potential_num(d, s, delta, x, spec)
    assert got.value == pytest.approx(riesz_kernel_constant(d, 1.0 - s) * full.value, rel=1e-5)


def test_not_converged_on_divergent_integrand(spec):
    with pytest.raises(NotConverged):
        pq.pv_integral(lambda h: np.ones(len(h)), 2, spec)


def test_patch_geometry_guard(spec):
    with pytest.raises(DomainError):
        pq._patch_geometry((np.zeros(2),))
