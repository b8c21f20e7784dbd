import math
from functools import partial

import numpy as np
import pytest

from nonlocal_lab import closedform as cf
from nonlocal_lab import pvquad as pq
from nonlocal_lab.errors import DomainError, NotConverged
from nonlocal_lab.model import FracParams, _field, _kernel, _safe_norms
from nonlocal_lab.riesz import (
    flux_divergence,
    riesz_constants,
    riesz_div_conv_num,
    riesz_kernel_constant,
    riesz_potential_num,
)
from nonlocal_lab.specfun import kappa

# e1 in R^2, and the meridian row (1, 0) of e1 in every d
E1 = np.array([1.0, 0.0])


def norms(h):
    return np.sqrt(np.sum(h * h, axis=1))


def _operator_integrand(pair, d, s, p, x):
    # the operator's plain integrand k_pair(x, x+h) (u(x) - u(x+h)), whose
    # even part pq._operator_even gives
    ux = float(_field(p, x[None, :], _safe_norms(x[None, :]))[0])

    def g(h):
        y = x[None, :] + h
        ry = _safe_norms(y)
        (k,) = _kernel(pair, d, s, x, h, (y, ry))
        return k * (ux - _field(p, y, ry))

    return g


def _potential_integrand(d, s, power, x):
    # the potential's plain integrand u(x - h) |h|^(-(d-1+s)), whose even
    # part pq._potential_even gives
    def g(h):
        y = x[None, :] - h
        return _field(power, y, _safe_norms(y)) * norms(h) ** (-(d - 1.0 + s))

    return g


def _even(g):
    # the even part (g(h) + g(-h))/2 that pv_integral integrates
    return lambda h: 0.5 * (g(h) + g(-h))


def f1_integrand(d, s, delta):
    # f1 is -1/2 of the operator at e1 with the isotropic pair (1, 0), and the
    # operator is twice its p.v. integral: f1's integrand is the negated one,
    # on meridian rows
    g = _operator_integrand((1.0, 0.0), d, s, 1.0 - delta, E1)
    return lambda h: -g(h)


def test_spec_validation():
    with pytest.raises(DomainError):
        pq.QuadratureSpec(r_min=2.0)
    with pytest.raises(DomainError):
        pq.QuadratureSpec(radial_nodes=1)
    # a window whose ratio r_max / r_min overflows has no band edges
    for window in ({"r_max": math.inf}, {"r_min": 1e-320}):
        with pytest.raises(DomainError, match="ratio"):
            pq.QuadratureSpec(**window)
    for target in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(DomainError, match="target_rel_err"):
            pq.QuadratureSpec(target_rel_err=target)
    # a node count that is not an integer fails later in leggauss or in slicing
    for nodes in ({"radial_nodes": 10.5}, {"angular_nodes": 64.0}):
        with pytest.raises(DomainError, match="integers"):
            pq.QuadratureSpec(**nodes)


@pytest.mark.parametrize(
    "field, refused, accepted",
    [("angular_nodes", range(4, 18), 18), ("radial_nodes", range(2, 5), 5)],
)
def test_spec_refuses_a_blind_jackknife(field, refused, accepted):
    # below 18 angular nodes a coarse band's nominal and jackknife rules are
    # both the 8-node floor, and below 5 radial nodes the jackknife's radial
    # rule is no coarser than the nominal one: the estimate would not see
    # that rule's error
    for n in refused:
        with pytest.raises(DomainError, match="no coarser"):
            pq.QuadratureSpec(**{field: n})
    spec = pq.QuadratureSpec(**{field: accepted})
    radial, angular = pq._jackknife_resolution(spec)
    assert radial < spec.radial_nodes
    assert pq._band_nodes(angular, 1) < pq._band_nodes(spec.angular_nodes, 1)


def test_odd_integrand_is_exactly_zero(spec):
    # the even part of an odd integrand is 0.0 at every row
    res = pq.pv_integral(_even(lambda h: norms(h) ** (-2 - 1.0) * h[:, 0]), 2, spec)
    assert res.value == 0.0
    assert res.err_estimate >= 0.0
    assert res.converged


def test_pv_integral_f1_example(spec):
    g = _even(f1_integrand(2, 0.5, 0.25))
    res = pq.pv_integral(g, 2, spec, singular_pair=True)
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


def test_frac_op_err_estimate_off_axis(spec):
    # at this plain off-axis point the full circle at x under-reported its
    # error 6.4x; reduced to |x| e1 the error is within the estimate
    params = FracParams(2, 0.5, 0.25, 0.1)
    x = np.array([0.6, 0.8])
    res = pq.frac_op_num(params, x, spec)
    closed = cf.operator_value(params, x) / kappa(2, 0.5)
    assert abs(res.value - closed) <= res.err_estimate


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
    even = _even(f1_integrand(d, s, delta))
    rule = pq._even_rule(d, spec.angular_nodes // 2)
    shell = []
    for k in range(1, 5):
        a, b = 10.0**k, 10.0 ** (k + 1)
        edges = pq._band_edges(a, b, spec.bands_per_decade)
        bands = [(aa, bb, rule, None) for aa, bb in zip(edges[:-1], edges[1:])]
        values = pq._band_values(even, pq._pass(bands, d, spec.radial_nodes))
        shell.append(abs(sum(values)))
    for t1, t2 in zip(shell, shell[1:]):
        assert t2 <= 0.6 * t1  # expected factor 10^-(delta+2s) ~ 0.056


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.fixture()
def cold_plans():
    # no cached plan before or after the test
    pq._plan.cache_clear()
    yield
    pq._plan.cache_clear()


def _bands(plan):
    # (points, weights) of each band of a pass (points, weights, starts):
    # band i holds the rows starts[i] up to the next band's first row
    points, weights, starts = plan
    for lo, hi in zip(starts, [*starts[1:], len(points)]):
        yield points[lo:hi], weights[lo:hi]


def _pair_mask(center):
    # the pair cutoff as written: 1 - chi(h - c) - chi(h + c) at every point
    def mask(pts):
        return 1.0 - pq._chi(pts - center) - pq._chi(pts + center)

    return mask


def _stage_rows(stage):
    # every point of both passes of a stage plan
    return np.concatenate([points for points, _, _ in stage[1]])


def _patch_local(spec, d):
    # the nominal and the jackknife pass of the patch at its local rows
    # l = rho omega, on the full meridian rule, with uncut weights
    bands = pq._patch_bands(spec)
    resolutions = ((spec.radial_nodes, spec.angular_nodes), pq._jackknife_resolution(spec))
    return [
        pq._pass([(a, b, pq._meridian_rule(d, pq._band_nodes(m, 1)), None) for a, b, *_ in bands],
                 d, n)
        for n, m in resolutions
    ]


def _same_bits(a, b):
    # float-hex equality of two float arrays, row by row
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize(
    "d, c",
    [(2, (1.0, 0.0)), (2, (0.78, -1.04)), (3, (1.3, 0.0)), (4, (1.0, 0.0))],
    ids=["d2-axis", "d2-off-axis", "d3", "d4"],
)
def test_even_parts_are_bitwise(spec, d, c, cold_plans):
    # each oracle's even part at the point c against (g(h) + g(-h))/2 of
    # its plain integrand g, row by row to the bit: at the main-band rows of
    # the cached plan of the pair +-e1 and at its patch rows e1 + l, with c
    # a meridian row at d >= 3
    c = np.array(c)
    main, patch = pq._plan(spec, d, True)
    points = [_stage_rows(main), _stage_rows(patch)]
    s, delta = 0.4, 0.2
    p = 1.0 - delta
    pairs = [
        (pq._operator_even(pair, d, s, p, c), _operator_integrand(pair, d, s, p, c))
        for pair in ((1.0, 0.0), (0.0, 1.0), (0.8, 0.3))
    ]
    pairs += [
        (pq._potential_even(d, s, power, c), _potential_integrand(d, s, power, c))
        for power in (s - delta, -1.0 - delta)
    ]
    for even, plain in pairs:
        for pts in points:
            assert _same_bits(even(pts), _even(plain)(pts))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_meridian_rows_match_full_coordinates(spec, d, cold_plans):
    # a meridian row (h1, h2) stands for h1 e1 + h2 e_perp: each oracle's
    # even part on two-column rows has the bits of the same rows and x
    # zero-padded to d columns, at the main-band rows and the patch rows
    # e1 + l, at x = e1 and off it
    c = E1
    main, patch = pq._plan(spec, d, True)
    rows = np.concatenate([_stage_rows(main), _stage_rows(patch)])

    def padded(a):
        return np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, d - 2)])

    s, delta = 0.4, 0.2
    kinds = [
        lambda x, pair=pair: pq._operator_even(pair, d, s, 1.0 - delta, x)
        for pair in ((1.0, 0.0), (0.0, 1.0), (0.8, 0.3))
    ]
    kinds += [
        lambda x, power=power: pq._potential_even(d, s, power, x)
        for power in (s - delta, -1.0 - delta)
    ]
    for even_at in kinds:
        for x in (c, 1.3 * c):
            assert _same_bits(even_at(x)(rows), even_at(padded(x))(padded(rows)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_reduction_matches_one_band_passes(spec, d, monkeypatch, cold_plans):
    # each band value of every pass of both stages of the cached plan, to the
    # bit: against a one-band pass over the band's slice of the plan, and
    # against the pass with fn called on chunks of at most 977 rows, which
    # split bands, and on one chunk of every row
    fn = pq._operator_even((0.8, 0.3), d, 0.4, 0.8, E1)
    for _, passes in pq._plan(spec, d, True):
        for plan in passes:
            values = _hex(pq._band_values(fn, plan))
            one_band = [
                pq._band_values(fn, (pts, w, np.zeros(1, dtype=int))) for pts, w in _bands(plan)
            ]
            assert len(values) == len(one_band) > 1
            assert values == _hex(np.concatenate(one_band))
            for batch in (977, 10**7):
                sizes = []

                def counted(pts):
                    sizes.append(len(pts))
                    return fn(pts)

                with monkeypatch.context() as patched:
                    patched.setattr(pq, "_BATCH", batch)
                    assert _hex(pq._band_values(counted, plan)) == values
                assert sum(sizes) == len(plan[0]) and max(sizes) == min(batch, len(plan[0]))


@pytest.mark.parametrize("d", [2, 4])
def test_band_values_grouping_is_bitwise(spec, d, monkeypatch, cold_plans):
    # the cached plan's nominal main pass, taken in chunks of _BATCH rows,
    # keeps the bits of one integrand call per band on a pass rebuilt from
    # the bands alone, on the folded d = 2 and d = 4 meridian rules, with
    # the cutoff of the patch pair +-e1 on the bands that carry it; _BATCH
    # is 4096 here, so that the d = 4 pass (9,280 rows) spans more than two
    # chunks
    monkeypatch.setattr(pq, "_BATCH", 4096)
    even = _even(f1_integrand(d, 0.5, 0.25))
    window = pq.QuadratureSpec(r_min=1e-3, r_max=1e3)
    (_, (nominal, _)), _ = pq._plan(window, d, True)
    bands = [
        (a, b, pq._even_rule(d, max(8, window.angular_nodes * grade // 2)), cut)
        for a, b, grade, cut in pq._main_bands(window, d, True)
    ]
    assert any(cut for *_, cut in bands)
    sizes = []

    def counted(pts):
        sizes.append(len(pts))
        return even(pts)

    grouped = pq._band_values(counted, nominal)
    assert len(nominal[0]) == sum(sizes) > 2 * pq._BATCH
    assert 1 < len(sizes) < len(bands)
    assert all(n == pq._BATCH for n in sizes[:-1])
    single = [
        pq._band_values(
            even, pq._pass([(a, b, rule, pq._pair_cutoff if cut else None)], d, window.radial_nodes)
        )[0]
        for a, b, rule, cut in bands
    ]
    assert _hex(grouped) == _hex(single)


def _oracle_plan(spec, d, norm):
    # the stages of the plan that frac_op_num builds at |x| = norm from a
    # cold cache: the one plan of (spec, d) and the pair +-e1, whatever |x|
    pq.frac_op_num(FracParams(d, 0.4, 0.2, 0.15), norm * np.eye(d)[0], spec)
    assert pq._plan.cache_info().currsize == 1
    plan = pq._plan(spec, d, True)
    assert pq._plan.cache_info().hits == 1
    return plan


@pytest.mark.parametrize("norm", [0.01, 1.0, 40.0])
@pytest.mark.parametrize("d", [2, 3], ids=["d2-meridian", "d3-meridian"])
def test_cutoff_is_one_on_bands_without_one(spec, d, norm, cold_plans):
    # a band without a cutoff would multiply its values by exactly 1.0: the
    # pair cutoff on the main bands, at the points of the nominal and the
    # jackknife pass of the plan an oracle at |x| = norm takes, and chi on
    # the patch bands, at their local rows l; on the cut bands the cutoff is
    # the full expression
    (_, main), _ = _oracle_plan(spec, d, norm)
    stages = [
        (main, pq._main_bands(spec, d, True), (_pair_mask(E1), pq._pair_cutoff)),
        (_patch_local(spec, d), pq._patch_bands(spec), (pq._chi, pq._chi)),
    ]
    for passes, bands, (full, cutoff) in stages:
        assert any(cut for *_, cut in bands)
        for plan in passes:
            for (pts, _), (*_, cut) in zip(_bands(plan), bands):
                if not cut:
                    assert np.all(full(pts) == 1.0)
                else:
                    assert _hex(cutoff(pts)) == _hex(full(pts))


@pytest.mark.parametrize("norm", [0.01, 1.0, 40.0])
@pytest.mark.parametrize("d", [3, 2], ids=["d3-meridian", "d2-meridian"])
def test_plan_cutoff_is_bitwise(spec, d, norm, cold_plans):
    # on every band of both main passes of the plan an oracle at |x| = norm
    # takes: a cut band's weights are its uncut weights times the pair
    # cutoff at +-e1, which is the full expression to the bit, and a band
    # without a cutoff keeps its uncut weights, with the cutoff exactly 1
    # whichever of +-e1 comes first
    bands = pq._main_bands(spec, d, True)
    (_, passes), _ = _oracle_plan(spec, d, norm)
    _, uncut = pq._stage_plan([(a, b, g, False) for a, b, g, _ in bands], d, spec, None)
    n_cut = 0
    for cached, plain in zip(passes, uncut):
        assert _same_bits(cached[0], plain[0]) and len(cached[2]) == len(bands)
        for (pts, w), (_, w0), (*_, cut) in zip(_bands(cached), _bands(plain), bands):
            full = _pair_mask(E1)(pts)
            if not cut:
                assert np.all(full == 1.0) and np.all(_pair_mask(-E1)(pts) == 1.0)
                assert _same_bits(w, w0)
            else:
                n_cut += 1
                assert _hex(pq._pair_cutoff(pts)) == _hex(full)
                assert _same_bits(w, w0 * full)
    assert n_cut > 0


def _smoothstep_everywhere(u):
    # the smoothstep with both exponentials taken on every row
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def _chi_everywhere(rho, radius):
    return 1.0 - _smoothstep_everywhere((rho - 0.5 * radius) / (0.5 * radius))


def test_smoothstep_only_between_keeps_the_bits():
    # evaluated only strictly inside (0, 1), the smoothstep keeps the bits of
    # the evaluation on every row, at the ends, past them and next to them
    tiny = np.array([5e-324, 1e-310, 1e-300, 1e-200, 1e-3, 0.5, 1.0 - 2.0**-53, 1.0 - 1e-9])
    ends = [0.0, 1.0, -3.0, 7.0]
    u = np.concatenate([tiny, -tiny, 1.0 + tiny, ends, np.linspace(-0.5, 1.5, 2001)])
    assert _same_bits(pq._smoothstep(u), _smoothstep_everywhere(u))


@pytest.mark.parametrize("norm", [0.01, 1.0, 40.0])
@pytest.mark.parametrize("d", [2, 3], ids=["d2-meridian", "d3-meridian"])
def test_cutoff_weights_match_full_evaluation(spec, d, norm, cold_plans):
    # the weights on the cut bands of both passes of both stages of the plan
    # an oracle at |x| = norm takes, to the bit: the uncut weights times the
    # pair cutoff at +-e1, and times the patch's chi at the local rows l of
    # its rows e1 + l, with the smoothstep evaluated on every row
    radius = pq._PATCH_RADIUS

    def pair_full(pts):
        near, far = norms(pts - E1), norms(pts + E1)
        return 1.0 - _chi_everywhere(near, radius) - _chi_everywhere(far, radius)

    def chi_full(local):
        return _chi_everywhere(norms(local), radius)

    (_, main), (_, patch) = _oracle_plan(spec, d, norm)
    main_bands = pq._main_bands(spec, d, True)
    _, main_uncut = pq._stage_plan([(a, b, g, False) for a, b, g, _ in main_bands], d, spec, None)
    stages = [
        (main, main_uncut, main_bands, pair_full),
        (patch, _patch_local(spec, d), pq._patch_bands(spec), chi_full),
    ]
    n_cut = 0
    for passes, uncut, bands, full in stages:
        for cached, plain in zip(passes, uncut):
            for (_, w), (pts, w0), (*_, cut) in zip(_bands(cached), _bands(plain), bands):
                n_cut += cut
                assert _same_bits(w, w0 * full(pts) if cut else w0)
    assert n_cut > 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_plans_and_integrand_chunks_are_column_major(spec, d, monkeypatch, cold_plans):
    # every cached plan's points are column-major, and every chunk of rows
    # the integrand sees has contiguous columns, as do x + h and x - h formed
    # from it: in the main passes and at the patch rows e1 + l
    x = E1
    even = pq._operator_even((0.8, 0.3), d, 0.4, 0.8, x)
    chunks = []

    def recording(h):
        chunks.append(h)
        return even(h)

    def columns_contiguous(a):
        return a.shape[1] == 2 and a.strides[0] == a.itemsize

    monkeypatch.setattr(pq, "_BATCH", 977)  # chunks that split bands and passes
    pq.pv_integral(recording, d, spec, singular_pair=True)
    pq.pv_integral(even, d, spec)
    plans = [pq._plan(spec, d, True), pq._plan(spec, d, False)]
    passes = [p for main, patch in plans for stage in (main, patch) if stage for p in stage[1]]
    assert len(passes) == 6
    assert all(points.flags.f_contiguous for points, _, _ in passes)
    # the patch's rows, the ones near e1, are among the chunks
    assert any(np.any(norms(h - x) < 1e-3 * pq._PATCH_RADIUS) for h in chunks)
    assert len(chunks) > 4 and max(len(h) for h in chunks) == 977
    for h in chunks:
        assert columns_contiguous(h)
        assert columns_contiguous(x + h) and columns_contiguous(x - h)


_COARSE = {"bands_per_decade": 3, "radial_nodes": 7, "angular_nodes": 48}


@pytest.mark.parametrize("spec_fields", [{}, _COARSE], ids=["default", "coarse"])
@pytest.mark.parametrize(
    "d, singular_pair",
    [(2, True), (3, True), (2, False)],
    ids=["d2-meridian", "d3-meridian", "no-patch"],
)
def test_nodes_used_counts_integrand_rows(spec_fields, d, singular_pair, cold_plans):
    # nodes_used, counted from the rule sizes, is every sample of g: the even
    # integrand sees each row of the plan once, in the main bands and in the
    # patch, and takes g at h and -h, so nodes_used is twice its rows
    spec = pq.QuadratureSpec(**spec_fields)
    if singular_pair:
        even = pq._operator_even((0.8, 0.3), d, 0.4, 0.8, E1)
    else:
        even = _even(lambda h: np.exp(-norms(h)) * norms(h) ** -1.5)
    rows = []

    def counted(h):
        rows.append(len(h))
        return even(h)

    res = pq.pv_integral(counted, d, spec, singular_pair)
    plan = pq._plan(spec, d, singular_pair)
    main_rows, patch_rows = (len(_stage_rows(stage)) if stage else 0 for stage in plan)
    assert (patch_rows > 0) == singular_pair
    assert sum(rows) == main_rows + patch_rows
    assert res.nodes_used == 2 * sum(rows)


@pytest.mark.parametrize(
    "spec_fields", [{}, _COARSE, {"angular_nodes": 18}], ids=["default", "coarse", "odd-n"]
)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_plan_rows_lie_in_the_meridian_half_plane(spec_fields, d, cold_plans):
    # every row of every cached plan, with and without the pair, has
    # h2 >= 0, and the patch rows are e1 + rho omega over the full meridian
    # rule, to the bit
    spec = pq.QuadratureSpec(**spec_fields)
    for singular_pair in (True, False):
        for stage in pq._plan(spec, d, singular_pair):
            if stage is not None:
                assert np.all(_stage_rows(stage)[:, 1] >= 0.0)
    _, (_, patch) = pq._plan(spec, d, True)
    for cached, local in zip(patch, _patch_local(spec, d)):
        assert _same_bits(cached[0], E1 + local[0]) and cached[0].flags.f_contiguous
        assert np.array_equal(cached[2], local[2])


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
# field it takes from `model` keep the integrand's operation order, and every
# x is the value at e1 scaled by |x|^(1 - delta - 2s) x1/|x|
_FRAC_OP_PINNED = [
    ((2, 0.5, 0.25, 0.1), (1.0, 0.0), 4.8870806839037515, 2.815115031291827e-07, 113616),
    ((2, 0.3, 0.1, 0.4), (0.78, -1.04), 2.4283818561030026, 4.491688161067117e-06, 113616),
    ((2, 0.8, 0.4, 0.2), (-0.5, 0.9), -3.0008188003346303, 5.2722192331779336e-06, 113616),
    ((3, 0.4, 0.2, 0.15), (0.6, 0.48, 0.64), 5.70386540114952, 3.754558327379451e-05, 72576),
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


def _circle_rule(n):
    # the n-node midpoint rule on the circle: angles 2 pi (k + 1/2)/n, weights 2 pi/n
    theta = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    return np.stack([np.cos(theta), np.sin(theta)], axis=1), np.full(n, 2.0 * math.pi / n)


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_meridian_rule_folds_the_circle_rule(n):
    # at d = 2 the meridian rule is the 2n-node circle rule folded by
    # omega_2 -> -omega_2: the same integral of any g(omega_1)
    om, w = pq._meridian_rule(2, n)
    full_om, full_w = _circle_rule(2 * n)
    assert np.all(om[:, 1] > 0.0)
    for g in (np.exp, lambda m: 1.0 / (2.0 + m)):
        assert float(w @ g(om[:, 0])) == pytest.approx(float(full_w @ g(full_om[:, 0])), rel=1e-15)


def test_axial_path_guards(spec, cold_plans):
    # the oracle path's guards, at every d, raise before any plan is built:
    # x must be a point of R^d away from the origin, and the value scaled
    # from e1 must not overflow; riesz_div_conv_num has degree -s - delta,
    # -2.3 here, so |x|^-2.3 overflows at |x| = 1e-150
    for d in (2, 3, 4):
        params = FracParams(d, 0.5, 0.25, 0.1)
        for x in (np.zeros(d), np.ones(d + 1), np.ones((1, d)), [1.0], 1.0):
            with pytest.raises(DomainError):
                pq.frac_op_num(params, x, spec)
        if d > 2:
            with pytest.raises(DomainError, match="overflows"):
                riesz_div_conv_num(d, 0.9, 1.4, 0.3, 1e-150 * np.eye(d)[0], spec)
    assert pq._plan.cache_info().currsize == 0


@pytest.mark.parametrize("n", [2, 7, 8, 9, 32, 224])
def test_meridian_rule_mirrors_at_two_dimensions(n):
    # node n-1-j of the d = 2 meridian rule is (-mu_j, sin theta_j) to the
    # bit, the middle node of an odd n is (0, 1), and the nodes mu >= 0 are
    # those of the 2n-node circle rule; the rule still integrates like it
    om, w = pq._meridian_rule(2, n)
    full_om, full_w = _circle_rule(2 * n)
    half = n // 2
    # == on mu, as the middle node's mu = 0 is its own mirror -0.0
    assert np.array_equal(om[::-1, 0], -om[:, 0]) and _same_bits(om[::-1, 1], om[:, 1])
    assert _same_bits(om[:half], full_om[:half]) and np.all(om[:half, 0] > 0.0)
    if n % 2:
        assert om[half].tolist() == [0.0, 1.0]
    assert np.max(np.abs(om - full_om[:n])) <= 1e-15
    assert _same_bits(w, 2.0 * full_w[:n])
    for g in (np.exp, lambda m: 1.0 / (2.0 + m), lambda m: m**4):
        assert float(w @ g(om[:, 0])) == pytest.approx(float(full_w @ g(full_om[:, 0])), rel=1e-14)


def _plan_arrays(plan):
    # the points, weights and starts of every pass of a plan
    for stage in plan:
        for arrays in stage[1] if stage is not None else ():
            yield from arrays


def test_cached_plan_is_read_only(spec, cold_plans):
    # an integrand that writes into its argument raises on a cached plan, on
    # the d = 2 and the d = 3 meridian rule, and the next call still has the
    # bits of a cold one
    for d in (2, 3):
        g = pq._operator_even((0.8, 0.3), d, 0.4, 0.8, E1)

        def writer(h):
            h *= 2.0
            return g(h)

        with pytest.raises(ValueError, match="read-only"):
            pq.pv_integral(writer, d, spec, singular_pair=True)
        arrays = list(_plan_arrays(pq._plan(spec, d, True)))
        assert arrays and not any(a.flags.writeable for a in arrays)
        warm = pq.pv_integral(g, d, spec, singular_pair=True)
        pq._plan.cache_clear()
        cold = pq.pv_integral(g, d, spec, singular_pair=True)
        assert _hex([warm.value, warm.err_estimate]) == _hex([cold.value, cold.err_estimate])
        assert warm.nodes_used == cold.nodes_used


def test_cached_plans_keep_cold_bits(spec, cold_plans):
    # warm oracle calls keep the bits of cold ones: at d = 2 at e1 and at two
    # off-axis x, interleaved with d = 3 and 4 calls at three |x|; every x
    # takes the one plan of its d
    d2 = [(2, np.array(x)) for x in ((1.0, 0.0), (0.6, 0.8), (math.cos(0.3), math.sin(0.3)))]
    nd = [(d, norm * np.eye(d)[0]) for d in (3, 4) for norm in (1.0, 0.5, 1.0 - 2.0**-53)]
    points = [p for pair in zip(d2 + d2, nd) for p in pair]
    cases = [(d, x, kind) for d, x in points for kind in ("op", "pot")]

    def run(d, x, kind):
        if kind == "op":
            res = pq.frac_op_num(FracParams(d, 0.4, 0.2, 0.15), x, spec)
        else:
            res = riesz_potential_num(d, 0.4, 0.2, x, spec)
        return _hex([res.value, res.err_estimate]), res.nodes_used, res.converged

    cold = []
    for case in cases:
        pq._plan.cache_clear()
        cold.append(run(*case))
    pq._plan.cache_clear()
    for i in list(range(len(cases))) + list(range(len(cases)))[::-1]:
        assert run(*cases[i]) == cold[i]
    # one plan per dimension, whatever |x|: |(0.6, 0.8)| is 1, and
    # |(cos 0.3, sin 0.3)| is 1 - 2^-53
    assert np.linalg.norm(d2[2][1]) == 1.0 - 2.0**-53
    assert pq._plan.cache_info().currsize == 3


@pytest.mark.parametrize("n", [8, 9, 32, 224])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_even_rule_folds_the_meridian_rule(d, n):
    # the even rule's nodes are the meridian rule's j >= n//2 to the bit,
    # its weights sum to |S^(d-1)|, and it integrates even polynomials in
    # mu as the full rule does
    om, w = pq._meridian_rule(d, n)
    even_om, even_w = pq._even_rule(d, n)
    assert _same_bits(even_om, om[n // 2 :])
    area = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
    assert float(np.sum(even_w)) == pytest.approx(area, rel=1e-14)
    for k in (0, 2, 4, 6, 10):
        full = float(w @ om[:, 0] ** k)
        assert float(even_w @ even_om[:, 0] ** k) == pytest.approx(full, rel=1e-14)


@pytest.mark.parametrize("kind", ["operator", "potential", "no-patch"])
@pytest.mark.parametrize("spec_fields", [{}, {"angular_nodes": 18}], ids=["default", "odd-n"])
@pytest.mark.parametrize("d", [3, 4, 5, 2])
def test_meridian_fold_is_bitwise(d, spec_fields, kind, monkeypatch, cold_plans):
    # the main passes on the even rule against those on the full meridian
    # rule: each band's points are the full band's at the nodes j >= n//2,
    # to the bit, and the values, summed in another order, agree within a
    # tenth of the estimate; at 18 angular nodes the 9-node rule holds
    # mu = 0, its own mirror.  At d = 2 the rule is the half circle, whose
    # mirrors are exact too.  The patch, not even about e1, takes the full
    # rule either way
    spec = pq.QuadratureSpec(**spec_fields)
    pair = kind != "no-patch"
    if kind == "operator":
        g = pq._operator_even((0.8, 0.3), d, 0.4, 0.8, E1)
    elif kind == "potential":
        g = pq._potential_even(d, 0.4, 0.2, E1)
    else:
        g = _even(lambda h: np.exp(0.3 * h[:, 0] - norms(h)) * norms(h) ** -1.5)
    folded = pq.pv_integral(g, d, spec, singular_pair=pair)
    folded_plan = pq._plan(spec, d, pair)
    monkeypatch.setattr(pq, "_even_rule", pq._meridian_rule)
    pq._plan.cache_clear()
    full = pq.pv_integral(g, d, spec, singular_pair=pair)
    # the radial nodes of the nominal and of the jackknife pass
    radial = (spec.radial_nodes, max(4, spec.radial_nodes - 3))
    (half_main, half_patch), (full_main, full_patch) = folded_plan, pq._plan(spec, d, pair)
    for half_pass, full_pass, n_r in zip(half_main[1], full_main[1], radial):
        for (half_pts, _), (full_pts, _) in zip(_bands(half_pass), _bands(full_pass)):
            full_pts = full_pts.reshape(n_r, -1, 2)
            kept = full_pts[:, full_pts.shape[1] // 2 :]
            assert _same_bits(half_pts, np.ascontiguousarray(kept).reshape(-1, 2))
    if pair:
        assert _same_bits(_stage_rows(half_patch), _stage_rows(full_patch))
    assert abs(folded.value - full.value) <= 0.1 * folded.err_estimate
    assert folded.converged == full.converged
    half_rows, full_rows = len(_stage_rows(half_main)), len(_stage_rows(full_main))
    assert full.nodes_used - folded.nodes_used == 2 * (full_rows - half_rows)
    if spec_fields:
        assert full_rows // 2 < half_rows < full_rows
    else:
        assert 2 * half_rows == full_rows


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
    assert res.nodes_used == 72576


def test_axis_reduction_matches_closed_forms_off_axis(spec):
    # the value at an off-axis x, scaled from e1, against the closed forms
    # within its own estimate: the operator against operator_value / kappa,
    # the Riesz potential against c* |x|^-delta x1 and the convolved
    # divergence against flux_divergence's
    s, delta, eps = 0.4, 0.2, 0.15
    for x in ((0.78, -1.04), (0.6, 0.48, 0.64), (0.6, 0.48, 0.64, -0.3)):
        x = np.array(x)
        d = len(x)
        params = FracParams(d, s, delta, eps)
        res = pq.frac_op_num(params, x, spec)
        assert abs(res.value - cf.operator_value(params, x) / kappa(d, s)) <= res.err_estimate
        c_star, _ = riesz_constants(d, s, delta)
        res = riesz_potential_num(d, s, delta, x, spec)
        want = c_star * float(np.linalg.norm(x)) ** -delta * x[0]
        assert abs(res.value - want) <= res.err_estimate
        res = riesz_div_conv_num(d, s, delta, eps, x, spec)
        _, _, want = flux_divergence(d, s, delta, eps, x)
        assert abs(res.value - want) <= res.err_estimate


@pytest.mark.parametrize(
    "x", [(math.nan, 0.0), (math.inf, 0.0), (1.0, -math.inf), (1e200, 1e200)],
    ids=["nan", "inf", "minus-inf", "overflow"],
)
def test_oracles_reject_non_finite_points(spec, x, cold_plans):
    # a point holding nan or inf, or whose |x| overflows, is a DomainError
    # before any plan is built, on every oracle
    x = np.array(x)
    oracles = [
        lambda: pq.frac_op_num(FracParams(2, 0.5, 0.25, 0.1), x, spec),
        lambda: riesz_potential_num(2, 0.4, 0.2, x, spec),
        lambda: riesz_div_conv_num(2, 0.4, 0.2, 0.3, x, spec),
    ]
    for oracle in oracles:
        with pytest.raises(DomainError, match="finite point"):
            oracle()
    assert pq._plan.cache_info().currsize == 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_substituted_integral_matches_the_scaled_e1_value(spec, d):
    # the unscaled path: with h = lam h', the integral of an oracle's even
    # part at lam e1 is that of lam^d even_at(lam e1)(lam h'), singular at
    # h' = +-e1, and homogeneity makes it lam^degree times the integral at
    # e1; the two agree within both estimates, about 1e-6 of the value,
    # where a wrong degree would miss by percent
    s, delta = 0.4, 0.2
    p = 1.0 - delta
    kinds = [
        (partial(pq._operator_even, (0.8, 0.3), d, s, p), p - 2.0 * s),
        (partial(pq._potential_even, d, s, s - delta), 1.0 - delta),
        (partial(pq._potential_even, d, s, -1.0 - delta), -s - delta),
    ]
    for even_at, degree in kinds:
        at_e1 = pq.pv_integral(even_at(E1), d, spec, singular_pair=True)
        for lam in (0.3, 1.7, 3.0):
            even = even_at(lam * E1)
            sub = pq.pv_integral(lambda h: lam**d * even(lam * h), d, spec, singular_pair=True)
            scale = lam**degree
            assert sub.converged
            assert abs(sub.value - scale * at_e1.value) <= sub.err_estimate + scale * at_e1.err_estimate


@pytest.mark.parametrize("norm", [1e-3, 0.3, 1.3, 40.0, 1e3, 1e154])
@pytest.mark.parametrize("d", [2, 3])
def test_frac_op_on_the_norm_grid(spec, d, norm):
    # at x = |x| (0.6, 0.8, 0, ...) from 1e-3 to 1e154 the oracle is its e1
    # value scaled by |x|^(1 - delta - 2s) x1/|x|: converged, and within its
    # estimate of the closed form
    params = FracParams(d, 0.5, 0.25, 0.1)
    x = norm * np.array([0.6, 0.8] + [0.0] * (d - 2))
    res = pq.frac_op_num(params, x, spec)
    assert res.converged
    assert abs(res.value - cf.operator_value(params, x) / kappa(d, 0.5)) <= res.err_estimate


def test_not_converged_on_divergent_integrand(spec):
    # the shells grow 100x per decade towards the outer edge
    with pytest.raises(NotConverged, match=r"^main outer completion: .*edge ratio q = 100\b"):
        pq.pv_integral(lambda h: np.ones(len(h)), 2, spec)


def _edge_ordered(seq):
    # shells k = 0, 1, ... towards the window edge, edge shell first, as
    # _completion takes them
    return list(seq)[::-1]


def _two_power(window):
    # the last `window` of ten shells 1.0 * 0.6^k - 0.7 * 0.25^k, and their
    # exact tail past the edge
    shells = _edge_ordered([0.6**k - 0.7 * 0.25**k for k in range(10 - window, 10)])
    return shells, 0.6**10 / 0.4 - 0.7 * 0.25**10 / 0.75


def _completion_within_err(shells, true):
    tail, err = pq._completion(shells, sum(map(abs, shells)), "main inner")
    assert abs(true - tail) <= err
    return tail


# Ratios q at which _completion misses the tail of an exactly geometric
# 10-shell sequence q^k by more than its error estimate: the 2x2 Prony fit
# is singular up to rounding, passes the absolute det guard and overrides
# the exact geometric tail.  A known-exponent completion would mend it.
_KNOWN_GEOMETRIC_MISSES = {0.43}


@pytest.mark.parametrize("q", [0.5, 0.33, 0.43])
def test_completion_on_geometric_shells(q):
    shells = _edge_ordered([q**k for k in range(10)])
    true = shells[0] * q / (1.0 - q)
    if q == 0.5:
        # exact in binary: the Prony fit is singular (det = 0), and the
        # geometric tail stands
        assert pq._prony_tail(shells, sum(shells)) is None
    if q in _KNOWN_GEOMETRIC_MISSES:
        tail, err = pq._completion(shells, sum(shells), "main inner")
        assert abs(true - tail) > err
    else:
        assert _completion_within_err(shells, true) == pytest.approx(true, rel=1e-12)


def test_completion_on_two_power_shells():
    # the recurrence fit takes a two-power tail that one ratio misses by
    # 7e-4 of it; the one-shell-deeper refit bounds the fit's error
    shells, true = _two_power(10)
    geometric, _ = pq._geometric_tail(shells, 1.0)
    assert abs(_completion_within_err(shells, true) - true) < 1e-9 * abs(geometric - true)


def test_completion_on_a_damped_oscillation():
    # r^k cos(k theta) obeys the recurrence with the complex roots
    # r e^(+-i theta)
    z = 0.5 * complex(math.cos(0.3), math.sin(0.3))
    shells = _edge_ordered([(z**k).real for k in range(10)])
    true = (z**10 / (1.0 - z)).real
    assert _completion_within_err(shells, true) == pytest.approx(true, rel=1e-12)


@pytest.mark.parametrize("window", [2, 3, 4])
def test_completion_on_short_windows(window):
    # 2 shells: one ratio and no drift; 3 shells: the drift between two
    # ratios; 4 shells: a Prony fit whose refit one shell deeper, on 3
    # shells, fails, so its error is its distance from the geometric tail.
    # A single shell has no ratio.
    shells, true = _two_power(window)
    _completion_within_err(shells, true)
    assert pq._prony_tail(shells[1:], 1.0) is None
    assert pq._geometric_tail(shells[:1], 1.0) is None


def test_completion_refuses_growing_shells():
    with pytest.raises(NotConverged, match=r"^patch inner completion: .*edge ratio q = 2\b"):
        pq._completion(_edge_ordered([1.0, 2.0, 4.0]), 7.0, "patch inner")
    with pytest.raises(NotConverged, match="^main inner completion: non-finite shell sums$"):
        pq._completion([math.inf, 1.0, 0.5], 1.0, "main inner")
