
import numpy as np
import pytest

from nonlocal_lab import pvquad as pq
from nonlocal_lab import riesz as rz
from nonlocal_lab.errors import DomainError


def test_constants_frozen_values():
    # mpmath oracle of the Gamma expressions at 40 digits
    c_star, c_star_star = rz.riesz_constants(2, 0.5, 0.5)
    assert c_star == pytest.approx(1.3947328267374689, rel=1e-12)
    assert c_star_star == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_constants_tend_to_one():
    for d, delta in ((2, 0.3), (3, 1.2), (5, 0.7)):
        c_star, c_star_star = rz.riesz_constants(d, 1.0 - 1e-9, delta)
        assert c_star == pytest.approx(1.0, abs=1e-6)
        assert c_star_star == pytest.approx(1.0, abs=1e-6)


def test_constants_delta_zero_is_a_pole():
    with pytest.raises(DomainError):
        rz.riesz_constants(2, 0.5, 0.0)


def test_kernel_constant_range():
    with pytest.raises(DomainError):
        rz.riesz_kernel_constant(2, 2.0)
    assert rz.riesz_kernel_constant(2, 1.0) > 0.0


def test_gradient_at_axis_points():
    d, s, delta = 2, 0.5, 0.3
    c_star, _ = rz.riesz_constants(d, s, delta)
    g1 = rz.frac_gradient(d, s, delta, [1.0, 0.0])
    assert g1 == pytest.approx([c_star * (1.0 - delta), 0.0], rel=1e-13)
    g2 = rz.frac_gradient(d, s, delta, [0.0, 1.0])
    assert g2 == pytest.approx([c_star, 0.0], abs=1e-13)


def test_gradient_matches_finite_differences(spec):
    # quadrature convolution + central differences as the oracle
    d, s, delta = 2, 0.5, 0.3
    x = np.array([0.7, 0.3])
    h = 1e-4
    fd = np.zeros(d)
    for i in range(d):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd[i] = (
            rz.riesz_potential_num(d, s, delta, xp, spec).value
            - rz.riesz_potential_num(d, s, delta, xm, spec).value
        ) / (2.0 * h)
    analytic = rz.frac_gradient(d, s, delta, x)
    assert np.linalg.norm(fd - analytic) <= 1e-2 * np.linalg.norm(analytic)


def test_potential_is_homogeneous_field(spec):
    d, s, delta = 2, 0.4, 0.6
    c_star, _ = rz.riesz_constants(d, s, delta)
    x = np.array([0.8, -0.4])
    r = float(np.linalg.norm(x))
    got = rz.riesz_potential_num(d, s, delta, x, spec).value
    assert got == pytest.approx(c_star * r ** (1 - delta) * x[0] / r, rel=1e-6)


def test_potential_err_estimate_off_axis(spec):
    # a drawn point where the full circle at x under-reported its error 57x;
    # reduced to |x| e1 the error against c* |x|^-delta x1 is within the estimate
    d, s, delta = 2, 0.37558, 0.62360
    x = np.array([0.73729, -0.67558])
    c_star, _ = rz.riesz_constants(d, s, delta)
    res = rz.riesz_potential_num(d, s, delta, x, spec)
    assert abs(res.value - c_star * float(np.linalg.norm(x)) ** -delta * x[0]) <= res.err_estimate


@pytest.mark.parametrize("d", [2, 3])
def test_potential_at_e1_is_scaled_f3(spec, d):
    # the Riesz oracle at e1 and f3 integrate one integrand on one rule
    s, delta = 0.4, 0.3
    got = rz.riesz_potential_num(d, s, delta, np.eye(d)[0], spec)
    f3 = pq.f_integral_num("f3", d, s, delta, spec)
    norm = rz.riesz_kernel_constant(d, 1.0 - s)
    assert (got.value, got.err_estimate, got.nodes_used) == (
        norm * f3.value,
        norm * f3.err_estimate,
        f3.nodes_used,
    )


def test_flux_at_perpendicular_point():
    d, s, delta, eps = 2, 0.5, 0.3, 0.4
    c_star, _ = rz.riesz_constants(d, s, delta)
    flux, _, _ = rz.flux_divergence(d, s, delta, eps, [0.0, 1.0])
    assert flux == pytest.approx([c_star * (1.0 - eps) ** 2, 0.0], abs=1e-14)


def test_divergence_matches_finite_differences():
    d, s, delta, eps = 2, 0.5, 0.3, 0.4
    x = np.array([0.7, 0.3])
    h = 1e-5
    fd = 0.0
    for i in range(d):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd += (
            rz.flux_divergence(d, s, delta, eps, xp)[0][i]
            - rz.flux_divergence(d, s, delta, eps, xm)[0][i]
        ) / (2.0 * h)
    _, div, _ = rz.flux_divergence(d, s, delta, eps, x)
    assert div == pytest.approx(fd, rel=1e-6)


def test_riesz_div_homogeneity():
    d, s, delta, eps = 2, 0.5, 0.3, 0.2
    base = rz.flux_divergence(d, s, delta, eps, [1.0, 0.0])[2]
    for lam in (0.5, 2.0):
        got = rz.flux_divergence(d, s, delta, eps, [lam, 0.0])[2]
        assert got == pytest.approx(lam ** (-s - delta) * base, rel=1e-12)


def test_robustness_towards_local_divergence():
    # as s -> 1 the smoothed divergence approaches the local one
    d, delta, eps = 2, 0.3, 0.25
    x = np.array([0.6, -0.2])
    r = float(np.linalg.norm(x))
    bracket = -delta * (1 - delta) + (1 - delta - (1 - eps) ** 2) * (d - 1)
    local = bracket * r ** (-1 - delta) * x[0] / r
    gaps = []
    for s in (0.9, 0.99, 0.999):
        got = rz.flux_divergence(d, s, delta, eps, x)[2]
        gaps.append(abs(got - local) / abs(local))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


def test_coupling_examples():
    for delta in (0.1, 0.25, 0.3, 0.5):
        assert rz.riesz_coupling(2, delta) == delta
    assert rz.riesz_coupling(3, 1e-12) == pytest.approx(0.0, abs=1e-11)
    eps = rz.riesz_coupling(3, 0.5)
    assert rz._bracket(3, 0.5, eps) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DomainError):
        rz.riesz_coupling(3, 1.49)  # radicand negative


def test_bracket_zero_kills_divergences():
    d, s, delta = 3, 0.5, 0.5
    eps = rz.riesz_coupling(d, delta)
    _, div, rdiv = rz.flux_divergence(d, s, delta, eps, [0.3, 0.2, -0.4])
    assert abs(div) <= 1e-14
    assert abs(rdiv) <= 1e-14


def test_convolved_divergence_matches_closed_chain(spec):
    d, s, delta, eps = 2, 0.5, 0.3, 0.4
    e1 = np.array([1.0, 0.0])
    got = rz.riesz_div_conv_num(d, s, delta, eps, e1, spec)
    _, _, want = rz.flux_divergence(d, s, delta, eps, e1)
    assert got.value == pytest.approx(want, rel=1e-3)


def test_domain_errors():
    with pytest.raises(DomainError):
        rz.frac_gradient(2, 0.5, 1.2, [1.0, 0.0])
    with pytest.raises(DomainError):
        rz.flux_divergence(2, 0.5, 0.3, 1.2, [1.0, 0.0])
    with pytest.raises(DomainError):
        rz.frac_gradient(2, 0.5, 0.3, [0.0, 0.0])
