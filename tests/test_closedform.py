import math

import numpy as np
import pytest

from nonlocal_lab import closedform as cf
from nonlocal_lab.errors import DomainError
from nonlocal_lab.model import FracParams
from nonlocal_lab.specfun import gamma, kappa


def test_f1_zero_at_delta_zero():
    for d, s in ((2, 0.5), (3, 0.25), (5, 0.9)):
        assert cf.f1_closed(d, s, 0.0) == 0.0


def test_f1_frozen_value():
    # oracle: -(2^(2s-1)/kappa) G(1-d/2... ) evaluated with mpmath at 40 digits
    assert cf.f1_closed(2, 0.5, 0.25) == pytest.approx(-2.5664354975514957, rel=1e-12)


def test_f1_negative_for_positive_delta(rng):
    for _ in range(40):
        d = int(rng.integers(2, 7))
        s = rng.uniform(0.05, 0.95)
        delta = rng.uniform(1e-3, 0.5)
        assert cf.f1_closed(d, s, delta) < 0.0


def test_f21_limit_formula_at_s_one():
    for d in (2, 3, 5):
        for delta in (0.0, 0.2, 0.5):
            want = (3 * delta**2 - 3 * d * delta + d**2 - d) / (2.0 * (d + 2))
            assert cf.f21_closed(d, 1.0, delta) == pytest.approx(want, rel=1e-12)
    assert cf.f21_closed(2, 1.0, 0.0) == pytest.approx(0.25, rel=1e-14)


def test_f21_sum_equals_rational(rng):
    assert cf.f21_sum_form(3, 0.3, 0.4) == pytest.approx(
        cf.f21_closed(3, 0.3, 0.4), rel=1e-12
    )
    for _ in range(60):
        d = int(rng.integers(2, 7))
        s = rng.uniform(0.05, 0.999)
        delta = rng.uniform(0.0, 0.5)
        a = cf.f21_sum_form(d, s, delta)
        b = cf.f21_closed(d, s, delta)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_f2_frozen_values():
    # mpmath oracle of the two-term expression at 40 digits
    assert cf.f2_closed(2, 0.5, 0.25) == pytest.approx(-0.89165600589044649, rel=1e-12)
    assert cf.f2_closed(3, 0.6, 0.3) == pytest.approx(-0.8824318053960448, rel=1e-12)


def test_f2_d2_log_branch_form(rng):
    # d = 2 statement rewritten with the emergent constant (s-1)/2
    for _ in range(30):
        s = rng.uniform(0.05, 0.95)
        delta = rng.uniform(0.0, 0.5)
        first = (
            0.5
            * math.pi
            * (gamma(1 - s) / gamma(1 + s))
            * (gamma(1 - 0.5 * delta) / gamma(1 + 0.5 * delta))
            * (gamma(s + 0.5 * delta) / gamma(2 - s - 0.5 * delta))
            * cf.f21_closed(2, s, delta)
        )
        second = math.pi / (2 * s * (1 - s * s)) * (0.5 * s - 0.5)
        assert cf.f2_closed(2, s, delta) == pytest.approx(first + second, rel=1e-11)


def test_operator_zero_cases():
    params = FracParams(3, 0.45, 0.0, 0.0)
    assert cf.operator_value(params, [0.3, 0.1, -0.2]) == 0.0


def test_operator_zero_at_coupling(rng):
    for d, s, delta in ((2, 0.6, 0.05), (3, 0.5, 0.2), (2, 0.8, 0.1)):
        eps = cf.b_of_delta(d, s, delta)
        params = FracParams(d, s, delta, eps, extended=True)
        scale = abs(cf.operator_value(FracParams(d, s, delta, 0.0), [1.0] + [0.0] * (d - 1)))
        for _ in range(20):
            x = rng.normal(size=d)
            assert abs(cf.operator_value(params, x)) <= 1e-12 * scale * max(
                1.0, float(np.linalg.norm(x)) ** (1 - 2 * s - delta)
            )


@pytest.mark.parametrize(
    "x", [(math.nan, 0.0), (0.3, math.inf), (-math.inf, 1.0), (1e200, 1e200), (0.0, 0.0)],
    ids=["nan", "inf", "minus-inf", "overflow", "origin"],
)
def test_operator_value_rejects_non_finite_points(x):
    # a point holding nan or inf, or whose |x| overflows, has no operator
    # value: DomainError, as in the quadrature oracles, not nan or 0.0
    with pytest.raises(DomainError, match="finite point"):
        cf.operator_value(FracParams(2, 0.5, 0.2, 0.1), x)


def test_operator_s_to_one_limit(rng):
    s = 1.0 - 1e-6
    for _ in range(10):
        d = int(rng.integers(2, 5))
        delta = rng.uniform(0.0, 0.5)
        eps = rng.uniform(0.0, 0.5)
        x = rng.normal(size=d)
        r = float(np.linalg.norm(x))
        params = FracParams(d, s, delta, eps)
        want = ((d - delta) * delta - (d - 1) * eps) * r ** (-1 - delta) * (x[0] / r)
        if abs(want) < 1e-9:
            continue
        assert cf.operator_value(params, x) == pytest.approx(want, rel=1e-4)


def test_isotropic_part_consistency(rng):
    # -2 kappa f1 equals the delta-part of the operator bracket at eps = 0
    for _ in range(25):
        d = int(rng.integers(2, 6))
        s = rng.uniform(0.05, 0.95)
        delta = rng.uniform(1e-3, 0.5)
        lhs = -2.0 * kappa(d, s) * cf.f1_closed(d, s, delta)
        rhs = cf.operator_value(
            FracParams(d, s, delta, 0.0), [1.0] + [0.0] * (d - 1)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_b_of_delta_zero_and_frozen():
    assert cf.b_of_delta(2, 0.5, 0.0) == 0.0
    # mpmath oracle at 40 digits
    assert cf.b_of_delta(2, 0.5, 0.1) == pytest.approx(0.81627118659362925, rel=1e-12)


def test_b_limit_matches_classical():
    for d in (2, 3, 4):
        for delta in (0.05, 0.2, 0.45):
            got = cf.b_of_delta(d, 1.0 - 1e-7, delta)
            assert got == pytest.approx(cf.classical_epsilon(d, delta), rel=1e-6)


def test_b_denominator_at_zero():
    for d in (2, 3, 5):
        for s in (0.2, 0.5, 0.8):
            want = 2.0 * s * s / d * (d - 1) * (d - 2 * s + 2)
            assert cf.b_denominator(d, s, 0.0) == pytest.approx(want, rel=1e-12)
            assert want > 0.0


def test_b_monotone_and_above_identity():
    for d, s in ((2, 0.5), (3, 0.3), (2, 0.8)):
        d0 = cf.delta0(d, s)
        grid = np.linspace(0.0, d0, 100)
        vals = [cf.b_of_delta(d, s, float(t)) for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        for t, v in zip(grid, vals):
            assert v >= t - 1e-14


def test_delta0_hits_one_half():
    for d, s in ((2, 0.5), (2, 0.3), (3, 0.7), (5, 0.25)):
        d0 = cf.delta0(d, s)
        assert 0.0 < d0 <= 0.5
        if d0 < 0.5:
            assert cf.b_of_delta(d, s, d0) == pytest.approx(0.5, abs=1e-9)


def test_inverse_round_trip():
    for d, s in ((2, 0.5), (3, 0.4)):
        assert cf.delta_of_epsilon(d, s, 0.0) == 0.0
        for eps in (0.05, 0.2, 0.35, 0.5):
            delta = cf.delta_of_epsilon(d, s, eps)
            assert abs(cf.b_of_delta(d, s, delta) - eps) <= 1e-10
    with pytest.raises(DomainError):
        cf.delta_of_epsilon(2, 0.5, 0.6)


def test_d2_epsilon_and_bounds():
    eps, lo, up = cf.d2_epsilon_and_bounds(0.5, 0.2)
    assert up is not None and lo <= eps <= up
    eps0, lo0, up0 = cf.d2_epsilon_and_bounds(0.5, 0.0)
    assert (eps0, lo0, up0) == (0.0, 0.0, 0.0)
    # upper bound absent when delta >= 2 s^2/(1-s)
    _, _, up_none = cf.d2_epsilon_and_bounds(0.35, 0.45)
    assert up_none is None
    # s -> 1: epsilon -> (2 - delta) delta
    for delta in (0.1, 0.3, 0.5):
        eps, _, _ = cf.d2_epsilon_and_bounds(1.0 - 1e-7, delta)
        assert eps == pytest.approx((2.0 - delta) * delta, rel=1e-6)


def test_d2_helper_ranges():
    for s in np.linspace(0.05, 0.95, 10):
        for delta in np.linspace(0.0, 0.5, 11):
            g = cf.d2_G(float(s), float(delta))
            assert 0.0 < g <= 0.5 + 1e-14


def test_coupling_L_increasing():
    for d, s in ((2, 0.5), (3, 0.25), (5, 0.8)):
        grid = np.linspace(0.0, 0.5, 40)
        vals = [cf.coupling_L(d, s, float(t)) for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_classical_epsilon():
    assert cf.classical_epsilon(2, 0.5) == pytest.approx(0.75, rel=1e-15)
    assert cf.classical_epsilon(7, 0.0) == 0.0
    with pytest.raises(DomainError):
        cf.classical_epsilon(2, 0.7)


def test_empirical_coupling_ratio_finite():
    ratio = cf.empirical_coupling_ratio(2, 0.5)
    assert ratio > 1.0
    assert math.isfinite(ratio)


def test_domain_errors():
    with pytest.raises(DomainError):
        cf.f1_closed(2, 0.5, 0.7)
    with pytest.raises(DomainError):
        cf.f2_closed(2, 1.5, 0.2)
    with pytest.raises(DomainError):
        cf.b_of_delta(2, 0.3, 0.4)  # far past delta0: denominator <= 0
