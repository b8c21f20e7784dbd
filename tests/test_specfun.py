import math

import mpmath as mp
import pytest

from nonlocal_lab.errors import DomainError, PoleError
from nonlocal_lab.specfun import (
    EULER_GAMMA,
    digamma,
    gamma,
    gamma_ratio,
    kappa,
    lgamma_signed,
)

mp.mp.dps = 40


@pytest.mark.parametrize("fn", [gamma, lgamma_signed, digamma])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_argument_is_a_domain_error(fn, x):
    # the pole check would otherwise round nan or inf, a raw ValueError or OverflowError
    with pytest.raises(DomainError, match="not finite"):
        fn(x)


def test_gamma_exact_points():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)


def test_gamma_vs_mpmath_on_range(rng):
    # to a few units of rounding on |x| <= 30, away from the poles
    for _ in range(300):
        x = rng.uniform(-30.0, 30.0)
        if abs(x - round(x)) < 1e-3 and x < 0.5:
            continue
        ref = float(mp.gamma(x))
        assert gamma(x) == pytest.approx(ref, rel=2e-15)


def test_gamma_recurrence(rng):
    for _ in range(200):
        x = rng.uniform(0.1, 20.0)
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_gamma_reflection(rng):
    for _ in range(200):
        x = rng.uniform(0.01, 0.99)
        lhs = gamma(x) * gamma(1.0 - x)
        assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-11)


def test_gamma_pole():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            gamma(x)
        with pytest.raises(PoleError):
            digamma(x)


def test_lgamma_signed_negative_axis():
    val, sign = lgamma_signed(-0.5)
    assert sign == -1.0
    assert math.exp(val) == pytest.approx(abs(float(mp.gamma(-0.5))), rel=1e-13)
    val, sign = lgamma_signed(-1.5)
    assert sign == 1.0


def test_gamma_ratio_matches_direct():
    got = gamma_ratio((2.5, 3.0), (1.25,))
    want = gamma(2.5) * gamma(3.0) / gamma(1.25)
    assert got == pytest.approx(want, rel=1e-13)


def test_digamma_exact_points():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-12)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-12)


def test_digamma_recurrence(rng):
    for _ in range(200):
        x = rng.uniform(0.05, 25.0)
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-10)


def test_digamma_vs_mpmath_negative(rng):
    for _ in range(100):
        x = rng.uniform(-10.0, -0.05)
        if abs(x - round(x)) < 1e-2:
            continue
        assert digamma(x) == pytest.approx(float(mp.digamma(x)), rel=1e-10)


def test_kappa_half_order_two_dims():
    assert kappa(2, 0.5) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-13)


def test_kappa_frozen_value():
    # oracle: 2^(2s-1) mp.gamma(d/2+s) / (pi^(d/2) |mp.gamma(-s)|)
    # at (3, 0.25) with mpmath at 40 digits
    assert kappa(3, 0.25) == pytest.approx(0.023810113475340364, rel=1e-13)


def test_kappa_symbol_consistency(rng):
    # 2 kappa pi^(2s+d/2) |Gamma(-s)| / Gamma(d/2+s) = (2 pi)^(2s)
    for d in (2, 3, 5, 10):
        for _ in range(20):
            s = rng.uniform(0.01, 0.99)
            lhs = (
                2.0
                * kappa(d, s)
                * math.pi ** (2.0 * s + 0.5 * d)
                * abs(gamma(-s))
                / gamma(0.5 * d + s)
            )
            assert lhs == pytest.approx((2.0 * math.pi) ** (2.0 * s), rel=1e-12)
            assert kappa(d, s) > 0.0


def test_kappa_domain_errors():
    with pytest.raises(DomainError):
        kappa(1, 0.5)
    with pytest.raises(DomainError):
        kappa(2, 0.0)
    with pytest.raises(DomainError):
        kappa(2, 1.0)
