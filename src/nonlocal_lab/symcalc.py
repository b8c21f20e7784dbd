"""Homogeneous-term Fourier calculus: c |x|^p x1^m (log|x|)^l.

The class of finite sums of such terms is closed under d/dx1, pointwise
products, and the d-dimensional Fourier transform (away from the Gamma poles
of the radial transform table), which is exactly what the appendix-style
derivations of the anisotropic operator constants and the Riesz convolutions
need.  The two-sided transform table is

    F[|x|^p]        = pi^(-p-d/2) Gamma((d+p)/2)/Gamma(-p/2) |xi|^(-d-p)
    F[|x|^p log|x|] = d/dp of the line above (digamma coefficients)

with the d=2 exceptional case F[|x|^-2] = -2 pi log|xi| + 2 pi (log 2 - gamma).
Axis powers ride along via F[x1^m g] = (i/2pi)^m d1^m F[g].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleEncountered, Unsupported
from .model import _check_range, _point, _point_power
from .specfun import EULER_GAMMA, digamma, lgamma_signed

__all__ = [
    "HomTerm",
    "TermSum",
    "term_sum",
    "add",
    "scale",
    "d1",
    "mul",
    "fourier",
    "evaluate",
    "dump",
    "pipeline",
]

# Distance to a non-positive integer below which a Gamma argument counts as
# a pole of the transform table.
_GAMMA_POLE_TOL = 1e-9


@dataclass(frozen=True)
class HomTerm:
    """coeff * |x|^p * x1^m * (log|x|)^logp."""

    coeff: complex
    p: float
    m: int
    logp: int = 0

    def __post_init__(self):
        if self.m < 0:
            raise DomainError(f"axis power must be >= 0, got {self.m!r}")
        if self.logp not in (0, 1):
            raise DomainError(f"log power must be 0 or 1, got {self.logp!r}")

    @property
    def degree(self) -> float:
        """Homogeneity degree (up to the log factor)."""
        return self.p + self.m


@dataclass(frozen=True)
class TermSum:
    """Canonical finite sum of HomTerms: unique (p, m, logp) keys."""

    terms: tuple[HomTerm, ...]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


def _key(t: HomTerm) -> tuple[float, int, int]:
    return (round(t.p, 9), t.m, t.logp)


def term_sum(terms) -> TermSum:
    """Merge coefficients on identical (p, m, logp); drop exact zeros."""
    acc: dict[tuple[float, int, int], HomTerm] = {}
    for t in terms:
        k = _key(t)
        if k in acc:
            old = acc[k]
            acc[k] = HomTerm(old.coeff + t.coeff, old.p, old.m, old.logp)
        else:
            acc[k] = t
    merged = [t for t in acc.values() if t.coeff != 0]
    merged.sort(key=_key)
    return TermSum(tuple(merged))


def add(a: TermSum, b: TermSum) -> TermSum:
    return term_sum((*a.terms, *b.terms))


def scale(ts: TermSum, c: complex) -> TermSum:
    return term_sum(HomTerm(c * t.coeff, t.p, t.m, t.logp) for t in ts)


def d1(ts: TermSum) -> TermSum:
    """d/dx1 applied termwise."""
    out = []
    for t in ts:
        if t.p != 0.0:
            out.append(HomTerm(t.coeff * t.p, t.p - 2.0, t.m + 1, t.logp))
        if t.m > 0:
            out.append(HomTerm(t.coeff * t.m, t.p, t.m - 1, t.logp))
        if t.logp:
            out.append(HomTerm(t.coeff, t.p - 2.0, t.m + 1, t.logp - 1))
    return term_sum(out)


def mul(a: TermSum, b: TermSum) -> TermSum:
    """Pointwise product; refuses log^2 (the calculus never needs it)."""
    out = []
    for ta in a:
        for tb in b:
            logp = ta.logp + tb.logp
            if logp > 1:
                raise Unsupported("product would carry (log|x|)^2")
            out.append(HomTerm(ta.coeff * tb.coeff, ta.p + tb.p, ta.m + tb.m, logp))
    return term_sum(out)


def evaluate(ts: TermSum, x) -> complex:
    """Numeric value of the represented function at x != 0, a point of R^n for its own n."""
    x, r = _point(x, np.size(x))
    logr = math.log(r)
    xhat1 = float(x[0]) / r
    total = 0j
    for t in ts:
        # |x|^p x1^m = |x|^(p+m) xhat_1^m: the one power of |x| is guarded
        val = t.coeff * _point_power(r, t.p + t.m) * xhat1**t.m
        if t.logp:
            val *= logr
        total += val
    return total


def _near_nonpositive_int(a: float) -> bool:
    n = round(a)
    return n <= 0 and abs(a - n) <= _GAMMA_POLE_TOL


def _radial_coeff(p: float, d: int) -> float:
    """A(p, d) with F[|x|^p] = A |xi|^(-d-p); raises at table poles."""
    a_num = 0.5 * (d + p)
    a_den = -0.5 * p
    if _near_nonpositive_int(a_num) or _near_nonpositive_int(a_den):
        raise PoleEncountered(
            f"Gamma argument at a non-positive integer for exponent p={p!r}, d={d}"
        )
    lg_num, s_num = lgamma_signed(a_num)
    lg_den, s_den = lgamma_signed(a_den)
    return (s_num * s_den) * math.exp((-p - 0.5 * d) * math.log(math.pi) + lg_num - lg_den)


def _fourier_radial(p: float, logp: int, d: int, drop_point_supported: bool) -> TermSum:
    """Transform of the radial factor |x|^p (log|x|)^logp."""
    if logp == 0 and d == 2 and abs(p + 2.0) <= _GAMMA_POLE_TOL:
        # exceptional two-dimensional case: F[|x|^-2] picks up a logarithm
        return term_sum(
            [
                HomTerm(-2.0 * math.pi, 0.0, 0, 1),
                HomTerm(2.0 * math.pi * (math.log(2.0) - EULER_GAMMA), 0.0, 0, 0),
            ]
        )
    if drop_point_supported and logp == 0 and _near_nonpositive_int(-0.5 * p):
        # |x|^p is a polynomial; its transform lives on {0} only (the table
        # coefficient vanishes through 1/Gamma) and is invisible away from
        # the origin.
        return term_sum([])
    a = _radial_coeff(p, d)
    if logp == 0:
        return term_sum([HomTerm(a, -d - p, 0, 0)])
    # differentiate the table in p
    psi_part = -math.log(math.pi) + 0.5 * digamma(0.5 * (d + p)) + 0.5 * digamma(-0.5 * p)
    return term_sum(
        [
            HomTerm(a * psi_part, -d - p, 0, 0),
            HomTerm(-a, -d - p, 0, 1),
        ]
    )


def fourier(ts: TermSum, d: int, drop_point_supported: bool = False) -> TermSum:
    """Termwise d-dimensional Fourier transform.

    Each term is transformed as coeff * (i/2pi)^m * d1^m F[|x|^p log^l |x|];
    PoleEncountered marks the distribution-theoretic exceptional cases that
    fall outside the function calculus.

    drop_point_supported=True silently discards polynomial terms, whose
    transforms are supported at the origin.  That is only sound when the
    result will never be multiplied again, merely evaluated away from 0 --
    i.e. for the last transform of a pipeline.
    """
    _check_range(d)
    out = term_sum([])
    half_i_pi = 0.5j / math.pi  # i / (2 pi)
    for t in ts:
        radial = _fourier_radial(t.p, t.logp, d, drop_point_supported)
        for _ in range(t.m):
            radial = d1(radial)
        out = add(out, scale(radial, t.coeff * half_i_pi**t.m))
    return out


def dump(ts: TermSum) -> str:
    """Canonical text rendering, one term per line, sorted by (p, m, logp)."""
    lines = []
    for t in sorted(ts, key=_key):
        c = complex(t.coeff)
        lines.append(
            f"{c.real:+.12e}{c.imag:+.12e}j * |x|^{t.p:.9g} * x1^{t.m} * log^{t.logp}"
        )
    return "\n".join(lines)


def _pipeline_pair(which: str, d: int, s: float, delta: float) -> tuple[TermSum, TermSum]:
    if which != "f2" and delta <= 0.0:
        # the transform of the outer field acquires a point-supported part at
        # delta = 0; the calculus refuses rather than model it
        raise PoleEncountered(f"pipeline {which!r} requires delta > 0")
    _check_range(d, delta=delta, riesz=which not in ("f1", "f2"))
    if which == "f1":
        g_outer = term_sum([HomTerm(1.0, -delta, 1, 0)])
        g_inner = term_sum([HomTerm(1.0, -d - 2.0 * s, 0, 0)])
    elif which == "f2":
        g_outer = term_sum(
            [HomTerm(1.0, -delta - 2.0, 1, 0), HomTerm(-1.0, -2.0, 0, 0)]
        )
        g_inner = term_sum(
            [
                HomTerm(-1.0, -d - 2.0 * s - 2.0, 3, 0),
                HomTerm(0.5, -d - 2.0 * s, 2, 0),
                HomTerm(1.0, -d - 2.0 * s - 2.0, 2, 0),
                HomTerm(-1.0, -d - 2.0 * s, 1, 0),
                HomTerm(0.5, -d - 2.0 * s + 2.0, 0, 0),
            ]
        )
    elif which == "riesz_f3":
        g_outer = term_sum([HomTerm(1.0, s - delta - 1.0, 1, 0)])
        g_inner = term_sum([HomTerm(1.0, -d + 1.0 - s, 0, 0)])
    elif which == "riesz_f4":
        g_outer = term_sum([HomTerm(1.0, -delta - 2.0, 1, 0)])
        g_inner = term_sum([HomTerm(1.0, -d + 1.0 - s, 0, 0)])
    else:
        raise DomainError(f"unknown pipeline {which!r}")
    return g_outer, g_inner


def pipeline(which: str, d: int, s: float, delta: float) -> float:
    """Replay a convolution-at-e1 value through the Fourier calculus.

    Computes F[F[g]F[g']](-e1) for the g-pair of the requested constant.
    The imaginary parts must cancel; their residue is asserted below 1e-10
    relative and discarded.
    """
    _check_range(d, s)
    g_outer, g_inner = _pipeline_pair(which, d, s, delta)
    product = mul(fourier(g_outer, d), fourier(g_inner, d))
    back = fourier(product, d, drop_point_supported=True)
    value = evaluate(back, [-1.0] + [0.0] * (d - 1))
    if abs(value.imag) > 1e-10 * max(abs(value.real), 1e-30):
        raise AssertionError(
            f"imaginary residue {value.imag!r} did not cancel in pipeline {which!r}"
        )
    return value.real
