"""Riemann-Roch polynomials: presets, positivity, monotonicity, section counts."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixdiv.rr import (
    InconsistentInputError,
    PreconditionError,
    RRError,
    RRPolynomial,
    h0_big_bk,
    lagrangian_h0,
    preset,
    validate,
)


# -- presets ---------------------------------------------------------------------


def test_k3_preset_coefficients():
    p = preset("k3")
    assert p.n == 1
    assert p.coeffs == (Fraction(2), Fraction(1, 2))


def test_k3n_preset_matches_k3_at_n_1():
    assert preset("k3n", 1).coeffs == preset("k3").coeffs


def test_k3n2_coefficients():
    # binomial(q/2 + 3, 2) = 3 + (5/4) q + (1/8) q^2
    p = preset("k3n", 2)
    assert p.coeffs == (Fraction(3), Fraction(5, 4), Fraction(1, 8))
    assert p.eval(2) == 6


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("q", range(0, 21, 2))
def test_k3n_preset_is_binomial(n, q):
    # P(q) = binomial(q/2 + n + 1, n) exactly on even arguments
    assert preset("k3n", n).eval(q) == math.comb(q // 2 + n + 1, n)


def test_preset_errors():
    with pytest.raises(RRError):
        preset("k3", 2)
    with pytest.raises(RRError):
        preset("k3n")
    with pytest.raises(RRError):
        preset("enriques")


# -- construction and validation -------------------------------------------------


def test_from_coeffs_shape_check():
    with pytest.raises(RRError):
        RRPolynomial.from_coeffs(2, [3, 1])
    with pytest.raises(RRError):
        RRPolynomial.from_coeffs(0, [1])


@pytest.mark.parametrize("n", range(1, 9))
def test_presets_validate_jiang_positivity(n):
    p = preset("k3n", n)
    ok, violations = validate(p)
    assert ok, violations
    assert p.coeffs[0] == n + 1  # chi(O_X) = n + 1
    assert all(c > 0 for c in p.coeffs[1:])


def test_validate_reports_violations():
    bad = RRPolynomial.from_coeffs(2, [2, 1, Fraction(-1, 8)])
    ok, violations = validate(bad)
    assert not ok
    assert len(violations) == 2  # wrong constant term and a nonpositive coefficient


# -- evaluation ------------------------------------------------------------------


def test_eval_is_exact():
    p = preset("k3n", 3)
    assert p.eval(Fraction(1, 2)) == sum(
        c * Fraction(1, 2) ** i for i, c in enumerate(p.coeffs)
    )


@settings(max_examples=200)
@given(
    n=st.integers(1, 6),
    num1=st.integers(0, 400), den1=st.integers(1, 8),
    num2=st.integers(0, 400), den2=st.integers(1, 8),
)
def test_strict_monotonicity_on_nonnegative_rationals(n, num1, den1, num2, den2):
    p = preset("k3n", n)
    q1, q2 = Fraction(num1, den1), Fraction(num2, den2)
    if q1 == q2:
        assert p.eval(q1) == p.eval(q2)
    else:
        lo, hi = min(q1, q2), max(q1, q2)
        assert p.eval(lo) < p.eval(hi)


# -- section-count rules ---------------------------------------------------------


def test_h0_big_bk_k3():
    p = preset("k3")
    assert h0_big_bk(p, 2) == 3
    assert h0_big_bk(p, 18) == 11  # d = 10: P(2d-2) = d+1


def test_h0_big_bk_preconditions():
    p = preset("k3")
    with pytest.raises(PreconditionError):
        h0_big_bk(p, 0)
    with pytest.raises(InconsistentInputError):
        h0_big_bk(p, 1)  # P(1) = 5/2 not an integer
    with pytest.raises(InconsistentInputError):
        # integer value but not above chi(O) = n + 1
        h0_big_bk(RRPolynomial.from_coeffs(1, [1, Fraction(1, 2)]), 2)


@pytest.mark.parametrize(
    "g,d,value", [(1, 3, 4), (2, 2, 6), (2, 10, 66), (3, 2, 10)]
)
def test_lagrangian_h0(g, d, value):
    assert lagrangian_h0(g, d) == value


@pytest.mark.parametrize("d", range(1, 11))
def test_k3n2_matches_lagrangian_count(d):
    # P_{K3^[2]}(2d - 2) = binomial(d + 2, 2): h0(A) = h0(dF)
    assert preset("k3n", 2).eval(2 * d - 2) == lagrangian_h0(2, d)
