"""Acceptance gate: the nine headline checks, one pass/fail line each.

Every numeric claim is exact rational arithmetic; the only tolerances are the
wall-clock budgets stated inline.  Each test emits a single
``[criterion N] <name>: PASS|FAIL`` line with capture suspended so the
verdicts show up in the live pytest output.
"""
from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import admissible_chain_params
from fixdiv.deduction import (
    Chain,
    Configuration,
    PrimeFixed,
    chain_configuration,
    chain_gram,
    check_2A_mobility,
    classify,
)
from fixdiv.embedding_oracle import EmbeddingOracle, even_grams
from fixdiv.fixtures import hk4_fixture
from fixdiv.lattice import (
    DivisorClass,
    GramLattice,
    lorentzian_embeddable,
    pairing,
    signature,
    square,
)
from fixdiv.rr import lagrangian_h0, preset, validate
from fixdiv.search import SearchBounds, verify_classification

CHAIN_PARAMS = admissible_chain_params((1, 2, 3), (-4, -6, -8))


@pytest.fixture
def verdict(capsys):
    """Factory for context managers printing the one-line criterion verdict."""

    @contextmanager
    def _verdict(number: int, name: str):
        status = "FAIL"
        try:
            yield
            status = "PASS"
        finally:
            with capsys.disabled():
                print(f"\n[criterion {number}] {name}: {status}", flush=True)

    return _verdict


@lru_cache(maxsize=None)
def exhaustive_run():
    """The big enumeration, shared between criteria 4 and 8."""
    bounds = SearchBounds(
        max_components=3,
        entry_bound=6,
        square_min=-8,
        max_multiplicity=2,
        n=2,
        parity_mode="even",
    )
    start = time.perf_counter()
    report, survivors = verify_classification(bounds)
    return report, survivors, time.perf_counter() - start


def mayer_configuration(d: int) -> Configuration:
    return Configuration(
        n=1,
        gram=GramLattice.from_rows([[0, d], [d, -2]]),
        multiplicities=(1,),
        m_primitive="no" if d >= 2 else "yes",
        rr=preset("k3"),
        labels=("M", "B"),
    )


def bm_configuration(d: int) -> Configuration:
    return Configuration(
        n=2,
        gram=GramLattice.from_rows([[0, d], [d, -2]]),
        multiplicities=(1,),
        m_primitive="no" if d >= 2 else "yes",
        rr=preset("k3n", 2),
        labels=("M", "B"),
    )


def test_criterion_1_mayer_arithmetic(verdict):
    with verdict(1, "Mayer arithmetic, d in 2..10"):
        start = time.perf_counter()
        p = preset("k3")
        for d in range(2, 11):
            assert p.eval(2 * d - 2) == Fraction(d + 1)
            result = classify(mayer_configuration(d))
            assert isinstance(result, PrimeFixed)
            assert result.q_b == Fraction(-2)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_beauville_mukai_genus_two(verdict):
    with verdict(2, "Beauville-Mukai genus-2 system, d in 2..10"):
        start = time.perf_counter()
        p = preset("k3n", 2)
        ambient = GramLattice.from_rows([[0, 1], [1, -2]])
        for d in range(2, 11):
            a = DivisorClass((d, 1))
            assert square(ambient, a) == Fraction(2 * d - 2)
            value = p.eval(2 * d - 2)
            assert value == Fraction(math.comb(d + 2, 2))
            assert value == Fraction(lagrangian_h0(2, d))
        # degree one drops out of the shadow: A pairs negatively with B
        cfg1 = bm_configuration(1)
        assert not cfg1.bk_member(cfg1.a_class())
        assert pairing(ambient, DivisorClass((1, 1)), DivisorClass((0, 1))) == Fraction(-1)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_chain_certification(verdict):
    with verdict(3, "chain certification, k in 1..3"):
        start = time.perf_counter()
        assert CHAIN_PARAMS, "no admissible chain parameters"
        for k, d, q_last in CHAIN_PARAMS:
            g = chain_gram(k, d, q_last)
            assert signature(g).as_tuple() == (1, 0, k + 1)
            result = classify(chain_configuration(k, d, q_last))
            assert isinstance(result, Chain)
            assert (result.k, int(result.d), int(result.q_last)) == (k, d, q_last)
            a = DivisorClass((1,) + (1,) * (k + 1))
            q_a = square(g, a)
            assert q_a == Fraction(q_last - d)
            assert 0 < q_a < -d
            for j in range(1, k + 1):
                assert pairing(g, a, DivisorClass(tuple(int(i == j) for i in range(k + 2)))) == 0
        assert time.perf_counter() - start < 1.0


def test_criterion_4_exhaustive_enumeration(verdict):
    with verdict(4, "exhaustive enumeration, zero counterexamples"):
        report, survivors, elapsed = exhaustive_run()
        assert elapsed < 300.0
        assert report.ok
        assert report.counterexamples == []
        assert report.survivor_count == len(survivors)
        chain_shapes = {
            (k, d, q) for k, d, q in CHAIN_PARAMS
        }
        for rec in survivors:
            cls = rec.classification
            assert isinstance(cls, (PrimeFixed, Chain))
            # survivors are reduced: no component carries multiplicity >= 2
            assert all(b == 1 for b in rec.configuration.multiplicities)
            if isinstance(cls, Chain):
                assert (cls.k, int(cls.d), int(cls.q_last)) in chain_shapes
        # every multiplicity >= 2 candidate died, and only under the
        # absorption sweeps or the step-wise deductions
        high_mult = report.stats.multiplicity_rejected
        allowed = {
            "distinct-primes-pairing",
            "lemma1",
            "lemma2",
            "markman",
            "notprimitive",
            "nonneg-square-component",
            "qM-zero",
            "ample-orthogonal",
            "key",
            "step1-multiplicity",
            "step1-absorption",
            "step1-qA-bound",
            "step1-square-bound",
            "step1-unique-M-neighbor",
            "step1-A-orthogonality",
            "step2-chain-break",
            "step3-chain-break",
            "step4-terminal-bound",
        }
        assert set(high_mult) <= allowed, set(high_mult) - allowed
        assert high_mult.get("step1-multiplicity", 0) > 0


def test_criterion_5_parity_consequence(verdict):
    with verdict(5, "parity consequence: no chains above square -2"):
        report, _ = verify_classification(
            SearchBounds(
                max_components=3,
                entry_bound=6,
                square_min=-2,
                max_multiplicity=2,
                n=2,
                parity_mode="even",
            )
        )
        assert report.ok
        assert report.chain_count == 0


def test_criterion_6_jiang_positivity(verdict):
    with verdict(6, "Riemann-Roch positivity and monotonicity, n <= 8"):
        for n in range(1, 9):
            p = preset("k3n", n)
            ok, violations = validate(p)
            assert ok, violations
            assert p.coeffs[0] == Fraction(n + 1)
            assert all(c > 0 for c in p.coeffs[1:])
        rng = random.Random(20260824)
        p = preset("k3n", 4)
        for _ in range(1000):
            x = Fraction(rng.randint(0, 400), rng.randint(1, 20))
            y = x + Fraction(rng.randint(1, 400), rng.randint(1, 20))
            assert p.eval(x) < p.eval(y)


def test_criterion_7_index_theorem_agreement(verdict, capsys):
    with verdict(7, "signature criterion agrees with brute-force embedding"):
        start = time.perf_counter()
        oracle = EmbeddingOracle()
        assert oracle.search([[2, 0], [0, 0]]) is None
        assert oracle.search([[0, 0], [0, 0]]) is None
        for rank in (1, 2, 3):
            tables = fallbacks = 0
            for rows in even_grams(rank, 4):
                g = GramLattice.from_rows(rows)
                fast = lorentzian_embeddable(g)
                slow, basis = oracle.verdict(g)
                assert fast == slow, rows
                tables += 1
                fallbacks += basis == "fallback"
            # a fallback verdict is the criterion's own answer, so it agrees
            # by construction; report how many tables the search left open
            with capsys.disabled():
                print(f"\n[criterion 7] rank {rank}: {tables} tables, {fallbacks} fallbacks", end="")
        assert time.perf_counter() - start < 60.0


def test_criterion_8_two_a_mobility(verdict):
    with verdict(8, "|2A| mobility on every fixture and survivor"):
        for d in range(2, 11):
            assert check_2A_mobility(mayer_configuration(d)).ok
            assert check_2A_mobility(bm_configuration(d)).ok
        for k, d, q_last in CHAIN_PARAMS:
            assert check_2A_mobility(chain_configuration(k, d, q_last)).ok
        _, survivors, _ = exhaustive_run()
        for rec in survivors:
            report = check_2A_mobility(rec.configuration)
            assert report.ok, rec.configuration
            assert all(entry.passed for entry in report.subsets)


def test_criterion_9_fourfold_endgame(verdict):
    with verdict(9, "fourfold endgame contradiction"):
        p = preset("k3n", 2)
        for q_lb in (1, 2, 3):
            assert hk4_fixture(q_lb).ok
            assert p.eval(2 * q_lb) > 3
