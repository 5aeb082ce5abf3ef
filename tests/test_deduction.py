"""Rule engine and chain classification: rules, steps, mobility, round-trips."""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_chain_params
from fixdiv.deduction import (
    Chain,
    Configuration,
    ConfigurationError,
    Contradiction,
    PrimeFixed,
    SetupError,
    Violation,
    chain_configuration,
    chain_gram,
    check_2A_mobility,
    classify,
    hk4_negative_square_step,
    rule_ample,
    rule_key,
    rule_lemma1,
    rule_lemma2,
    rule_notprimitive,
    rule_technical,
)
from fixdiv.lattice import DivisorClass, GramLattice, pairing, signature, square
from fixdiv.rr import PreconditionError, preset


def bm_configuration(d: int, m_primitive: str = "no") -> Configuration:
    return Configuration(
        n=2,
        gram=GramLattice.from_rows([[0, d], [d, -2]]),
        multiplicities=(1,),
        m_primitive=m_primitive,
    )


# -- chain gram ------------------------------------------------------------------


def test_chain_gram_k1():
    g = chain_gram(1, -4, -2)
    assert [[int(x) for x in row] for row in g.entries] == [
        [0, 2, 0],
        [2, -4, 2],
        [0, 2, -2],
    ]


def test_chain_gram_k2_class_a_identities():
    g = chain_gram(2, -4, -2)
    a = DivisorClass((1, 1, 1, 1))
    assert square(g, a) == 2  # q_last - d
    assert pairing(g, a, DivisorClass((0, 1, 0, 0))) == 0
    assert pairing(g, a, DivisorClass((0, 0, 1, 0))) == 0


def test_chain_gram_parameter_validation():
    with pytest.raises(ConfigurationError):
        chain_gram(0, -4, -2)
    with pytest.raises(ConfigurationError):
        chain_gram(1, -3, -2)  # d odd
    with pytest.raises(ConfigurationError):
        chain_gram(1, -2, -1)  # even mode forces even q_last
    with pytest.raises(ConfigurationError):
        chain_gram(1, -4, 0)  # q_last must be <= -1
    with pytest.raises(ConfigurationError):
        chain_gram(1, -4, -4)  # q_last below d/2


# -- individual rules ------------------------------------------------------------


def test_lemma1_empty_subset_enforces_isotropic_mobile():
    cfg = Configuration(
        n=2,
        gram=GramLattice.from_rows([[2, 1], [1, -2]]),
        multiplicities=(1,),
    )
    v = rule_lemma1(cfg, (0,))
    assert v is not None and v.rule == "lemma1"


def test_lemma1_chain_subset_is_consistent():
    cfg = chain_configuration(1, -4, -2)
    # q(M + B_1) = 2*2 + (-4) = 0: no absorption
    assert rule_lemma1(cfg, (1, 0)) is None
    assert rule_lemma1(cfg, (0, 0)) is None


def test_lemma1_beauville_mukai_empty_subset():
    assert rule_lemma1(bm_configuration(2), (0,)) is None


def test_lemma1_rejects_bad_subset():
    with pytest.raises(ConfigurationError):
        rule_lemma1(bm_configuration(2), (2,))


def test_notprimitive_forces_prime_fixed_part():
    cfg = chain_configuration(1, -4, -2, m_primitive="no")
    v = rule_notprimitive(cfg)
    assert v is not None and v.rule == "notprimitive"
    assert rule_notprimitive(bm_configuration(2)) is None
    with pytest.raises(ConfigurationError):
        rule_notprimitive(bm_configuration(2, m_primitive="yes"))


def test_lemma2_rejects_isotropic_bk_subdivisor():
    cfg = Configuration(
        n=2,
        gram=GramLattice.from_rows([[0, 2, 0], [2, 0, 0], [0, 0, -2]]),
        multiplicities=(1, 1),
        m_primitive="yes",
    )
    v = rule_lemma2(cfg, (1, 0))
    assert v is not None and v.rule == "lemma2"


def test_lemma2_chain_subsets_consistent():
    cfg = chain_configuration(1, -4, -2, m_primitive="yes")
    for s in [(0, 0), (1, 0), (0, 1)]:
        assert rule_lemma2(cfg, s) is None


def test_technical_accepts_equal_squares_and_halving():
    cfg = chain_configuration(2, -4, -2)
    assert rule_technical(cfg, 1, 2) is None  # q = -4, -4: equal
    assert rule_technical(cfg, 2, 3) is None  # q = -4, -2: halving


def test_technical_rejects_intermediate_square():
    g = GramLattice.from_rows(
        [[0, 4, 0], [4, -8, 4], [0, 4, -6]]
    )
    cfg = Configuration(n=2, gram=g, multiplicities=(1, 1))
    v = rule_technical(cfg, 1, 2)
    assert v is not None and v.rule in ("technical", "technical-divisibility")


def test_key_case1_for_nonnegative_square():
    cfg = Configuration(
        n=2,
        gram=GramLattice.from_rows([[0, 2], [2, 0]]),
        multiplicities=(1,),
    )
    assert rule_key(cfg, 1) == "case1"


def test_key_case1_beauville_mukai():
    # pairing(M + B, B) = 2 - 2 = 0 >= 0 keeps M + B in the shadow
    assert rule_key(bm_configuration(2), 1) == "case1"


def test_key_case2_chain():
    cfg = chain_configuration(1, -4, -2)
    assert rule_key(cfg, 1) == "case2"


def test_key_violation_when_neither_case_holds():
    g = GramLattice.from_rows([[0, 1, -2], [1, -8, -2], [-2, -2, -8]])
    cfg = Configuration(n=2, gram=g, multiplicities=(1, 1))
    out = rule_key(cfg, 1)
    assert isinstance(out, Violation) and out.rule == "key"
    assert "q(M,B_j) = -q(B_j)/2" in out.detail


def test_key_requires_positive_pairing():
    cfg = chain_configuration(1, -4, -2)
    with pytest.raises(ConfigurationError):
        rule_key(cfg, 2)  # q(M, B_2) = 0


def test_ample_rejects_chain_configuration():
    cfg = chain_configuration(1, -4, -2, a_ample=True)
    v = rule_ample(cfg)
    assert v is not None and v.rule == "ample-orthogonal"


def test_ample_accepts_beauville_mukai_d3():
    cfg = Configuration(
        n=2,
        gram=GramLattice.from_rows([[0, 3], [3, -2]]),
        multiplicities=(1,),
        a_ample=True,
    )
    assert rule_ample(cfg) is None


def test_ample_flag_off_never_violates():
    assert rule_ample(chain_configuration(1, -4, -2)) is None


# -- setup invariants ------------------------------------------------------------


def test_setup_rejects_nonpositive_square_of_a():
    cfg = Configuration(
        n=2, gram=GramLattice.from_rows([[0, 1], [1, -4]]), multiplicities=(1,)
    )
    with pytest.raises(SetupError, match="q\\(A\\) > 0"):
        cfg.check_setup()


def test_setup_rejects_degree_one_beauville_mukai():
    # d=1 forces q(A) = 0, violating bigness before anything else is checked
    with pytest.raises(SetupError, match="q\\(A\\) > 0"):
        bm_configuration(1).check_setup()


def test_setup_rejects_a_outside_bk_shadow():
    cfg = Configuration(
        n=2,
        gram=GramLattice.from_rows([[0, 3], [3, -4]]),
        multiplicities=(1,),
    )
    with pytest.raises(SetupError, match="A in the BK shadow"):
        cfg.check_setup()


def test_setup_rejects_non_embeddable_gram():
    cfg = Configuration(
        n=2,
        gram=GramLattice.from_rows([[2, 0, 3], [0, 2, 0], [3, 0, -2]]),
        multiplicities=(1, 1),
    )
    with pytest.raises(SetupError, match="Lorentzian"):
        cfg.check_setup()


def test_setup_check_runs_once_per_passing_configuration(monkeypatch):
    from fixdiv import deduction

    calls = []
    real = deduction.lorentzian_embeddable
    monkeypatch.setattr(deduction, "lorentzian_embeddable", lambda g: calls.append(g) or real(g))
    cfg = chain_configuration(1, -4, -2)
    cfg.check_setup()
    cfg.check_setup()
    assert isinstance(classify(cfg), Chain)
    assert len(calls) == 1
    # a failing configuration is not remembered: it raises every time
    bad = Configuration(n=2, gram=GramLattice.from_rows([[2, 0, 3], [0, 2, 0], [3, 0, -2]]), multiplicities=(1, 1))
    for _ in range(2):
        with pytest.raises(SetupError, match="Lorentzian"):
            bad.check_setup()
    assert len(calls) == 3


def test_configuration_validation_errors():
    g = GramLattice.from_rows([[0, 2], [2, -2]])
    with pytest.raises(ConfigurationError):
        Configuration(n=0, gram=g, multiplicities=(1,)).validate()
    with pytest.raises(ConfigurationError):
        Configuration(n=2, gram=g, multiplicities=(1, 1)).validate()
    with pytest.raises(ConfigurationError):
        Configuration(n=2, gram=g, multiplicities=(0,)).validate()
    with pytest.raises(ConfigurationError):
        Configuration(n=2, gram=g, multiplicities=(1,), m_primitive="maybe").validate()
    with pytest.raises(ConfigurationError):
        Configuration(n=2, gram=g, multiplicities=(1,), rr=preset("k3")).validate()


# -- classify --------------------------------------------------------------------


def test_classify_beauville_mukai_prime_fixed():
    result = classify(bm_configuration(2))
    assert isinstance(result, PrimeFixed)
    assert result.q_b == -2


def test_classify_chain_round_trip_example():
    result = classify(chain_configuration(2, -4, -2))
    assert isinstance(result, Chain)
    assert (result.k, result.d, result.q_last) == (2, -4, -2)


def test_classify_multiplicity_two_dies_at_step1():
    # chain-like Gram surviving the absorption sweep, with b_1 = 2
    g = GramLattice.from_rows([[0, 0, 1], [0, -10, 5], [1, 5, -2]])
    cfg = Configuration(n=2, gram=g, multiplicities=(1, 2))
    result = classify(cfg)
    assert isinstance(result, Contradiction)
    assert result.rule == "step1-multiplicity"


@pytest.mark.parametrize("k,d,q_last", admissible_chain_params((1, 2, 3, 4), (-4, -6, -8)))
def test_classify_round_trips_chain_gram(k, d, q_last):
    result = classify(chain_configuration(k, d, q_last))
    assert isinstance(result, Chain)
    assert (result.k, int(result.d), int(result.q_last)) == (k, d, q_last)
    # the theorem's closing identities, exactly
    cfg = chain_configuration(k, d, q_last)
    g, a = cfg.gram, cfg.a_class()
    assert square(g, a) == q_last - d
    assert 0 < square(g, a) < -d
    for j in range(1, k + 1):
        assert pairing(g, a, cfg.component(j)) == 0
    assert pairing(g, a, cfg.component(k + 1)) == Fraction(-d, 2) + q_last >= 0
    assert square(g, cfg.mobile()) == 0
    assert square(g, cfg.b_class()) <= 0
    assert pairing(g, cfg.mobile(), cfg.b_class()) > 0


@pytest.mark.parametrize("k,d,q_last", admissible_chain_params((2, 3), (-4, -8)))
def test_classify_invariant_under_component_permutation(k, d, q_last):
    base = chain_gram(k, d, q_last)
    rank = base.rank
    for perm in itertools.permutations(range(1, rank)):
        full = (0,) + perm
        rows = [[base.entries[full[i]][full[j]] for j in range(rank)] for i in range(rank)]
        cfg = Configuration(
            n=2, gram=GramLattice.from_rows(rows), multiplicities=(1,) * (rank - 1)
        )
        result = classify(cfg)
        assert isinstance(result, Chain)
        assert (result.k, int(result.d), int(result.q_last)) == (k, d, q_last)


def test_classify_unknown_primitivity_reports_both_branches():
    cfg = chain_configuration(1, -4, -2, m_primitive="unknown")
    result = classify(cfg)
    assert isinstance(result, Chain)
    notes = dict(result.certificate)
    assert "m-primitive-branches" in notes


def test_classify_imprimitive_multi_component_contradicts():
    cfg = chain_configuration(1, -4, -2, m_primitive="no")
    result = classify(cfg)
    assert isinstance(result, Contradiction)
    assert result.rule == "notprimitive"


def test_classify_certificate_names_steps():
    result = classify(chain_configuration(3, -4, -2))
    stages = [rule for rule, _ in result.certificate]
    for expected in ("markman-divisibility", "lemma1", "key", "step1", "step2-3", "step4", "final-sanity"):
        assert expected in stages


def test_chain_gram_general_mode_allows_odd_squares_and_halves():
    g = chain_gram(1, -3, -1, mode="general")
    assert g.mode == "general"
    assert g.entries[0][1] == g.entries[1][2] == Fraction(3, 2)
    assert chain_gram(1, -2, -1, mode="general").entries[2][2] == -1
    with pytest.raises(ConfigurationError, match="d < -1"):
        chain_gram(1, -1, -1, mode="general")
    with pytest.raises(ConfigurationError, match="q_last >= d/2"):
        chain_gram(1, -3, -2, mode="general")


@pytest.mark.parametrize("k,d,q_last", [(1, -3, -1), (1, -4, -1), (2, -2, -1), (2, -3, -1), (3, -6, -3)])
def test_classify_general_mode_chain(k, d, q_last):
    cfg = Configuration(
        n=2, gram=chain_gram(k, d, q_last, mode="general"), multiplicities=(1,) * (k + 1),
        m_primitive="yes",
    )
    result = classify(cfg)
    assert isinstance(result, Chain)
    assert (result.k, result.d, result.q_last) == (k, d, q_last)
    assert check_2A_mobility(cfg).ok


def test_no_chain_with_d_minus_two_in_even_mode():
    # q_last would need to be -1, which is odd
    with pytest.raises(ConfigurationError):
        chain_gram(1, -2, -1)
    assert list(range(-2, -2 // 2 - 1, -2)) == []  # no even q_last in [-1, -1]


# -- |2A| mobility ---------------------------------------------------------------


def test_mobility_beauville_mukai_both_subsets():
    report = check_2A_mobility(bm_configuration(2))
    assert report.ok
    assert report.lower_bound == 2 * 2  # 2 q(B, M)
    assert len(report.subsets) == 2
    assert all(e.passed for e in report.subsets)


def test_mobility_chain_k1_all_four_subsets():
    report = check_2A_mobility(chain_configuration(1, -4, -2))
    assert report.ok
    assert report.lower_bound == 4
    assert len(report.subsets) == 4


def test_mobility_empty_candidate_is_the_consistent_one():
    report = check_2A_mobility(chain_configuration(2, -4, -2))
    assert report.ok
    by_subset = {e.subset: e for e in report.subsets}
    empty = by_subset[(0, 0, 0)]
    assert empty.bk and empty.links_ok
    # nonzero candidates are ruled out: BK failure or the absorbed chain
    assert all(e.passed for e in report.subsets)


@pytest.mark.parametrize("k,d,q_last", admissible_chain_params((1, 2, 3), (-4, -6, -8)))
def test_mobility_holds_on_all_admissible_chains(k, d, q_last):
    assert check_2A_mobility(chain_configuration(k, d, q_last)).ok


def test_mobility_requires_classifiable_configuration():
    cfg = chain_configuration(1, -4, -2, m_primitive="no")  # contradicts
    with pytest.raises(ConfigurationError):
        check_2A_mobility(cfg)


# -- fourfold endgame ------------------------------------------------------------


def test_hk4_step_confirms_contradiction():
    p = preset("k3n", 2)
    assert hk4_negative_square_step(1, p)  # P(2) = 6 > 3
    assert hk4_negative_square_step(2, p)  # P(4) = 10 > 3


def test_hk4_step_preconditions():
    p = preset("k3n", 2)
    with pytest.raises(PreconditionError):
        hk4_negative_square_step(0, p)
    with pytest.raises(PreconditionError):
        hk4_negative_square_step(1, preset("k3"))
