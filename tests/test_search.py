"""Bounded exhaustive search: pruning soundness, determinism, certification."""
from __future__ import annotations

import itertools

import pytest

from fixdiv.deduction import Chain, PrimeFixed
from fixdiv.search import (
    BudgetExceededError,
    SearchBounds,
    enumerate_survivors,
    verify_classification,
)

SMALL = SearchBounds(max_components=1, entry_bound=4, square_min=-4, max_multiplicity=2, n=2)
TWO_COMP = SearchBounds(max_components=2, entry_bound=4, square_min=-4, max_multiplicity=2, n=2)


def survivor_key(rec):
    return (
        tuple(tuple(x for x in row) for row in rec.configuration.gram.entries),
        rec.configuration.multiplicities,
    )


# -- bounds validation -----------------------------------------------------------


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(max_components=-1, entry_bound=4, square_min=-4).validate()
    with pytest.raises(ValueError):
        SearchBounds(max_components=1, entry_bound=0, square_min=-4).validate()
    with pytest.raises(ValueError):
        SearchBounds(max_components=1, entry_bound=4, square_min=2).validate()
    with pytest.raises(ValueError):
        SearchBounds(max_components=1, entry_bound=4, square_min=-3).validate()
    with pytest.raises(ValueError):
        SearchBounds(max_components=1, entry_bound=4, square_min=-4, parity_mode="odd").validate()


def test_empty_bounds_give_empty_stream():
    survivors, stats = enumerate_survivors(
        SearchBounds(max_components=0, entry_bound=4, square_min=-4)
    )
    assert survivors == []
    assert stats.candidates == 0


# -- single-component exhaustion -------------------------------------------------


def test_single_component_survivors_are_prime_fixed():
    survivors, _ = enumerate_survivors(SMALL)
    assert survivors
    q_values = set()
    for rec in survivors:
        assert isinstance(rec.classification, PrimeFixed)
        q_values.add(int(rec.classification.q_b))
    assert q_values == {-4, -2, 0}


def test_survivors_are_reduced():
    survivors, _ = enumerate_survivors(TWO_COMP)
    for rec in survivors:
        assert all(b == 1 for b in rec.configuration.multiplicities)


def test_two_component_survivors_are_chains_or_primes():
    report, survivors = verify_classification(TWO_COMP)
    assert report.ok
    assert report.survivor_count == len(survivors)
    assert report.chain_count + report.prime_count == report.survivor_count
    chains = [rec for rec in survivors if isinstance(rec.classification, Chain)]
    assert {(c.classification.k, int(c.classification.d), int(c.classification.q_last)) for c in chains} == {
        (1, -4, -2)
    }


# -- determinism and monotonicity ------------------------------------------------


def test_enumeration_deterministic_across_worker_counts(monkeypatch):
    monkeypatch.setenv("HK_THREADS", "1")
    serial, _ = enumerate_survivors(TWO_COMP)
    monkeypatch.setenv("HK_THREADS", "2")
    parallel, _ = enumerate_survivors(TWO_COMP)
    assert [survivor_key(r) for r in serial] == [survivor_key(r) for r in parallel]


def test_enumeration_monotone_under_bound_enlargement():
    small, _ = enumerate_survivors(TWO_COMP)
    bigger, _ = enumerate_survivors(
        SearchBounds(max_components=2, entry_bound=5, square_min=-6, max_multiplicity=2, n=2)
    )
    small_keys = {survivor_key(r) for r in small}
    big_keys = {survivor_key(r) for r in bigger}
    assert small_keys <= big_keys


# -- parity consequence ----------------------------------------------------------


def test_no_chains_when_squares_bounded_by_minus_two():
    # chains need interior square d <= -4 in even mode: d = -2 would force the
    # odd terminal square q_last = -1
    report, _ = verify_classification(
        SearchBounds(max_components=3, entry_bound=4, square_min=-2, max_multiplicity=2, n=2)
    )
    assert report.ok
    assert report.chain_count == 0


# -- general mode and reporting --------------------------------------------------


def test_general_mode_flagged_hypothetical():
    report, _ = verify_classification(
        SearchBounds(
            max_components=1, entry_bound=2, square_min=-2, max_multiplicity=1,
            n=2, parity_mode="general",
        )
    )
    assert report.parity_mode == "general"
    assert report.hypothetical
    assert not verify_classification(SMALL)[0].hypothetical


def test_rule_set_reflects_rr_presence():
    from fixdiv.rr import preset

    with_rr = SearchBounds(
        max_components=1, entry_bound=2, square_min=-2, max_multiplicity=1, n=2,
        rr=preset("k3n", 2),
    )
    assert verify_classification(with_rr)[0].rule_set == "lemma-rules+riemann-roch"
    assert verify_classification(SMALL)[0].rule_set == "lemma-rules"


# -- generation and canonical keys --------------------------------------------------


def test_invalid_generated_table_is_not_dropped(monkeypatch):
    # a generated table is always valid, so a LatticeError is a bug: it must
    # surface instead of silently removing a candidate from the count
    from fixdiv import search
    from fixdiv.lattice import LatticeError

    class Broken:
        @staticmethod
        def from_rows(rows, mode):
            raise LatticeError("broken table")

    monkeypatch.setenv("HK_THREADS", "1")
    monkeypatch.setattr(search, "GramLattice", Broken)
    with pytest.raises(LatticeError, match="broken table"):
        enumerate_survivors(SMALL)


def brute_force_key(rows, mults):
    """The lexicographically least (table, multiplicities) pair over every
    component permutation, computed directly."""
    c = len(mults)
    keys = []
    for perm in itertools.permutations(range(1, c + 1)):
        full = (0,) + perm
        flat = tuple(rows[full[i]][full[j]] for i in range(c + 1) for j in range(c + 1))
        keys.append((flat, tuple(mults[p - 1] for p in perm)))
    return min(keys)


@pytest.mark.parametrize("squares", [(-2, -2, -2), (-2, -4, -4), (-1, -1, -3)])
def test_canonical_key_is_the_least_pair(squares):
    from fixdiv import search

    mode = "general" if any(q % 2 for q in squares) else "even"
    bounds = SearchBounds(max_components=3, entry_bound=2, square_min=-4, parity_mode=mode)
    tables = 0
    for rows in search._grams_for_squares(bounds, squares, search.EnumerationStats()):
        least = search._least_flattening(rows)
        for mults in itertools.product((1, 2), repeat=3):
            assert search._canonical_key(least, mults) == brute_force_key(rows, mults)
        tables += 1
    assert tables > 0


# -- budget ----------------------------------------------------------------------


def test_budget_exhaustion_is_loud():
    tight = SearchBounds(
        max_components=2, entry_bound=4, square_min=-4, max_multiplicity=2, n=2, budget=10
    )
    with pytest.raises(BudgetExceededError):
        enumerate_survivors(tight)
