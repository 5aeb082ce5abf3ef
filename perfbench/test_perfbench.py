"""Fast checks of the benchmark's own mathematics, at small bounds.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest

import docs
import reference
from fixdiv.embedding_oracle import EmbeddingOracle, even_grams
from fixdiv.lattice import GramLattice, signature
from fixdiv.search import SearchBounds, verify_classification


@pytest.mark.parametrize("bounds", [(1, 6, -8), (2, 3, -6), (2, 4, -8)])
def test_survivor_sets_match_closed_form(bounds, monkeypatch):
    monkeypatch.setenv("HK_THREADS", "1")
    c, eb, smin = bounds
    report, survivors = verify_classification(SearchBounds(c, eb, smin, max_multiplicity=2))
    prime = {(int(r.configuration.gram.entries[0][1]), int(r.configuration.gram.entries[1][1]))
             for r in survivors if r.classification.tag == "PrimeFixed"}
    chain = {(r.classification.k, int(r.classification.d), int(r.classification.q_last))
             for r in survivors if r.classification.tag == "Chain"}
    assert report.ok
    assert prime == reference.prime_survivors(eb, smin)
    assert chain == reference.chain_survivors(c, eb, smin)
    assert report.survivor_count == len(prime) + len(chain)
    assert all(set(r.configuration.multiplicities) == {1} for r in survivors)


def test_closed_form_at_acceptance_bounds():
    assert len(reference.prime_survivors(6, -8)) == 14
    assert len(reference.chain_survivors(3, 6, -8)) == 7


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("bound", [2, 3])
def test_burnside_counts_even_gram_classes(rank, bound):
    assert reference.burnside_even_tables(rank, bound) == sum(1 for _ in even_grams(rank, bound))


def test_burnside_counts_at_bound_four():
    assert [reference.burnside_even_tables(r, 4) for r in (1, 2, 3)] == [5, 75, 4465]


def test_signature_agrees_with_fixdiv_on_random_tables():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        assert reference.signature(rows) == signature(GramLattice.from_rows(rows, mode="general")).as_tuple()


def test_witness_check_rejects_wrong_witness():
    rows = [[-2, 1], [1, -2]]
    witness = EmbeddingOracle(box=2).search(rows)
    assert reference.witness_valid(rows, witness)
    assert not reference.witness_valid(rows, [witness[0], witness[0]])
    assert not reference.witness_valid([[-2, 0], [0, -2]], witness)


def test_document_stream_is_reproducible():
    first = docs.batch(11, 0)
    assert first == docs.batch(11, 0)
    assert first != docs.batch(12, 0)
    assert first != docs.batch(11, 1)


def test_document_stream_outcomes_do_not_depend_on_seed():
    def outcomes(seed, index):
        return Counter((len(s["rows"]), s["mode"], s["mults"], s["doc"]["m_primitive"], s["expect"]["kind"])
                       for s in docs.batch(seed, index))

    assert outcomes(1, 0) == outcomes(2, 0) == outcomes(1, 5)


def test_traced_funnel_sums_to_candidates(monkeypatch):
    import tracing

    monkeypatch.setenv("HK_THREADS", "1")
    with tracing.Tracer() as tracer:
        report, _ = verify_classification(SearchBounds(2, 3, -6, max_multiplicity=2))
    assert tracer.funnel["candidates"] == report.stats.candidates
    assert tracer.funnel_balanced()
    assert tracer.funnel["survivors"] == report.survivor_count


def test_host_speed_factor_is_reference_over_median_sample():
    import calibrate

    speed = calibrate.HostSpeed()
    speed.window(0.0)
    assert len(speed.samples) == 1
    speed.samples = [2 * calibrate.KERNEL_REF_S, 4 * calibrate.KERNEL_REF_S, 100.0]
    assert speed.take() == 0.25
    assert speed.samples == []
