"""Brute-force embedding oracle: witnesses, exhaustion, canonicalization."""
from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fixdiv import embedding_oracle
from fixdiv.embedding_oracle import (
    AMBIENT,
    DEFAULT_BOX,
    MAX_BOX,
    EmbeddingOracle,
    _signed_perm_key,
    even_grams,
)
from fixdiv.lattice import GramLattice, lorentzian_embeddable


@pytest.fixture(scope="module")
def oracle():
    return EmbeddingOracle()


def ambient_pairing(u, v):
    return sum(u[i] * AMBIENT[i][j] * v[j] for i in range(5) for j in range(5))


# -- witnesses -------------------------------------------------------------------


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 2], [2, -4]],
        [[0, 1], [1, -2]],
        [[-2]],
        [[0]],
        [[0, 2, 0], [2, -4, 2], [0, 2, -2]],  # chain Gram (k=1, d=-4, q_last=-2)
        [[-2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, 0]],  # degenerate
    ],
)
def test_search_returns_verified_witness(rows, oracle):
    witness = oracle.search(rows)
    assert witness is not None
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert ambient_pairing(witness[i], witness[j]) == rows[i][j]


def test_search_exhausts_non_embeddable_tables(oracle):
    assert oracle.search([[2, 0], [0, 0]]) is None
    assert oracle.search([[0, 0], [0, 0]]) is None
    assert oracle.search([[2, 0], [0, 2]]) is None


def test_verdict_reports_basis(oracle):
    ok, how = oracle.verdict(GramLattice.from_rows([[0, 2], [2, -4]]))
    assert ok and how == "witness"
    ok, how = oracle.verdict(GramLattice.from_rows([[2, 0], [0, 0]]))
    assert not ok and how == "exhausted"


def test_subtable_pruning_rejects_supertables(oracle):
    # contains the [[2,0],[0,0]] subtable, so no search is needed
    rows = [[2, 0, 0], [0, 0, 0], [0, 0, -2]]
    assert not oracle.has_embedding(rows)


# -- canonicalization ------------------------------------------------------------


def test_signed_perm_key_invariance():
    rows = [[0, 2, 1], [2, -4, 0], [1, 0, -2]]
    base = _signed_perm_key(rows)
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            image = [
                [signs[i] * signs[j] * rows[perm[i]][perm[j]] for j in range(3)]
                for i in range(3)
            ]
            assert _signed_perm_key(image) == base


def test_even_grams_yields_distinct_classes():
    classes = list(even_grams(2, 2))
    keys = [_signed_perm_key(rows) for rows in classes]
    assert len(keys) == len(set(keys))
    # every even rank-2 table with entries in [-2, 2] reduces to one of them
    key_set = set(keys)
    for a in (-2, 0, 2):
        for b in (-2, 0, 2):
            for p in range(-2, 3):
                assert _signed_perm_key([[a, p], [p, b]]) in key_set


def test_orbit_representatives_preserve_witnesses(oracle):
    # the depth-0 orbit filter must not lose embeddable tables whose natural
    # witness starts with a non-canonical vector
    rows = [[-2, 1], [1, -2]]
    assert oracle.search(rows) is not None


# -- agreement with the signature criterion --------------------------------------


@pytest.mark.parametrize("rank", [1, 2])
def test_agreement_small_ranks(rank, oracle):
    for rows in even_grams(rank, 4):
        fast = lorentzian_embeddable(GramLattice.from_rows(rows))
        slow, _ = oracle.verdict(GramLattice.from_rows(rows))
        assert fast == slow, rows


# -- exact integer kernels against independent references -------------------------


def fraction_rank(rows) -> int:
    """Rank by Gaussian elimination over the rationals."""
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def random_vector_sets(seed, count, box=DEFAULT_BOX):
    """Seeded sets of 1-6 integer vectors in the box, about half of them made
    dependent by a repeated row, a multiple, a sum or a zero row."""
    rng = random.Random(seed)

    def vec(limit=box):
        return [rng.randint(-limit, limit) for _ in range(5)]

    for _ in range(count):
        rows = [vec() for _ in range(rng.randint(1, 5))]
        kind = rng.choice(["free", "free", "repeat", "multiple", "sum", "zero", "extremes"])
        if kind == "repeat":
            rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
        elif kind == "multiple":
            base = vec(box // 3)
            rows[rng.randrange(len(rows))] = base
            factor = rng.choice((-3, -2, -1, 2, 3))
            rows.insert(rng.randrange(len(rows) + 1), [factor * x for x in base])
        elif kind == "sum":
            a, b = vec(box // 2), vec(box // 2)
            rows[0], rows[-1] = a, b
            rows.insert(rng.randrange(len(rows) + 1), [x + y for x, y in zip(a, b)])
        elif kind == "zero":
            rows.insert(rng.randrange(len(rows) + 1), [0] * 5)
        elif kind == "extremes":
            rows = [[rng.choice((-box, box)) for _ in range(5)] for _ in range(len(rows))]
        yield rows


def test_independent_matches_fraction_rank():
    dependent = 0
    for rows in random_vector_sets(seed=20251114, count=3000):
        want = fraction_rank(rows) == len(rows)
        assert EmbeddingOracle._independent([tuple(r) for r in rows]) == want, rows
        dependent += not want
    assert dependent > 800  # the dependent constructions are exercised


@pytest.mark.parametrize("box", [DEFAULT_BOX, MAX_BOX])
def test_pair_minor_matrix_matches_fraction_rank(box):
    # each prefix of 1-4 vectors is tested with the last two vectors of many
    # sets of its length, so independent and dependent sets share a call
    by_length: dict = {}
    for rows in random_vector_sets(seed=20261022 + box, count=4000, box=box):
        if len(rows) >= 3:
            by_length.setdefault(len(rows), []).append(rows)
    assert sorted(by_length) == [3, 4, 5, 6]
    mixed = 0
    for r, sets in sorted(by_length.items()):
        tails = sets[:300]
        last2 = np.array([t[-2] for t in tails], dtype=np.int32)
        last = np.array([t[-1] for t in tails], dtype=np.int32)
        for rows in sets[:12]:
            w = embedding_oracle._pair_minor_matrix(rows[:-2])
            got = embedding_oracle._pairs_independent(w, last2, last).tolist()
            want = [fraction_rank(rows[:-2] + t[-2:]) == r for t in tails]
            assert got == want, rows[:-2]
            mixed += 0 < sum(want) < len(want)
    assert mixed > 10


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, -1, 0], [-1, 0, 0], [0, 0, 0]],
        [[0, 2, 0], [2, -4, 2], [0, 2, -2]],
    ],
)
def test_pair_minors_match_scalar_on_every_hit(rows, oracle):
    """Every hit (pair of last two vectors) that _extend_last_pair tests for a
    rank-3 table, over every first vector, by the pair-minor kernel against
    the scalar test."""
    gram = oracle._gram
    c1, c2 = oracle.by_square[rows[1][1]], oracle.by_square[rows[2][2]]
    checked = 0
    for v0 in EmbeddingOracle._orbit_representatives(oracle.by_square[rows[0][0]]):
        gv = gram @ v0
        a = c1[(c1 @ gv) == rows[0][1]]
        b = c2[(c2 @ gv) == rows[0][2]]
        hits = np.argwhere((a @ (gram @ b.T)) == rows[1][2])
        if len(hits) == 0:
            continue
        w = embedding_oracle._pair_minor_matrix([v0])
        got = embedding_oracle._pairs_independent(w, a[hits[:, 0]], b[hits[:, 1]])
        want = [EmbeddingOracle._independent([v0, a[i], b[j]]) for i, j in hits]
        assert got.tolist() == want
        checked += len(hits)
    assert checked > 200


def scalar_last_pair(self, g, free, chosen, cands):
    """_extend_last_pair as a plain loop: every hit in np.argwhere order,
    each tested by _independent."""
    last = len(g) - 1
    c_last, columns, _ = self._view(g[last][last])
    mask = self._pairing_mask(columns, chosen, g, last)
    c_last, right = c_last[mask], columns[:, mask]
    for i1, i2 in np.argwhere((cands @ right) == g[last - 1][last]):
        witness = chosen + [cands[i1], c_last[i2]]
        if self._independent(witness):
            return witness
    return None


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, -1, 0], [-1, 0, 0], [0, 0, 0]],
        [[0, 2, 0], [2, -4, 2], [0, 2, -2]],
        [[-2, 1, 1], [1, -2, 1], [1, 1, -2]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 1], [0, 0, 1, -2]],
        [[-2, -2, 0], [-2, -2, 0], [0, 0, 0]],
        [[-2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, 0]],
        [[-2, 1, 0, 0], [1, -2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    ],
)
def test_batched_search_returns_the_scalar_witness(rows, monkeypatch):
    """Testing the hits of a search step in slices, by their pair minors,
    finds the witness (or None) that testing every hit one at a time with
    _independent finds."""
    batched = EmbeddingOracle().search(rows)
    # blocks of a few candidates and slices of 7 hits
    monkeypatch.setattr(embedding_oracle, "PRODUCT_ENTRIES", 70)
    assert EmbeddingOracle().search(rows) == batched
    monkeypatch.setattr(EmbeddingOracle, "_extend_last_pair", scalar_last_pair)
    assert EmbeddingOracle().search(rows) == batched


def old_even_grams(rank, bound):
    """The generate-and-deduplicate enumeration even_grams replaced."""
    diag_vals = [v for v in range(-bound, bound + 1) if v % 2 == 0]
    off_positions = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    seen = set()
    for diag in itertools.product(diag_vals, repeat=rank):
        for off in itertools.product(range(-bound, bound + 1), repeat=len(off_positions)):
            rows = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                rows[i][i] = diag[i]
            for (i, j), v in zip(off_positions, off):
                rows[i][j] = rows[j][i] = v
            key = _signed_perm_key(rows)
            if key in seen:
                continue
            seen.add(key)
            yield rows


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_even_grams_matches_generate_and_deduplicate(rank, bound):
    assert list(even_grams(rank, bound)) == list(old_even_grams(rank, bound))


# -- the search kernel: pinned output, shortcuts, views, inputs --------------------


def test_oracle_output_is_pinned():
    """Verdict, basis and witness of one oracle over every even table of ranks
    1-3 with entries in [-3, 3]; the hash was recorded before the search
    skipped the zero vector and the independence tests on nondegenerate
    tables."""
    oracle = EmbeddingOracle()
    out = [
        (rows, oracle.verdict(GramLattice.from_rows(rows)), oracle.search(rows))
        for rank in (1, 2, 3)
        for rows in even_grams(rank, 3)
    ]
    assert len(out) == 556
    digest = hashlib.sha256(json.dumps(out, default=int).encode()).hexdigest()
    assert digest == "b40d96a4d12caa4d57e8667242f416213f32b1d8dc8684ac9d33d8cab2266542"


def brute_signed_perm_key(rows):
    """The smallest flat table over every permutation and every sign vector."""
    r = len(rows)
    best = None
    for perm in itertools.permutations(range(r)):
        for signs in itertools.product((1, -1), repeat=r):
            flat = tuple(
                signs[i] * signs[j] * rows[perm[i]][perm[j]]
                for i in range(r)
                for j in range(r)
            )
            if best is None or flat < best:
                best = flat
    return best


def random_tables(seed, count, max_rank=4):
    """Seeded symmetric integer tables of rank 0 to max_rank: generic ones,
    degenerate ones (a repeated or negated row and column) and all-zero ones."""
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.randint(0, max_rank)
        rows = [[0] * r for _ in range(r)]
        kind = rng.choice(["generic", "generic", "degenerate", "zero"])
        if kind != "zero":
            for i in range(r):
                for j in range(i, r):
                    rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        if kind == "degenerate" and r >= 2:
            a, b = rng.sample(range(r), 2)
            sign = rng.choice((1, -1))
            for k in range(r):
                rows[b][k] = sign * rows[a][k]
            for k in range(r):
                rows[k][b] = sign * rows[k][a]
            rows[b][b] = rows[a][a]
        yield rows


def test_signed_perm_key_matches_brute_force():
    ranks = set()
    for rows in random_tables(seed=20261021, count=400):
        assert _signed_perm_key(rows) == brute_signed_perm_key(rows), rows
        ranks.add(len(rows))
    assert ranks == {0, 1, 2, 3, 4}


def fraction_det(rows):
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def test_nondegenerate_matches_fraction_determinant():
    degenerate = negative = 0
    for rows in random_tables(seed=20261022, count=600, max_rank=5):
        det = fraction_det(rows)
        assert embedding_oracle._det(rows) == det, rows
        degenerate += det == 0
        negative += det < 0
    assert degenerate > 100 and negative > 100


def count_independence_tests(monkeypatch):
    """Counts calls of the scalar test and of the pair-minor kernel."""
    calls = {"_independent": 0, "_pair_minor_matrix": 0, "_pairs_independent": 0}

    def counting(fn, name):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(
        EmbeddingOracle, "_independent",
        staticmethod(counting(EmbeddingOracle._independent, "_independent")),
    )
    for name in ("_pair_minor_matrix", "_pairs_independent"):
        monkeypatch.setattr(embedding_oracle, name, counting(getattr(embedding_oracle, name), name))
    return calls


def test_nondegenerate_search_runs_no_independence_test(monkeypatch):
    calls = count_independence_tests(monkeypatch)
    oracle = EmbeddingOracle()
    rows = [[0, 2, 0], [2, -4, 2], [0, 2, -2]]  # chain Gram, det 8
    assert oracle.search(rows) is not None
    # the one call is the final witness check in _verify
    assert calls == {"_independent": 1, "_pair_minor_matrix": 0, "_pairs_independent": 0}


def test_degenerate_search_still_tests_independence(monkeypatch):
    calls = count_independence_tests(monkeypatch)
    oracle = EmbeddingOracle()
    # v1 = v0 realises the table with any v2 orthogonal to v0, dependently
    assert oracle.search([[-2, -2, 0], [-2, -2, 0], [0, 0, 0]]) is None
    # every hit goes through the pair-minor kernel, none through _independent
    assert calls["_independent"] == 0
    assert calls["_pair_minor_matrix"] > 0 and calls["_pairs_independent"] > 0


def test_search_view_drops_zero_but_by_square_keeps_it(oracle):
    assert (oracle.by_square[0] == 0).all(axis=1).sum() == 1
    vectors, columns, reps = oracle._view(0)
    assert vectors.any(axis=1).all() and reps.any(axis=1).all()
    assert len(vectors) == len(oracle.by_square[0]) - 1
    assert (columns == oracle._gram @ vectors.T).all()
    assert oracle._view(-2)[0].shape == oracle.by_square[-2].shape


@pytest.mark.parametrize("box", [-1, 0, 11, True, 6.0, "6", None])
def test_bad_box_is_rejected(box):
    with pytest.raises(ValueError, match="box must be an integer from 1 to 10"):
        EmbeddingOracle(box=box)


def test_smallest_box_searches():
    oracle = EmbeddingOracle(box=1)
    assert oracle.search([[0, 1], [1, -2]]) == [(1, 0, 0, 0, 0), (-1, 1, 0, 0, 0)]


def test_compare_script_rejects_a_bad_box(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "compare_embedding_oracle.py"
    spec = importlib.util.spec_from_file_location("compare_embedding_oracle", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.raises(SystemExit) as exc:
        script.main(["--box", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "box must be an integer from 1 to 10, got -1" in captured.err


def test_search_checks_its_witness_under_python_O():
    """The witness check is no assert: with assertions stripped, a witness
    that does not realise the table still raises, naming the table."""
    code = (
        "from fixdiv.embedding_oracle import EmbeddingOracle\n"
        "print(__debug__)\n"
        "EmbeddingOracle._extend = lambda self, g, free, chosen: [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]\n"
        "EmbeddingOracle(box=1).search([[0, 1], [1, -2]])\n"
    )
    src = Path(embedding_oracle.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert proc.stdout == "False\n"
    assert proc.returncode == 1
    assert "RuntimeError" in proc.stderr
    assert "does not realise the table [[0, 1], [1, -2]]" in proc.stderr
