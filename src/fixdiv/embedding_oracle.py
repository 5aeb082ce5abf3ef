"""Brute-force embedding oracle for the Lorentzian-embeddability criterion.

Searches for an isometric embedding of a small even Gram table into the fixed
reference lattice U + <-2>^3 (signature (1,4)), over vectors with bounded
coordinates.  A found witness is verified in exact integer arithmetic.  When
the bounded search finds nothing the verdict falls back to the signature
criterion, except that an exhausted search is recorded as a conclusive
negative: principal subtables are exhausted first and memoized, so a table
containing a non-embeddable subtable is rejected without a fresh search.

Everything is exact and integral.  The search tries candidates in the
lexicographic order of their coordinates, so each table has one witness, and
the speed-ups below never change it:

* Vectors realising a nondegenerate table are independent: a relation
  sum c_i v_i = 0 gives G c = 0, so c = 0.  Such a table, decided once per
  search by a fraction-free determinant, takes its first realising tuple as
  the witness, with no independence test.
* On a degenerate table, independence of a candidate witness is decided by
  fraction-free elimination on Python ints; past the first few candidates of
  a search step it is decided for a whole batch at once, by fraction-free
  elimination on the int64 Euclidean Gram of each candidate set, whose
  intermediate minors provably fit in int64 for the default box.
* The search never tries the zero vector, which no independent witness
  contains.  Its view of each square (the nonzero vectors, their int32
  pairing columns and the orbit representatives) is built on first use and
  kept on the oracle instance, so a pairing test is one matrix product.
  ``by_square`` still holds every box vector.

The memo key of a table is its smallest image under signed basis
permutations, taken over a per-rank table of those transforms.  The test
tables are generated orderly: a table is yielded only when no signed
permutation of its basis gives a lexicographically smaller table, so each
class appears once, at its first position, without a set of seen classes.
"""
from __future__ import annotations

import functools
import itertools
from operator import itemgetter, mul
from typing import Optional

import numpy as np

from .lattice import GramLattice, lorentzian_embeddable

#: Gram matrix of U + <-2>^3: a hyperbolic plane plus three (-2)-classes.
AMBIENT = (
    (0, 1, 0, 0, 0),
    (1, 0, 0, 0, 0),
    (0, 0, -2, 0, 0),
    (0, 0, 0, -2, 0),
    (0, 0, 0, 0, -2),
)

DEFAULT_BOX = 6
#: Largest accepted box: (2 * 10 + 1)**5 = 4.1M box vectors, and the orbit
#: filter's lexicographic encoding needs coordinates below 16 in magnitude.
MAX_BOX = 10

#: Hits of a last-pair search step checked one at a time before batching: a
#: quick table usually finds its witness among them, and one numpy call costs
#: more than one scalar check.
SCALAR_HITS = 16
#: Largest batch of hits given to one vectorised independence test; it caps
#: the int64 work arrays.
HIT_BATCH = 4096
#: Entries of one int32 product of candidate rows against the last-pair
#: pairings, and of its boolean mask: 5 MiB per chunk.
PRODUCT_ENTRIES = 1 << 20


def _ambient_pairing(u, v) -> int:
    total = 0
    for i, row in enumerate(AMBIENT):
        total += int(u[i]) * sum(r * int(v[j]) for j, r in enumerate(row))
    return total


class EmbeddingOracle:
    """Bounded exhaustive search for isometric embeddings into U + <-2>^3."""

    def __init__(self, box: int = DEFAULT_BOX):
        if isinstance(box, bool) or not isinstance(box, int) or not 1 <= box <= MAX_BOX:
            raise ValueError(f"box must be an integer from 1 to {MAX_BOX}, got {box!r}")
        self.box = box
        side = 2 * box + 1
        # every box vector, in lexicographic order of its coordinates; int8
        # holds any box small enough to enumerate, and pairings with int32
        # Gram rows promote to int32
        vectors = np.indices((side,) * 5, dtype=np.int8).reshape(5, -1).T - box
        gram = np.array(AMBIENT, dtype=np.int32)
        squares = np.einsum("ij,jk,ik->i", vectors, gram, vectors)
        # a stable sort keeps each bucket in lexicographic order, the order in
        # which candidates are tried and so the witness found
        order = np.argsort(squares, kind="stable")
        vectors, squares = vectors[order], squares[order]
        values, starts = np.unique(squares, return_index=True)
        ends = [*starts[1:], len(squares)]
        self._gram = gram
        self.by_square: dict[int, np.ndarray] = {
            int(v): vectors[a:b] for v, a, b in zip(values, starts, ends)
        }
        # a batched independence test of r vectors is exact while every int64
        # intermediate of its elimination fits: at most twice the square of
        # the largest (r-1)-minor of a Gram with entries <= 5 * box**2
        self._batch_max_rank = max(
            r for r in range(1, 6) if 2 * (5 * box * box) ** (2 * (r - 1)) < 2**63
        )
        self._views: dict[int, tuple] = {}
        self._memo: dict[tuple, bool] = {}

    # -- exact helpers ----------------------------------------------------------

    @staticmethod
    def _independent(chosen: list) -> bool:
        """Whether the vectors are linearly independent: fraction-free
        Gaussian elimination on Python ints."""
        rows = [[int(x) for x in v] for v in chosen]
        rank = 0
        for col in range(5):
            if rank == len(rows):
                break
            piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            pivot = rows[rank]
            a = pivot[col]
            for r in range(rank + 1, len(rows)):
                f = rows[r][col]
                if f:
                    rows[r] = [a * x - f * y for x, y in zip(rows[r], pivot)]
            rank += 1
        return rank == len(rows)

    @staticmethod
    def _independent_batch(prefix: list, last2: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Whether prefix + [last2[i], last[i]] is linearly independent, for
        each i.

        Vectors V are independent iff their Euclidean Gram V V^T is positive
        definite, i.e. iff every leading principal minor is nonzero.
        Fraction-free (Bareiss) elimination without pivoting produces exactly
        those minors as its pivots, so a zero pivot means a leading prefix is
        already dependent and no pivoting is ever needed.  Callers keep every
        intermediate within int64 (see ``_batch_max_rank``).
        """
        n, r = len(last), len(prefix) + 2
        vecs = np.empty((n, r, 5), dtype=np.int64)
        vecs[:, : r - 2] = np.asarray(prefix, dtype=np.int64).reshape(r - 2, 5)
        vecs[:, r - 2] = last2
        vecs[:, r - 1] = last
        m = vecs @ vecs.transpose(0, 2, 1)
        alive = np.ones(n, dtype=bool)
        prev = np.ones(n, dtype=np.int64)
        eye = np.eye(r, dtype=np.int64)
        for k in range(r):
            dead = m[:, k, k] == 0
            if dead.any():
                alive &= ~dead
                m[dead] = eye  # so that no later step divides by its zero pivot
            pivot = m[:, k, k].copy()
            if k + 1 < r:
                m[:, k + 1 :, k + 1 :] = (
                    pivot[:, None, None] * m[:, k + 1 :, k + 1 :]
                    - m[:, k + 1 :, k : k + 1] * m[:, k : k + 1, k + 1 :]
                ) // prev[:, None, None]
            prev = pivot
        return alive

    def _verify(self, rows, chosen) -> bool:
        r = len(rows)
        for i in range(r):
            for j in range(r):
                if _ambient_pairing(chosen[i], chosen[j]) != rows[i][j]:
                    return False
        return self._independent(chosen)

    # -- search -----------------------------------------------------------------

    def _view(self, square: int) -> tuple:
        """The search's view of one square, built on first use: its nonzero
        box vectors, their pairing columns ``AMBIENT @ vectors.T`` and the
        orbit representatives among them, all int32."""
        view = self._views.get(square)
        if view is None:
            vectors = self.by_square[square]
            if square == 0:
                # no independent witness contains the zero vector
                vectors = vectors[vectors.any(axis=1)]
            # int32 like the columns, so that each pairing is one same-type
            # product over contiguous rows
            vectors = vectors.astype(np.int32)
            columns = self._gram @ vectors.T
            view = self._views[square] = (vectors, columns, self._orbit_representatives(vectors))
        return view

    @staticmethod
    def _pairing_mask(columns: np.ndarray, chosen: list, g, col: int) -> np.ndarray:
        """Which vectors, given by their pairing columns, pair with each
        chosen vector i as g[i][col] says."""
        mask = np.ones(columns.shape[1], dtype=bool)
        for i, v in enumerate(chosen):
            mask &= (v @ columns) == g[i][col]
        return mask

    def search(self, rows) -> Optional[list[tuple[int, ...]]]:
        """An embedding witness (one ambient vector per basis class), or None
        after exhausting the box."""
        rows = [[int(x) for x in row] for row in rows]
        r = len(rows)
        counts = [len(self.by_square.get(rows[i][i], ())) for i in range(r)]
        if any(c == 0 for c in counts):
            return None
        order = sorted(range(r), key=lambda i: counts[i])
        g = [[rows[order[i]][order[j]] for j in range(r)] for i in range(r)]

        witness = self._extend(g, _nondegenerate(g), [])
        if witness is None:
            return None
        # undo the search reordering
        restored: list = [None] * r
        for pos, idx in enumerate(order):
            restored[idx] = tuple(int(x) for x in witness[pos])
        assert self._verify(rows, restored)
        return restored

    def _extend(self, g, free: bool, chosen) -> Optional[list]:
        """The first witness for g that extends ``chosen``; ``free`` says g
        is nondegenerate, so that every tuple realising it is independent."""
        depth = len(chosen)
        if depth == len(g):
            return list(chosen) if free or self._independent(chosen) else None
        cands, columns, reps = self._view(g[depth][depth])
        if depth == 0:
            # ambient isometries (swap/negate the hyperbolic pair, permute and
            # negate the <-2> classes) let us normalize the first vector
            cands = reps
        else:
            cands = cands[self._pairing_mask(columns, chosen, g, depth)]
        if depth >= 1 and depth == len(g) - 2:
            return self._extend_last_pair(g, free, chosen, cands)
        for v in cands:
            out = self._extend(g, free, chosen + [v])
            if out is not None:
                return out
        return None

    def _extend_last_pair(self, g, free: bool, chosen, cands) -> Optional[list]:
        """Close the search two levels at once with a pairing-matrix test."""
        last = len(g) - 1
        if len(cands) == 0:
            return None
        c_last, columns, _ = self._view(g[last][last])
        mask = self._pairing_mask(columns, chosen, g, last)
        c_last, right = c_last[mask], columns[:, mask]
        if len(c_last) == 0:
            return None
        target = g[last - 1][last]
        chunk = max(1, PRODUCT_ENTRIES // len(c_last))
        # hits are tried in np.argwhere order.  On a nondegenerate table the
        # first hit is the witness.  Otherwise the first few are tested one at
        # a time, the rest in batches, each returning its first independent
        # hit; all of them one at a time when a batch could overflow
        scalar = SCALAR_HITS if len(g) <= self._batch_max_rank else len(cands) * len(c_last)
        for start in range(0, len(cands), chunk):
            block = cands[start : start + chunk]
            found = (block @ right) == target
            if free:
                first = int(found.argmax())
                if found.flat[first]:
                    i1, i2 = divmod(first, len(c_last))
                    return chosen + [block[i1], c_last[i2]]
                continue
            hits = np.argwhere(found)
            head = min(scalar, len(hits))
            scalar -= head
            for i1, i2 in hits[:head]:
                witness = chosen + [block[i1], c_last[i2]]
                if self._independent(witness):
                    return witness
            for lo in range(head, len(hits), HIT_BATCH):
                batch = hits[lo : lo + HIT_BATCH]
                ok = self._independent_batch(chosen, block[batch[:, 0]], c_last[batch[:, 1]])
                if ok.any():
                    i1, i2 = batch[np.argmax(ok)]
                    return chosen + [block[i1], c_last[i2]]
        return None

    @staticmethod
    def _orbit_representatives(cands: np.ndarray) -> np.ndarray:
        """Filter to one vector per orbit of Aut(U + <-2>^3) acting on the box.

        The automorphisms used: swapping the hyperbolic coordinates, negating
        them together, and independently permuting/negating the three (-2)
        coordinates.  Any embedding witness can be moved by one of these, so
        restricting the first search vector is lossless.
        """
        a, b = cands[:, 0], cands[:, 1]
        # (-2)-part canonical: nonnegative, sorted non-increasing
        tail_ok = (
            (cands[:, 2] >= 0) & (cands[:, 3] >= 0) & (cands[:, 4] >= 0)
            & (cands[:, 2] >= cands[:, 3]) & (cands[:, 3] >= cands[:, 4])
        )
        # hyperbolic part canonical: (a,b) lexicographically maximal among
        # (a,b), (b,a), (-a,-b), (-b,-a); encode lex order additively
        enc = (a.astype(np.int64) + 16) * 64 + (b.astype(np.int64) + 16)
        enc_sw = (b.astype(np.int64) + 16) * 64 + (a.astype(np.int64) + 16)
        enc_ng = (-a.astype(np.int64) + 16) * 64 + (-b.astype(np.int64) + 16)
        enc_sn = (-b.astype(np.int64) + 16) * 64 + (-a.astype(np.int64) + 16)
        head_ok = (enc >= enc_sw) & (enc >= enc_ng) & (enc >= enc_sn)
        return cands[tail_ok & head_ok]

    # -- memoized verdict with subtable pruning ---------------------------------

    def has_embedding(self, rows) -> bool:
        """Whether any embedding exists with coordinates in the box.

        A principal subtable with no box-embedding rules out the full table,
        since restricting a witness yields a witness for the subtable.
        """
        rows = [[int(x) for x in row] for row in rows]
        key = _signed_perm_key(rows)
        if key in self._memo:
            return self._memo[key]
        r = len(rows)
        if r > 1:
            for drop in range(r):
                keep = [i for i in range(r) if i != drop]
                sub = [[rows[i][j] for j in keep] for i in keep]
                if not self.has_embedding(sub):
                    self._memo[key] = False
                    return False
        found = self.search(rows) is not None
        self._memo[key] = found
        return found

    def verdict(self, gram: GramLattice) -> tuple[bool, str]:
        """Oracle verdict and its basis: witness, exhausted, or fallback.

        A witness is conclusive-positive; an exhausted search on a table the
        signature criterion rejects is conclusive-negative; otherwise the
        bounded search is inconclusive and the criterion decides.
        """
        rows = [[int(x) for x in row] for row in gram.entries]
        if self.has_embedding(rows):
            return True, "witness"
        if not lorentzian_embeddable(gram):
            return False, "exhausted"
        return True, "fallback"


def _nondegenerate(g) -> bool:
    """Whether det g != 0: fraction-free (Bareiss) elimination on Python ints,
    with a row swap (which only flips the determinant's sign) at a zero
    pivot."""
    m = [list(row) for row in g]
    n = len(m)
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return False
        m[k], m[piv] = m[piv], m[k]
        pivot = m[k]
        for row in m[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot[k] * row[j] - f * pivot[j]) // prev
        prev = pivot[k]
    return True


@functools.cache
def _signed_perm_transforms(r: int) -> tuple:
    """For each signed permutation of a rank-r basis (r >= 2), a getter of
    the permuted flat table and the signs of its entries.  Signs s and -s act
    alike, so the first sign is fixed at 1."""
    out = []
    for perm in itertools.permutations(range(r)):
        for tail in itertools.product((1, -1), repeat=r - 1):
            signs = (1, *tail)
            out.append((
                itemgetter(*(perm[i] * r + perm[j] for i in range(r) for j in range(r))),
                tuple(signs[i] * signs[j] for i in range(r) for j in range(r)),
            ))
    return tuple(out)


def _signed_perm_key(rows) -> tuple:
    """Canonical form under signed basis permutations (embedding-invariant):
    the smallest flat table among the images."""
    flat = [x for row in rows for x in row]
    if len(rows) < 2:
        return tuple(flat)
    return min(
        tuple(map(mul, signs, get(flat))) for get, signs in _signed_perm_transforms(len(rows))
    )


def even_grams(rank: int, bound: int):
    """All even Gram tables of the given rank with entries in [-bound, bound],
    one representative per signed-permutation class.

    Tables are ordered by (diagonal, upper off-diagonal) tuple, and each class
    is represented by its smallest table: the one that no signed permutation
    of the basis makes smaller.
    """
    diag_vals = [v for v in range(-bound, bound + 1) if v % 2 == 0]
    off_positions = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    slot = {pos: t for t, pos in enumerate(off_positions)}
    perms = list(itertools.permutations(range(rank)))
    sign_vectors = list(itertools.product((1, -1), repeat=rank))
    # a smallest table has a non-decreasing diagonal, and a signed permutation
    # that moves such a diagonal makes it larger: only those fixing it count
    for diag in itertools.combinations_with_replacement(diag_vals, rank):
        images = []
        for perm in perms:
            if any(diag[perm[i]] != diag[i] for i in range(rank)):
                continue
            for signs in sign_vectors:
                # image off-diagonal entry t is sign * off[source]
                images.append([
                    (signs[i] * signs[j], slot[min(perm[i], perm[j]), max(perm[i], perm[j])])
                    for i, j in off_positions
                ])
        for off in itertools.product(range(-bound, bound + 1), repeat=len(off_positions)):
            if any(_smaller_image(image, off) for image in images):
                continue
            rows = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                rows[i][i] = diag[i]
            for (i, j), v in zip(off_positions, off):
                rows[i][j] = rows[j][i] = v
            yield rows


def _smaller_image(image, off) -> bool:
    """Whether the off-diagonal tuple (sign * off[source] for each entry of
    the image) is lexicographically smaller than off."""
    for (sign, source), value in zip(image, off):
        moved = sign * off[source]
        if moved != value:
            return moved < value
    return False
