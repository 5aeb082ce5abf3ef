"""Mathematics the benchmark checks fixdiv against, computed without fixdiv.

Everything here is exact arithmetic on Python ints (and fractions with
denominator 2 for general-mode tables); nothing imports the package under
test, so a fault in ``fixdiv.lattice`` cannot hide itself by agreeing with
its own output.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


# -- signature of a symmetric matrix -------------------------------------------


def charpoly(m: list[list[int]]) -> list[int]:
    """Coefficients [1, c_1, ..., c_n] of det(xI - m) by Faddeev-LeVerrier.

    For an integer matrix every division below is exact.
    """
    n = len(m)
    coeffs = [1]
    acc = [[0] * n for _ in range(n)]  # M_0 = 0
    for k in range(1, n + 1):
        # M_k = m . M_{k-1} + c_{k-1} I
        prod = [[sum(m[i][t] * acc[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            prod[i][i] += coeffs[-1]
        acc = prod
        trace = sum(sum(m[i][t] * acc[t][i] for t in range(n)) for i in range(n))
        if trace % k:
            raise ArithmeticError("Faddeev-LeVerrier division is not exact")
        coeffs.append(-trace // k)
    return coeffs


def _sign_changes(seq: list[int]) -> int:
    signs = [c > 0 for c in seq if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def signature(m) -> tuple[int, int, int]:
    """(n_plus, n_zero, n_minus) of a symmetric matrix with entries in Z/2.

    A real symmetric matrix has only real eigenvalues, so Descartes' rule of
    signs counts its positive and negative eigenvalues exactly from the
    characteristic polynomial.  Doubling the matrix keeps the signature and
    clears the denominators.
    """
    doubled = []
    for row in m:
        out = []
        for x in row:
            x2 = Fraction(x) * 2
            if x2.denominator != 1:
                raise ValueError(f"entry {x} is not in Z/2")
            out.append(int(x2))
        doubled.append(out)
    n = len(doubled)
    coeffs = charpoly(doubled)
    n_zero = 0
    while n_zero < n and coeffs[n - n_zero] == 0:
        n_zero += 1
    n_plus = _sign_changes(coeffs)
    return n_plus, n_zero, n - n_plus - n_zero


def lorentzian(m) -> bool:
    """Embeds into a nondegenerate form of signature (1, N): (1, 0, *) or (0, <=1, *)."""
    p, z, _ = signature(m)
    return z == 0 if p == 1 else (p == 0 and z <= 1)


# -- configurations -------------------------------------------------------------


def pair(m, x, y) -> Fraction:
    return sum(Fraction(m[i][j]) * x[i] * y[j] for i in range(len(x)) for j in range(len(y)) if x[i] and y[j])


def setup_holds(m, mults) -> bool:
    """The standing invariants of a configuration over the basis (M, B_1, ...):
    q(A) > 0, A and M pair nonnegatively with every negative-square component,
    and the table is Lorentzian-embeddable."""
    r = len(m)
    a = (1,) + tuple(mults)
    mobile = (1,) + (0,) * (r - 1)
    if pair(m, a, a) <= 0:
        return False
    for j in range(1, r):
        if m[j][j] < 0:
            e = tuple(1 if i == j else 0 for i in range(r))
            if pair(m, a, e) < 0 or pair(m, mobile, e) < 0:
                return False
    return lorentzian(m)


def markman_holds(m) -> bool:
    """-q(E) divides 2 q(E, D) for every negative-square component E and basis class D."""
    r = len(m)
    for j in range(1, r):
        qj = Fraction(m[j][j])
        if qj < 0:
            for i in range(r):
                if i != j:
                    ratio = 2 * Fraction(m[i][j]) / -qj
                    if ratio.denominator != 1:
                        return False
    return True


def chain_rows(k: int, d: int, q_last: int) -> list[list[int]]:
    """Gram of M - B_1 - ... - B_{k+1}: squares d (interior) and q_last
    (terminal), consecutive classes pairing to -d/2."""
    size, half = k + 2, -d // 2
    rows = [[0] * size for _ in range(size)]
    for j in range(size - 1):
        rows[j][j + 1] = rows[j + 1][j] = half
    for j in range(1, k + 1):
        rows[j][j] = d
    rows[k + 1][k + 1] = q_last
    return rows


def chain_admissible(k: int, d: int, q_last: int) -> bool:
    """A chain the classification must certify: Markman divisibility holds and
    the Gram has signature (1, 0, k+1)."""
    rows = chain_rows(k, d, q_last)
    return markman_holds(rows) and signature(rows) == (1, 0, k + 1)


# -- enumeration survivors in closed form ---------------------------------------


def prime_survivors(entry_bound: int, square_min: int) -> set[tuple[int, int]]:
    """Single-component survivors (q(M,B), q(B)): q(A) = 2v + s > 0, Markman
    divisibility (-s/2) | v, and A in the BK shadow, which those two imply."""
    out = set()
    for v in range(1, entry_bound + 1):
        for s in range(square_min, 1, 2):
            if 2 * v + s > 0 and (s == 0 or v % (-s // 2) == 0):
                out.add((v, s))
    return out


def chain_survivors(max_components: int, entry_bound: int, square_min: int) -> set[tuple[int, int, int]]:
    """Every admissible chain (k, d, q_last) that fits in the search bounds."""
    out = set()
    for k in range(1, max_components):
        for d in range(square_min, -3, 2):
            if -d // 2 > entry_bound:
                continue
            for q_last in range(-2, d // 2 - 1, -2):
                if chain_admissible(k, d, q_last):
                    out.add((k, d, q_last))
    return out


# -- even Gram tables up to signed permutation ----------------------------------


def burnside_even_tables(rank: int, bound: int) -> int:
    """Number of orbits of even symmetric tables with entries in [-bound, bound]
    under signed permutations of the basis, by Burnside's lemma.

    The element (perm, signs) sends entry (i, j) to signs_i signs_j (i', j')
    with i' = perm[i].  A table is fixed iff it is constant along each orbit
    of positions up to that sign; an orbit whose signs multiply to -1 around
    the cycle forces its entries to 0.
    """
    diag_choices = len([v for v in range(-bound, bound + 1) if v % 2 == 0])
    off_choices = 2 * bound + 1
    positions = [(i, j) for i in range(rank) for j in range(i, rank)]
    total = 0
    group_order = 0
    for perm in itertools.permutations(range(rank)):
        for signs in itertools.product((1, -1), repeat=rank):
            group_order += 1
            seen = set()
            fixed = 1
            for start in positions:
                if start in seen:
                    continue
                sign, pos = 1, start
                while True:
                    seen.add(pos)
                    i, j = pos
                    sign *= signs[i] * signs[j]
                    a, b = perm[i], perm[j]
                    pos = (min(a, b), max(a, b))
                    if pos == start:
                        break
                if start[0] == start[1]:
                    fixed *= diag_choices  # diagonal signs always multiply to +1
                else:
                    fixed *= off_choices if sign == 1 else 1
            total += fixed
    if total % group_order:
        raise ArithmeticError("Burnside sum is not divisible by the group order")
    return total // group_order


# -- embedding witnesses in U + <-2>^3 ------------------------------------------


def ambient_pair(u, v) -> int:
    """The form of U + <-2>^3 in coordinates (e, f, x, y, z)."""
    return u[0] * v[1] + u[1] * v[0] - 2 * (u[2] * v[2] + u[3] * v[3] + u[4] * v[4])


def integer_rank(vectors) -> int:
    """Rank over Q by fraction-free (cross-multiplying) row elimination."""
    rows = [list(map(int, v)) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [p * x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def witness_valid(rows, witness) -> bool:
    """The witness realises every pairing of the table and is independent."""
    r = len(rows)
    if len(witness) != r or any(len(w) != 5 for w in witness):
        return False
    for i in range(r):
        for j in range(r):
            if ambient_pair(witness[i], witness[j]) != rows[i][j]:
                return False
    return integer_rank(witness) == r
