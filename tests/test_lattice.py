"""Exact-arithmetic lattice layer: pairings, signatures, embeddability."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixdiv.deduction import chain_gram
from fixdiv.lattice import (
    DivisorClass,
    GramLattice,
    LatticeError,
    MarkmanViolation,
    Signature,
    bk_shadow_member,
    divisibility_multiplier,
    lorentzian_embeddable,
    pairing,
    signature,
    square,
)

BM = GramLattice.from_rows([[0, 1], [1, -2]])


# -- construction and validation -------------------------------------------------


def test_rejects_nonsymmetric_table():
    with pytest.raises(LatticeError, match="symmetric"):
        GramLattice.from_rows([[0, 1], [2, -2]])


def test_rejects_nonsquare_table():
    with pytest.raises(LatticeError, match="square"):
        GramLattice.from_rows([[0, 1, 0], [1, -2, 0]])


def test_rejects_empty_table():
    with pytest.raises(LatticeError, match="rank"):
        GramLattice.from_rows([])


def test_even_mode_rejects_odd_diagonal():
    with pytest.raises(LatticeError, match="even"):
        GramLattice.from_rows([[1]])


def test_even_mode_rejects_half_integral_pairing():
    with pytest.raises(LatticeError, match="integer"):
        GramLattice.from_rows([[0, Fraction(1, 2)], [Fraction(1, 2), -2]])


def test_general_mode_accepts_half_integral_pairing():
    g = GramLattice.from_rows([[0, Fraction(1, 2)], [Fraction(1, 2), -2]], mode="general")
    assert g.entries[0][1] == Fraction(1, 2)


def test_any_mode_rejects_denominator_above_two():
    with pytest.raises(LatticeError, match="denominator"):
        GramLattice.from_rows([[0, Fraction(1, 3)], [Fraction(1, 3), -2]], mode="general")


def test_unknown_mode_rejected():
    with pytest.raises(LatticeError, match="mode"):
        GramLattice.from_rows([[0]], mode="odd")


def test_zero_class_cannot_be_prime():
    with pytest.raises(LatticeError, match="prime"):
        DivisorClass((0, 0), kind="prime")


# -- pairing and square ----------------------------------------------------------


def test_pairing_with_zero_class_is_zero():
    assert pairing(BM, DivisorClass((0, 0)), DivisorClass((3, 5))) == 0


@pytest.mark.parametrize("d", range(1, 8))
def test_beauville_mukai_square(d):
    # x = dF + B on [[0,1],[1,-2]] has q(x) = 2d - 2; big exactly for d >= 2
    assert square(BM, DivisorClass((d, 1))) == 2 * d - 2


def test_chain_gram_square_of_a():
    g = chain_gram(1, -4, -2)
    a = DivisorClass((1, 1, 1))
    assert square(g, a) == 2  # q(A) = q_last - d


def test_pairing_dimension_mismatch():
    with pytest.raises(LatticeError, match="dimension mismatch"):
        pairing(BM, DivisorClass((1, 0, 0)), DivisorClass((0, 1)))


@given(
    x=st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    y=st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    z=st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    entries=st.lists(st.integers(-6, 6), min_size=6, max_size=6),
)
def test_pairing_bilinear_and_symmetric(x, y, z, entries):
    a, b, c, p, q, r = entries
    g = GramLattice.from_rows(
        [[2 * a, p, q], [p, 2 * b, r], [q, r, 2 * c]]
    )
    X, Y, Z = DivisorClass(tuple(x)), DivisorClass(tuple(y)), DivisorClass(tuple(z))
    XY = DivisorClass(tuple(u + v for u, v in zip(x, y)))
    assert pairing(g, X, Y) == pairing(g, Y, X)
    assert pairing(g, XY, Z) == pairing(g, X, Z) + pairing(g, Y, Z)


# -- signature -------------------------------------------------------------------


def test_signature_diag():
    assert signature(GramLattice.from_rows([[2, 0], [0, -2]])).as_tuple() == (1, 0, 1)


def test_signature_hyperbolic_cell():
    # determinant -4 < 0 forces a nondegenerate indefinite rank-2 form
    assert signature(GramLattice.from_rows([[0, 2], [2, -4]])).as_tuple() == (1, 0, 1)


def test_signature_chain_gram():
    g = chain_gram(1, -4, -2)
    assert signature(g).as_tuple() == (1, 0, 2)


def test_signature_rank_property():
    s = Signature(1, 2, 3)
    assert s.rank == 6


@settings(max_examples=150)
@given(data=st.data())
def test_signature_matches_floating_point_inertia(data):
    n = data.draw(st.integers(1, 5))
    entries = data.draw(
        st.lists(st.integers(-5, 5), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)
    )
    rows = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    g = GramLattice.from_rows(rows, mode="general")
    ev = np.linalg.eigvalsh(np.array(rows, dtype=float))
    tol = 1e-8
    expected = (int((ev > tol).sum()), int((abs(ev) <= tol).sum()), int((ev < -tol).sum()))
    assert signature(g).as_tuple() == expected


@settings(max_examples=100)
@given(data=st.data())
def test_signature_invariant_under_unimodular_change_of_basis(data):
    n = data.draw(st.integers(2, 4))
    entries = data.draw(
        st.lists(st.integers(-4, 4), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)
    )
    rows = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    # random unimodular matrix as a product of elementary shears and swaps
    u = np.eye(n, dtype=object)
    for _ in range(data.draw(st.integers(0, 6))):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        if i == j:
            continue
        f = data.draw(st.integers(-2, 2))
        shear = np.eye(n, dtype=object)
        shear[i][j] = f
        u = u @ shear
    m = np.array(rows, dtype=object)
    conj = u.T @ m @ u
    g1 = GramLattice.from_rows(rows, mode="general")
    g2 = GramLattice.from_rows([[int(x) for x in row] for row in conj], mode="general")
    assert signature(g1).as_tuple() == signature(g2).as_tuple()


# -- Lorentzian embeddability ----------------------------------------------------


def test_embeddable_positive_cases():
    assert lorentzian_embeddable(GramLattice.from_rows([[0, 2], [2, -4]]))
    assert lorentzian_embeddable(GramLattice.from_rows([[-2]]))
    assert lorentzian_embeddable(GramLattice.from_rows([[0]]))


def test_embeddable_rejects_positive_class_orthogonal_to_isotropic():
    # a positive class plus an independent orthogonal isotropic class
    assert not lorentzian_embeddable(GramLattice.from_rows([[2, 0], [0, 0]]))


def test_embeddable_rejects_two_orthogonal_isotropic_classes():
    assert not lorentzian_embeddable(GramLattice.from_rows([[0, 0], [0, 0]]))


def test_embeddable_rejects_two_positive_directions():
    assert not lorentzian_embeddable(GramLattice.from_rows([[2, 0], [0, 2]]))


# -- Markman divisibility --------------------------------------------------------


@pytest.mark.parametrize(
    "qE,qED,m",
    [(-2, 1, 1), (-2, 3, 3), (-4, 2, 1), (-4, 4, 2), (-6, 3, 1), (-2, 0, 0)],
)
def test_divisibility_multiplier_values(qE, qED, m):
    assert divisibility_multiplier(qE, qED) == m


def test_divisibility_violation_record():
    v = divisibility_multiplier(-4, 1)
    assert isinstance(v, MarkmanViolation)
    assert "does not divide" in v.detail


def test_divisibility_requires_negative_integer_square():
    with pytest.raises(LatticeError):
        divisibility_multiplier(2, 1)
    with pytest.raises(LatticeError):
        divisibility_multiplier(0, 1)


@given(qE=st.integers(-20, -1), m=st.integers(0, 20))
def test_divisibility_roundtrip(qE, m):
    qED = Fraction(m * -qE, 2)
    assert divisibility_multiplier(qE, qED) == m


# -- BK shadow -------------------------------------------------------------------


def test_bk_shadow_mobile_class():
    comps = [DivisorClass((0, 1), kind="prime")]
    assert bk_shadow_member(BM, comps, DivisorClass((1, 0)))


def test_bk_shadow_rejects_degree_one_beauville_mukai():
    comps = [DivisorClass((0, 1), kind="prime")]
    a = DivisorClass((1, 1))  # A = F + B pairs -1 with B
    assert pairing(BM, a, comps[0]) == -1
    assert not bk_shadow_member(BM, comps, a)


def test_bk_shadow_chain_class_a():
    g = chain_gram(1, -4, -2)
    comps = [DivisorClass((0, 1, 0), kind="prime"), DivisorClass((0, 0, 1), kind="prime")]
    a = DivisorClass((1, 1, 1))
    assert pairing(g, a, comps[0]) == 0
    assert pairing(g, a, comps[1]) == 0
    assert bk_shadow_member(g, comps, a)


def test_bk_shadow_ignores_nonnegative_square_components():
    g = GramLattice.from_rows([[0, 2], [2, 0]])
    comps = [DivisorClass((0, 1), kind="prime")]
    # the component has square 0, so it imposes no condition
    assert bk_shadow_member(g, comps, DivisorClass((1, -1)))


# -- integer kernels against a Fraction reference ----------------------------------


def fraction_pairing(rows, x, y):
    """The Fraction dot product x^T . rows . y that pairing computed before it
    moved onto the doubled integer table."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        total += xi * sum(Fraction(rows[i][j]) * yj for j, yj in enumerate(y) if yj != 0)
    return total


def fraction_inertia(rows):
    """Symmetric Gaussian reduction over the rationals, with the isotropic-pair
    pivot step: the signature algorithm before fraction-free elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    pos = neg = zero = 0
    active = list(range(len(m)))
    while active:
        p = next((i for i in active if m[i][i] != 0), None)
        if p is None:
            pair = next(
                ((i, j) for a, i in enumerate(active) for j in active[a + 1:] if m[i][j] != 0), None
            )
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            for c in active:
                m[i][c] += m[j][c]
            for r in active:
                m[r][i] += m[r][j]
            p = i
        d = m[p][p]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(p)
        for r in active:
            f = m[r][p]
            if f != 0:
                for c in active:
                    m[r][c] -= f * m[p][c] / d
    return (pos, zero, neg)


def seeded_table(rng, n, mode, shape):
    """A symmetric table of rank n: ``generic`` draws every entry, ``zero-diag``
    has an all-zero diagonal, and ``degenerate`` has a nonzero radical."""

    def value(diagonal):
        if mode == "general":
            return Fraction(rng.randint(-8, 8), 2)
        return 2 * rng.randint(-3, 3) if diagonal else rng.randint(-4, 4)

    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 0 if shape == "zero-diag" else value(True)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = value(False)
    if shape == "degenerate" and n >= 2:
        # the last row and column become those of v = e_0 (+ e_1 when n >= 3),
        # so e_{n-1} - v pairs to zero with every basis class
        src = [1] + [1 if (k == 1 and n >= 3) else 0 for k in range(1, n - 1)]
        rows = [[Fraction(x) for x in row] for row in rows]
        for c in range(n):
            rows[n - 1][c] = sum(s * rows[k][c] for k, s in enumerate(src))
        for r in range(n):
            rows[r][n - 1] = sum(s * rows[r][k] for k, s in enumerate(src))
    return rows


TABLE_SHAPES = [
    (seed, mode, shape)
    for seed in range(4)
    for mode in ("even", "general")
    for shape in ("generic", "zero-diag", "degenerate")
]


@pytest.mark.parametrize("seed,mode,shape", TABLE_SHAPES)
def test_signature_matches_fraction_reference(seed, mode, shape):
    import random

    rng = random.Random(f"signature/{seed}/{mode}/{shape}")
    degenerate_seen = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = seeded_table(rng, n, mode, shape)
        if mode == "even" and any(Fraction(rows[i][i]) % 2 for i in range(n)):
            continue  # a degenerate even table may leave an odd square
        g = GramLattice.from_rows(rows, mode=mode)
        want = fraction_inertia(rows)
        assert signature(g).as_tuple() == want, rows
        degenerate_seen += want[1] > 0
    if shape == "degenerate":
        assert degenerate_seen > 0


@pytest.mark.parametrize("seed,mode,shape", TABLE_SHAPES)
def test_pairing_matches_fraction_reference(seed, mode, shape):
    import random

    rng = random.Random(f"pairing/{seed}/{mode}/{shape}")
    halves = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = seeded_table(rng, n, mode, shape)
        if mode == "even" and any(Fraction(rows[i][i]) % 2 for i in range(n)):
            continue
        g = GramLattice.from_rows(rows, mode=mode)
        x = DivisorClass(tuple(rng.randint(-3, 3) for _ in range(n)))
        y = DivisorClass(tuple(rng.randint(-3, 3) for _ in range(n)))
        got = pairing(g, x, y)
        want = fraction_pairing(rows, x.coords, y.coords)
        assert got == want
        # integral values come back as ints, odd halves as Fractions
        assert type(got) is (int if want.denominator == 1 else Fraction)
        assert square(g, x) == fraction_pairing(rows, x.coords, x.coords)
        halves += want.denominator == 2
    if mode == "general" and shape == "generic":
        assert halves > 0


def test_doubled_table_is_twice_the_entries():
    g = GramLattice.from_rows([[0, Fraction(3, 2)], [Fraction(3, 2), -1]], mode="general")
    assert g.doubled == ((0, 3), (3, -2))
    assert g.entries[0][1] == Fraction(3, 2)


def test_equal_tables_are_equal_whatever_their_caches_hold():
    rows = [[0, 2, 0], [2, -4, 2], [0, 2, -2]]
    warm = GramLattice.from_rows(rows)
    signature(warm)
    warm.entries
    warm.cache["other"] = object()
    cold = GramLattice.from_rows([[Fraction(x) for x in row] for row in rows])
    assert not cold.cache
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert "cache" not in repr(warm)
    assert warm != GramLattice.from_rows(rows, mode="general")


def test_int_rows_give_the_same_table_as_fraction_rows():
    for rows, mode in (([[0, 3], [3, -4]], "even"), ([[0, 1], [1, -3]], "general")):
        from_ints = GramLattice.from_rows(rows, mode=mode)
        from_fractions = GramLattice.from_rows([[Fraction(x) for x in row] for row in rows], mode=mode)
        assert from_ints.doubled == from_fractions.doubled
        assert from_ints.entries == from_fractions.entries
        assert all(type(x) is Fraction for row in from_ints.entries for x in row)
    with pytest.raises(LatticeError, match="even mode"):
        GramLattice.from_rows([[0, 1], [1, -3]])
    with pytest.raises(LatticeError, match="not symmetric"):
        GramLattice.from_rows([[0, 1], [2, -2]])
