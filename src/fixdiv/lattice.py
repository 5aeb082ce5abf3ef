"""Exact arithmetic on finite-rank quadratic lattices.

A Gram table holds pairing values with denominators dividing 2.  Each
``GramLattice`` stores ``doubled``, the table 2·G as Python ints, and derives
``entries``, the values as reported (``Fraction``), only when asked.
Pairings, squares, signatures and the Markman divisibility test run on
``doubled`` in integer arithmetic.  A pairing is returned as an ``int``
when it is integral; only an odd half-value, which general mode alone allows,
becomes a ``Fraction``.  No floating point anywhere.

What depends on the table alone (its signature here, the rule engine's table
facts in ``deduction``) is computed on first use and kept in the instance's
``cache``, so that the many configurations built over one table share it.
``cache`` takes no part in ``==``, ``hash`` or ``repr``: two tables with equal
entries are equal whatever their caches hold.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


class LatticeError(ValueError):
    """Malformed lattice input: bad shapes, bad entries, violated preconditions."""


@dataclass(frozen=True)
class Signature:
    """Exact inertia (n_plus, n_zero, n_minus) of a symmetric pairing table."""

    n_plus: int
    n_zero: int
    n_minus: int

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_zero + self.n_minus

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_zero, self.n_minus)


@dataclass(frozen=True)
class DivisorClass:
    """Integer coordinate vector in a declared basis, with a label and a kind.

    ``kind`` is one of ``mobile``, ``prime``, ``generic``.  The zero vector is
    allowed as an explicit zero class but never as a prime component.
    """

    coords: tuple[int, ...]
    label: str = ""
    kind: str = "generic"

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if self.kind not in ("mobile", "prime", "generic"):
            raise LatticeError(f"unknown divisor kind {self.kind!r}")
        if self.kind == "prime" and self.is_zero:
            raise LatticeError("the zero class cannot be a prime component")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self.coords) != len(other.coords):
            raise LatticeError("cannot add classes of different lengths")
        return DivisorClass(
            tuple(a + b for a, b in zip(self.coords, other.coords)),
            label=f"{self.label}+{other.label}" if self.label and other.label else "",
        )


def _twice(x: Rational) -> int:
    """2x as an int, for a pairing value x with denominator dividing 2."""
    f = Fraction(x)
    if f.denominator not in (1, 2):
        raise LatticeError(f"pairing value {f} has denominator not dividing 2")
    return f.numerator * (2 // f.denominator)


def halve(total: int) -> Rational:
    """total / 2: an ``int`` when total is even, else a ``Fraction`` half."""
    return total // 2 if total % 2 == 0 else Fraction(total, 2)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Integer dot product of two equally long rows."""
    return sum(map(mul, u, v))


@dataclass(frozen=True)
class GramLattice:
    """Symmetric pairing table for a finite set of divisor classes.

    ``mode`` is ``even`` (integral pairings, even squares; the default, since
    all known hyperkaehler Picard lattices are even) or ``general`` (pairings
    with denominator dividing 2).  ``doubled`` is the table 2·G as ints, which
    every computation reads; ``entries`` is G itself as ``Fraction``s, the
    view that reports print, built on first use.  ``cache`` holds what is
    derived from the table alone, keyed by the module that derives it.
    """

    rank: int
    doubled: tuple[tuple[int, ...], ...]
    mode: str = "even"
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Rational]], mode: str = "even") -> "GramLattice":
        if mode not in ("even", "general"):
            raise LatticeError(f"unknown lattice mode {mode!r}")
        n = len(rows)
        if n == 0:
            raise LatticeError("rank must be positive")
        if any(len(row) != n for row in rows):
            raise LatticeError("pairing table must be square")
        if all(type(x) is int for row in rows for x in row):
            # a table of ints, as the search generates, needs no Fraction
            D = tuple(tuple(2 * x for x in row) for row in rows)
        else:
            D = tuple(tuple(map(_twice, row)) for row in rows)
        for i, row in enumerate(D):
            for j in range(i + 1, n):
                if row[j] != D[j][i]:
                    raise LatticeError(f"pairing table not symmetric at ({i},{j})")
        if mode == "even":
            for i, row in enumerate(D):
                if row[i] % 4 != 0:
                    raise LatticeError(f"even mode: diagonal entry {halve(row[i])} at {i} is not an even integer")
                for j, x in enumerate(row):
                    if x % 2 != 0:
                        raise LatticeError(f"even mode: entry {halve(x)} at ({i},{j}) is not an integer")
        return cls(rank=n, doubled=D, mode=mode)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The pairing values G as ``Fraction``s."""
        entries = self.cache.get("entries")
        if entries is None:
            entries = self.cache["entries"] = tuple(tuple(Fraction(x, 2) for x in row) for row in self.doubled)
        return entries


def pairing(L: GramLattice, x: DivisorClass, y: DivisorClass) -> Rational:
    """Exact bilinear pairing x^T . entries . y."""
    if len(x.coords) != L.rank or len(y.coords) != L.rank:
        raise LatticeError(
            f"dimension mismatch: lattice rank {L.rank}, vectors of length "
            f"{len(x.coords)} and {len(y.coords)}"
        )
    yc = y.coords
    total = 0
    for xi, row in zip(x.coords, L.doubled):
        if xi:
            total += xi * dot(row, yc)
    return halve(total)


def square(L: GramLattice, x: DivisorClass) -> Rational:
    """q(x) = pairing(x, x); an integer in even mode."""
    return pairing(L, x, x)


def signature(L: GramLattice) -> Signature:
    """Exact inertia by fraction-free symmetric elimination on 2·G (Bareiss,
    Math. Comp. 22, 1968); scaling by 2 leaves the inertia unchanged.
    Computed once per table and kept in its cache."""
    sig = L.cache.get("signature")
    if sig is None:
        sig = L.cache["signature"] = _inertia([list(row) for row in L.doubled])
    return sig


def _inertia(m: list[list[int]]) -> Signature:
    # After eliminating pivots p_1..p_t, each active entry is det(P)·S, with
    # P the eliminated principal block and S its Schur complement, so every
    # entry is a minor of an integer matrix and the division below is exact.
    # The rational pivot S[p][p] = m[p][p] / prev has the sign of their product.
    pos = neg = zero = 0
    prev = 1
    active = list(range(len(m)))
    while active:
        p = next((i for i in active if m[i][i] != 0), None)
        if p is None:
            pair = None
            for a_pos, i in enumerate(active):
                for j in active[a_pos + 1:]:
                    if m[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            # all active diagonals vanish, so adding basis vector j to i
            # produces diagonal 2*m[i][j] != 0; the unimodular congruence
            # keeps every entry a minor of an integer matrix
            for c in active:
                m[i][c] += m[j][c]
            for r in active:
                m[r][i] += m[r][j]
            p = i
        d = m[p][p]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        active.remove(p)
        # Bareiss step on the active block: m[r][c] <- (d*m[r][c] - m[r][p]*m[p][c]) / prev
        pivot_row = m[p]
        for r in active:
            row = m[r]
            f = row[p]
            for c in active:
                row[c] = (d * row[c] - f * pivot_row[c]) // prev
        prev = d
    return Signature(pos, zero, neg)


def lorentzian_embeddable(L: GramLattice) -> bool:
    """Whether the form embeds isometrically into a nondegenerate form of
    signature (1, m) for large m.

    Criterion: signature (1, 0, *) or (0, <=1, *).  The excluded shapes encode
    the index-theorem consequences: a positive class orthogonal to an
    independent isotropic class is impossible, and two orthogonal isotropic
    classes must be colinear.
    """
    s = signature(L)
    if s.n_plus == 1:
        return s.n_zero == 0
    return s.n_plus == 0 and s.n_zero <= 1


@dataclass(frozen=True)
class MarkmanViolation:
    """Record of a failed divisibility constraint -q(E) | 2 q(E, D)."""

    q_e: Rational
    q_ed: Rational
    rule: str = "markman-divisibility"

    @property
    def detail(self) -> str:
        return f"-q(E) = {-self.q_e} does not divide 2 q(E,D) = {2 * self.q_ed}"


def divisibility_multiplier(qE: Rational, qED: Rational) -> Union[int, MarkmanViolation]:
    """Markman multiplier m with q(E,D) = m * (-q(E))/2, or a violation record.

    Precondition: q(E) is a negative integer (E a prime divisor of negative
    square).  When q(E,D) >= 0 the returned m is a natural number.
    """
    if type(qE) is not int:
        qE = Fraction(qE)
        if qE.denominator != 1:
            raise LatticeError(f"divisibility_multiplier requires a negative integer square, got {qE}")
        qE = qE.numerator
    if qE >= 0:
        raise LatticeError(f"divisibility_multiplier requires a negative integer square, got {qE}")
    twice = 2 * qED
    if type(twice) is not int:
        twice = Fraction(twice)
        if twice.denominator != 1:
            return MarkmanViolation(q_e=qE, q_ed=qED)
        twice = twice.numerator
    if twice % qE != 0:
        return MarkmanViolation(q_e=qE, q_ed=qED)
    return twice // -qE


def bk_shadow_member(L: GramLattice, components: Iterable[DivisorClass], x: DivisorClass) -> bool:
    """Membership in the numerical shadow of the birational Kaehler cone.

    True iff x pairs nonnegatively with every prime component of negative
    square (those components are the configuration's uniruled divisors; classes
    outside the configuration are unknowable from the input and ignored).
    """
    for comp in components:
        if square(L, comp) < 0 and pairing(L, x, comp) < 0:
            return False
    return True
