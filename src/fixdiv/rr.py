"""Riemann-Roch polynomials P with chi(D) = P(q(D)) and section-count rules.

A valid polynomial has constant term n+1 and strictly positive higher
coefficients, hence is strictly increasing on nonnegative rationals.  Presets
ship for K3 surfaces and the K3^[n] series; arbitrary coefficient vectors are
accepted as long as they pass :func:`validate`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

Rational = Union[int, Fraction]


class RRError(ValueError):
    """Malformed Riemann-Roch data."""


class PreconditionError(ValueError):
    """A stated precondition of an operation is violated."""


class InconsistentInputError(ValueError):
    """The supplied polynomial cannot be the RR polynomial of a lattice
    containing the class in question (non-integral or too small value)."""


@dataclass(frozen=True)
class RRPolynomial:
    """Degree-n polynomial with rational coefficients computing chi from q.

    ``coeffs`` is (c_0, ..., c_n), constant term first.
    """

    n: int
    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, n: int, coeffs: Sequence[Rational]) -> "RRPolynomial":
        if n < 1:
            raise RRError("half-dimension n must be a positive integer")
        if len(coeffs) != n + 1:
            raise RRError(f"expected {n + 1} coefficients for degree {n}, got {len(coeffs)}")
        return cls(n=n, coeffs=tuple(Fraction(c) for c in coeffs))

    def eval(self, q: Rational) -> Fraction:
        """Exact polynomial evaluation at q."""
        q = Fraction(q)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * q + c
        return total


def validate(P: RRPolynomial) -> tuple[bool, list[str]]:
    """Check constant term n+1 and strict positivity of higher coefficients."""
    violations = []
    if P.coeffs[0] != P.n + 1:
        violations.append(f"c_0 = {P.coeffs[0]}, expected n+1 = {P.n + 1}")
    for i, c in enumerate(P.coeffs[1:], start=1):
        if c <= 0:
            violations.append(f"c_{i} = {c} is not strictly positive")
    return (not violations, violations)


def h0_big_bk(P: RRPolynomial, q: Rational) -> int:
    """Section count h^0 = P(q) for a class of positive square in the BK shadow.

    The result must be an integer strictly greater than n+1; anything else
    means the polynomial cannot belong to a lattice containing the class.
    """
    q = Fraction(q)
    if q <= 0:
        raise PreconditionError(f"h0_big_bk requires q > 0, got {q}")
    value = P.eval(q)
    if value.denominator != 1:
        raise InconsistentInputError(f"P({q}) = {value} is not an integer")
    if value <= P.n + 1:
        raise InconsistentInputError(f"P({q}) = {value} is not > n+1 = {P.n + 1}")
    return int(value)


def lagrangian_h0(g: int, d: int) -> int:
    """Pullback section count binomial(d+g, g) from a projective g-space base."""
    return math.comb(d + g, g)


def _k3n_coeffs(n: int) -> tuple[Fraction, ...]:
    # expand binomial(q/2 + n + 1, n) = prod_{j=2}^{n+1} (q/2 + j) / n!
    poly = [Fraction(1)]
    for j in range(2, n + 2):
        new = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i] += c * j
            new[i + 1] += c / 2
        poly = new
    fact = math.factorial(n)
    return tuple(c / fact for c in poly)


def preset(name: str, n: Optional[int] = None) -> RRPolynomial:
    """Preset registry: ``k3`` (classical RR on a K3) and ``k3n`` with parameter n."""
    if name == "k3":
        if n not in (None, 1):
            raise RRError("the k3 preset has n = 1")
        return RRPolynomial.from_coeffs(1, [2, Fraction(1, 2)])
    if name == "k3n":
        if n is None or n < 1:
            raise RRError("the k3n preset requires a positive parameter n")
        return RRPolynomial.from_coeffs(n, _k3n_coeffs(n))
    raise RRError(f"unknown preset {name!r}")
