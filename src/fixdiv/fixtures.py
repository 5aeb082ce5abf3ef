"""Executable fixtures reproducing the classical worked examples.

Each fixture returns a list of exact checks (description, expected, computed);
expected failures, like the degree-1 cases that fall out of the birational
Kaehler shadow, are reported as informative passes so that a predicted failure
is distinguishable from a toolkit bug.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .deduction import (
    Chain,
    Configuration,
    PrimeFixed,
    chain_configuration,
    check_2A_mobility,
    classify,
    hk4_negative_square_step,
)
from .lattice import DivisorClass, GramLattice, pairing, signature, square
from .rr import lagrangian_h0, preset


@dataclass(frozen=True)
class FixtureCheck:
    description: str
    expected: object
    computed: object

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


@dataclass
class FixtureResult:
    name: str
    checks: list[FixtureCheck] = field(default_factory=list)

    def add(self, description: str, expected, computed) -> None:
        # the lattice layer returns integral values as ints; a check with a
        # rational expectation reports its computed value as a rational too
        if isinstance(expected, Fraction) and type(computed) is int:
            computed = Fraction(computed)
        self.checks.append(FixtureCheck(description, expected, computed))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def mayer_fixture(d: int) -> FixtureResult:
    """Arithmetic of a nef and big class dL + B on a K3 with an elliptic
    fibration L and a section B (so q(L) = 0, q(B) = -2, q(L,B) = 1)."""
    if d < 1:
        raise ValueError("mayer_fixture requires d >= 1")
    out = FixtureResult(name=f"mayer(d={d})")
    ambient = GramLattice.from_rows([[0, 1], [1, -2]])
    a = DivisorClass((d, 1), label="dL+B")
    b = DivisorClass((0, 1), label="B", kind="prime")
    q_a = square(ambient, a)
    out.add("q(dL+B) = 2d-2", Fraction(2 * d - 2), q_a)

    p = preset("k3")
    out.add("P_K3(2d-2) = d+1", Fraction(d + 1), p.eval(q_a))
    out.add("d+1 = h0(P^1, O(d))", d + 1, lagrangian_h0(1, d))

    cfg = Configuration(
        n=1,
        gram=GramLattice.from_rows([[0, d], [d, -2]]),
        multiplicities=(1,),
        m_primitive="no" if d >= 2 else "yes",
        rr=p,
        labels=("M", "B"),
    )
    if d >= 2:
        out.add("A in BK shadow", True, cfg.bk_member(cfg.a_class()))
        result = classify(cfg)
        out.add("classification", "PrimeFixed", result.tag)
        if isinstance(result, PrimeFixed):
            out.add("q(B)", Fraction(-2), result.q_b)
        out.add("|2A| mobile", True, check_2A_mobility(cfg).ok)
    else:
        # d = 1: the theorem predicts failure, q(A, B) = -1 < 0
        out.add("BK failure predicted at d=1", False, cfg.bk_member(cfg.a_class()))
        out.add("q(A, B)", Fraction(-1), pairing(ambient, a, b))
    return out


def beauville_mukai_fixture(g: int, d: int, qFB: int = 1) -> FixtureResult:
    """The relative-Jacobian system: A = dF + B over a genus-g base, with
    q(B) = -2 and the fibre class F isotropic pairing qFB against B."""
    if g < 2 or d < 1 or qFB < 1:
        raise ValueError("beauville_mukai_fixture requires g >= 2, d >= 1, qFB >= 1")
    out = FixtureResult(name=f"beauville-mukai(g={g}, d={d}, qFB={qFB})")
    ambient = GramLattice.from_rows([[0, qFB], [qFB, -2]])
    a = DivisorClass((d, 1), label="dF+B")
    q_a = square(ambient, a)
    out.add("q(A) = 2d*qFB - 2", Fraction(2 * d * qFB - 2), q_a)

    p = preset("k3n", g)
    cfg = Configuration(
        n=g,
        gram=GramLattice.from_rows([[0, d * qFB], [d * qFB, -2]]),
        multiplicities=(1,),
        m_primitive="no" if d >= 2 else "yes",
        rr=p,
        labels=("M", "B"),
    )
    bk = cfg.bk_member(cfg.a_class())
    out.add("A in BK shadow iff d*qFB >= 2", d * qFB >= 2, bk)
    if bk:
        # h0(A) = h0(dF): the numerical witness that B is fixed
        out.add(
            "P(q(A)) = h0(P^g, O(d))",
            Fraction(lagrangian_h0(g, d)),
            p.eval(q_a),
        )
        result = classify(cfg)
        out.add("classification", "PrimeFixed", result.tag)
        if isinstance(result, PrimeFixed):
            out.add("q(B)", Fraction(-2), result.q_b)
        out.add("|2A| mobile", True, check_2A_mobility(cfg).ok)
    else:
        out.add("q(A, B) at d*qFB = 1", Fraction(-1), Fraction(d * qFB - 2))
    return out


def hk4_fixture(qLB: int) -> FixtureResult:
    """Fourfold endgame: a square-zero fixed component is impossible because
    L + B_1 would carry P(2 q(L,B_1)) > 3 sections."""
    out = FixtureResult(name=f"hk4(qLB={qLB})")
    p = preset("k3n", 2)
    value = p.eval(2 * qLB) if qLB > 0 else None
    confirmed = hk4_negative_square_step(qLB, p)
    out.add(f"P(2*{qLB}) = {value} exceeds 3", True, value is not None and value > 3)
    out.add("contradiction confirmed", True, confirmed)
    return out


def chain_fixture(k: int, d: int, q_last: int, n: int = 2) -> FixtureResult:
    """Round-trip of the chain construction through the classifier."""
    cfg = chain_configuration(k, d, q_last, n=n)
    out = FixtureResult(name=f"chain(k={k}, d={d}, q_last={q_last})")
    g = cfg.gram
    a = cfg.a_class()
    out.add("q(A) = q_last - d", Fraction(q_last - d), square(g, a))
    out.add("signature (1, 0, k+1)", (1, 0, k + 1), signature(g).as_tuple())
    for j in range(1, k + 1):
        out.add(f"q(A, B_{j}) = 0", Fraction(0), pairing(g, a, cfg.component(j)))
    result = classify(cfg)
    out.add("classification", "Chain", result.tag)
    if isinstance(result, Chain):
        out.add("chain parameters", (k, d, q_last), (result.k, int(result.d), int(result.q_last)))
    out.add("|2A| mobile", True, check_2A_mobility(cfg).ok)
    return out


def fixture_to_dict(result: FixtureResult) -> dict:
    from .report import _jsonable

    return {
        "name": result.name,
        "ok": result.ok,
        "checks": [
            {
                "description": c.description,
                "expected": _jsonable(c.expected),
                "computed": _jsonable(c.computed),
                "pass": c.passed,
            }
            for c in result.checks
        ],
    }
