"""Rule engine classifying mobile+fixed decompositions A = M + sum b_j B_j.

Given a configuration (Gram table over the basis M, B_1, ..., B_{k+1} plus
multiplicities and flags), either derive the permitted shape of the fixed part
(a single prime component, or an A_k-style chain hanging off the mobile class)
or report the violated rule with a witness.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import gt, mul
from typing import Iterator, Optional, Sequence, Union

# pairing and bk_shadow_member are unused here since the rules read integer
# tables; they stay bound because perfbench/tracing.py wraps this module's
# bindings of them
from .lattice import (  # noqa: F401
    DivisorClass,
    GramLattice,
    LatticeError,
    MarkmanViolation,
    Rational,
    bk_shadow_member,
    divisibility_multiplier,
    dot,
    halve,
    lorentzian_embeddable,
    pairing,
    signature,
)
from .rr import PreconditionError, RRPolynomial, h0_big_bk

Certificate = tuple[tuple[str, str], ...]


class ConfigurationError(ValueError):
    """Structurally malformed configuration (shapes, flags, multiplicities)."""


class SetupError(ConfigurationError):
    """The configuration violates the standing setup invariants
    (positive square of A, BK shadow membership, Lorentzian embeddability)."""


@dataclass(frozen=True)
class Violation:
    rule: str
    witness: object = None
    detail: str = ""


#: Most sub-divisor verdicts a table's facts remember.  The search tries at
#: most prod(b_j + 1) of them per table (256 at max_multiplicity 3 with four
#: components); a document with huge multiplicities sweeps on without
#: growing the memo.
LEMMA1_MEMO_LIMIT = 4096


class _TableFacts:
    """What the setup check and the rules read that depends on the Gram table
    alone.  Built once per table, on the first Configuration over it, and kept
    in ``gram.cache`` (see ``_table_facts``); every Configuration over the
    table shares it, whatever its multiplicities and flags.

    ``negative``: basis indices of the components of negative square.
    ``labels``: the default basis labels.  ``m_in_bk``: whether M is in the BK
    shadow.  ``pairings_ok``: whether the distinct-primes and Markman checks of
    ``classify`` passed on this table (False until one has).  ``lemma1``: for
    each sub-divisor s seen so far, up to LEMMA1_MEMO_LIMIT of them,
    2 q(M + B_s) when M + B_s is in the BK shadow with positive square, else 0.
    """

    __slots__ = ("negative", "labels", "m_in_bk", "pairings_ok", "lemma1")

    def __init__(self, g: GramLattice):
        D = g.doubled
        self.negative = tuple(j for j in range(1, g.rank) if D[j][j] < 0)
        self.labels = ("M",) + tuple(f"B{j}" for j in range(1, g.rank))
        self.m_in_bk = all(D[0][j] >= 0 for j in self.negative)
        self.pairings_ok = False
        self.lemma1: dict[tuple[int, ...], int] = {}


def _table_facts(g: GramLattice) -> _TableFacts:
    facts = g.cache.get("deduction")
    if facts is None:
        facts = g.cache["deduction"] = _TableFacts(g)
    return facts


@dataclass(frozen=True)
class Configuration:
    """Candidate decomposition A = M + sum b_j B_j over the basis (M, B_1..B_{k+1}).

    ``m_primitive`` is "yes", "no" or "unknown"; ``rr`` optionally supplies the
    Riemann-Roch polynomial of the ambient manifold (dim 2n).
    """

    n: int
    gram: GramLattice
    multiplicities: tuple[int, ...]
    m_primitive: str = "unknown"
    a_ample: bool = False
    rr: Optional[RRPolynomial] = None
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "multiplicities", tuple(map(int, self.multiplicities)))
        # what depends on the table alone is shared through gram.cache; only
        # the row of A is this configuration's own (see the integer tables below)
        facts = _table_facts(self.gram)
        if not self.labels:
            object.__setattr__(self, "labels", facts.labels)
        object.__setattr__(self, "_facts", facts)
        object.__setattr__(self, "_a_row", self._row((1,) + self.multiplicities))

    # -- structural validation -------------------------------------------------

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigurationError("half-dimension n must be positive")
        if self.gram.rank < 2:
            raise ConfigurationError("a configuration needs the mobile class and at least one component")
        if len(self.multiplicities) != self.gram.rank - 1:
            raise ConfigurationError(
                f"expected {self.gram.rank - 1} multiplicities, got {len(self.multiplicities)}"
            )
        if min(self.multiplicities) < 1:
            raise ConfigurationError("multiplicities must be positive integers")
        if self.m_primitive not in ("yes", "no", "unknown"):
            raise ConfigurationError(f"m_primitive must be yes/no/unknown, got {self.m_primitive!r}")
        if len(self.labels) != self.gram.rank:
            raise ConfigurationError("labels must match the basis length")
        if self.rr is not None and self.rr.n != self.n:
            raise ConfigurationError(f"rr polynomial has n = {self.rr.n}, configuration has n = {self.n}")

    # -- derived classes -------------------------------------------------------

    @property
    def num_components(self) -> int:
        return self.gram.rank - 1

    def mobile(self) -> DivisorClass:
        coords = [0] * self.gram.rank
        coords[0] = 1
        return DivisorClass(tuple(coords), label=self.labels[0], kind="mobile")

    def component(self, j: int) -> DivisorClass:
        """Component B_j for 1 <= j <= k+1 (basis index j)."""
        coords = [0] * self.gram.rank
        coords[j] = 1
        return DivisorClass(tuple(coords), label=self.labels[j], kind="prime")

    def a_class(self) -> DivisorClass:
        return DivisorClass((1,) + self.multiplicities, label="A")

    def b_class(self) -> DivisorClass:
        return DivisorClass((0,) + self.multiplicities, label="B")

    def bk_member(self, x: DivisorClass) -> bool:
        if len(x.coords) != self.gram.rank:
            raise LatticeError(f"dimension mismatch: lattice rank {self.gram.rank}, vector of length {len(x.coords)}")
        return self._in_bk(self._row(x.coords))

    # -- integer tables --------------------------------------------------------
    # A class x is read through its row of doubled pairings 2 q(x, e_i) against
    # the basis (M, B_1, ...), taken from gram.doubled: the rules compare ints,
    # and a value is halved back only where a certificate reports it.
    # __post_init__ stores ``_a_row``, the row of A, and ``_facts``, the
    # table's _TableFacts.

    def _row(self, coords: Sequence[int]) -> list[int]:
        """2 q(x, e_i) for every basis class e_i, where x = sum coords_i e_i."""
        return [sum(map(mul, row, coords)) for row in self.gram.doubled]

    @property
    def _twice_square_a(self) -> int:
        """2 q(A)."""
        return dot(self._a_row, (1,) + self.multiplicities)

    def _in_bk(self, row: Sequence[int]) -> bool:
        """BK shadow membership of the class with this row: it pairs
        nonnegatively with every component of negative square."""
        return all(row[j] >= 0 for j in self._facts.negative)

    # -- setup invariants ------------------------------------------------------

    def check_setup(self) -> None:
        """Raise SetupError unless the standing invariants hold.

        A configuration is frozen, so once it has passed, a repeated check
        (``classify`` runs one after the search's own) returns at once.
        """
        if getattr(self, "_setup_passed", False):
            return
        self.validate()
        if self._twice_square_a <= 0:
            raise SetupError(f"setup requires q(A) > 0, got {halve(self._twice_square_a)}")
        if not self._in_bk(self._a_row):
            raise SetupError("setup requires A in the BK shadow")
        if not self._facts.m_in_bk:
            raise SetupError("setup requires M in the BK shadow")
        if not lorentzian_embeddable(self.gram):
            raise SetupError(
                f"gram is not Lorentzian-embeddable: signature {signature(self.gram).as_tuple()}"
            )
        object.__setattr__(self, "_setup_passed", True)


# -- classification results ----------------------------------------------------


@dataclass(frozen=True)
class PrimeFixed:
    """Fixed part is a single prime component of nonpositive square."""

    q_b: Rational
    certificate: Certificate = ()

    tag = "PrimeFixed"


@dataclass(frozen=True)
class Chain:
    """Fixed part is a reduced chain B_1 - ... - B_{k+1} hanging off M."""

    k: int
    d: int
    q_last: int
    order: tuple[int, ...] = ()  # basis indices in chain order
    certificate: Certificate = ()

    tag = "Chain"


@dataclass(frozen=True)
class Contradiction:
    """The configuration violates one of the derived rules."""

    rule: str
    witness: object = None
    certificate: Certificate = ()

    tag = "Contradiction"


ClassificationResult = Union[PrimeFixed, Chain, Contradiction]


# -- chain gram construction ---------------------------------------------------


def chain_gram(k: int, d: int, q_last: int, mode: str = "even") -> GramLattice:
    """The (k+2)x(k+2) Gram of the chain M - B_1 - ... - B_{k+1}.

    Interior components have square d, the terminal one square q_last, and
    consecutive classes pair to -d/2.  Parameters: k >= 1, d < -1 and
    -1 >= q_last >= d/2; in even mode d and q_last are even, in general mode
    either may be odd and -d/2 a half.
    """
    if k < 1:
        raise ConfigurationError(f"chain needs k >= 1, got {k}")
    if mode == "even":
        if d % 2 != 0 or d >= -1:
            raise ConfigurationError(f"chain needs even d < -1, got {d}")
        if q_last % 2 != 0:
            raise ConfigurationError(f"even mode needs even q_last, got {q_last}")
    elif d >= -1:
        raise ConfigurationError(f"chain needs d < -1, got {d}")
    if not (-1 >= q_last and 2 * q_last >= d):
        raise ConfigurationError(f"chain needs -1 >= q_last >= d/2, got q_last = {q_last}, d = {d}")
    size = k + 2
    half = halve(-d)
    rows = [[0] * size for _ in range(size)]
    rows[0][1] = rows[1][0] = half
    for j in range(1, k + 1):
        rows[j][j] = d
        rows[j][j + 1] = rows[j + 1][j] = half
    rows[k + 1][k + 1] = q_last
    return GramLattice.from_rows(rows, mode=mode)


def chain_configuration(
    k: int,
    d: int,
    q_last: int,
    n: int = 2,
    m_primitive: str = "yes",
    a_ample: bool = False,
    rr: Optional[RRPolynomial] = None,
) -> Configuration:
    """Configuration with unit multiplicities on chain_gram(k, d, q_last)."""
    g = chain_gram(k, d, q_last)
    return Configuration(
        n=n,
        gram=g,
        multiplicities=(1,) * (k + 1),
        m_primitive=m_primitive,
        a_ample=a_ample,
        rr=rr,
    )


def chain_mismatch(g: GramLattice, k: int, d: int, q_last: int, order: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first position (a, b) where ``g``, read in the basis order
    (M,) + order, differs from chain_gram(k, d, q_last) in ``g``'s own mode;
    None when they agree."""
    target = chain_gram(k, d, q_last, mode=g.mode).doubled
    perm = (0,) + tuple(order)
    D = g.doubled
    for a in range(g.rank):
        row = D[perm[a]]
        for b in range(g.rank):
            if row[perm[b]] != target[a][b]:
                return a, b
    return None


# -- individual rules ----------------------------------------------------------


def _sub_divisors(mults: Sequence[int], proper: bool = True) -> Iterator[tuple[int, ...]]:
    """All sub-multiplicity vectors 0 <= s_j <= b_j, optionally excluding s = b."""
    whole = tuple(mults)
    for s in itertools.product(*[range(b + 1) for b in whole]):
        if proper and s == whole:
            continue
        yield s


def _effective_sub_divisor(c: Configuration, S: Sequence[int]) -> tuple[int, ...]:
    s = tuple(S)
    if len(s) != c.gram.rank - 1 or min(s, default=0) < 0 or any(map(gt, s, c.multiplicities)):
        raise ConfigurationError(f"sub-divisor {s} is not an effective sub-divisor of B")
    return s


def rule_lemma1(c: Configuration, S: Sequence[int]) -> Optional[Violation]:
    """A proper effective B' <= B with M+B' in the BK shadow and q(M+B') > 0
    would absorb the rest of the fixed part: that contradicts B being fixed.
    The empty S also enforces the derived requirement q(M) = 0."""
    s = _effective_sub_divisor(c, S)
    if s == c.multiplicities:
        return None
    seen = c._facts.lemma1
    q2 = seen.get(s)
    if q2 is None:
        coords = (1,) + s
        row = c._row(coords)
        q2 = max(0, dot(row, coords)) if c._in_bk(row) else 0
        if len(seen) < LEMMA1_MEMO_LIMIT:
            seen[s] = q2
    if q2 > 0:
        return Violation(
            rule="lemma1",
            witness=s,
            detail=f"M + B' with B' = {s} is BK with q = {halve(q2)} > 0",
        )
    return None


def rule_notprimitive(c: Configuration) -> Optional[Violation]:
    """An imprimitive mobile class forces the fixed part to be prime."""
    if c.m_primitive != "no":
        raise ConfigurationError("rule_notprimitive requires m_primitive = no")
    if c.num_components > 1:
        return Violation(
            rule="notprimitive",
            witness=c.num_components,
            detail="M imprimitive but the fixed part has more than one component",
        )
    return None


def rule_lemma2(c: Configuration, S: Sequence[int]) -> Optional[Violation]:
    """With M primitive, a nonzero proper B' <= B that is isotropic and BK
    cannot exist."""
    if c.m_primitive != "yes":
        raise ConfigurationError("rule_lemma2 requires m_primitive = yes")
    s = _effective_sub_divisor(c, S)
    if s == c.multiplicities or not any(s):
        return None
    coords = (0,) + s
    row = c._row(coords)
    if dot(row, coords) == 0 and c._in_bk(row):
        return Violation(
            rule="lemma2",
            witness=s,
            detail=f"proper nonzero B' = {s} is isotropic and in the BK shadow",
        )
    return None


def rule_technical(c: Configuration, i: int, j: int) -> Optional[Violation]:
    """For consecutive negative components pairing to -q(B_i)/2: either the
    squares agree or the successor square halves; the successor square also
    divides the predecessor square (Markman)."""
    D = c.gram.doubled
    qi2, qj2, p2 = D[i][i], D[j][j], D[i][j]
    if qi2 >= 0 or qj2 >= 0 or 2 * p2 != -qi2:
        raise ConfigurationError("rule_technical requires q(B_i) < 0, q(B_j) < 0 and q(B_i,B_j) = -q(B_i)/2")
    m = divisibility_multiplier(halve(qj2), halve(p2))
    if isinstance(m, MarkmanViolation):
        return Violation(rule="technical-divisibility", witness=(i, j), detail=m.detail)
    if qi2 == qj2 or -2 * qj2 <= -qi2:
        return None
    return Violation(
        rule="technical",
        witness=(i, j),
        detail=f"q(B_i) = {halve(qi2)}, q(B_j) = {halve(qj2)}: neither equal nor -q(B_j) <= -q(B_i)/2",
    )


def rule_key(c: Configuration, j: int) -> Union[str, Violation]:
    """For a component pairing positively with M: either M+B_j stays in the BK
    shadow (case1) or 2M+B_j does, with the three case-2 identities."""
    D = c.gram.doubled
    pm2 = D[0][j]
    if pm2 <= 0:
        raise ConfigurationError("rule_key requires q(M, B_j) > 0")
    qj2 = D[j][j]
    if qj2 >= 0:
        return "case1"
    if c._in_bk([m + b for m, b in zip(D[0], D[j])]):
        return "case1"
    two_mb = [2 * m + b for m, b in zip(D[0], D[j])]  # the row of 2M + B_j
    checks = {
        "q(M,B_j) = -q(B_j)/2": 2 * pm2 == -qj2,
        "q(2M+B_j) = -q(B_j) > 0": 2 * two_mb[0] + two_mb[j] == -qj2 and -qj2 > 0,
        "q(A) < -q(B_j)": c._twice_square_a < -qj2,
        "2M+B_j in BK shadow": c._in_bk(two_mb),
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        return Violation(rule="key", witness=j, detail="; ".join(failed))
    return "case2"


def rule_ample(c: Configuration) -> Optional[Violation]:
    """With A ample, no effective nonzero combination of components may be
    orthogonal to A (so ample A forces the prime-fixed case)."""
    if not c.a_ample:
        return None
    pair_vals = c._a_row[1:]  # 2 q(A, B_j)
    for s in _sub_divisors(c.multiplicities, proper=False):
        if all(si == 0 for si in s):
            continue
        total = sum(si * p for si, p in zip(s, pair_vals))
        if total == 0:
            return Violation(
                rule="ample-orthogonal",
                witness=s,
                detail=f"effective combination {s} has q(A, e) = 0 although A is ample",
            )
    return None


# -- full classification -------------------------------------------------------


def classify(c: Configuration) -> ClassificationResult:
    """Run all rules plus the step-wise chain deductions.

    Returns PrimeFixed for a single nonpositive-square component, Chain when
    the Gram matches a chain instance after renumbering, and Contradiction
    naming the first violated rule otherwise.  With m_primitive unknown, both
    primitivity branches are evaluated and the certificate records each; the
    checks that do not depend on primitivity run once, ahead of both.
    """
    c.check_setup()
    cert: list[tuple[str, str]] = []
    stop = _classify_prefix(c, cert)
    if c.m_primitive != "unknown":
        return stop or _classify_branch(c, cert, primitive=c.m_primitive == "yes")
    if stop is not None:
        res_yes = res_no = stop
    else:
        res_yes = _classify_branch(c, list(cert), primitive=True)
        res_no = _classify_branch(c, cert, primitive=False)
    note = (
        "m-primitive-branches",
        f"primitive: {res_yes.tag}; imprimitive: {res_no.tag}",
    )
    if not isinstance(res_yes, Contradiction):
        return _with_cert(res_yes, note)
    if not isinstance(res_no, Contradiction):
        return _with_cert(res_no, note)
    return _with_cert(res_yes, note)


def _with_cert(result: ClassificationResult, *extra: tuple[str, str]) -> ClassificationResult:
    cert = result.certificate + tuple(extra)
    if isinstance(result, PrimeFixed):
        return PrimeFixed(result.q_b, cert)
    if isinstance(result, Chain):
        return Chain(result.k, result.d, result.q_last, result.order, cert)
    return Contradiction(result.rule, result.witness, cert)


def _contradiction(cert: list[tuple[str, str]], rule: str, witness=None, detail: str = "") -> Contradiction:
    """Record the violated rule in the certificate and return the result."""
    cert.append((rule, f"violated: {detail}" if detail else "violated"))
    return Contradiction(rule=rule, witness=witness, certificate=tuple(cert))


def _classify_prefix(c: Configuration, cert: list[tuple[str, str]]) -> Optional[Contradiction]:
    """The checks that do not depend on primitivity, shared by both branches:
    the first violation as a Contradiction, or None when all pass."""
    g = c.gram
    D = g.doubled
    facts = c._facts

    if not facts.pairings_ok:
        # distinct prime divisors pair nonnegatively; the mobile class is
        # effective and meets no component in its general member, so its
        # pairings are nonnegative as well
        for i in range(g.rank):
            for j in range(1, g.rank):
                if i != j and D[i][j] < 0:
                    return _contradiction(
                        cert, "distinct-primes-pairing",
                        (i, j),
                        f"q({c.labels[i]},{c.labels[j]}) = {g.entries[i][j]} < 0 between distinct effective classes",
                    )

        # Markman divisibility against every basis class
        for j in facts.negative:
            qj = halve(D[j][j])
            for i in range(g.rank):
                if i == j:
                    continue
                m = divisibility_multiplier(qj, halve(D[i][j]))
                if isinstance(m, MarkmanViolation):
                    return _contradiction(cert, "markman-divisibility", (j, i), m.detail)
        facts.pairings_ok = True
    cert.append(("markman-divisibility", "pass"))

    # absorption sweep: no proper sub-divisor may yield a big BK class M + B'
    for s in _sub_divisors(c.multiplicities):
        v = rule_lemma1(c, s)
        if v is not None:
            return _contradiction(cert, v.rule, v.witness, v.detail)
    cert.append(("lemma1", "pass"))

    if D[0][0] != 0:
        # q(M) > 0 is caught by the sweep above (empty sub-divisor); q(M) < 0
        # contradicts M being mobile with positive pairing against A
        return _contradiction(cert, "final-sanity-mobile-square", None, f"q(M) = {g.entries[0][0]} != 0")
    return None


def _classify_branch(c: Configuration, cert: list[tuple[str, str]], primitive: bool) -> ClassificationResult:
    """The rest of the classification for one primitivity branch, after a
    passing ``_classify_prefix`` whose entries ``cert`` already holds."""
    g = c.gram
    D = g.doubled

    if not primitive:
        v = rule_notprimitive(_force_primitivity(c, "no"))
        if v is not None:
            return _contradiction(cert, v.rule, v.witness, v.detail)
        cert.append(("notprimitive", "pass"))
    else:
        forced = _force_primitivity(c, "yes")
        for s in _sub_divisors(c.multiplicities):
            v = rule_lemma2(forced, s)
            if v is not None:
                return _contradiction(cert, v.rule, v.witness, v.detail)
        cert.append(("lemma2", "pass"))

    if c.a_ample:
        v = rule_ample(c)
        if v is not None:
            return _contradiction(cert, v.rule, v.witness, v.detail)
        cert.append(("ample-orthogonal", "pass"))

    neighbors = [j for j in range(1, g.rank) if D[0][j] > 0]
    if not neighbors:
        return _contradiction(cert, "final-sanity-mobile-pairing", None, "q(M, B) <= 0")

    if c.num_components == 1:
        return _classify_prime(c, cert, neighbors[0])
    return _classify_chain(c, cert, neighbors)


def _force_primitivity(c: Configuration, value: str) -> Configuration:
    if c.m_primitive == value:
        return c
    return Configuration(
        n=c.n,
        gram=c.gram,
        multiplicities=c.multiplicities,
        m_primitive=value,
        a_ample=c.a_ample,
        rr=c.rr,
        labels=c.labels,
    )


def _classify_prime(c: Configuration, cert: list[tuple[str, str]], j: int) -> ClassificationResult:
    b1 = c.multiplicities[0]
    d = halve(c.gram.doubled[j][j])

    if b1 != 1:
        # the fixed part is reduced: a higher multiplicity either breaks
        # q(A) > 0 (caught in setup) or the absorption sweep; reaching this
        # point it fails the step-1 multiplicity bound
        return _contradiction(cert, "step1-multiplicity", j, f"b_1 = {b1} > 1")
    outcome = rule_key(c, j)
    if isinstance(outcome, Violation):
        return _contradiction(cert, outcome.rule, outcome.witness, outcome.detail)
    cert.append(("key", outcome))
    if d > 0:
        return _contradiction(cert, "final-sanity-fixed-square", j, f"q(B) = {d} > 0")
    cert.append(("final-sanity", "pass"))
    return PrimeFixed(q_b=d, certificate=tuple(cert))


def _classify_chain(c: Configuration, cert: list[tuple[str, str]], neighbors: list[int]) -> ClassificationResult:
    g = c.gram
    D = g.doubled
    a_row = c._a_row

    # with several components every component must have negative square: a
    # nonnegative-square prime is a BK member, and absorbing it through the
    # lemma1/lemma2 arguments contradicts B being the whole fixed part
    for j in range(1, g.rank):
        if D[j][j] >= 0:
            qj = g.entries[j][j]
            if not c._in_bk(D[j]):
                return _contradiction(
                    cert, "nonneg-component-not-bk", j,
                    f"prime component with q = {qj} >= 0 must be in the BK shadow",
                )
            return _contradiction(
                cert, "nonneg-square-component", j,
                f"component with q = {qj} >= 0 in a multi-component fixed part",
            )

    # Step 1: the mobile class has a unique chain neighbor B_1, of maximal
    # square among the candidates, with b_1 = 1 and q(A, B_1) = 0
    b1_idx = max(neighbors, key=lambda j: (D[j][j], -j))
    d2 = D[b1_idx][b1_idx]
    d = halve(d2)
    if c.multiplicities[b1_idx - 1] != 1:
        return _contradiction(cert, "step1-multiplicity", b1_idx, f"b_1 = {c.multiplicities[b1_idx - 1]} > 1")
    outcome = rule_key(c, b1_idx)
    if isinstance(outcome, Violation):
        return _contradiction(cert, outcome.rule, outcome.witness, outcome.detail)
    cert.append(("key", outcome))
    if outcome == "case1":
        # M+B_1 in the BK shadow forces A = M+B_1, impossible with k+1 >= 2;
        # with q(M+B_1) > 0 the absorption sweep already fired, so here
        # q(M+B_1) = 0, which pins m = 2 against the Markman count
        return _contradiction(cert, "step1-absorption", b1_idx, "M+B_1 in BK shadow with several components left")
    if not c._twice_square_a < -d2:
        return _contradiction(
            cert, "step1-qA-bound", b1_idx, f"q(A) = {halve(c._twice_square_a)} is not < -q(B_1) = {-d}"
        )
    if d2 >= -2:
        return _contradiction(cert, "step1-square-bound", b1_idx, f"q(B_1) = {d} is not < -1")
    for j in neighbors:
        if j != b1_idx:
            return _contradiction(
                cert, "step1-unique-M-neighbor", j,
                f"second component {c.labels[j]} pairs positively with M",
            )
    if a_row[b1_idx] != 0:
        return _contradiction(
            cert, "step1-A-orthogonality", b1_idx,
            f"q(A, B_1) = {halve(a_row[b1_idx])} != 0",
        )
    cert.append(("step1", f"B_1 = {c.labels[b1_idx]}, d = {d}"))

    # Steps 2-3: discover the chain greedily; each interior node has square d,
    # exactly one unplaced successor pairing to -d/2 with multiplicity one
    order = [b1_idx]
    placed = {b1_idx}
    step = 2
    while len(placed) < c.num_components:
        last = order[-1]
        if D[last][last] != d2:
            v = rule_technical(c, order[-2] if len(order) > 1 else order[-1], last) if len(order) > 1 else None
            detail = f"interior component {c.labels[last]} has q = {g.entries[last][last]} != d = {d}"
            if isinstance(v, Violation):
                detail += f" ({v.detail})"
            return _contradiction(cert, f"step{min(step, 3)}-interior-square", last, detail)
        if a_row[last] != 0:
            return _contradiction(
                cert, f"step{min(step, 3)}-A-orthogonality", last,
                f"q(A, {c.labels[last]}) = {halve(a_row[last])} != 0",
            )
        succ = [j for j in range(1, g.rank) if j not in placed and D[last][j] != 0]
        if len(succ) != 1:
            return _contradiction(
                cert, f"step{min(step, 3)}-successor", last,
                f"{c.labels[last]} has {len(succ)} unplaced neighbors, expected exactly one",
            )
        nxt = succ[0]
        if 2 * D[last][nxt] != -d2:
            return _contradiction(
                cert, f"step{min(step, 3)}-successor-pairing", (last, nxt),
                f"q({c.labels[last]},{c.labels[nxt]}) = {g.entries[last][nxt]} != -d/2 = {-Fraction(d, 2)}",
            )
        if c.multiplicities[nxt - 1] != 1:
            return _contradiction(
                cert, f"step{min(step, 3)}-multiplicity", nxt,
                f"b = {c.multiplicities[nxt - 1]} > 1 on {c.labels[nxt]}",
            )
        order.append(nxt)
        placed.add(nxt)
        step += 1
    cert.append(("step2-3", "chain order " + " - ".join(c.labels[j] for j in order)))

    # Step 4: terminal bound and exact chain-gram match
    terminal = order[-1]
    q2 = D[terminal][terminal]
    q_last = halve(q2)
    if not (-2 >= q2 and 2 * q2 >= d2):
        return _contradiction(
            cert, "step4-terminal-bound", terminal,
            f"q(B_last) = {q_last} outside [-d/2 bound]: need -1 >= q_last >= d/2 = {Fraction(d, 2)}",
        )
    k = len(order) - 1
    mismatch = chain_mismatch(g, k, d, q_last, order)
    if mismatch is not None:
        a, b = mismatch
        perm = [0] + order
        target = chain_gram(k, d, q_last, mode=g.mode)
        return _contradiction(
            cert, "chain-gram-mismatch", (perm[a], perm[b]),
            f"entry ({a},{b}) is {g.entries[perm[a]][perm[b]]}, chain form needs {target.entries[a][b]}",
        )
    cert.append(("step4", f"q_last = {q_last}"))

    # final sanity of the theorem's closing line
    b_coords = (0,) + c.multiplicities
    b_row = c._row(b_coords)
    if dot(b_row, b_coords) > 0:
        return _contradiction(cert, "final-sanity-fixed-square", None, f"q(B) = {halve(dot(b_row, b_coords))} > 0")
    if b_row[0] <= 0:
        return _contradiction(cert, "final-sanity-mobile-pairing", None, f"q(M,B) = {halve(b_row[0])} <= 0")
    cert.append(("final-sanity", "pass"))
    return Chain(k=k, d=d, q_last=q_last, order=tuple(order), certificate=tuple(cert))


# -- |2A| mobility -------------------------------------------------------------


@dataclass(frozen=True)
class MobilitySubset:
    subset: tuple[int, ...]
    bk: bool
    q_m2: Rational
    lower_bound: int
    links_ok: bool
    passed: bool


@dataclass(frozen=True)
class MobilityReport:
    ok: bool
    lower_bound: int
    subsets: tuple[MobilitySubset, ...]


def check_2A_mobility(c: Configuration) -> MobilityReport:
    """Certify that |2A| has no fixed part, subset by subset.

    For every reduced candidate fixed part B' <= B the would-be mobile part
    M' = 2M + B + (B - B') is examined.  The true mobile part of |2A| lies in
    the BK shadow, so a BK failure rules the nonzero candidate out directly;
    when BK holds, the inequality chain
    q(M') >= q(M', 2M+B) >= 2 q(M', M) >= 2 q(2M+B, M) = 2 q(B, M) > 0
    is verified link by link and the absorption rule then forces B' = 0.
    The empty candidate must pass both tests as the consistent outcome.
    """
    result = classify(c)
    if isinstance(result, Contradiction):
        raise ConfigurationError("check_2A_mobility requires a non-contradictory configuration")
    m_row = c.gram.doubled[0]
    b_coords = (0,) + c.multiplicities
    bound = dot(m_row, b_coords)  # 2 q(B, M)
    entries = []
    ok = bound > 0
    for s in _sub_divisors((1,) * c.num_components, proper=False):
        # M' = 2M + 2B - B' with B' the candidate subset (B reduced here)
        mp_coords = (2,) + tuple(2 * b - si for b, si in zip(c.multiplicities, s))
        diff = (0,) + tuple(b - si for b, si in zip(c.multiplicities, s))
        mp_row = c._row(mp_coords)
        bk = c._in_bk(mp_row)
        q2_m2 = dot(mp_row, mp_coords)
        links_ok = (
            dot(mp_row, diff) >= 0             # q(M') >= q(M', 2M+B)
            and dot(mp_row, b_coords) >= 0     # q(M', 2M+B) >= 2 q(M', M)
            and dot(m_row, diff) >= 0          # q(M', M) >= q(2M+B, M)
            and q2_m2 >= 2 * bound > 0         # down to 2 q(B, M) > 0
        )
        nonzero = any(si > 0 for si in s)
        if bk:
            # absorption applies: the candidate is ruled out (or, for the
            # empty candidate, consistently confirmed) iff the chain holds
            passed = links_ok
        else:
            # a nonzero candidate whose mobile part leaves the BK shadow is
            # impossible outright; the empty candidate must stay BK
            passed = nonzero
        entries.append(
            MobilitySubset(subset=s, bk=bk, q_m2=halve(q2_m2), lower_bound=bound, links_ok=links_ok, passed=passed)
        )
        ok = ok and passed
    entries.sort(key=lambda e: e.subset)
    return MobilityReport(ok=ok, lower_bound=bound, subsets=tuple(entries))


# -- fourfold endgame ----------------------------------------------------------


def hk4_negative_square_step(qL_B1, P: RRPolynomial) -> bool:
    """Rule out a square-zero fixed component on a fourfold with a
    Lagrangian-type mobile part: with q(L, B_1) > 0 the class L + B_1 would
    carry P(2 q(L,B_1)) > 3 sections, while a fixed component caps h^0 at 3.
    """
    qL_B1 = Fraction(qL_B1)
    if qL_B1 <= 0:
        raise PreconditionError(f"hk4_negative_square_step requires q(L,B_1) > 0, got {qL_B1}")
    if P.n != 2:
        raise PreconditionError(f"the fourfold step needs an n = 2 polynomial, got n = {P.n}")
    return h0_big_bk(P, 2 * qL_B1) > 3
