"""Bounded exhaustive search over configuration space.

Acts as an independent brute-force check of the two-case classification: every
configuration surviving the necessary numerical conditions must be a single
nonpositive prime component or an exact chain instance.  The search space is
enumerated up to basis permutation (the mobile class stays first) with
canonical-form deduplication, and is partitioned for parallel evaluation.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .deduction import (
    Chain,
    ClassificationResult,
    Configuration,
    Contradiction,
    PrimeFixed,
    SetupError,
    chain_mismatch,
    classify,
)
from .lattice import GramLattice, Rational, halve, lorentzian_embeddable
from .rr import RRPolynomial


class BudgetExceededError(RuntimeError):
    """The configured search budget was exhausted; never truncate silently."""


class WorkerSettingError(ValueError):
    """HK_THREADS is set to something other than an integer."""


@dataclass(frozen=True)
class SearchBounds:
    max_components: int
    entry_bound: int
    square_min: int
    max_multiplicity: int = 2
    n: int = 2
    parity_mode: str = "even"
    rr: Optional[RRPolynomial] = None
    budget: int = 20_000_000

    def validate(self) -> None:
        if self.max_components < 0:
            raise ValueError("max_components must be nonnegative")
        if self.entry_bound < 1:
            raise ValueError("entry_bound must be positive")
        if self.square_min >= 0 or self.square_min % 2 != 0:
            raise ValueError("square_min must be a negative even integer")
        if self.max_multiplicity < 1:
            raise ValueError("max_multiplicity must be positive")
        if self.parity_mode not in ("even", "general"):
            raise ValueError(f"unknown parity mode {self.parity_mode!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.rr is not None and self.rr.n != self.n:
            raise ValueError("rr polynomial half-dimension must match bounds.n")


@dataclass(frozen=True)
class SurvivorRecord:
    configuration: Configuration
    classification: ClassificationResult

    @property
    def certificate(self):
        return self.classification.certificate


@dataclass
class EnumerationStats:
    candidates: int = 0
    rejected: dict = field(default_factory=dict)
    multiplicity_rejected: dict = field(default_factory=dict)

    def note_rejection(self, rule: str, has_high_multiplicity: bool) -> None:
        self.rejected[rule] = self.rejected.get(rule, 0) + 1
        if has_high_multiplicity:
            self.multiplicity_rejected[rule] = self.multiplicity_rejected.get(rule, 0) + 1

    def merge(self, other: "EnumerationStats") -> None:
        self.candidates += other.candidates
        for k, v in other.rejected.items():
            self.rejected[k] = self.rejected.get(k, 0) + v
        for k, v in other.multiplicity_rejected.items():
            self.multiplicity_rejected[k] = self.multiplicity_rejected.get(k, 0) + v


# -- value ranges ---------------------------------------------------------------


# Table entries are ints; only general mode's pairing values include
# Fraction halves.


def _component_squares(b: SearchBounds, c: int) -> list[int]:
    # a nonnegative-square prime component never survives classification when
    # several components are present, and a positive square never survives at
    # all; restricting the range here is pure pruning
    top = 0 if c == 1 else -1
    lo, hi = b.square_min, min(top, b.entry_bound)
    if b.parity_mode == "even":
        return [q for q in range(lo, hi + 1) if q % 2 == 0]
    return list(range(lo, hi + 1))


def _pairing_values(b: SearchBounds) -> list[Rational]:
    # distinct effective classes pair nonnegatively
    if b.parity_mode == "even":
        return list(range(0, b.entry_bound + 1))
    return [halve(v) for v in range(0, 2 * b.entry_bound + 1)]


def _is_multiple_of_half(value: Rational, q: int) -> bool:
    # Markman: q < 0, value must be a multiple of -q/2, i.e. -q divides 2 value
    return int(2 * value) % q == 0


# -- per-partition generation ---------------------------------------------------


def _least_flattening(rows: list[list[Rational]]) -> tuple[tuple, list[tuple[int, ...]]]:
    """The lexicographically least row-major flattening of ``rows`` under
    component permutations, with every permutation that attains it."""
    best, perms = None, []
    for perm in itertools.permutations(range(1, len(rows))):
        full = (0,) + perm
        flat = tuple(rows[i][j] for i in full for j in full)
        if best is None or flat < best:
            best, perms = flat, [perm]
        elif flat == best:
            perms.append(perm)
    return best, perms


def _canonical_key(least: tuple[tuple, list[tuple[int, ...]]], mults: tuple[int, ...]) -> tuple:
    """Lexicographically minimal (gram, mults) under component permutations,
    from the table's ``_least_flattening``: only the permutations attaining
    the least table can attain the least pair."""
    flat, perms = least
    return flat, min(tuple(mults[p - 1] for p in perm) for perm in perms)


def _grams_for_squares(b: SearchBounds, squares: tuple[int, ...], stats: EnumerationStats) -> Iterator[list[list[Rational]]]:
    """All Gram tables with the given component squares (sorted descending).

    q(M) = 0 throughout (the absorption rule forces it), exactly one component
    pairs positively with M (the unique-neighbor deduction; both facts are
    multiplicity-independent, so no candidate relevant to the classification
    is lost), and all pairings satisfy the Markman divisibility.
    """
    c = len(squares)
    pair_vals = _pairing_values(b)

    def markman_ok(value: Rational, q1: int, q2: int) -> bool:
        if q1 < 0 and not _is_multiple_of_half(value, q1):
            return False
        if q2 < 0 and not _is_multiple_of_half(value, q2):
            return False
        return True

    # M-pairings: one positive entry, the rest zero
    pm_choices = []
    for anchor in range(c):
        q_a = squares[anchor]
        positives = [v for v in pair_vals if v > 0 and (q_a >= 0 or _is_multiple_of_half(v, q_a))]
        for v in positives:
            pm = [0] * c
            pm[anchor] = v
            pm_choices.append(pm)

    offdiag_positions = [(i, j) for i in range(c) for j in range(i + 1, c)]
    offdiag_options = [
        [v for v in pair_vals if markman_ok(v, squares[i], squares[j])]
        for (i, j) in offdiag_positions
    ]

    for pm in pm_choices:
        for combo in itertools.product(*offdiag_options):
            rows = [[0] * (c + 1) for _ in range(c + 1)]
            for i in range(c):
                rows[0][i + 1] = rows[i + 1][0] = pm[i]
                rows[i + 1][i + 1] = squares[i]
            for (i, j), v in zip(offdiag_positions, combo):
                rows[i + 1][j + 1] = rows[j + 1][i + 1] = v
            yield rows


def _evaluate_partition(args) -> tuple[list[tuple], EnumerationStats]:
    """Worker: all candidates with one component count and square multiset."""
    b, squares = args
    c = len(squares)
    stats = EnumerationStats()
    survivors: dict[tuple, tuple] = {}
    mult_vectors = list(itertools.product(range(1, b.max_multiplicity + 1), repeat=c))
    for rows in _grams_for_squares(b, squares, stats):
        # a generated table is always valid: a LatticeError here is a bug
        gram = GramLattice.from_rows(rows, mode=b.parity_mode)
        if not lorentzian_embeddable(gram):
            stats.candidates += len(mult_vectors)
            _check_budget(stats, b)
            continue
        least = _least_flattening(rows)
        for mults in mult_vectors:
            stats.candidates += 1
            _check_budget(stats, b)
            key = _canonical_key(least, mults)
            if key in survivors:
                continue
            cfg = Configuration(
                n=b.n, gram=gram, multiplicities=mults,
                m_primitive="unknown", a_ample=False, rr=b.rr,
            )
            high_mult = any(m >= 2 for m in mults)
            try:
                cfg.check_setup()
            except SetupError:
                # setup failures are non-candidates, not rule rejections
                continue
            if b.rr is not None and b.rr.eval(halve(cfg._twice_square_a)).denominator != 1:
                stats.note_rejection("rr-nonintegral", high_mult)
                continue
            result = classify(cfg)
            if isinstance(result, Contradiction):
                stats.note_rejection(result.rule, high_mult)
                continue
            survivors[key] = (key, cfg, result)
    ordered = sorted(survivors.values(), key=lambda t: t[0])
    return ordered, stats


def _check_budget(stats: EnumerationStats, b: SearchBounds) -> None:
    if stats.candidates > b.budget:
        raise BudgetExceededError(
            f"search budget of {b.budget} candidate configurations exceeded"
        )


def _partitions(b: SearchBounds) -> list[tuple[SearchBounds, tuple[int, ...]]]:
    tasks = []
    for c in range(1, b.max_components + 1):
        vals = _component_squares(b, c)
        # squares sorted non-increasing: one representative per multiset
        for squares in itertools.combinations_with_replacement(sorted(vals, reverse=True), c):
            tasks.append((b, squares))
    return tasks


def _worker_count(tasks: int) -> int:
    env = os.environ.get("HK_THREADS", "").strip()
    if env:
        try:
            workers = max(1, int(env))
        except ValueError:
            raise WorkerSettingError(f"HK_THREADS must be an integer, got {env!r}") from None
    else:
        workers = os.cpu_count() or 1
    return min(workers, max(1, tasks))


def enumerate_survivors(b: SearchBounds) -> tuple[list[SurvivorRecord], EnumerationStats]:
    """All surviving configurations within bounds, canonically ordered."""
    b.validate()
    tasks = _partitions(b)
    stats = EnumerationStats()
    results = []
    workers = _worker_count(len(tasks))
    if workers > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            outputs = pool.map(_evaluate_partition, tasks)
    else:
        outputs = [_evaluate_partition(t) for t in tasks]
    for ordered, part_stats in outputs:
        stats.merge(part_stats)
        results.extend(ordered)
    if stats.candidates > b.budget:
        raise BudgetExceededError(
            f"search budget of {b.budget} candidate configurations exceeded"
        )
    results.sort(key=lambda t: (t[1].num_components, t[0]))
    return [SurvivorRecord(cfg, res) for _, cfg, res in results], stats


@dataclass
class VerificationReport:
    survivor_count: int
    chain_count: int
    prime_count: int
    counterexamples: list
    stats: EnumerationStats
    rule_set: str
    parity_mode: str
    hypothetical: bool

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_classification(b: SearchBounds) -> tuple[VerificationReport, list[SurvivorRecord]]:
    """Enumerate and independently re-check every survivor against the
    two-case description; a nonempty counterexample list is the headline
    failure signal."""
    survivors, stats = enumerate_survivors(b)
    chain_count = prime_count = 0
    counterexamples = []
    for rec in survivors:
        res = rec.classification
        if isinstance(res, PrimeFixed):
            prime_count += 1
            if rec.configuration.num_components != 1 or res.q_b > 0:
                counterexamples.append((rec, "prime-fixed shape violated"))
        elif isinstance(res, Chain):
            chain_count += 1
            if chain_mismatch(rec.configuration.gram, res.k, res.d, res.q_last, res.order) is not None:
                counterexamples.append((rec, "chain gram mismatch"))
        else:
            counterexamples.append((rec, "survivor classified as contradiction"))
        recheck = classify(rec.configuration)
        if isinstance(recheck, Contradiction):
            counterexamples.append((rec, f"re-check contradicts: {recheck.rule}"))
    report = VerificationReport(
        survivor_count=len(survivors),
        chain_count=chain_count,
        prime_count=prime_count,
        counterexamples=counterexamples,
        stats=stats,
        rule_set="lemma-rules+riemann-roch" if b.rr is not None else "lemma-rules",
        parity_mode=b.parity_mode,
        hypothetical=b.parity_mode == "general",
    )
    return report, survivors
