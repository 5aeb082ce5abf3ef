"""Per-layer counters for a traced run, installed by patching fixdiv's names.

A module that did ``from .lattice import pairing`` holds its own binding, so
every binding is wrapped, not only the defining one: ``pairing`` is counted
separately for calls made through ``fixdiv.lattice`` (its own ``square`` and
``bk_shadow_member``, and outside callers) and through ``fixdiv.deduction``.
Times include callees; a recursive call is timed once, at its outermost
frame.  The search funnel is counted here, at the layer boundaries, so that
the benchmark can check it against the program's own ``stats.candidates``.
"""
from __future__ import annotations

import functools
from time import perf_counter

from fixdiv import cli, deduction, embedding_oracle, lattice, report, search

Oracle = embedding_oracle.EmbeddingOracle

# function metrics (calls and inclusive seconds), in the order BENCHMARK.json
# lists them
TIMED = [
    "lattice.pairing.from_lattice",
    "lattice.pairing.from_deduction",
    "lattice.signature.from_lattice",
    "lattice.signature.from_deduction",
    "lattice.bk_shadow_member.from_deduction",
    "lattice.lorentzian_embeddable.from_lattice",
    "lattice.lorentzian_embeddable.from_deduction",
    "lattice.lorentzian_embeddable.from_search",
    "lattice.lorentzian_embeddable.from_embedding_oracle",
    "deduction.Configuration.check_setup",
    "deduction.classify",
    "deduction.rule_lemma1",
    "deduction.rule_lemma2",
    "deduction.check_2A_mobility",
    "search._canonical_key",
    "embedding_oracle.EmbeddingOracle.search",
    "embedding_oracle.EmbeddingOracle._extend_last_pair",
    "embedding_oracle.EmbeddingOracle._independent",
    "cli.parse_config_document",
    "report.classification_to_dict",
    "report.canonical_json",
]
FUNNEL = ["candidates", "non_embeddable", "setup_failed", "duplicates", "rejected", "survivors"]
VERDICTS = ["witness", "exhausted", "fallback"]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit)."""
    out = []
    for name in TIMED:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
    out.append(("deduction.Configuration.check_setup.raised", "count"))
    out += [(f"search.funnel.{k}", "count") for k in FUNNEL]
    out += [
        ("search.funnel.survivors_per_candidate", "ratio"),
        ("search._evaluate_partition.max_s", "s"),
        ("search._evaluate_partition.sum_s", "s"),
        ("embedding_oracle.even_grams.s", "s"),
        ("embedding_oracle._signed_perm_key.calls", "count"),
        ("embedding_oracle.EmbeddingOracle.has_embedding.calls", "count"),
        ("embedding_oracle.EmbeddingOracle.has_embedding.memo_hits", "count"),
        ("embedding_oracle.EmbeddingOracle.__init__.s", "s"),
    ]
    out += [(f"embedding_oracle.EmbeddingOracle.verdict.{v}", "count") for v in VERDICTS]
    out += [("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"), ("trace.overhead_s", "s")]
    return out


class Stat:
    __slots__ = ("calls", "s", "raised", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.raised = 0
        self.depth = 0


class Tracer:
    """``with Tracer() as t:`` patches fixdiv; leaving the block restores it."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.funnel = dict.fromkeys(FUNNEL, 0)
        self.partitions: list[float] = []
        self.even_grams_s = 0.0
        self.memo_entries = 0  # filled in by the caller from each oracle it built
        self.verdicts = dict.fromkeys(VERDICTS, 0)
        self._undo: list = []
        self._enumerating = False
        self._max_mult = 0
        self._classify_depth = 0
        self._search_setups = 0

    def __enter__(self):
        self._install()
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- wrappers ---------------------------------------------------------------

    def _patch(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        new = make(fn)
        setattr(owner, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)
        self._undo.append((owner, attr, raw))

    def _timed(self, name):
        stat = self.stats.setdefault(name, Stat())

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stat.calls += 1
                if stat.depth:
                    return fn(*args, **kwargs)
                stat.depth = 1
                t = perf_counter()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stat.raised += 1
                    raise
                finally:
                    stat.s += perf_counter() - t
                    stat.depth = 0

            return wrapper

        return make

    def _install(self) -> None:
        timed = self._timed
        for owner, binding in ((lattice, "lattice"), (deduction, "deduction")):
            self._patch(owner, "pairing", timed(f"lattice.pairing.from_{binding}"))
            self._patch(owner, "signature", timed(f"lattice.signature.from_{binding}"))
        self._patch(deduction, "bk_shadow_member", timed("lattice.bk_shadow_member.from_deduction"))
        for owner in (lattice, deduction, embedding_oracle):
            name = owner.__name__.rsplit(".", 1)[-1]
            self._patch(owner, "lorentzian_embeddable", timed(f"lattice.lorentzian_embeddable.from_{name}"))
        self._patch(search, "lorentzian_embeddable", self._funnel_embeddable(timed("lattice.lorentzian_embeddable.from_search")))
        self._patch(deduction.Configuration, "check_setup", self._funnel_setup(timed("deduction.Configuration.check_setup")))
        classify = timed("deduction.classify")
        self._patch(deduction, "classify", self._classify(classify, from_search=False))
        self._patch(search, "classify", self._classify(classify, from_search=True))
        for name in ("rule_lemma1", "rule_lemma2", "check_2A_mobility"):
            self._patch(deduction, name, timed(f"deduction.{name}"))
        self._patch(search, "enumerate_survivors", self._enumeration)
        self._patch(search, "_canonical_key", timed("search._canonical_key"))
        self._patch(search, "_evaluate_partition", self._partition)
        self._patch(embedding_oracle, "_signed_perm_key", timed("embedding_oracle._signed_perm_key"))
        self._patch(embedding_oracle, "even_grams", self._even_grams)
        for name in ("__init__", "has_embedding", "search", "_extend_last_pair", "_independent"):
            self._patch(Oracle, name, timed(f"embedding_oracle.EmbeddingOracle.{name}"))
        self._patch(Oracle, "verdict", self._verdict)
        self._patch(cli, "parse_config_document", timed("cli.parse_config_document"))
        for name in ("classification_to_dict", "canonical_json"):
            make = timed(f"report.{name}")
            self._patch(cli, name, make)
            self._patch(report, name, make)

    # -- counts at layer boundaries ---------------------------------------------

    def _enumeration(self, fn):
        @functools.wraps(fn)
        def wrapper(bounds):
            self._enumerating, self._max_mult = True, bounds.max_multiplicity
            try:
                survivors, stats = fn(bounds)
            finally:
                self._enumerating = False
            self.funnel["candidates"] += stats.candidates
            return survivors, stats

        return wrapper

    def _funnel_embeddable(self, make):
        def wrap(fn):
            inner = make(fn)

            @functools.wraps(fn)
            def wrapper(gram):
                ok = inner(gram)
                if self._enumerating and not ok:
                    # the search skips every multiplicity vector of this table
                    self.funnel["non_embeddable"] += self._max_mult ** (gram.rank - 1)
                return ok

            return wrapper

        return wrap

    def _funnel_setup(self, make):
        def wrap(fn):
            inner = make(fn)

            @functools.wraps(fn)
            def wrapper(cfg):
                searching = self._enumerating and self._classify_depth == 0
                if searching:
                    self._search_setups += 1
                try:
                    return inner(cfg)
                except deduction.SetupError:
                    if searching:
                        self.funnel["setup_failed"] += 1
                    raise

            return wrapper

        return wrap

    def _classify(self, make, from_search: bool):
        def wrap(fn):
            inner = make(fn)

            @functools.wraps(fn)
            def wrapper(cfg):
                self._classify_depth += 1
                try:
                    result = inner(cfg)
                finally:
                    self._classify_depth -= 1
                if from_search and self._enumerating:
                    self.funnel["rejected" if result.tag == "Contradiction" else "survivors"] += 1
                return result

            return wrapper

        return wrap

    def _partition(self, fn):
        @functools.wraps(fn)
        def wrapper(task):
            t = perf_counter()
            try:
                return fn(task)
            finally:
                self.partitions.append(perf_counter() - t)

        return wrapper

    def _even_grams(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.even_grams_s += perf_counter() - t
                yield item

        return wrapper

    def _verdict(self, fn):
        @functools.wraps(fn)
        def wrapper(oracle, gram):
            result = fn(oracle, gram)
            self.verdicts[result[1]] += 1
            return result

        return wrapper

    # -- results ----------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer values per traced round (totals divided by ``rounds``)."""
        per = 1.0 / rounds
        out = {}
        for name in TIMED:
            stat = self.stats[name]
            out[f"{name}.calls"] = stat.calls * per
            out[f"{name}.s"] = stat.s * per
        out["deduction.Configuration.check_setup.raised"] = self.stats["deduction.Configuration.check_setup"].raised * per
        funnel = self.funnel_counts()
        for k in FUNNEL:
            out[f"search.funnel.{k}"] = funnel[k] * per
        out["search.funnel.survivors_per_candidate"] = (
            funnel["survivors"] / funnel["candidates"] if funnel["candidates"] else 0.0
        )
        out["search._evaluate_partition.max_s"] = max(self.partitions, default=0.0)
        out["search._evaluate_partition.sum_s"] = sum(self.partitions) * per
        out["embedding_oracle.even_grams.s"] = self.even_grams_s * per
        out["embedding_oracle._signed_perm_key.calls"] = self.stats["embedding_oracle._signed_perm_key"].calls * per
        has = self.stats["embedding_oracle.EmbeddingOracle.has_embedding"]
        out["embedding_oracle.EmbeddingOracle.has_embedding.calls"] = has.calls * per
        # every call that misses the memo adds exactly one entry to it
        out["embedding_oracle.EmbeddingOracle.has_embedding.memo_hits"] = (has.calls - self.memo_entries) * per
        out["embedding_oracle.EmbeddingOracle.__init__.s"] = self.stats["embedding_oracle.EmbeddingOracle.__init__"].s * per
        for v in VERDICTS:
            out[f"embedding_oracle.EmbeddingOracle.verdict.{v}"] = self.verdicts[v] * per
        return out

    def funnel_counts(self) -> dict[str, int]:
        # every embeddable candidate gets a canonical key; those that are not
        # duplicates go on to the search's own setup check
        keys = self.stats["search._canonical_key"].calls
        return dict(self.funnel, duplicates=keys - self._search_setups)

    def funnel_balanced(self) -> bool:
        """The benchmark's own funnel counts sum to the program's candidate count."""
        funnel = self.funnel_counts()
        return sum(funnel[k] for k in FUNNEL[1:]) == funnel["candidates"]
