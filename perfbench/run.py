"""fixdiv benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload enumerate-serial --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; fixdiv is imported from its ``src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The same object,
with the per-round figures, is written to ``.perfbench_out/``.  See
perfbench/README.md for the workloads and what each metric should move.
"""
import time

_T0 = time.perf_counter()
_STARTUP_CPU = time.process_time()  # interpreter start-up, before this line

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# The enumeration bounds are below the acceptance test's (3, 6, -8): that run
# takes 30-60 s on a shared 2-vCPU host, longer than a whole measured run.
# These keep three components, multiplicity 2, the dominant (-2, -2, -2)
# partition and k = 2 chains, and take 3-5 s there.
ENUM_BOUNDS = dict(max_components=3, entry_bound=3, square_min=-6, max_multiplicity=2, n=2)
ORACLE_RANKS = (1, 2, 3)
ORACLE_BOUND = 3
ORACLE_BOX = 6
WITNESS_SAMPLE = 12
# seconds of back-to-back kernel samples at a round's edges (calibrate.py); an
# operation loop also samples every 15 ms inside the round
ENUM_WINDOW_S = 0.15
LOOP_WINDOW_S = 0.0

WORKLOADS = ("enumerate-serial", "enumerate-2w", "oracle-sweep", "classify-docs")


def cpu_now() -> float:
    """User plus system CPU seconds of this process and its reaped workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# Every time is converted to reference seconds (see calibrate.py) with the
# host speed measured around and during its own round: on a shared 2-vCPU
# host whole runs slow down by a third or more, CPU time included, and the
# fastest round of a run cannot undo that.  wall_s and cpu_s are the median
# round; op_p50_ms and op_p99_ms are taken over every operation of every
# round.  The tail is reported only where at least ten operations lie beyond
# it (1000 or more operations); otherwise op_p99_ms is the median as well.
# The operation loops therefore run enough rounds to reach 1000 operations
# however slow the host, so that op_p99_ms never falls back to the median.
TAIL_MIN_OPS = 1000
MIN_ROUNDS = {"oracle-sweep": 2, "classify-docs": 4}


class Run:
    """State of one measured run: round figures, failures, clean-up."""

    def __init__(self):
        self.rounds: list[dict] = []
        self.op_ms: list[float] = []  # every operation's latency, reference ms
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cleanup: list = []
        self.deferred: list = []  # checks run after the measured rounds
        self.speed = calibrate.HostSpeed()
        self._spent = (0.0, 0.0)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(message)

    def begin_round(self, window_s: float) -> tuple[float, float]:
        """Sample the host speed, then start the round's clocks."""
        self.speed.window(window_s)
        self._spent = (self.speed.spent_wall, self.speed.spent_cpu)
        return cpu_now(), time.perf_counter()

    def add_round(self, wall: float, cpu: float, op_s: list[float], window_s: float = 0.0) -> None:
        """Record a round; time spent in kernel samples during it is not the
        program's.  ``window_s`` samples the speed once more after it."""
        wall -= self.speed.spent_wall - self._spent[0]
        cpu -= self.speed.spent_cpu - self._spent[1]
        if window_s:
            self.speed.window(window_s)
        factor = self.speed.take()
        self.rounds.append({"wall_s": wall * factor, "cpu_s": cpu * factor, "factor": factor,
                            "raw_wall_s": wall, "raw_cpu_s": cpu})
        self.op_ms.extend(t * factor * 1e3 for t in op_s)
        self.attempted += len(op_s)

    def timings(self) -> dict[str, tuple[float, str]]:
        p50 = statistics.median(self.op_ms)
        p99 = percentile(self.op_ms, 0.99) if len(self.op_ms) >= TAIL_MIN_OPS else p50
        return {
            "wall_s": (statistics.median(r["wall_s"] for r in self.rounds), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in self.rounds), "s"),
            "op_p50_ms": (p50, "ms"),
            "op_p99_ms": (p99, "ms"),
        }


def measure(run: Run, start: float, deadline_s: float, one_round, min_rounds: int = 1) -> None:
    """Closed loop: at least ``min_rounds`` rounds, then whole rounds until the
    next one would end after ``deadline_s`` seconds from ``start``."""
    spans = []
    while True:
        t = time.perf_counter()
        one_round()
        spans.append(time.perf_counter() - t)
        if len(spans) >= min_rounds and time.perf_counter() - start + statistics.median(spans) > deadline_s:
            return


# -- enumeration ----------------------------------------------------------------


def enumeration_workload(run: Run, args):
    import reference
    from fixdiv import search

    bounds = search.SearchBounds(**ENUM_BOUNDS)
    setup_s = _setup_elapsed()
    want_prime = reference.prime_survivors(bounds.entry_bound, bounds.square_min)
    want_chain = reference.chain_survivors(bounds.max_components, bounds.entry_bound, bounds.square_min)
    # a traced run stays serial so that every call is counted in this process
    threads = "2" if args.workload == "enumerate-2w" and not args.trace else "1"
    os.environ["HK_THREADS"] = threads

    def one_round(tracer=None):
        # one opaque call: the host speed is sampled just before and after it
        cpu0, t0 = run.begin_round(ENUM_WINDOW_S)
        report, survivors = search.verify_classification(bounds)
        wall = time.perf_counter() - t0
        run.add_round(wall, cpu_now() - cpu0, [wall], ENUM_WINDOW_S)
        problems = check_enumeration(report, survivors, want_prime, want_chain)
        if tracer is not None and not tracer.funnel_balanced():
            problems.append(f"funnel does not sum to candidates: {tracer.funnel_counts()}")
        if problems:
            run.fail("; ".join(problems))

    return setup_s, one_round


def check_enumeration(report, survivors, want_prime, want_chain) -> list[str]:
    problems = []
    if not report.ok:
        problems.append(f"{len(report.counterexamples)} counterexamples")
    prime, chain = set(), []
    for rec in survivors:
        g = rec.configuration.gram.entries
        if any(b != 1 for b in rec.configuration.multiplicities):
            problems.append(f"survivor with multiplicities {rec.configuration.multiplicities}")
        res = rec.classification
        if res.tag == "PrimeFixed" and len(g) == 2:
            prime.add((int(g[0][1]), int(g[1][1])))
        elif res.tag == "Chain":
            chain.append((res.k, int(res.d), int(res.q_last)))
        else:
            problems.append(f"unexpected survivor {res.tag} of rank {len(g)}")
    if prime != want_prime:
        problems.append(f"prime survivors {sorted(prime ^ want_prime)} differ from the closed form")
    if sorted(chain) != sorted(want_chain):
        problems.append(f"chain survivors {sorted(chain)} differ from {sorted(want_chain)}")
    if (report.prime_count, report.chain_count) != (len(want_prime), len(want_chain)):
        problems.append(f"report counts {report.prime_count}/{report.chain_count}")
    return problems


# -- oracle sweep ---------------------------------------------------------------


def oracle_workload(run: Run, args):
    import reference
    from fixdiv import embedding_oracle, lattice

    oracles = [embedding_oracle.EmbeddingOracle(box=ORACLE_BOX)]
    setup_s = _setup_elapsed()
    want = {r: reference.burnside_even_tables(r, ORACLE_BOUND) for r in ORACLE_RANKS}

    def one_round(tracer=None):
        # a fresh oracle each round: its memo would otherwise answer every table
        oracle = oracles.pop() if oracles else embedding_oracle.EmbeddingOracle(box=ORACLE_BOX)
        counts = dict.fromkeys(ORACLE_RANKS, 0)
        witnessed, op_s = [], []
        cpu0, t0 = run.begin_round(LOOP_WINDOW_S)
        for rank in ORACLE_RANKS:
            tables = embedding_oracle.even_grams(rank, ORACLE_BOUND)
            while True:
                t = time.perf_counter()
                rows = next(tables, None)
                if rows is None:
                    break
                gram = lattice.GramLattice.from_rows(rows)
                fast = lattice.lorentzian_embeddable(gram)
                slow, basis = oracle.verdict(gram)
                op_s.append(time.perf_counter() - t)
                run.speed.tick()
                counts[rank] += 1
                if fast != slow:
                    run.fail(f"criterion {fast} and oracle {slow} ({basis}) differ on {rows}")
                if basis == "witness":
                    witnessed.append(rows)
        run.add_round(time.perf_counter() - t0, cpu_now() - cpu0, op_s)
        if tracer is not None:
            tracer.memo_entries += len(oracle._memo)
        if counts != want:
            run.fail(f"tables per rank {counts}, Burnside gives {want}", ops=0)
        if not sample:  # every round finds the same witnesses
            rng = random.Random(f"fixdiv-witness/{args.seed}")
            sample.extend(rng.sample(witnessed, min(WITNESS_SAMPLE, len(witnessed))))

    def check_witnesses() -> None:
        """Re-derive the sampled witnesses (the search is deterministic) after
        the measured rounds, and verify them in U + <-2>^3 by hand."""
        oracle = embedding_oracle.EmbeddingOracle(box=ORACLE_BOX)
        for rows in sample:
            witness = oracle.search(rows)
            if witness is None or not reference.witness_valid(rows, witness):
                run.fail(f"witness {witness} does not realise {rows}")

    sample: list = []
    run.deferred.append(check_witnesses)
    return setup_s, one_round


# -- classify documents -----------------------------------------------------------


def documents_workload(run: Run, args):
    import docs
    from fixdiv import cli, deduction, lattice

    setup_s = _setup_elapsed()
    work = OUT / f"work-{os.getpid()}"
    run.cleanup.append(lambda: shutil.rmtree(work, ignore_errors=True))

    def one_round(tracer=None):
        specs = docs.batch(args.seed, len(run.rounds))
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        paths = []
        for i, spec in enumerate(specs):
            doc_path, report_path = work / f"doc{i}.json", work / f"report{i}.json"
            doc_path.write_text(json.dumps(spec["doc"]))
            cfg = None
            if spec["expect"]["exit"] == 0:
                gram = lattice.GramLattice.from_rows(spec["rows"], mode=spec["mode"])
                cfg = deduction.Configuration(
                    n=spec["doc"]["n"], gram=gram, multiplicities=spec["mults"],
                    m_primitive=spec["doc"]["m_primitive"], labels=spec["labels"],
                )
            paths.append((str(doc_path), str(report_path), cfg))
        codes, mobility, op_s = [], [], []
        sink = io.StringIO()
        cpu0, t0 = run.begin_round(LOOP_WINDOW_S)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for doc_path, report_path, cfg in paths:
                t = time.perf_counter()
                code = cli.main(["classify", doc_path, "--report", report_path])
                ok = deduction.check_2A_mobility(cfg).ok if code == 0 and cfg is not None else None
                op_s.append(time.perf_counter() - t)
                run.speed.tick()
                codes.append(code)
                mobility.append(ok)
                sink.seek(0)
                sink.truncate()
        run.add_round(time.perf_counter() - t0, cpu_now() - cpu0, op_s)
        for spec, (_, report_path, _), code, ok in zip(specs, paths, codes, mobility):
            problem = check_document(spec, report_path, code, ok)
            if problem:
                run.fail(f"{problem}: {json.dumps(spec['doc'])}")

    return setup_s, one_round


def check_document(spec, report_path, code, mobility_ok):
    want = spec["expect"]
    if code != want["exit"]:
        return f"exit {code}, expected {want['exit']}"
    if code == 2:
        return None
    report = json.loads(Path(report_path).read_text())
    if report["kind"] != want["kind"]:
        return f"class {report['kind']}, expected {want['kind']}"
    if code == 1:
        return None
    if not mobility_ok:
        return "|2A| mobility report not ok"
    if want["kind"] == "PrimeFixed":
        if Fraction(report["q_b"]) != want["q_b"]:
            return f"q_b {report['q_b']}, expected {want['q_b']}"
        return None
    got = (report["k"], Fraction(report["d"]), Fraction(report["q_last"]))
    if got != (want["k"], want["d"], want["q_last"]):
        return f"chain {got}, expected {(want['k'], want['d'], want['q_last'])}"
    listed = [c["label"] for c in spec["doc"]["components"]]
    order = [listed[i - 1] for i in report["order"]]
    if order != want["order_labels"]:
        return f"chain order {order}, expected {want['order_labels']}"
    return None


# -- running one workload -------------------------------------------------------


def _setup_elapsed() -> float:
    """Seconds since the process started: start-up CPU plus wall time since."""
    return _STARTUP_CPU + (time.perf_counter() - _T0)


RUNNERS = {
    "enumerate-serial": enumeration_workload,
    "enumerate-2w": enumeration_workload,
    "oracle-sweep": oracle_workload,
    "classify-docs": documents_workload,
}


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def execute(args) -> dict:
    run = Run()
    try:
        setup_s, one_round = RUNNERS[args.workload](run, args)
        start = time.perf_counter()
        if not args.trace:
            measure(run, start, args.seconds, one_round, MIN_ROUNDS.get(args.workload, 1))
            # set-up is converted with the speed sampled right after it
            metrics = {"setup_s": (setup_s * run.rounds[0]["factor"], "s"),
                       "peak_rss_mib": (peak_rss_mib(), "MiB")}
            metrics.update(run.timings())
        else:
            metrics = traced(run, start, args.seconds, one_round)
        for check in run.deferred:
            check()
    finally:
        for undo in run.cleanup:
            undo()
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=run.rounds, problems=run.problems)
    (OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return result


def traced(run: Run, start: float, seconds: int, one_round) -> dict:
    """Untraced rounds for a third of the run, then traced rounds."""
    import tracing

    measure(run, start, seconds / 3, one_round)
    untraced = [r["wall_s"] for r in run.rounds]
    with tracing.Tracer() as tracer:
        measure(run, start, seconds, lambda: one_round(tracer))
    traced_walls = [r["wall_s"] for r in run.rounds[len(untraced):]]
    values = tracer.metrics(len(traced_walls))
    values["trace.untraced_wall_s"] = statistics.median(untraced)
    values["trace.traced_wall_s"] = statistics.median(traced_walls)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    return {name: (values[name], unit) for name, unit in tracing.metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "fixdiv" / "__init__.py").is_file():
        print(f"error: no fixdiv sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = execute(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
