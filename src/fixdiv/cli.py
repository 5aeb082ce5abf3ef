"""Command-line front end: classify, enumerate, example, rr.

Exit codes are the machine contract: 0 = success (classify: PrimeFixed/Chain;
enumerate: no counterexamples), 1 = negative outcome (Contradiction, failing
checks, counterexamples), 2 = input error or exceeded budget.  Report files
use deterministic serialization; stdout is human-oriented.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .deduction import (
    Configuration,
    ConfigurationError,
    Contradiction,
    SetupError,
    chain_configuration,
)
from . import deduction
from .fixtures import (
    beauville_mukai_fixture,
    chain_fixture,
    fixture_to_dict,
    hk4_fixture,
    mayer_fixture,
)
from .lattice import GramLattice, LatticeError
from .report import (
    SURVIVOR_CSV_HEADER,
    canonical_json,
    classification_to_dict,
    fmt_rational,
    parse_rational,
    survivor_csv_row,
)
from .rr import RRError, RRPolynomial, preset, validate
from .search import BudgetExceededError, SearchBounds, WorkerSettingError, verify_classification


class ConfigDocumentError(ValueError):
    """Unparseable configuration document; the message carries field context."""


_KNOWN_FIELDS = {
    "n", "gram", "basis", "mobile", "components", "m_primitive",
    "a_ample", "rr", "mode",
}


def parse_config_document(doc: dict) -> Configuration:
    if not isinstance(doc, dict):
        raise ConfigDocumentError("document root must be a JSON object")
    unknown = set(doc) - _KNOWN_FIELDS
    if unknown:
        raise ConfigDocumentError(f"unknown fields: {sorted(unknown)}")
    for required in ("n", "gram", "basis", "components"):
        if required not in doc:
            raise ConfigDocumentError(f"missing required field {required!r}")

    gram_rows = doc["gram"]
    if not isinstance(gram_rows, list) or not all(isinstance(row, list) for row in gram_rows):
        raise ConfigDocumentError("field 'gram' must be a list of rows")
    for i, row in enumerate(gram_rows):
        if len(row) != len(gram_rows):
            raise ConfigDocumentError(
                f"field 'gram' must be square: row {i} has {len(row)} entries, expected {len(gram_rows)}"
            )
    try:
        rows = [[parse_rational(x) for x in row] for row in gram_rows]
    except ValueError as exc:
        raise ConfigDocumentError(f"field 'gram': {exc}") from exc
    basis = doc["basis"]
    if not isinstance(basis, list) or not all(isinstance(x, str) for x in basis):
        raise ConfigDocumentError("field 'basis' must be a list of labels")
    if len(basis) != len(rows):
        raise ConfigDocumentError("field 'basis' length must match the gram rank")

    mobile = doc.get("mobile", 0)
    if isinstance(mobile, str):
        if mobile not in basis:
            raise ConfigDocumentError(f"mobile label {mobile!r} not in basis")
        mobile = basis.index(mobile)
    if not _is_int(mobile) or not 0 <= mobile < len(basis):
        raise ConfigDocumentError(f"field 'mobile': bad index {mobile!r}")

    comps = doc["components"]
    if not isinstance(comps, list):
        raise ConfigDocumentError("field 'components' must be a list")
    order = [mobile]
    mults = []
    for i, comp in enumerate(comps):
        if not isinstance(comp, dict) or set(comp) - {"label", "multiplicity"}:
            raise ConfigDocumentError(f"components[{i}]: expected label and multiplicity")
        label = comp.get("label")
        if label not in basis:
            raise ConfigDocumentError(f"components[{i}]: label {label!r} not in basis")
        idx = basis.index(label)
        if idx == mobile or idx in order:
            raise ConfigDocumentError(f"components[{i}]: label {label!r} repeated or mobile")
        order.append(idx)
        mult = comp.get("multiplicity", 1)
        if not _is_int(mult) or mult < 1:
            raise ConfigDocumentError(f"components[{i}]: bad multiplicity {mult!r}")
        mults.append(mult)
    if len(order) != len(basis):
        missing = [basis[i] for i in range(len(basis)) if i not in order]
        raise ConfigDocumentError(f"components must cover the basis; missing {missing}")

    permuted = [[rows[i][j] for j in order] for i in order]
    mode = doc.get("mode", "even")
    try:
        gram = GramLattice.from_rows(permuted, mode=mode)
    except LatticeError as exc:
        raise ConfigDocumentError(f"field 'gram': {exc}") from exc

    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise ConfigDocumentError(f"field 'n': expected a positive integer, got {n!r}")
    m_primitive = doc.get("m_primitive", "unknown")
    a_ample = doc.get("a_ample", False)
    if not isinstance(a_ample, bool):
        raise ConfigDocumentError("field 'a_ample' must be a boolean")

    rr = None
    if "rr" in doc and doc["rr"] is not None:
        rr = _parse_rr(doc["rr"], n)

    try:
        cfg = Configuration(
            n=n,
            gram=gram,
            multiplicities=tuple(mults),
            m_primitive=m_primitive,
            a_ample=a_ample,
            rr=rr,
            labels=tuple(basis[i] for i in order),
        )
        cfg.validate()
    except ConfigurationError as exc:
        raise ConfigDocumentError(str(exc)) from exc
    return cfg


def _is_int(value) -> bool:
    """A JSON integer; a JSON boolean is not one, though bool subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_rr(spec, n: int) -> RRPolynomial:
    if not isinstance(spec, dict) or set(spec) - {"preset", "n", "coeffs"}:
        raise ConfigDocumentError("field 'rr': expected {'preset': name} or {'coeffs': [...]}")
    try:
        if "preset" in spec:
            return preset(spec["preset"], spec.get("n", n))
        if "coeffs" in spec:
            coeffs = [parse_rational(c) for c in spec["coeffs"]]
            return RRPolynomial.from_coeffs(spec.get("n", n), coeffs)
    except (RRError, ValueError) as exc:
        raise ConfigDocumentError(f"field 'rr': {exc}") from exc
    raise ConfigDocumentError("field 'rr': needs 'preset' or 'coeffs'")


# -- subcommands ----------------------------------------------------------------


def cmd_classify(args) -> int:
    try:
        doc = json.loads(Path(args.input).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read configuration: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config_document(doc)
        result = deduction.classify(cfg)
    except (ConfigDocumentError, SetupError, ConfigurationError, LatticeError) as exc:
        # LatticeError: a table the lattice layer cannot interpret, such as a
        # half-integral component square in general mode
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = classification_to_dict(result)
    text = canonical_json(report)
    if args.report:
        Path(args.report).write_text(text)
    print(f"classification: {result.tag}")
    if isinstance(result, Contradiction):
        print(f"violated rule: {result.rule}")
        return 1
    for key in ("q_b", "k", "d", "q_last"):
        if key in report:
            print(f"  {key} = {report[key]}")
    return 0


def cmd_enumerate(args) -> int:
    rr = None
    if args.rr_preset:
        try:
            rr = preset(args.rr_preset, args.n)
        except RRError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        bounds = SearchBounds(
            max_components=args.max_components,
            entry_bound=args.entry_bound,
            square_min=args.square_min,
            max_multiplicity=args.max_multiplicity,
            n=args.n,
            parity_mode="general" if args.general else "even",
            rr=rr,
            budget=args.budget,
        )
        bounds.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report, survivors = verify_classification(bounds)
    except (BudgetExceededError, WorkerSettingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    csv_lines = [SURVIVOR_CSV_HEADER]
    for rec in survivors:
        csv_lines.append(
            survivor_csv_row(rec.configuration.gram, rec.configuration.multiplicities, rec.classification)
        )
    Path(args.out_csv).write_text("\n".join(csv_lines) + "\n")

    summary = {
        "survivor_count": report.survivor_count,
        "chain_count": report.chain_count,
        "prime_count": report.prime_count,
        "counterexamples": [
            {"reason": reason, "record": classification_to_dict(rec.classification)}
            for rec, reason in report.counterexamples
        ],
        "candidates_examined": report.stats.candidates,
        "rejections": report.stats.rejected,
        "multiplicity_rejections": report.stats.multiplicity_rejected,
        "rule_set": report.rule_set,
        "parity_mode": report.parity_mode,
        "hypothetical": report.hypothetical,
        "survivors": [
            {
                "gram": [[fmt_rational(x) for x in row] for row in rec.configuration.gram.entries],
                "multiplicities": list(rec.configuration.multiplicities),
                "classification": classification_to_dict(rec.classification),
            }
            for rec in survivors
        ],
    }
    Path(args.out_json).write_text(canonical_json(summary))

    print(
        f"survivors: {report.survivor_count} "
        f"(prime: {report.prime_count}, chain: {report.chain_count}); "
        f"counterexamples: {len(report.counterexamples)}; "
        f"candidates examined: {report.stats.candidates}"
    )
    return 0 if report.ok else 1


def cmd_example(args) -> int:
    try:
        if args.name == "mayer":
            result = mayer_fixture(args.d if args.d is not None else 2)
        elif args.name == "beauville-mukai":
            result = beauville_mukai_fixture(
                args.g if args.g is not None else 2,
                args.d if args.d is not None else 2,
                args.q_fb,
            )
        elif args.name == "hk4":
            result = hk4_fixture(args.q_lb if args.q_lb is not None else 1)
        elif args.name == "chain":
            result = chain_fixture(
                args.k if args.k is not None else 1,
                args.d if args.d is not None else -4,
                args.q_last if args.q_last is not None else -2,
            )
        else:
            print(f"error: unknown example {args.name!r}", file=sys.stderr)
            return 2
    except (ValueError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(result.name)
    width = max(len(c.description) for c in result.checks)
    for c in result.checks:
        status = "ok " if c.passed else "FAIL"
        print(f"  [{status}] {c.description:<{width}}  expected {c.expected}  computed {c.computed}")
    if args.report:
        Path(args.report).write_text(canonical_json(fixture_to_dict(result)))
    return 0 if result.ok else 1


def cmd_rr(args) -> int:
    try:
        if args.coeffs:
            coeffs = [parse_rational(c) for c in args.coeffs.split(",")]
            p = RRPolynomial.from_coeffs(len(coeffs) - 1, coeffs)
        else:
            p = preset(args.preset, args.n)
    except (RRError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok, violations = validate(p)
    print(f"polynomial (n = {p.n}): coefficients {[fmt_rational(c) for c in p.coeffs]}")
    print(f"valid: {ok}")
    for v in violations:
        print(f"  violation: {v}")
    if args.eval is not None:
        q = parse_rational(args.eval)
        print(f"P({fmt_rational(q)}) = {fmt_rational(p.eval(q))}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixdiv",
        description="Exact lattice toolkit for mobile+fixed decompositions of big divisor classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a configuration document")
    p.add_argument("input", help="configuration JSON document")
    p.add_argument("--report", help="write the classification report JSON here")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="bounded exhaustive search with certification")
    p.add_argument("--max-components", type=int, required=True)
    p.add_argument("--entry-bound", type=int, required=True)
    p.add_argument("--square-min", type=int, required=True)
    p.add_argument("--max-multiplicity", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--even", action="store_true", default=True, help="even lattice mode (default)")
    p.add_argument("--general", action="store_true", help="allow half-integral pairings")
    p.add_argument("--rr-preset", help="apply Riemann-Roch constraints from this preset")
    p.add_argument("--budget", type=int, default=20_000_000)
    p.add_argument("--out-csv", default="survivors.csv")
    p.add_argument("--out-json", default="survivors.json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("example", help="run a worked-number fixture")
    p.add_argument("name", choices=["mayer", "beauville-mukai", "hk4", "chain"])
    p.add_argument("--d", type=int)
    p.add_argument("--g", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--q-last", type=int)
    p.add_argument("--q-lb", type=int)
    p.add_argument("--q-fb", type=int, default=1)
    p.add_argument("--report", help="write the fixture report JSON here")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("rr", help="evaluate or validate a Riemann-Roch polynomial")
    p.add_argument("--preset", default="k3")
    p.add_argument("--n", type=int)
    p.add_argument("--coeffs", help="comma-separated rational coefficients, constant first")
    p.add_argument("--eval", help="evaluate at this rational")
    p.set_defaults(func=cmd_rr)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
