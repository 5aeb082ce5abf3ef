"""Deterministic serialization: canonical rationals, JSON reports, CSV tables.

Rationals are rendered as strings ("p" or "p/q") so that no precision is lost
on the wire; identical inputs produce byte-identical report files.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

from .deduction import Chain, ClassificationResult, Contradiction, MobilityReport, PrimeFixed
from .lattice import GramLattice


def fmt_rational(x: Union[int, Fraction]) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"not a rational: {value!r} has denominator 0") from None
    raise ValueError(f"not a rational: {value!r}")


def gram_to_rows(gram: GramLattice) -> list[list[str]]:
    return [[fmt_rational(x) for x in row] for row in gram.entries]


def flatten_gram(gram: GramLattice) -> str:
    """Row-major flattening used in survivor CSV rows."""
    return ";".join(" ".join(fmt_rational(x) for x in row) for row in gram.entries)


def classification_to_dict(result: ClassificationResult) -> dict:
    doc: dict = {
        "kind": result.tag,
        "certificate": [[rule, outcome] for rule, outcome in result.certificate],
    }
    if isinstance(result, PrimeFixed):
        doc["q_b"] = fmt_rational(result.q_b)
    elif isinstance(result, Chain):
        doc["k"] = result.k
        doc["d"] = fmt_rational(result.d)
        doc["q_last"] = fmt_rational(result.q_last)
        doc["order"] = list(result.order)
    elif isinstance(result, Contradiction):
        doc["rule"] = result.rule
        doc["witness"] = _jsonable(result.witness)
    return doc


def mobility_to_dict(report: MobilityReport) -> dict:
    return {
        "ok": report.ok,
        "lower_bound": fmt_rational(report.lower_bound),
        "subsets": [
            {
                "subset": list(e.subset),
                "bk": e.bk,
                "q_mobile2": fmt_rational(e.q_m2),
                "links_ok": e.links_ok,
                "passed": e.passed,
            }
            for e in report.subsets
        ],
    }


def _jsonable(value):
    if isinstance(value, Fraction):
        return fmt_rational(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def canonical_json(doc) -> str:
    """Byte-stable JSON rendering: sorted keys, fixed separators, newline."""
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"


SURVIVOR_CSV_HEADER = "gram,mults,class,k,d,q_last"


def survivor_csv_row(gram: GramLattice, mults, result: ClassificationResult) -> str:
    gram_field = flatten_gram(gram)
    mult_field = " ".join(str(b) for b in mults)
    if isinstance(result, Chain):
        k, d, q_last = str(result.k), fmt_rational(result.d), fmt_rational(result.q_last)
    elif isinstance(result, PrimeFixed):
        k, d, q_last = "0", "", ""
    else:
        k, d, q_last = "", "", ""
    return f'"{gram_field}","{mult_field}",{result.tag},{k},{d},{q_last}'
