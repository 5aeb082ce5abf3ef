"""Seeded stream of ``fixdiv classify`` documents, each with the outcome its
construction implies.

Every batch holds the same configurations with the same multiplicities and
``m_primitive`` values, so every batch has the same outcomes and nearly the
same cost.  The seed chooses the basis order, the component order, the
labels, ``n`` and the order of the documents.  Expected outcomes come from
``reference`` and from the paper's statements, never from fixdiv:

* an admissible chain with unit multiplicities is ``Chain(k, d, q_last)``,
  unless ``m_primitive`` is "no" (an imprimitive mobile class forces a prime
  fixed part, so the document is a contradiction);
* a prime pair is ``PrimeFixed`` iff its setup holds, Markman divisibility
  holds and its square is <= 0;
* a document with a multiplicity >= 2 that passes setup is a contradiction,
  because the fixed part is reduced;
* a document that fails setup is rejected with exit 2.
"""
from __future__ import annotations

import random
from fractions import Fraction

import reference

CHAIN_K = range(1, 6)
CHAIN_D = range(-16, -3, 2)
PRIME_PAIRINGS = range(1, 13)
GENERAL_PAIRINGS = [Fraction(2 * i + 1, 2) for i in range(12)]
M_PRIMITIVE = ("yes", "no", "unknown")


def admissible_chains() -> list[tuple[int, int, int]]:
    return [
        (k, d, q_last)
        for k in CHAIN_K
        for d in CHAIN_D
        for q_last in range(-2, d // 2 - 1, -2)
        if reference.chain_admissible(k, d, q_last)
    ]


def _cell(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def expected_outcome(rows, mults, m_primitive: str, shape) -> dict:
    """Exit code and classification implied by how the document was built.

    ``rows`` is the Gram over (M, B_1, ...) in chain order; ``shape`` is
    ("chain", k, d, q_last) or ("prime",).
    """
    if not reference.setup_holds(rows, mults):
        return {"exit": 2, "kind": None}
    if any(b >= 2 for b in mults):
        return {"exit": 1, "kind": "Contradiction"}
    if shape[0] == "chain":
        if m_primitive == "no":
            return {"exit": 1, "kind": "Contradiction"}
        _, k, d, q_last = shape
        return {"exit": 0, "kind": "Chain", "k": k, "d": d, "q_last": q_last}
    if not reference.markman_holds(rows) or rows[1][1] > 0:
        return {"exit": 1, "kind": "Contradiction"}
    return {"exit": 0, "kind": "PrimeFixed", "q_b": Fraction(rows[1][1])}


def make_document(rng: random.Random, rows, mults, m_primitive: str, mode: str, shape) -> dict:
    """One document with shuffled basis and component order and fresh labels.

    Returns the JSON document, the expected outcome, and the configuration
    in chain order (``rows``, ``mults``, ``labels``, ``mode``) for the
    mobility check.
    """
    r = len(rows)
    names = rng.sample(range(1, 100), r)
    labels = [f"D{i}" for i in names]  # labels[i] names basis class i (0 = M)
    basis_order = list(range(r))
    rng.shuffle(basis_order)
    comp_order = list(range(1, r))
    rng.shuffle(comp_order)
    doc = {
        "n": rng.randint(1, 4),
        "gram": [[_cell(rows[i][j]) for j in basis_order] for i in basis_order],
        "basis": [labels[i] for i in basis_order],
        "mobile": labels[0],
        "components": [{"label": labels[j], "multiplicity": mults[j - 1]} for j in comp_order],
        "m_primitive": m_primitive,
    }
    if mode != "even":
        doc["mode"] = mode
    expect = expected_outcome(rows, mults, m_primitive, shape)
    if expect["kind"] == "Chain":
        expect["order_labels"] = labels[1:]
    return {
        "doc": doc,
        "expect": expect,
        "rows": rows,
        "mults": tuple(mults),
        "labels": tuple(labels),
        "mode": mode,
    }


def batch(seed: int, index: int) -> list[dict]:
    """Batch ``index`` of the stream for ``seed``: the same arguments give the
    same documents in the same order."""
    rng = random.Random(f"fixdiv-docs/{seed}/{index}")
    out = []
    for i, (k, d, q_last) in enumerate(admissible_chains()):
        rows = reference.chain_rows(k, d, q_last)
        shape = ("chain", k, d, q_last)
        for m_primitive in M_PRIMITIVE:
            out.append(make_document(rng, rows, (1,) * (k + 1), m_primitive, "even", shape))
        mults = [1] * (k + 1)
        mults[i % (k + 1)] = 2 + i % 2
        out.append(make_document(rng, rows, mults, M_PRIMITIVE[i % 3], "even", shape))
    # squares s >= -v keep A = M + B in the BK shadow, so with unit
    # multiplicity only Markman divisibility decides; raised multiplicities
    # fail setup or contradict reducedness
    pairs = [(v, s) for v in PRIME_PAIRINGS for s in range(-(v - v % 2), 1, 2)]
    for i, (v, s) in enumerate(pairs):
        rows = [[0, v], [v, s]]
        out.append(make_document(rng, rows, (1,), M_PRIMITIVE[i % 3], "even", ("prime",)))
        out.append(make_document(rng, rows, (2 + i % 2,), M_PRIMITIVE[(i + 1) % 3], "even", ("prime",)))
    general = [(v, s) for v in GENERAL_PAIRINGS for s in range(-int(v), 1)]
    for i, (v, s) in enumerate(general):
        out.append(make_document(rng, [[0, v], [v, s]], (1,), M_PRIMITIVE[i % 3], "general", ("prime",)))
    rng.shuffle(out)
    return out
