#!/usr/bin/env python3
"""Cross-check the signature embeddability criterion against brute force.

Enumerates even Gram tables up to signed-permutation equivalence and compares
`lorentzian_embeddable` with the exhaustive search for an isometric embedding
into U + <-2>^3.  Any disagreement is printed; the exit code is nonzero if one
is found.

Example:

    python3 scripts/compare_embedding_oracle.py --max-rank 3 --bound 4
"""
from __future__ import annotations

import argparse
import time

from fixdiv.embedding_oracle import EmbeddingOracle, even_grams
from fixdiv.lattice import GramLattice, lorentzian_embeddable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rank", type=int, default=3)
    parser.add_argument("--bound", type=int, default=4,
                        help="entry bound for the Gram tables under test")
    parser.add_argument("--box", type=int, default=6,
                        help="coordinate box for the brute-force witness search")
    args = parser.parse_args(argv)

    try:
        oracle = EmbeddingOracle(box=args.box)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    mismatches = 0
    start = time.perf_counter()
    for rank in range(1, args.max_rank + 1):
        tables = list(even_grams(rank, args.bound))
        agree = 0
        fallbacks = 0
        for rows in tables:
            g = GramLattice.from_rows(rows)
            fast = lorentzian_embeddable(g)
            slow, basis = oracle.verdict(g)
            if basis == "fallback":
                fallbacks += 1
            if fast == slow:
                agree += 1
            else:
                mismatches += 1
                print(f"MISMATCH rank {rank}: {rows} criterion={fast} oracle={slow} ({basis})")
        print(f"rank {rank}: {agree}/{len(tables)} agree ({fallbacks} fallbacks)")
    print(f"elapsed: {time.perf_counter() - start:.1f}s, mismatches: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
