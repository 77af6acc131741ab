#!/usr/bin/env python3
"""Sweep the unique-expression hunt over a range of groups.

Searches n-tuples of 2-element subsets whose sumset is aperiodic, looking
for one with no unique-expression element.  No such tuple is known; any hit
is printed but never asserted.
"""

import argparse
import json
import sys

from subsumlab.search import groups_up_to, hunt_unique_expression


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=8)
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--budget", type=int, default=10_000_000,
                    help="per-report budget of combinations drawn")
    ap.add_argument("--no-canonicalize", action="store_true")
    args = ap.parse_args()

    any_hit = False
    for g in groups_up_to(args.max_order):
        if g.order < 2:
            continue
        for n in range(1, args.max_n + 1):
            rep = hunt_unique_expression(
                g, n, canonicalize=not args.no_canonicalize,
                budget=args.budget)
            status = "HIT" if rep.hit_found else "none"
            print(f"{g.spec_string():>8}  n={n}  "
                  f"tuples={rep.tuples_examined:>8}  "
                  f"aperiodic={rep.aperiodic_count:>8}  "
                  f"exhaustive={rep.exhaustive}  {status}")
            if rep.hit_found:
                any_hit = True
                print(json.dumps(rep.to_dict(), indent=2))
    if any_hit:
        print("\nhits found above: candidate answers to an open question; "
              "verify independently before drawing conclusions",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
