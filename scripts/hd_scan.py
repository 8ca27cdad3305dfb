"""Scan the Gauss-sum lifting and product laws over small fields.

Usage: python3 scripts/hd_scan.py --primes 3 5 7 --max-degree 3
Prints each failing (law, character index, degree or n) and exits 1 when
any check fails.
"""

from __future__ import annotations

import argparse

from charsum import CharSystem, build_tower


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--primes", type=int, nargs="+", default=[3, 5, 7])
    ap.add_argument("--max-degree", type=int, default=3)
    args = ap.parse_args(argv)

    failures = 0
    for p in args.primes:
        degrees = tuple(range(1, args.max_degree + 1))
        sysm = CharSystem(build_tower(p, degrees=degrees))
        grp = sysm.tower.group_order(1)
        lift_checked = 0
        for d in degrees[1:]:
            for idx in range(grp):
                if not sysm.check_hd_lift(sysm.character(1, idx), d):
                    print(f"p={p}: lifting law FAILS at index {idx}, "
                          f"degree {d}")
                    failures += 1
                lift_checked += 1
        divisors = [n for n in range(2, grp + 1) if grp % n == 0]
        prod_checked = 0
        for n in divisors:
            for idx in range(grp):
                if not sysm.check_hd_product(sysm.character(1, idx), n):
                    print(f"p={p}: product law FAILS at index {idx}, n = {n}")
                    failures += 1
                prod_checked += 1
        print(f"p={p}: lifting checked on {lift_checked} (character, degree) "
              f"pairs, product on {prod_checked} pairs (n in {divisors})")
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
