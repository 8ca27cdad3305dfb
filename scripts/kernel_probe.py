"""Time the Z[zeta_M] kernel: products, reductions and Galois maps.

Usage: python3 scripts/kernel_probe.py --repeat 20 --seed 1
Prints one row per order M and coefficient width with the median
microseconds per call, over five batches of --repeat calls, of
`_poly_mul` on two reduced vectors, `reduce_mod_cyclotomic` of their
product, `reduce_mod_cyclotomic` of a length-M root-count vector,
`from_root_counts` of a Gauss-sum-shaped count vector,
`CycloValue.galois` by a unit, and one cold `CharSystem.jacobi_sum` over
F_{p^2} (its cache emptied before each call; the Zech table is built
once).  The orders are M = 336 and 2184 (phi 96 and 576), that is
M = n p for n = 48 and 168 = p^2 - 1 and p = 7 and 13; the Jacobi sums
lie at order n (phi 16 and 48) and do not depend on the width.  "small"
coefficients lie in [-13, 13] and "wide" ones in (-10^31, 10^31), and the
counts in [0, 13] and [0, 10^31).  The Gauss-sum-shaped vector has the n
live exponents a p + t_a n of a character of full order, one per a < n
with t_a drawn from [0, p), and counts drawn from [1, 13] and [1, 10^31).
The Jacobi sum takes two random characters whose product is nontrivial,
the same pair in both rows of an order.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
from time import perf_counter

from charsum._intutil import euler_phi
from charsum.characters import CharSystem
from charsum.cyclotomic import (CycloValue, _poly_mul, from_root_counts,
                                reduce_mod_cyclotomic)
from charsum.field_tower import build_tower


def _per_call_us(fn, repeat, batches=5):
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(repeat):
            fn()
        times.append((perf_counter() - t0) / repeat)
    return statistics.median(times) * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    rng = random.Random(args.seed)
    print(f"{'order':<6} {'coeffs':<6} {'poly_mul_us':>12} {'reduce_us':>12} "
          f"{'roots_us':>12} {'gauss_us':>12} {'galois_us':>12} "
          f"{'jacobi_us':>12}")
    for M, p in ((336, 7), (2184, 13)):
        n = euler_phi(M)
        unit = rng.choice([u for u in range(2, M) if math.gcd(u, M) == 1])
        # the Jacobi pair comes from its own source, so the other columns'
        # inputs stay those of the seed
        system = CharSystem(build_tower(p, 1, degrees=(2,)))
        system.tower.zech_table(2)
        jrng = random.Random(args.seed * M)
        ja = jrng.randrange(1, M // p)
        jb = jrng.choice([j for j in range(1, M // p) if (ja + j) % (M // p)])

        def jacobi():
            system._jacobi_cache.clear()
            return system.jacobi_sum(2, ja, jb)
        for label, bound in (("small", 14), ("wide", 10 ** 31)):
            a, b = (tuple(rng.randrange(-bound + 1, bound) for _ in range(n))
                    for _ in range(2))
            prod = _poly_mul(a, b)
            counts = [rng.randrange(bound) for _ in range(M)]
            gauss = [0] * M
            for e in range(M // p):
                gauss[(e * p + rng.randrange(p) * (M // p)) % M] = \
                    rng.randrange(1, bound)
            v = CycloValue(M, a)
            ops = (lambda: _poly_mul(a, b),
                   lambda: reduce_mod_cyclotomic(prod, M),
                   lambda: reduce_mod_cyclotomic(counts, M),
                   lambda: from_root_counts(M, gauss),
                   lambda: v.galois(unit),
                   jacobi)
            for op in ops:
                op()  # builds the order's reduction plan
            row = " ".join(f"{_per_call_us(op, args.repeat):12.1f}"
                           for op in ops)
            print(f"M{M:<5} {label:<6} {row}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
