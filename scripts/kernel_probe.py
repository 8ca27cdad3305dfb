"""Time the Z[zeta_M] kernel: products, reductions and Galois maps.

Usage: python3 scripts/kernel_probe.py --repeat 20 --seed 1
Prints one row per order M and coefficient width with the median
microseconds per call, over five batches of --repeat calls, of
`_poly_mul` on two reduced vectors, `reduce_mod_cyclotomic` of their
product, `reduce_mod_cyclotomic` of a length-M root-count vector,
`from_root_counts` of a Gauss-sum-shaped count vector (one dense
reduction: all M slots packed, then both stages of the reduction plan),
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

A second table, `layer us`, times three oracle paths the same way, each
on warm tower tables: `transform_F13_cubic` is `fourier_transform` of
the trace function of (3, -1), (1, e3) over F_13 (a 13 x 13 grid);
`i_direct_F9x3` is the direct I-sum on F_9 x F_3 changed to base degree
2, (2, 2, 2) over F_9 with ranks (1, 1, -2), for a seeded twist;
`ratio_F7_2fold` is the 2-fold ratio sum over F_7 for a seeded
character and seeded hats; `sweep_tuple_F49` is one seeded support twist
of the degree-2 moment sweep of (3, -1), (1, e3) over F_7, its right side
folded (norm_algebra._right_terms) and compared (_twist_by_forms) in
Jacobi form at order 48, with the Jacobi sums and forms it reads emptied
before each call, as in a cold sweep; the roots of unity stay cached, as
they do within a sweep.  `sweep_orbit_F49` is the mean per twist of one
pass over that degree's whole support as the sweep makes it, one fold per
Galois orbit: norm_algebra._sweep to depth 1 on the base-changed data
over F_49, with the Jacobi sums and forms emptied before each pass.
`identity_F169_hd12` is the mean per lam of `verify_monomial_identity`
over the 168 lam of the n = 12 Hasse-Davenport monomial over F_169, with
the Jacobi sums, forms and identity memo emptied before each pass over
them (its record, built once, stays): one representative folded per
orbit of units and translations, the other forms Galois-transported, one
comparison per memo miss.  `import_charsum` is the median of 5 x --repeat
in-process re-imports of charsum and charsum.cli, each after every
charsum module is dropped from sys.modules and a gc.collect(), as
perfbench/run.py starts each round.  It compiles every module from source
when no bytecode can be read (PYTHONDONTWRITEBYTECODE set and none
cached), and reads bytecode otherwise, so a reading names that state.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import random
import statistics
import sys
from time import perf_counter

from charsum import norm_algebra as na
from charsum._intutil import euler_phi
from charsum.characters import CharSystem
from charsum.cyclotomic import (CycloValue, _poly_mul, from_root_counts,
                                reduce_mod_cyclotomic)
from charsum.field_tower import build_tower
from charsum.identity_engine import GammaMonomial, verify_monomial_identity
from charsum.monomial_fourier import (MonomialDatum, _ratio_sum,
                                      fourier_transform)
from charsum.stalk_traces import gm_trace_function


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

    print()
    print(f"{'layer':<20} {'us':>12}")
    for name, op, per in _layer_ops(random.Random(args.seed)):
        op()  # builds the tower tables and the reduction plans
        print(f"{name:<20} {_per_call_us(op, args.repeat) / per:12.1f}")
    print(f"{'import_charsum':<20} {_import_us(5 * args.repeat):12.1f}")
    return 0


def _layer_ops(rng):
    s13 = CharSystem(build_tower(13, 1, degrees=(1,)))
    cubic = gm_trace_function(s13, MonomialDatum(
        1, (3, -1), (s13.trivial(1), s13.char_of_order(1, 3)), 1))
    s3 = CharSystem(build_tower(3, 1, degrees=(1, 2)))
    alg = na.EtaleAlgebra(s3.tower, (2, 1))
    alg2 = na.base_change(s3, alg, 2)
    mod2 = na.extend_module(s3, alg, na.VirtualModule((1, -2)), 2)
    lam = na.NormCharacter(tuple(s3.character(2, rng.randrange(1, 8))
                                 for _ in alg2.degrees))
    s7 = CharSystem(build_tower(7, 1, degrees=(1,)))
    chi = s7.character(1, rng.randrange(6))
    xhat, yhat = ([rng.randrange(1, 7) for _ in range(2)] for _ in range(2))
    return (("transform_F13_cubic", lambda: fourier_transform(s13, cubic),
             1),
            ("i_direct_F9x3", lambda: na._i_direct(s3, alg2, mod2, lam, 1),
             1),
            ("ratio_F7_2fold", lambda: _ratio_sum(s7, chi, 1, xhat, yhat),
             1),
            *_sweep_rows(rng),
            ("identity_F169_hd12", _identity_pass(), 168))


def _import_us(count):
    times = []
    for _ in range(count):
        for name in [n for n in sys.modules
                     if n == "charsum" or n.startswith("charsum.")]:
            del sys.modules[name]
        gc.collect()
        t0 = perf_counter()
        importlib.import_module("charsum")
        importlib.import_module("charsum.cli")
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


def _sweep_rows(rng):
    s7 = CharSystem(build_tower(7, 1, degrees=(1, 2)))
    alg = na.EtaleAlgebra(s7.tower, (1, 1))
    mod = na.VirtualModule((3, -1))
    chi = na.NormCharacter((s7.trivial(1), s7.char_of_order(1, 3)))
    data = (na.base_change(s7, alg, 2), na.extend_module(s7, alg, mod, 2),
            na.extend_character(s7, alg, chi, 2), na.extend_scalar(s7, alg, 1, 2))
    sol = na.solve_norm_transform(s7, *data)
    target = sol.transformed()
    c_form = na._c_form(s7, data[0], data[2], sol)
    support = na._support(s7, *data[:3], target)
    lam = rng.choice(support)

    def twist():
        s7._jacobi_cache.clear()
        s7._form_cache.clear()
        right = na._right_terms(s7, data[0], target, lam, c_form)
        return na._twist_by_forms(s7, *data, lam, right)

    def orbit_pass():
        s7._jacobi_cache.clear()
        s7._form_cache.clear()
        return na._sweep(s7, *data, 1)
    return (("sweep_tuple_F49", twist, 1),
            ("sweep_orbit_F49", orbit_pass, len(support)))


def _identity_pass():
    s13 = CharSystem(build_tower(13, 1, degrees=(1, 2)))
    one = s13.trivial(1)
    mono = GammaMonomial([(one, 12), (one, -1)] + [
        (s13.char_of_order(1, 12, i), -1) for i in range(1, 12)])
    lams = [s13.character(2, i) for i in range(168)]

    def verify_all():
        s13._jacobi_cache.clear()
        s13._form_cache.clear()
        s13._identity_memo.clear()
        for lam in lams:
            verify_monomial_identity(s13, mono, lam)
    return verify_all


if __name__ == "__main__":
    raise SystemExit(main())
