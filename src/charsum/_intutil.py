"""Small integer-arithmetic helpers shared across modules."""

from __future__ import annotations

import math
from functools import lru_cache

from charsum.errors import InternalCheckError


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending."""
    if n < 1:
        raise InternalCheckError(f"factorize({n}): n must be positive")
    out = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    r = 1
    for p, e in factorize(n):
        r *= (p - 1) * p ** (e - 1)
    return r


@lru_cache(maxsize=None)
def moebius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return tuple(sorted(ds))


def solve_congruences(coeffs, residues, modulus: int) -> int | None:
    """Least t in [0, modulus) with n*t = c (mod modulus) for every pair
    (n, c) of coeffs and residues, or None when the system has no solution.

    Alone, n*t = c is solvable iff g = gcd(n, modulus) divides c, and then
    pins t modulo modulus/g; the pinned classes merge by CRT over moduli
    that need not be coprime.  Zero and negative n are allowed.
    """
    r, m = 0, 1  # the solutions so far: t = r (mod m), m | modulus
    for n, c in zip(coeffs, residues):
        g = math.gcd(n, modulus)
        if c % g:
            return None
        mi = modulus // g
        ri = (c // g) * pow(n // g, -1, mi) % mi
        h = math.gcd(m, mi)
        if (ri - r) % h:
            return None
        step = mi // h
        k = (ri - r) // h * pow(m // h, -1, step) % step
        r, m = r + m * k, m * step
    return r


def group_ring_fold(pools, m1: int, m2: int) -> dict[tuple[int, int], int]:
    """The product of the pools in the group ring of Z/m1 x Z/m2, each
    pool a list of pairs (u, v) read as the sum of its elements: for each
    (u mod m1, v mod m2), the number of tuples, one pair from each pool,
    whose pairs sum to it.  No pools give the unit {(0, 0): 1}.  The
    histogram absorbs one pool at a time, so each step costs its size
    times one pool's size, never the product of all the pool sizes."""
    hist = {(0, 0): 1}
    for pool in pools:
        fold = {}
        for (u, v), cnt in hist.items():
            for u2, v2 in pool:
                key = ((u + u2) % m1, (v + v2) % m2)
                fold[key] = fold.get(key, 0) + cnt
        hist = fold
    return hist
