"""Divisors on Q/Z and the symbol calculus that maps onto them.

A Divisor is a finite Z-linear combination of points of Q/Z, stored as
Fractions normalized to [0, 1).  divisor_fold is the one fold of weighted
division-point divisors of characters, read by the identity route, the
module divisor and the transform solver.  SymbolSum is a formal Z-module on
symbols (s, n) at level N, with s in Z/N and n a positive width; the symbol
stands for the divisor of the n division points above s/(nN), which only
depends on s mod N.  Symbols satisfy the expansion relation

    (d*s, d*n) = sum_{i<d} (s + i*N/d, n)      for d | N,

and reduce_to_basis rewrites by it until every symbol has gcd(s, n, N) = 1.
The divisor map is constant on that rewriting, which is what the injectivity
probe exercises.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from fractions import Fraction

from charsum.errors import InternalCheckError, SchemaError


def frac_mod1(x: Fraction) -> Fraction:
    return x - math.floor(x)


class Divisor:
    __slots__ = ("_pts",)

    def __init__(self, points: Mapping[Fraction, int] | None = None):
        pts: dict[Fraction, int] = {}
        if points:
            for pt, mult in points.items():
                if mult:
                    key = frac_mod1(Fraction(pt))
                    pts[key] = pts.get(key, 0) + mult
                    if not pts[key]:
                        del pts[key]
        self._pts = pts

    def points(self):
        return tuple(sorted(self._pts.items()))

    def is_zero(self) -> bool:
        return not self._pts

    def degree(self) -> int:
        return sum(self._pts.values())

    def scale(self, k: int) -> "Divisor":
        return Divisor({pt: k * m for pt, m in self._pts.items()})

    def __add__(self, other: "Divisor") -> "Divisor":
        out = dict(self._pts)
        for pt, m in other._pts.items():
            out[pt] = out.get(pt, 0) + m
        return Divisor(out)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + other.scale(-1)

    def __neg__(self) -> "Divisor":
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self._pts == other._pts

    def __hash__(self):
        return hash(frozenset(self._pts.items()))

    def __repr__(self):
        inner = ", ".join(f"{pt}: {m}" for pt, m in self.points())
        return f"Divisor({{{inner}}})"

    def records(self):
        """JSON-ready sorted list of {num, den, mult}."""
        return [{"num": pt.numerator, "den": pt.denominator, "mult": m}
                for pt, m in self.points()]


def divisor_of_char_power(point: Fraction, n: int) -> Divisor:
    """Divisor with the n division points (point + i)/n; n < 0 negates
    the divisor of the inverse point, n = 0 gives the zero divisor."""
    if n == 0:
        return Divisor()
    if n < 0:
        return -divisor_of_char_power(frac_mod1(-Fraction(point)), -n)
    pts: dict[Fraction, int] = {}
    for i in range(n):
        pt = frac_mod1(Fraction(Fraction(point) + i, n))
        pts[pt] = pts.get(pt, 0) + 1
    return Divisor(pts)


def divisor_fold(terms) -> Divisor:
    """The sum over the terms (a, N, n, w) of w divisor_of_char_power(a/N,
    n), a/N being the point of the character of index a among N.

    The term has the |n| division points (sign(n) a + i N) / (|n| N) mod 1,
    i < |n|, each with multiplicity w sign(n); n = 0 adds none.  Every
    point is summed as an integer numerator over L = lcm |n| N, and only
    the points that survive become Fractions."""
    terms = [term for term in terms if term[2]]
    den = math.lcm(*(abs(n) * size for _, size, n, _ in terms))
    pts: dict[int, int] = {}
    for a, size, n, w in terms:
        sign, width = (1, n) if n > 0 else (-1, -n)
        step = den // (width * size)
        for i in range(width):
            x = (sign * a + i * size) * step % den
            pts[x] = pts.get(x, 0) + sign * w
    return Divisor({Fraction(x, den): c for x, c in pts.items() if c})


class SymbolSum:
    """Formal Z-combination of symbols (s, n) at level N.

    s is kept mod N.  When char_coprime is set, only symbols with
    gcd(n, char_coprime) = 1 are admitted.
    """

    __slots__ = ("N", "char_coprime", "_terms")

    def __init__(self, N: int, terms: Mapping | None = None,
                 char_coprime: int | None = None):
        if N < 1:
            raise SchemaError(f"level N = {N} must be positive")
        self.N = N
        self.char_coprime = char_coprime
        agg: dict[tuple[int, int], int] = {}
        if terms:
            for (s, n), c in terms.items():
                if n < 1:
                    raise SchemaError(f"symbol width n = {n} must be positive")
                if char_coprime is not None and math.gcd(n, char_coprime) != 1:
                    raise SchemaError(
                        f"symbol width {n} not coprime to {char_coprime}")
                if c:
                    key = (s % N, n)
                    agg[key] = agg.get(key, 0) + c
                    if not agg[key]:
                        del agg[key]
        self._terms = agg

    def terms(self):
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _like(self, terms) -> "SymbolSum":
        return SymbolSum(self.N, terms, self.char_coprime)

    def __add__(self, other: "SymbolSum") -> "SymbolSum":
        if self.N != other.N:
            raise InternalCheckError(
                f"sum of symbols at levels {self.N} and {other.N}")
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c
        return self._like(out)

    def __sub__(self, other: "SymbolSum") -> "SymbolSum":
        return self + other.scale(-1)

    def __neg__(self) -> "SymbolSum":
        return self.scale(-1)

    def scale(self, k: int) -> "SymbolSum":
        return self._like({key: k * c for key, c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, SymbolSum):
            return NotImplemented
        return self.N == other.N and self._terms == other._terms

    def __hash__(self):
        return hash((self.N, frozenset(self._terms.items())))

    def __repr__(self):
        inner = ", ".join(f"{key}: {c}" for key, c in sorted(self._terms.items()))
        return f"SymbolSum(N={self.N}, {{{inner}}})"

    def expand_symbol(self, s: int, n: int, d: int) -> "SymbolSum":
        """The relation (d*s, d*n) = sum_{i<d} (s + i*N/d, n); d must divide N."""
        if d < 1 or self.N % d:
            raise SchemaError(f"expansion factor {d} does not divide N = {self.N}")
        step = self.N // d
        out: dict[tuple[int, int], int] = {}
        for i in range(d):
            key = ((s + i * step) % self.N, n)
            out[key] = out.get(key, 0) + 1
        return self._like(out)

    def reduce_to_basis(self) -> "SymbolSum":
        terms = dict(self._terms)
        while True:
            target = None
            for (s, n), c in terms.items():
                g = math.gcd(math.gcd(s, n), self.N)
                if g > 1:
                    target = (s, n, c, g)
                    break
            if target is None:
                return self._like(terms)
            s, n, c, g = target
            del terms[(s, n)]
            for key, m in self.expand_symbol(s // g, n // g, g)._terms.items():
                terms[key] = terms.get(key, 0) + c * m
                if not terms[key]:
                    del terms[key]

    def to_divisor(self) -> Divisor:
        pts: dict[Fraction, int] = {}
        for (s, n), c in self._terms.items():
            for j in range(n):
                pt = frac_mod1(Fraction(s, n * self.N) + Fraction(j, n))
                pts[pt] = pts.get(pt, 0) + c
        return Divisor(pts)


def _admitted(n: int, char_coprime: int | None) -> bool:
    return char_coprime is None or math.gcd(n, char_coprime) == 1


def probe_size(N: int, char_coprime: int | None = None,
               trials: int = 200) -> int:
    """The number of checks injectivity_probe makes: S^2 + trials, for the
    S single symbols and their S(S - 1) differences."""
    singles = N * sum(_admitted(n, char_coprime) for n in range(1, 4))
    return singles ** 2 + trials


def injectivity_probe(N: int, char_coprime: int | None = None, seed: int = 0,
                      trials: int = 200) -> dict:
    """Check to_divisor(x) = 0 iff reduce_to_basis(x) = 0 on a test battery.

    Exhaustive over single symbols and differences of symbols with n <= 3,
    then seeded random combinations with up to 4 terms and n <= 6.
    """
    rng = random.Random(seed)
    checked = 0
    failures = []

    def check(x: SymbolSum):
        nonlocal checked
        checked += 1
        if x.to_divisor().is_zero() != x.reduce_to_basis().is_zero():
            failures.append(repr(x))

    singles = [(s, n) for n in range(1, 4) if _admitted(n, char_coprime)
               for s in range(N)]
    for sym in singles:
        check(SymbolSum(N, {sym: 1}, char_coprime))
    for a in singles:
        for b in singles:
            if a != b:
                check(SymbolSum(N, {a: 1, b: -1}, char_coprime))
    widths = [n for n in range(1, 7) if _admitted(n, char_coprime)]
    for _ in range(trials):
        terms: dict[tuple[int, int], int] = {}
        for _ in range(rng.randint(1, 4)):
            n = rng.choice(widths)
            s = rng.randrange(n * N)
            c = rng.randint(-3, 3)
            key = (s, n)
            terms[key] = terms.get(key, 0) + c
        check(SymbolSum(N, terms, char_coprime))
    return {"checked": checked, "failures": failures}
