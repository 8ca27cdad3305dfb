"""Tests for divisors on Q/Z and the symbol calculus."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from charsum.divisor_calc import (
    Divisor,
    SymbolSum,
    divisor_of_char_power,
    frac_mod1,
    injectivity_probe,
)
from charsum.errors import SchemaError

F = Fraction


def test_divisor_basic_algebra():
    a = Divisor({F(1, 4): 1, F(1, 2): 2})
    b = Divisor({F(1, 2): -2, F(3, 4): 1})
    s = a + b
    assert s == Divisor({F(1, 4): 1, F(3, 4): 1})
    assert (s - s).is_zero()
    assert a.scale(3) == Divisor({F(1, 4): 3, F(1, 2): 6})
    assert (-a).degree() == -3
    # points are normalized mod 1
    assert a == Divisor({F(5, 4): 1, F(-1, 2): 2})


def test_divisor_records_sorted():
    d = Divisor({F(3, 4): 2, F(1, 8): -1, F(0): 5})
    assert d.records() == [
        {"num": 0, "den": 1, "mult": 5},
        {"num": 1, "den": 8, "mult": -1},
        {"num": 3, "den": 4, "mult": 2},
    ]


def test_divisor_drops_zeros():
    d = Divisor({F(1, 3): 0})
    assert d.is_zero()
    assert Divisor({F(1, 3): 1, F(4, 3): -1}).is_zero()


def test_symbol_expansion_fixture():
    x = SymbolSum(4, {(2, 2): 1})
    red = x.reduce_to_basis()
    assert red == SymbolSum(4, {(1, 1): 1, (3, 1): 1})


def test_symbol_to_divisor_fixture():
    assert SymbolSum(4, {(1, 1): 1}).to_divisor() == Divisor({F(1, 4): 1})
    got = SymbolSum(4, {(1, 2): 1}).to_divisor()
    assert got == Divisor({F(1, 8): 1, F(5, 8): 1})


def test_expansion_relation_preserves_divisor():
    x = SymbolSum(6, {})
    for d in (2, 3, 6):
        for s in range(5):
            for n in (1, 2):
                lhs = SymbolSum(6, {(d * s, d * n): 1})
                rhs = x.expand_symbol(s, n, d)
                assert lhs.to_divisor() == rhs.to_divisor()


def test_reduce_preserves_divisor_random():
    rng = random.Random(5)
    for N in (1, 2, 4, 6, 8, 12):
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                n = rng.randint(1, 6)
                s = rng.randrange(n * N)
                terms[(s, n)] = terms.get((s, n), 0) + rng.randint(-3, 3)
            x = SymbolSum(N, terms)
            red = x.reduce_to_basis()
            assert red.to_divisor() == x.to_divisor()
            import math
            for (s, n) in red.terms():
                assert math.gcd(math.gcd(s, n), N) == 1


def test_symbol_algebra():
    a = SymbolSum(4, {(1, 1): 2, (2, 3): 1})
    b = SymbolSum(4, {(1, 1): -2})
    assert (a + b) == SymbolSum(4, {(2, 3): 1})
    assert (a - a).is_zero()
    assert a.scale(2).terms()[(1, 1)] == 4
    assert SymbolSum(4, {(9, 2): 1}) == SymbolSum(4, {(1, 2): 1})


def level_map(x, M):
    """The same symbols read at level M*N: (s, n) -> (M*s, n)."""
    return SymbolSum(x.N * M, {(M * s, n): c for (s, n), c in
                               x.terms().items()})


def test_level_map_compatibility():
    x = SymbolSum(4, {(1, 2): 1, (3, 1): -2})
    for M in (1, 2, 3, 5):
        y = level_map(x, M)
        assert y.N == 4 * M
        assert y.to_divisor() == x.to_divisor()
    assert level_map(level_map(x, 2), 3) == level_map(x, 6)


def test_level_map_commutes_with_reduction_on_divisors():
    x = SymbolSum(6, {(2, 2): 1, (3, 3): -1})
    lhs = level_map(x.reduce_to_basis(), 2).to_divisor()
    rhs = level_map(x, 2).reduce_to_basis().to_divisor()
    assert lhs == rhs


def test_injectivity_probe():
    for N in (1, 2, 3, 4, 6, 8, 12):
        report = injectivity_probe(N, seed=1, trials=120)
        assert report["failures"] == []
        assert report["checked"] > 0


def test_injectivity_probe_char_coprime():
    report = injectivity_probe(8, char_coprime=3, seed=2, trials=120)
    assert report["failures"] == []
    with pytest.raises(SchemaError):
        SymbolSum(8, {(1, 3): 1}, char_coprime=3)


def test_divisor_of_char_power():
    assert divisor_of_char_power(F(1, 2), 1) == Divisor({F(1, 2): 1})
    assert divisor_of_char_power(F(1, 2), -1) == Divisor({F(1, 2): -1})
    assert divisor_of_char_power(F(0), 2) == Divisor({F(0): 1, F(1, 2): 1})
    assert divisor_of_char_power(F(1, 4), 2) == \
        Divisor({F(1, 8): 1, F(5, 8): 1})
    assert divisor_of_char_power(F(1, 3), 0).is_zero()
    assert divisor_of_char_power(F(1, 3), -2) == \
        -divisor_of_char_power(F(2, 3), 2)
    for n in (1, 2, 3, 5):
        assert divisor_of_char_power(F(1, 4), n).degree() == n
        assert divisor_of_char_power(F(1, 4), -n).degree() == -n


def test_frac_mod1():
    assert frac_mod1(F(7, 4)) == F(3, 4)
    assert frac_mod1(F(-1, 4)) == F(3, 4)
    assert frac_mod1(F(2)) == 0
