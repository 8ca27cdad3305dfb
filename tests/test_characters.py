"""Tests for character systems and exact Gauss sums."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from charsum.characters import CharSystem, MultCharacter
from charsum.cyclotomic import from_int, root
from charsum.errors import SchemaError
from charsum.field_tower import build_tower


def system(p, s=1, degrees=(1,), c=1):
    return CharSystem(build_tower(p, s, degrees=degrees), c=c)


def test_gauss_sum_quadratic_fixture():
    sy = system(3)
    eps2 = sy.char_of_order(1, 2)
    assert sy.gauss_sum(eps2) == root(3, 1) - root(3, 2)


def test_trivial_gauss_sum_is_minus_one():
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)]:
        sy = system(p, s)
        assert sy.gauss_sum(sy.trivial(1)) == -1


def test_gauss_sum_magnitude():
    for p, s in [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]:
        sy = system(p, s)
        q = sy.tower.q
        for idx in range(1, q - 1):
            assert sy.gauss_sum(sy.character(1, idx)).abs_squared() == q


def test_gauss_sum_reflection():
    for p in (5, 7):
        sy = system(p)
        for idx in range(1, p - 1):
            chi = sy.character(1, idx)
            lhs = sy.gauss_sum(chi) * sy.gauss_sum(sy.char_inv(chi))
            assert lhs == sy.char_value(chi, sy.tower.minus_one()) * p
    # every character of F_169, whose Gauss sums lie at M = 168 * 13; the
    # trivial one has g = -1
    sy = system(13, degrees=(1, 2))
    minus = sy.tower.embed(1, 2, sy.tower.minus_one())
    for idx in range(168):
        chi = sy.character(2, idx)
        lhs = sy.gauss_sum(chi) * sy.gauss_sum(sy.char_inv(chi))
        assert lhs == (sy.char_value(chi, minus) * 169 if idx else 1)


def test_conj_gauss_sum():
    for p in (5, 7):
        sy = system(p)
        for idx in range(p - 1):
            chi = sy.character(1, idx)
            assert sy.conj_gauss_sum(chi) == sy.gauss_sum(chi).conjugate()


def test_twist_changes_gauss_sum_by_character_value():
    base = system(7, c=1)
    twisted = system(7, c=3)
    for idx in range(6):
        chi = base.character(1, idx)
        expected = base.char_value(base.char_inv(chi), 3) * base.gauss_sum(chi)
        assert twisted.gauss_sum(chi) == expected


def test_char_values_multiplicative():
    sy = system(3, degrees=(1, 2))
    chi = sy.character(2, 3)
    t = sy.tower
    for x in range(1, 9):
        for y in range(1, 9):
            assert sy.char_value(chi, t.mul(2, x, y)) == \
                sy.char_value(chi, x) * sy.char_value(chi, y)
    assert sy.char_value(chi, 0) == 0


def test_quadratic_char_is_square_indicator():
    sy = system(7)
    eps2 = sy.char_of_order(1, 2)
    squares = {(x * x) % 7 for x in range(1, 7)}
    for x in range(1, 7):
        expected = 1 if x in squares else -1
        assert sy.char_value(eps2, x) == expected


def test_psi_additive():
    sy = system(3, 2)
    t = sy.tower
    for x in range(9):
        for y in range(9):
            assert sy.psi_value(1, t.add(1, x, y)) == \
                sy.psi_value(1, x) * sy.psi_value(1, y)


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])
def test_psi_exponents_add_mod_p(p, s):
    # psi(x + y) = psi(x) psi(y) as exponents mod p, at degrees 1 and 2 and
    # under every additive twist c, so sums of psi arguments need no field
    # addition (monomial_fourier._ratio_sum)
    for c in range(1, p ** s):
        sy = system(p, s, degrees=(1, 2), c=c)
        t = sy.tower
        for d in (1, 2):
            psi = sy.psi_exponents(d)
            for x, y in product(range(t.order(d)), repeat=2):
                assert psi[t.add(d, x, y)] == (psi[x] + psi[y]) % p


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2),
                                 (13, 2)])
def test_sign_at_neg_one_matches_character_table(p, d):
    # F_4, F_8, F_9, F_25, F_49 and F_169: both parities of q, and the
    # orders of the sweeps and the falsifier; the table route reads -1
    # embedded at degree d
    sy = system(p, degrees=(1, d))
    t = sy.tower
    minus = t.embed(1, d, t.minus_one())
    for idx in range(t.group_order(d)):
        chi = sy.character(d, idx)
        assert sy.char_value(chi, minus) == sy.sign_at_neg_one(idx)


def test_psi_exponents_twisted_over_f9():
    # c = 5 lies outside F_3, so the table must carry the embedded twist
    sy = system(3, 2, degrees=(1, 2), c=5)
    t = sy.tower
    for d in (1, 2):
        cd = t.embed(1, d, 5)
        assert sy.psi_exponents(d) == [t.absolute_trace(d, t.mul(d, cd, x))
                                       for x in range(t.order(d))]


def test_gauss_sum_is_per_term_sum_twisted_over_f9():
    sy = system(3, 2, degrees=(1, 2), c=5)
    t = sy.tower
    for d in (1, 2):
        for idx in range(0, t.group_order(d), 7):
            chi = sy.character(d, idx)
            per_term = sum((sy.psi_value(d, x) * sy.char_value(chi, x)
                            for x in range(1, t.order(d))), from_int(0))
            assert sy.gauss_sum(chi) == per_term


def test_char_point_roundtrip():
    sy = system(5)
    eps2 = sy.char_of_order(1, 2)
    assert sy.char_point(eps2) == Fraction(1, 2)
    assert sy.char_from_point(1, Fraction(1, 2)) == eps2
    assert sy.char_from_point(1, Fraction(5, 4)) == sy.character(1, 1)
    with pytest.raises(SchemaError):
        sy.char_from_point(1, Fraction(1, 3))


def test_lift_preserves_point():
    sy = system(3, degrees=(1, 2))
    chi = sy.char_of_order(1, 2)
    lifted = sy.lift_character(chi, 2)
    assert lifted.index == 4
    assert sy.char_point(lifted) == sy.char_point(chi)


def test_char_group_operations():
    sy = system(7)
    a = sy.character(1, 2)
    b = sy.character(1, 5)
    assert sy.char_mul(a, b).index == 1
    assert sy.char_inv(a).index == 4
    assert sy.char_order(a) == 3
    assert sy.is_trivial(sy.char_pow(a, 3))
    with pytest.raises(SchemaError):
        sy.char_of_order(1, 4)


def test_hd_lift():
    sy3 = system(3, degrees=(1, 2, 3))
    eps2 = sy3.char_of_order(1, 2)
    assert sy3.check_hd_lift(eps2, 2)
    assert sy3.check_hd_lift(eps2, 3)
    assert sy3.check_hd_lift(sy3.trivial(1), 2)

    sy5 = system(5, degrees=(1, 2, 3))
    for idx in range(4):
        for d in (2, 3):
            assert sy5.check_hd_lift(sy5.character(1, idx), d)

    sy4 = system(2, 2, degrees=(1, 2))
    for idx in range(3):
        assert sy4.check_hd_lift(sy4.character(1, idx), 2)


def test_hd_lift_from_intermediate_degree():
    sy = system(3, degrees=(1, 2, 4))
    chi = sy.character(2, 3)
    assert sy.check_hd_lift(chi, 4)


def test_hd_product():
    sy7 = system(7)
    for n in (2, 3, 6):
        for idx in range(6):
            assert sy7.check_hd_product(sy7.character(1, idx), n)
    sy13 = system(13)
    for n in (2, 3, 4, 6, 12):
        assert sy13.check_hd_product(sy13.character(1, 1), n)
    with pytest.raises(SchemaError):
        sy7.check_hd_product(sy7.character(1, 1), 4)


def kloosterman(sy, chars, t_code):
    """Sum of psi(x_1+...+x_k) chi_1(x_1)...chi_k(x_k) over x_1*...*x_k = t
    in F_p, term by term."""
    p = sy.tower.p
    total = from_int(0)
    for xs in product(range(1, p), repeat=len(chars)):
        if math.prod(xs) % p != t_code:
            continue
        term = sy.psi_value(1, sum(xs) % p)
        for chi, x in zip(chars, xs):
            term = term * sy.char_value(chi, x)
        total = total + term
    return total


def test_kloosterman_fourier_invariant():
    # sum_t K(t) lam(t) = prod_i g(lam chi_i)
    sy = system(5)
    chars = (sy.trivial(1), sy.char_of_order(1, 2))
    for lam_idx in range(4):
        lam = sy.character(1, lam_idx)
        total = from_int(0)
        for t_code in range(1, 5):
            total = total + kloosterman(sy, chars, t_code) * \
                sy.char_value(lam, t_code)
        expected = sy.gauss_sum(sy.char_mul(lam, chars[0])) * \
            sy.gauss_sum(sy.char_mul(lam, chars[1]))
        assert total == expected


def test_kloosterman_inversion():
    # n * K(t) = sum_lam prod_i g(lam chi_i) lam(1/t)
    sy = system(5)
    chars = (sy.trivial(1), sy.trivial(1))
    n = 4
    t = sy.tower
    for t_code in range(1, 5):
        total = from_int(0)
        for lam_idx in range(n):
            lam = sy.character(1, lam_idx)
            prod = sy.gauss_sum(lam) * sy.gauss_sum(lam)
            total = total + prod * sy.char_value(lam, t.inv(1, t_code))
        assert total == n * kloosterman(sy, chars, t_code)


def test_kloosterman_three_variables():
    sy = system(3)
    triv = sy.trivial(1)
    eps = sy.char_of_order(1, 2)
    chars = (triv, eps, triv)
    for lam_idx in range(2):
        lam = sy.character(1, lam_idx)
        total = from_int(0)
        for t_code in (1, 2):
            total = total + kloosterman(sy, chars, t_code) * \
                sy.char_value(lam, t_code)
        expected = from_int(1)
        for ch in chars:
            expected = expected * sy.gauss_sum(sy.char_mul(lam, ch))
        assert total == expected


def test_product_of_gauss_cached_and_order_free():
    sy = system(7, degrees=(1, 2))
    chars = [sy.character(1, i) for i in (1, 2, 3)]
    v1 = sy.product_of_gauss(chars)
    v2 = sy.product_of_gauss(reversed(chars))
    v3 = sy.product_of_gauss([MultCharacter(1, 1 + 6)] + chars[1:])
    assert v1 is v2 is v3
    direct = from_int(1)
    for chi in chars:
        direct = direct * sy.gauss_sum(chi)
    assert v1 == direct
    # mixed degrees: one multiset key over (degree, index) pairs
    mixed = [sy.character(2, 5), sy.character(1, 4), sy.character(2, 5)]
    want = sy.gauss_sum(mixed[0]) ** 2 * sy.gauss_sum(mixed[1])
    assert sy.product_of_gauss(mixed) == want
    assert sy.product_of_gauss(mixed[::-1]) is sy.product_of_gauss(mixed)
    # the degree is part of the key: index 4 at degree 2 is another character
    assert sy.product_of_gauss([sy.character(2, 4)]) != \
        sy.product_of_gauss([sy.character(1, 4)])
    assert sy.product_of_gauss([]) == 1
    assert len(sy._product_cache) == 5


def test_gauss_sum_lifted_character_stays_small_order():
    # lifted characters produce values in the base-order ring
    sy = system(7, degrees=(1, 2))
    chi = sy.char_of_order(1, 3)
    lifted = sy.lift_character(chi, 2)
    val = sy.gauss_sum(lifted)
    assert val.order <= 21


def test_bad_twist():
    with pytest.raises(SchemaError):
        system(5, c=0)
    with pytest.raises(SchemaError):
        system(5, c=5)


# ------------------------------------------------ Jacobi sums and forms


def test_jacobi_sum_is_gauss_quotient_and_twist_free():
    # g(a) g(b) = J(a, b) g(ab) for ab nontrivial, under either twist;
    # J lives at order q^d - 1 and is cached by the unordered pair
    for p, s, d in [(5, 1, 2), (3, 2, 1), (2, 3, 1), (7, 1, 1)]:
        systems = [system(p, s, degrees=(d,), c=c)
                   for c in sorted({1, p - 1})]
        n = systems[0].tower.group_order(d)
        for a in range(n):
            for b in range(n):
                if (a + b) % n == 0:
                    continue
                js = [sy.jacobi_sum(d, a, b) for sy in systems]
                assert all(j == js[0] for j in js)
                assert n % js[0].order == 0
                sy = systems[-1]
                g = sy.gauss_sum
                assert js[0] * g(MultCharacter(d, a + b)) == \
                    g(MultCharacter(d, a)) * g(MultCharacter(d, b))
                assert sy.jacobi_sum(d, b, a) is js[-1]
                assert sy.jacobi_sum(d, a + n, b) is js[-1]
        assert systems[0].jacobi_sum(d, 0, 1) == -1


def _assert_form_is_product(sy, d, indices):
    c, t = sy.gauss_form(d, indices)
    n = sy.tower.group_order(d)
    assert 0 <= t < n and t == sum(indices) % n
    assert n % c.order == 0
    want = sy.product_of_gauss([MultCharacter(d, i) for i in indices])
    assert c * sy.gauss_sum(MultCharacter(d, t)) == want, (d, indices)


@pytest.mark.parametrize("p,s,degrees", [(5, 1, (1, 2)), (7, 1, (1,)),
                                         (2, 3, (1,)), (3, 2, (1,)),
                                         (2, 1, (1, 2, 3))])
def test_gauss_form_matches_product_small_fields(p, s, degrees):
    # every multiset of at most 3 characters, trivial ones, inverse pairs
    # and all-trivial ones included, under twists 1 and q - 1
    q = p ** s
    for c in sorted({1, q - 1}):
        sy = system(p, s, degrees=degrees, c=c)
        for d in degrees:
            n = sy.tower.group_order(d)
            for k in (1, 2, 3):
                for ms in combinations_with_replacement(range(n), k):
                    _assert_form_is_product(sy, d, ms)


def test_gauss_form_matches_product_f169():
    # seeded multisets of 2 to 13 characters over F_169, plus the shapes
    # the fold branches on: all trivial, inverse pairs, trivial padding
    sy = system(13, degrees=(1, 2))
    rng = random.Random(19)
    cases = [[0] * 5, [1, 167], [5, 163, 0, 0], [84, 84], [84, 84, 84],
             [14 * i for i in range(12)] + [0]]
    cases += [[rng.randrange(168) for _ in range(rng.randint(2, 13))]
              for _ in range(40)]
    cases += [[x for i in rng.sample(range(1, 168), 3) for x in (i, -i)]
              for _ in range(10)]
    for ms in cases:
        _assert_form_is_product(sy, 2, ms)
    # the form is cached by the multiset, in any order
    assert sy.gauss_form(2, [3, 1, 2]) is sy.gauss_form(2, (2, 169, 3))
