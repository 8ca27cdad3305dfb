"""Oracle and property tests for exact cyclotomic arithmetic."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import charsum
from charsum import cyclotomic
from charsum._intutil import euler_phi
from charsum.cyclotomic import (
    CycloValue,
    _kronecker_mul,
    _lift_coeffs,
    _poly_divmod,
    _poly_mul,
    _trim,
    cyclotomic_poly,
    from_int,
    from_root_counts,
    q_power_ratio,
    reduce_mod_cyclotomic,
    root,
)
from charsum.errors import InternalCheckError


def _counts(M, terms):
    """The length-M count vector of a mapping from exponents (mod M) to
    multiplicities."""
    vec = [0] * M
    for e, c in terms.items():
        vec[e % M] += c
    return vec


# ------------------------------------------------------- cyclotomic polys


FIXED_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("M,expected", sorted(FIXED_PHI.items()))
def test_cyclotomic_poly_small(M, expected):
    assert cyclotomic_poly(M) == expected


def test_cyclotomic_poly_degree():
    for M in range(1, 200):
        f = cyclotomic_poly(M)
        assert len(f) == euler_phi(M) + 1
        assert f[-1] == 1


def test_cyclotomic_poly_at_one():
    # Phi_M(1) = p for prime powers, 1 otherwise (M > 1)
    for M in range(2, 150):
        val = sum(cyclotomic_poly(M))
        facs = [p for p in range(2, M + 1) if M % p == 0 and all(
            p % r for r in range(2, p))]
        if len(facs) == 1:
            assert val == facs[0]
        else:
            assert val == 1


def test_cyclotomic_poly_105_has_minus_two():
    f = cyclotomic_poly(105)
    assert f[7] == -2
    assert f[41] == -2
    assert len(f) == 49


@pytest.mark.parametrize("M", [12, 30, 36, 105])
def test_divisor_product_is_x_pow_M_minus_one(M):
    prod = (1,)
    for d in range(1, M + 1):
        if M % d == 0:
            prod = _poly_mul(prod, cyclotomic_poly(d))
    expected = (-1,) + (0,) * (M - 1) + (1,)
    assert _trim(prod) == expected


# ----------------------------------------------------------- poly engines


def _naive_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _coeff_lists(bound):
    # every product goes through the kernel, down to single coefficients
    return st.integers(1, 600).flatmap(
        lambda n: st.lists(st.integers(-bound, bound), min_size=n, max_size=n))


def _width_examples(test):
    # one product per slot-bound bit length on both sides of each codec
    # width: 7 | 8 bits split 1- and 2-byte slots, 15 | 16 the 2- and
    # 4-byte, 31 | 32 the 4- and 8-byte, and 63 | 64 the 8-byte struct slots
    # and the wide per-slot codec.  Constant operands put length * ma * mb,
    # close to 2^bits, in the middle slot; each bit length gets a mixed-sign
    # and an all-negative pair.  At length 8 the middle slot is a sum of 8
    # products, so the bound is met by a sum, not by one term
    length = 8
    for bits in (7, 8, 15, 16, 31, 32, 63, 64):
        ma = math.isqrt(((1 << bits) - 1) // length)
        mb = ((1 << bits) - 1) // (length * ma)
        if (length * ma * mb).bit_length() != bits:
            raise ValueError(f"no width example of {bits} bits")
        test = example([ma] * length, [-mb] * length)(test)
        test = example([-ma] * length, [-mb] * length)(test)
    return test


# 10**31 is the coefficient width the falsifier reaches at M = 2184, and
# 13, 2**10 and 2**20 with the lengths drawn reach the 1-, 2-, 4- and
# 8-byte slots.  Of the last three fixed examples, the first fills the
# middle slot to exactly min(m, n) * ma * mb in the wide codec; the last
# checks that an all-zero operand gives the zero product and bound 0,
# whatever the other operand's width.  The kernel trims its operands, so
# the product is compared trimmed
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 13, 2**10, 2**20, 2**40, 10**31]).flatmap(
        _coeff_lists),
    st.sampled_from([1, 13, 2**10, 2**20, 2**40, 10**31]).flatmap(
        _coeff_lists),
)
@_width_examples
@example([10**31] * 600, [-10**31] * 599)
@example([-10**31, 10**31] * 300, [10**31, 10**31, -10**31] * 200)
@example([0] * 40, [-10**31, 10**31] * 300)
def test_kronecker_matches_schoolbook(a, b):
    a = tuple(a)
    b = tuple(b)
    prod, bound = _kronecker_mul(a, b)
    assert prod == _trim(_naive_mul(a, b))
    assert max(map(abs, prod)) <= bound


def test_kronecker_all_negative():
    a = (-5,) * 40
    b = (-7,) * 45
    prod, bound = _kronecker_mul(a, b)
    assert prod == _naive_mul(a, b)
    assert bound == 40 * 5 * 7 == max(prod)


def _workload_examples(test):
    # the benchmark's orders, at the lengths where the stages switch on:
    # a constant, phi(M) (no division), a product's 2 phi(M) - 1, M (the
    # longest unfolded input) and past M (folded), with coefficients from 1
    # up to 10^31, the falsifier's width at M = 2184.  The top coefficient
    # is the bound, so no example is shorter than its length
    for M in (156, 336, 728, 1092, 2184):
        n = euler_phi(M)
        for length in (1, n, 2 * n - 1, M, M + n // 2 + 3):
            for bound in (1, 10**31):
                rng = random.Random(M * length + bound)
                coeffs = [rng.randint(-bound, bound)
                          for _ in range(length - 1)] + [bound]
                test = example(M, coeffs)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([6, 8, 12, 15, 35, 105]),
    st.lists(st.integers(-50, 50), min_size=1, max_size=400),
)
@_workload_examples
def test_reduce_matches_long_division(M, coeffs):
    got = reduce_mod_cyclotomic(tuple(coeffs), M)
    _, rem = _poly_divmod(tuple(coeffs), cyclotomic_poly(M))
    n = euler_phi(M)
    assert got == rem + (0,) * (n - len(rem))


def test_barrett_at_max_degree():
    # degree exactly 2*phi(M) - 1, the length of a product of two reduced
    # values
    M = 12
    n = euler_phi(M)
    f = tuple(range(1, 2 * n + 1))
    _, rem = _poly_divmod(f, cyclotomic_poly(M))
    assert reduce_mod_cyclotomic(f, M) == rem + (0,) * (n - len(rem))


@pytest.mark.parametrize("M", [336, 1092, 2184])
def test_product_bound_handoff(M):
    # __mul__ hands _kronecker_mul's bound min(m, n) ma mb to the
    # reduction.  Constant operands of +-10^31 reach it exactly; operands
    # of length M and more give products past M, whose folds multiply it.
    # The remainder must be the one reduced with the bound measured from
    # the coefficients
    n = euler_phi(M)
    w = 10**31
    for la, lb in ((n, n), (M, M), (M, 2 * M + 1)):
        for sa, sb in ((1, 1), (1, -1), (-1, -1)):
            prod, bound = _kronecker_mul((sa * w,) * la, (sb * w,) * lb)
            assert max(map(abs, prod)) == bound == min(la, lb) * w * w
            assert reduce_mod_cyclotomic(prod, M, _bound=bound) \
                == reduce_mod_cyclotomic(prod, M)
    v = CycloValue(M, (w,) * n)
    prod, _ = _kronecker_mul(v.coeffs, (-v).coeffs)
    assert (v * -v).coeffs == reduce_mod_cyclotomic(prod, M)


def test_folded_bound_scales_with_fold_count():
    # at M = 4 the one stage grows slots by 3, so 2^59 packs into 8-byte
    # slots.  Sixteen folds of +-2^59 make +-2^63, which they only hold
    # because the fold count multiplies the bound
    M = 4
    c = (1 << 59, 0, -1 << 59, 0) * 16
    assert reduce_mod_cyclotomic(c, M, _bound=1 << 59) == (1 << 64, 0) \
        == reduce_mod_cyclotomic(c, M)


# -------------------------------------------------------------- ring facts


def test_primitive_root_sums():
    # sum of all primitive M-th roots is mu(M)
    z3 = root(3, 1) + root(3, 2)
    assert z3 == -1
    z5 = sum((root(5, k) for k in range(1, 5)), from_int(0))
    assert z5 == -1
    z6 = root(6, 1) + root(6, 5)
    assert z6 == 1


def test_gauss_sum_of_order_three():
    v = root(3, 1) - root(3, 2)
    assert v.abs_squared() == 3
    assert v * v == -3


def test_quadratic_field_product():
    assert (1 + root(4, 1)) * (1 - root(4, 1)) == 2


def test_conjugate_fixture():
    v = root(8, 1) + root(8, 3)
    assert v.conjugate() == root(8, 5) + root(8, 7)


def test_cross_order_equality_and_hash():
    z6sq = root(6, 1) * root(6, 1)
    z3 = root(3, 1)
    assert z6sq.order == 6 and z3.order == 3
    assert z6sq == z3
    assert hash(z6sq) == hash(z3)


def test_roots_of_unity_basics():
    assert root(4, 2) == -1
    assert root(4, 1) ** 2 == -1
    assert root(6, 3) == -1
    assert root(12, 0) == 1
    assert root(3, 1) == root(6, 2)


def test_integer_storage_is_order_one():
    v = root(5, 1) + root(5, 2) + root(5, 3) + root(5, 4)
    assert v.order == 1
    assert v.as_int() == -1
    assert hash(v) == hash(-1)


def test_root_counts_gcd_shrink():
    v = from_root_counts(12, _counts(12, {0: 2, 4: 1, 8: 1}))
    assert v.order == 1 and v.as_int() == 1
    w = from_root_counts(12, _counts(12, {3: 1, 9: 1}))
    assert w.order == 1 and w.as_int() == 0
    u = from_root_counts(10, _counts(10, {2: 1}))
    assert u.order == 5


@given(st.sampled_from([1, 2, 12, 30, 156, 336]),
       st.sampled_from([3, 10**31]), st.data())
def test_root_counts_match_sum_of_roots(M, bound, data):
    # a count vector is the sum of its roots, and comes back at the order
    # its live exponents span, including supports on a subring.  156 and
    # 336 are composite orders whose reduction divides by Phi_r(x^{M/r})
    # with r = 6 before Phi_M, and 10^31 is the falsifier's width
    step = data.draw(st.sampled_from(
        [d for d in range(1, M + 1) if M % d == 0]))
    counts = [0] * M
    for e in data.draw(st.lists(st.sampled_from(range(0, M, step)),
                                max_size=12)):
        counts[e] += data.draw(st.integers(-bound, bound))
    v = from_root_counts(M, counts)
    w = sum((c * root(M, e) for e, c in enumerate(counts) if c), from_int(0))
    assert v == w
    live = [e for e, c in enumerate(counts) if c]
    assert v.order in (1, M // math.gcd(M, *live))
    with pytest.raises(InternalCheckError):
        from_root_counts(M, counts + [0])


def test_abs_squared_undefined():
    assert (1 + root(5, 1)).abs_squared() is None
    assert (1 + root(3, 1)).abs_squared() == 1


def test_abs_squared_defined_cases():
    assert from_int(-7).abs_squared() == 49
    assert root(8, 1).abs_squared() == 1
    assert (root(8, 1) + root(8, 7)).abs_squared() == 2


# ------------------------------------------------------------ power ratios


def test_q_power_ratio_fixtures():
    w = root(5, 1) - 1
    assert q_power_ratio(9 * w, w, 3) == 2
    assert q_power_ratio(root(3, 1), 1 + root(3, 1), 7) is None
    assert q_power_ratio(w, 27 * w, 3) == -3
    assert q_power_ratio(w, w, 3) == 0
    assert q_power_ratio(from_int(0), from_int(0), 5) == 0
    assert q_power_ratio(w, from_int(0), 5) is None
    assert q_power_ratio(5 * w, w, 3) is None
    assert q_power_ratio(12 * w, w, 2) is None
    assert q_power_ratio(-9 * w, w, 3) is None


def _q_power_ratio_reference(v, w, q):
    """q_power_ratio as it was before the packed comparison: a Fraction on
    the first nonzero pair, then every coefficient pair in turn."""
    from fractions import Fraction
    if v.is_zero() and w.is_zero():
        return 0
    if v.is_zero() or w.is_zero():
        return None
    L = math.lcm(v.order, w.order)
    a = _lift_coeffs(v, L)
    b = _lift_coeffs(w, L)
    idx = next(i for i in range(len(a)) if a[i] or b[i])
    if a[idx] == 0 or b[idx] == 0:
        return None
    ratio = Fraction(a[idx], b[idx])
    if ratio <= 0:
        return None
    num, den = ratio.numerator, ratio.denominator
    if den == 1:
        m = cyclotomic._exact_log(num, q)
    elif num == 1:
        k = cyclotomic._exact_log(den, q)
        m = -k if k is not None else None
    else:
        return None
    if m is None:
        return None
    if all(ai * den == bi * num for ai, bi in zip(a, b)):
        return m
    return None


def test_q_power_ratio_matches_reference():
    rng = random.Random(19)
    cases = 0
    for M, q in [(5, 3), (12, 2), (168, 13), (2184, 13), (336, 7)]:
        n = euler_phi(M)
        for bound in (14, 10 ** 31):
            w = CycloValue(M, tuple(rng.randrange(-bound, bound)
                                    for _ in range(n)))
            if w.is_zero():
                continue
            for m in (-3, -1, 0, 1, 4):
                base = w * q ** m if m >= 0 else w
                other = w if m >= 0 else w * q ** -m
                for factor in (1, -1, q + 1, 6):
                    v = base * factor
                    # proportional, off in the last coefficient only, and
                    # zero where the other side's first coefficient is not
                    last = CycloValue(M, v.coeffs[:-1] + (v.coeffs[-1] + 1,))
                    first = CycloValue(M, (0,) + v.coeffs[1:])
                    for x, y in [(v, other), (last, other), (first, other),
                                 (other, first)]:
                        got = q_power_ratio(x, y, q)
                        assert got == _q_power_ratio_reference(x, y, q)
                        cases += 1
                assert q_power_ratio(v, other, q) is None or factor == 1
                assert q_power_ratio(base, other, q) == m
    assert cases == 5 * 2 * 5 * 4 * 4


small_values = st.builds(
    lambda M, terms: from_root_counts(M, _counts(M, terms)),
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]),
    st.dictionaries(st.integers(0, 11), st.integers(-4, 4), max_size=4),
)


@settings(max_examples=80, deadline=None)
@given(small_values, st.integers(-4, 4), st.sampled_from([2, 3, 5]))
def test_q_power_ratio_roundtrip(v, m, q):
    if v.is_zero():
        return
    if m >= 0:
        w = v
        v2 = v * q**m
    else:
        v2 = v
        w = v * q**(-m)
    assert q_power_ratio(v2, w, q) == m
    assert q_power_ratio(w, v2, q) == -m


# -------------------------------------------------------------- ring laws


@settings(max_examples=80, deadline=None)
@given(small_values, small_values, small_values)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    assert a * 1 == a
    assert a * 0 == 0


@settings(max_examples=80, deadline=None)
@given(small_values, small_values)
def test_conjugate_is_ring_hom(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=80, deadline=None)
@given(small_values, st.sampled_from([2, 3, 4, 6]))
def test_hash_stable_under_reexpression(v, k):
    w = CycloValue(v.order * k, _lift_coeffs(v, v.order * k))
    assert v == w
    assert hash(v) == hash(w)


@settings(max_examples=40, deadline=None)
@given(small_values)
def test_abs_squared_nonnegative(v):
    a2 = v.abs_squared()
    if a2 is not None:
        assert a2 >= 0
        assert (a2 == 0) == v.is_zero()


def test_galois_preserves_products():
    a = root(12, 1) + 2 * root(12, 5)
    b = root(12, 7) - root(12, 2)
    assert (a * b).galois(5) == a.galois(5) * b.galois(5)


def _units(M):
    return [u for u in range(1, M) if math.gcd(u, M) == 1]


@pytest.mark.parametrize("M", [12, 48, 168, 336, 2184])
def test_galois_matches_definition(M):
    # sigma_u(sum c_i zeta^i) = sum c_i zeta^{u i}, built from root; every
    # unit up to order 336, seeded units at 2184.  Small and wide
    # coefficients, and a value that lives at a proper divisor of M
    rng = random.Random(M)
    units = _units(M) if M <= 336 else rng.sample(_units(M), 4)
    roots = [root(M, j) for j in range(M)]
    n = euler_phi(M)
    values = [CycloValue(M, tuple(rng.randrange(-13, 14) for _ in range(n))),
              CycloValue(M, tuple(rng.randrange(-10 ** 31, 10 ** 31)
                                  for _ in range(n))),
              root(M, 2) - 3 * root(M, 6) + 5]
    for v in values:
        coeffs = _lift_coeffs(v, M)
        for u in units:
            want = from_int(0)
            for i, c in enumerate(coeffs):
                if c:
                    want = want + c * roots[u * i % M]
            assert v.galois(u) == want, (M, u)


@pytest.mark.parametrize("M", [12, 48, 168, 336, 2184])
def test_galois_composes(M):
    # galois(u) then galois(w) is galois(u w mod M): every pair of units
    # at orders 12 and 48, seeded pairs above
    rng = random.Random(M)
    n = euler_phi(M)
    v = CycloValue(M, tuple(rng.randrange(-13, 14) for _ in range(n)))
    units = _units(M)
    pairs = [(u, w) for u in units for w in units] if M <= 48 else \
        [tuple(rng.sample(units, 2)) for _ in range(8)]
    for u, w in pairs:
        assert v.galois(u).galois(w) == v.galois(u * w % M), (M, u, w)


def test_pow_negative_raises():
    with pytest.raises(ValueError):
        root(3, 1) ** -1


_BREACHES = """
import sys
import charsum.cyclotomic as cy
from charsum._intutil import factorize
from charsum.characters import CharSystem
from charsum.divisor_calc import SymbolSum
from charsum.errors import InternalCheckError
from charsum.field_tower import build_tower
assert False, "asserts must be stripped"
S = CharSystem(build_tower(3, 1, degrees=(1, 2)))
T = S.tower
plan = cy._reduction_plan


def corrupt_inverse(k, call):
    # one inverse-series term of stage k of the plan off by one
    bad = list(plan(2184))
    st = bad[k]
    (i, c), *rest = st.inverse
    bad[k] = cy._Stage(st.degree, st.divisor, ((i, c + 1), *rest), st.growth)
    cy._reduction_plan = lambda M: tuple(bad)
    try:
        call()
    finally:
        cy._reduction_plan = plan


def square():
    v = cy.CycloValue(2184, (1,) * 576)
    v * v


def gauss_counts():
    # the n = 168 live exponents a p + t_a n of a full-order character over
    # F_169, p = 13: every one of them passes the sparse multiple's stage
    counts = [0] * 2184
    for a in range(168):
        counts[(13 * a + 168 * (a % 13)) % 2184] = 1 + a % 5
    cy.from_root_counts(2184, counts)


for i, breach in enumerate((
        lambda: cy.CycloValue(6, (1,)), lambda: cy.root(6).galois(2),
        lambda: cy.from_root_counts(6, [1]),
        lambda: corrupt_inverse(-1, square),
        lambda: corrupt_inverse(0, gauss_counts),
        lambda: S.char_mul(S.character(1, 1), S.character(2, 1)),
        lambda: S.lift_character(S.character(2, 1), 3),
        lambda: T.log(1, 0), lambda: T.inv(2, 0), lambda: T.pow_elem(1, 0, 0),
        lambda: T.embed(2, 3, 1), lambda: T.norm_to(3, 2, 1),
        lambda: T.trace_to(3, 2, 1), lambda: factorize(0),
        lambda: SymbolSum(6, {(1, 1): 1}) + SymbolSum(12, {(1, 1): 1}))):
    try:
        breach()
    except InternalCheckError:
        continue
    sys.exit(f"breach {i} raised no InternalCheckError")
"""


def test_invariants_fire_under_optimize():
    # python -O strips assert statements; the kernel's, the character
    # group's, the field tower's and the integer helpers' checks must not be
    # asserts, or a breach would pass silently.  The reduction's range check
    # must catch a wrong quotient from a corrupted plan, at the sparse
    # multiple's stage that every root-count vector takes and at Phi_M's
    src = str(Path(charsum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _BREACHES], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
