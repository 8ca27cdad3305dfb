"""Tests for the monomial identity engine."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import charsum.identity_engine as ie
import charsum.norm_algebra as na
from charsum.characters import CharSystem
from charsum.cyclotomic import CycloValue, q_power_ratio
from charsum.divisor_calc import Divisor, divisor_of_char_power
from charsum.errors import InternalCheckError, SchemaError
from charsum.field_tower import build_tower
from charsum.identity_engine import (
    GammaMonomial,
    IdentityRecord,
    find_violation,
    predicted_divisor,
    verify_monomial_identity,
)
from charsum.monomial_fourier import MonomialDatum, solve_monomial_transform
from charsum.norm_algebra import EtaleAlgebra, VirtualModule, p_of

F = Fraction


def system(p, s=1, degrees=(1,)):
    return CharSystem(build_tower(p, s, degrees=degrees))


def hd_monomial(sys, n, degree=1):
    """(1, n), (1, -1), and (eps_n^i, -1) for 0 < i < n; divisor is zero."""
    one = sys.trivial(degree)
    terms = [(one, n), (one, -1)]
    for i in range(1, n):
        terms.append((sys.char_of_order(degree, n, power=i), -1))
    return GammaMonomial(terms)


def test_predicted_divisor_fixtures():
    sys = system(7)
    one = sys.trivial(1)
    e2 = sys.char_of_order(1, 2)
    e3 = sys.char_of_order(1, 3)
    m = GammaMonomial([(one, 2), (one, -1), (e2, -1)])
    assert predicted_divisor(sys, m).is_zero()
    assert predicted_divisor(sys, GammaMonomial([])).is_zero()
    # (1, 3) contributes the three cube roots; (e3, -1) removes e3^{-1}
    m2 = GammaMonomial([(one, 3), (e3, -1)])
    assert predicted_divisor(sys, m2) == Divisor({F(0): 1, F(1, 3): 1})
    m3 = GammaMonomial([(e3, 1), (sys.char_inv(e3), -1)])
    assert predicted_divisor(sys, m3).is_zero()


def test_predicted_divisor_rejects_bad_exponents():
    sys = system(3)
    one = sys.trivial(1)
    with pytest.raises(SchemaError):
        predicted_divisor(sys, GammaMonomial([(one, 0)]))
    with pytest.raises(SchemaError):
        predicted_divisor(sys, GammaMonomial([(one, 3)]))
    with pytest.raises(SchemaError):
        predicted_divisor(sys, GammaMonomial([(one, -6)]))


def term_fold(sys, mono):
    """predicted_divisor as the sum of each term's divisor_of_char_power."""
    total = Divisor()
    for chi, n in mono.terms:
        total = total + divisor_of_char_power(sys.char_point(chi), n)
    return total


def test_predicted_divisor_matches_term_fold():
    rng = random.Random(25)
    systems = [system(p, degrees=(1, 2)) for p in (5, 7, 13)]
    randoms = []
    for _ in range(60):
        sys = rng.choice(systems)
        p = sys.tower.p
        randoms.append((sys, GammaMonomial(
            (sys.character(deg, rng.randrange(sys.tower.group_order(deg))),
             rng.choice([n for n in range(-6, 7) if n % p]))
            for deg in rng.choices((1, 2), k=rng.randint(1, 5)))))
    cases = criterion_05_library() + criterion_15_broken() + randoms
    zeros = 0
    for sys, mono in cases:
        got = predicted_divisor(sys, mono)
        assert got == term_fold(sys, mono), mono
        zeros += got.is_zero()
    assert 0 < zeros < len(cases)


def test_gamma_monomial_is_a_value():
    sys = system(7)
    terms = [(sys.trivial(1), 2), (sys.character(1, 3), -1)]
    mono = GammaMonomial(terms)
    assert mono == GammaMonomial(iter(terms))
    assert hash(mono) == hash(GammaMonomial(terms))
    assert {mono: 1}[GammaMonomial(terms)] == 1
    assert mono != GammaMonomial(terms[:1])
    assert mono != tuple(terms) and mono != mono.terms
    assert repr(mono) == f"GammaMonomial(terms={tuple(terms)!r})"


def test_verify_quadratic_monomial_q7():
    sys = system(7)
    one = sys.trivial(1)
    e2 = sys.char_of_order(1, 2)
    m = GammaMonomial([(one, 2), (one, -1), (e2, -1)])
    expected = {0: 0, 1: 1, 2: 1, 3: 0, 4: 1, 5: 1}
    for idx, want in expected.items():
        assert verify_monomial_identity(sys, m, sys.character(1, idx)) == want


def test_verify_negative_exponent_m():
    sys = system(7)
    e2 = sys.char_of_order(1, 2)
    m = GammaMonomial([(e2, 1), (e2, -1)])
    assert predicted_divisor(sys, m).is_zero()
    assert verify_monomial_identity(sys, m, e2) == -1
    assert verify_monomial_identity(sys, m, sys.trivial(1)) == 0


def test_verify_rejects_nonzero_divisor():
    sys = system(7)
    m = GammaMonomial([(sys.trivial(1), 3), (sys.char_of_order(1, 3), -1)])
    # the second call answers from the per-monomial memo and still raises
    for _ in range(2):
        with pytest.raises(SchemaError):
            verify_monomial_identity(sys, m, sys.trivial(1))


def test_verify_builds_divisor_once_per_monomial(monkeypatch):
    calls = []

    def counting(system, mono):
        calls.append(mono)
        return predicted_divisor(system, mono)

    monkeypatch.setattr(ie, "predicted_divisor", counting)
    sys = system(7)
    hd2, hd3 = hd_monomial(sys, 2), hd_monomial(sys, 3)
    for m in (hd2, hd3):
        for idx in range(6):
            verify_monomial_identity(sys, m, sys.character(1, idx))
    assert calls == [hd2, hd3]
    # the memo lives on the CharSystem: a fresh system builds it again
    verify_monomial_identity(system(7), hd2, sys.character(1, 1))
    assert calls == [hd2, hd3, hd2]


def test_verify_builds_divisor_once_across_degrees(monkeypatch):
    # the degree-2 record takes its zero flag from the degree-1 record
    calls = []

    def counting(system, mono):
        calls.append(mono)
        return predicted_divisor(system, mono)

    monkeypatch.setattr(ie, "predicted_divisor", counting)
    sys = system(7, degrees=(1, 2))
    m = hd_monomial(sys, 3)
    for d in (1, 2):
        for idx in range(sys.tower.group_order(d)):
            verify_monomial_identity(sys, m, sys.character(d, idx))
    assert find_violation(sys, m, 2) is None
    assert calls == [m]


def test_verify_hd_families_all_lambdas():
    for p, degrees, ns in ((3, (1, 2), (2,)), (5, (1, 2), (2, 4)),
                           (7, (1,), (2, 3, 6))):
        sys = system(p, degrees=degrees)
        for n in ns:
            m = hd_monomial(sys, n)
            for d in degrees:
                for idx in range(sys.tower.group_order(d)):
                    lam = sys.character(d, idx)
                    got = verify_monomial_identity(sys, m, lam)
                    assert isinstance(got, int)


def test_verify_extension_stability():
    # m(lam o Nm) over the quadratic extension equals m(lam)
    sys = system(7, degrees=(1, 2))
    m = hd_monomial(sys, 2)
    for idx in range(6):
        lam = sys.character(1, idx)
        lifted = sys.lift_character(lam, 2)
        assert verify_monomial_identity(sys, m, lifted) == \
            verify_monomial_identity(sys, m, lam)


def test_verify_inverse_pair_all_lambdas():
    sys = system(7)
    e3 = sys.char_of_order(1, 3)
    m = GammaMonomial([(e3, 1), (sys.char_inv(e3), -1)])
    for idx in range(6):
        want = -1 if idx == sys.char_inv(e3).index else 0
        assert verify_monomial_identity(sys, m, sys.character(1, idx)) == want


def test_verify_mixed_degree_terms():
    sys = system(3, degrees=(1, 2))
    chi = sys.character(2, 1)
    m = GammaMonomial([(chi, 1), (sys.char_inv(chi), -1)])
    assert predicted_divisor(sys, m).is_zero()
    for idx in range(8):
        got = verify_monomial_identity(sys, m, sys.character(2, idx))
        assert isinstance(got, int)
    # degree-1 terms verified at degree 2 go through the norm lift
    m2 = GammaMonomial([(sys.trivial(1), 2), (sys.trivial(1), -1),
                        (sys.char_of_order(1, 2), -1)])
    assert verify_monomial_identity(sys, m2, sys.character(2, 1)) == 1
    with pytest.raises(SchemaError):
        verify_monomial_identity(sys, m, sys.trivial(1))


def test_find_violation_imbalance_q3():
    sys = system(3)
    m = GammaMonomial([(sys.trivial(1), 1), (sys.char_of_order(1, 2), -1)])
    got = find_violation(sys, m, 1)
    assert got == (1, sys.char_of_order(1, 2))


def test_find_violation_cubic_q7():
    sys = system(7)
    m = GammaMonomial([(sys.trivial(1), 3), (sys.char_of_order(1, 3), -1)])
    got = find_violation(sys, m, 2)
    assert got is not None and got != "inconclusive"
    assert got[0] == 1


def test_find_violation_sound_on_zero_divisor():
    for p, n in ((3, 2), (5, 2), (5, 4), (7, 3)):
        sys = system(p, degrees=(1, 2))
        assert find_violation(sys, hd_monomial(sys, n), 2) is None
    sys = system(7)
    e2 = sys.char_of_order(1, 2)
    assert find_violation(sys, GammaMonomial([(e2, 1), (e2, -1)]), 2) is None
    assert find_violation(sys, GammaMonomial([]), 2) is None


def test_find_violation_inconclusive_until_deep_enough():
    # divisor of (eps_2, 2) lives at order 4, invisible inside F_3
    sys = system(3, degrees=(1, 2))
    m = GammaMonomial([(sys.char_of_order(1, 2), 2)])
    assert find_violation(sys, m, 1) == "inconclusive"
    got = find_violation(sys, m, 2)
    assert got is not None and got != "inconclusive"
    assert got[0] == 2


def exact_scan(sys, mono, max_degree):
    """Reference: the exact |.|^2 scan find_violation ran before it
    counted.  At every lambda it compares the |.|^2 of the positive and
    negative twisted Gauss-sum products with the trivial lambda's.  |.|^2
    is multiplicative, so each product's |.|^2 is taken as the product of
    the exact abs_squared of its Gauss sums, read from the ring and not
    from the law |g(chi)|^2 = Q^[chi nontrivial] that the count uses."""
    zero = predicted_divisor(sys, mono).is_zero()
    abs2 = {}
    for d in range(1, max_degree + 1):
        if any(d % chi.degree for chi, _ in mono.terms):
            continue
        lifted = [(sys.lift_character(chi, d), n) for chi, n in mono.terms]
        base = None
        for idx in range(sys.tower.group_order(d)):
            lam = sys.character(d, idx)
            sides = [1, 1]
            for chi, n in lifted:
                chi = chi if n > 0 else sys.char_inv(chi)
                twisted = sys.char_mul(sys.char_pow(lam, abs(n)), chi)
                if twisted not in abs2:
                    abs2[twisted] = sys.gauss_sum(twisted).abs_squared()
                sides[n < 0] *= abs2[twisted]
            if idx == 0:
                base = sides
            elif sides[0] * base[1] != base[0] * sides[1]:
                assert not zero, "witness for a zero-divisor monomial"
                return d, lam
    return None if zero else "inconclusive"


def criterion_05_library():
    """The zero-divisor monomials of acceptance criterion 05."""
    s5, s7, s13 = (system(p, degrees=(1, 2)) for p in (5, 7, 13))

    def relation(sys, exps, chs):
        sol = solve_monomial_transform(sys, MonomialDatum(1, exps, chs, 1))
        terms = [(sys.char_inv(ch), n) for ch, n in zip(chs, exps)]
        terms.append((sys.trivial(1), -1))
        terms.append((sol.chi, -1) if sol.case == 1
                     else (sys.char_inv(sol.chi), 1))
        return GammaMonomial(terms)

    e4 = s5.char_of_order(1, 4)
    return ([(s7, hd_monomial(s7, n)) for n in (2, 3, 6)]
            + [(s13, hd_monomial(s13, n)) for n in (2, 3, 4, 6, 12)]
            + [(s5, relation(s5, (2,), (s5.trivial(1),))),
               (s7, relation(s7, (3, -1),
                             (s7.trivial(1), s7.char_of_order(1, 3)))),
               (s5, relation(s5, (4, -2),
                             (s5.trivial(1), s5.char_of_order(1, 2)))),
               (s5, GammaMonomial([(e4, 1), (s5.char_inv(e4), -1)]))])


def random_monomials(seed, count):
    rng = random.Random(seed)
    systems = {p: system(p, degrees=(1, 2)) for p in (3, 5, 7)}
    for _ in range(count):
        p = rng.choice((3, 5, 7))
        sys = systems[p]
        terms = []
        for _ in range(rng.randint(1, 4)):
            deg = rng.randint(1, 2)
            n = rng.choice([n for n in range(-4, 5) if n and n % p])
            terms.append((sys.character(deg, rng.randrange(
                sys.tower.group_order(deg))), n))
        yield sys, GammaMonomial(terms), rng.randint(1, 2)


def criterion_15_broken():
    """The monomials of acceptance criterion 15, whose divisor does not
    vanish."""
    s3, s7 = system(3, degrees=(1, 2)), system(7, degrees=(1, 2))
    return [(s3, GammaMonomial([(s3.trivial(1), 1),
                                (s3.char_of_order(1, 2), -1)])),
            (s7, GammaMonomial([(s7.trivial(1), 3),
                                (s7.char_of_order(1, 3), -1)])),
            (s3, GammaMonomial([(s3.char_of_order(1, 2), 2)]))]


def test_find_violation_matches_exact_scan(monkeypatch):
    cases = ([(sys, m, 2) for sys, m in criterion_15_broken()]
             + [(sys, m, 2) for sys, m in criterion_05_library()]
             + list(random_monomials(7, 40)))
    wants = [exact_scan(*case) for case in cases]
    assert {w if w is None else type(w) for w in wants} == {None, tuple, str}
    calls = []
    abs_squared = CycloValue.abs_squared

    def counting(v):
        calls.append(v)
        return abs_squared(v)

    monkeypatch.setattr(CycloValue, "abs_squared", counting)
    for (sys, mono, depth), want in zip(cases, wants):
        assert find_violation(sys, mono, depth) == want, mono
        # abs_squared runs only to certify a returned witness
        assert len(calls) == (4 if isinstance(want, tuple) else 0)
        calls.clear()


def test_find_violation_certifies_counted_witness(monkeypatch):
    # the count sees no witness for (eps_2, 2) over F_3 at degree 1; a
    # fabricated one must fail the exact certificate
    sys = system(3)
    mono = GammaMonomial([(sys.char_of_order(1, 2), 2)])
    assert find_violation(sys, mono, 1) == "inconclusive"
    monkeypatch.setattr(ie, "_balance", lambda system, lifted, lam: lam.index)
    with pytest.raises(InternalCheckError, match="cross ratio"):
        find_violation(sys, mono, 1)
    with pytest.raises(InternalCheckError, match="zero-divisor"):
        find_violation(sys, hd_monomial(sys, 2), 1)


def falsify_library(c):
    """The benchmark falsifier's zero-divisor monomials, on systems with
    additive twist c: Hasse-Davenport over F_13 (n = 4, 12) and F_7
    (n = 2, 3, 6), the divisor relations of the (2), (3, -1) and (4, -2)
    transforms, and an inverse pair over F_5."""
    s5, s7, s13 = (CharSystem(build_tower(p, 1, degrees=(1, 2)), c)
                   for p in (5, 7, 13))
    one5, one7 = s5.trivial(1), s7.trivial(1)
    return ([(s13, hd_monomial(s13, n)) for n in (4, 12)]
            + [(s7, hd_monomial(s7, n)) for n in (2, 3, 6)]
            + [(s5, GammaMonomial([(one5, 2), (one5, -1),
                                   (s5.character(1, 2), -1)])),
               (s7, GammaMonomial([(one7, 3), (s7.character(1, 4), -1),
                                   (one7, -1), (s7.character(1, 2), -1)])),
               (s5, GammaMonomial([(one5, 4), (s5.character(1, 2), -2),
                                   (one5, -1), (s5.character(1, 2), -1)])),
               (s5, GammaMonomial([(s5.character(1, 1), 1),
                                   (s5.character(1, 3), -1)]))])


def per_call_exponent(sys, mono, lam):
    """verify_monomial_identity as one body per call, with no record: lift
    the terms, build and validate the split algebra, evaluate p(V) in the
    field and lam(p(V)) through char_value, and twist through the
    character group's own laws."""
    if not predicted_divisor(sys, mono).is_zero():
        raise SchemaError("nonzero divisor")
    d = lam.degree
    lifted = [(sys.lift_character(chi, d), n) for chi, n in mono.terms]
    algebra = EtaleAlgebra(sys.tower, (d,) * len(lifted), d)
    module = VirtualModule(n for _, n in lifted)
    chars = [chi for chi, _ in lifted]
    twisted = [sys.char_mul(sys.lift_character(sys.char_pow(lam, n), d), ch)
               for ch, n in lifted]
    lhs = sys.product_of_gauss(twisted)
    rhs = sys.char_value(lam, p_of(sys, algebra, module)) \
        * sys.product_of_gauss(chars)
    m = q_power_ratio(lhs, rhs, sys.tower.order(d))
    if m is None:
        raise InternalCheckError("non-power ratio")
    weight = sum(map(sys.is_trivial, chars))
    if not any(map(sys.is_trivial, twisted)) and 2 * m != weight:
        raise InternalCheckError("parity")
    return m


@pytest.mark.parametrize("c", [1, 2])
def test_record_matches_per_call_body(c):
    # the reference runs on its own systems, so no cached product is shared
    for (sys, mono), (ref, ref_mono) in zip(falsify_library(c),
                                            falsify_library(c)):
        for d in (1, 2):
            for idx in range(sys.tower.group_order(d)):
                got = verify_monomial_identity(sys, mono,
                                               sys.character(d, idx))
                assert got == per_call_exponent(
                    ref, ref_mono, ref.character(d, idx)), (mono, d, idx)
        assert {(mono, 1), (mono, 2)} <= set(sys._identity_records)


def test_tampered_record_raises():
    # lam(p(V)) is read from the record's discrete log; one off multiplies
    # the right side by lam(g) and leaves no q-power ratio
    for sys, mono in falsify_library(1):
        for d in (1, 2):
            lam = sys.character(d, 1)
            verify_monomial_identity(sys, mono, lam)
            rec = sys._identity_records[mono, d]
            sys._identity_records[mono, d] = IdentityRecord(
                rec.zero, rec.base, rec.size, rec.factors, rec.p_log + 1,
                rec.forms, rec.trivial_weight, rec.orbit, rec.period)
            with pytest.raises(InternalCheckError, match="non-power"):
                verify_monomial_identity(sys, mono, lam)
            sys._identity_records[mono, d] = rec
            verify_monomial_identity(sys, mono, lam)


# ------------------------------------------------------------ Galois orbits


def orbit_library():
    """The Hasse-Davenport monomials over F_5 (n = 2, 4) and F_11 (n = 2,
    5, 10), and criterion 05's library, which holds those over F_7 and
    F_13 for every n > 1 dividing q - 1.  F_11 is there because a form
    moved by u instead of u^-1 differs only in lam(p(V)), a (p - 1)-th
    root of unity, and every unit mod 4, 6 or 12 is its own inverse."""
    s5, s11 = system(5, degrees=(1, 2)), system(11, degrees=(1, 2))
    return ([(s5, hd_monomial(s5, n)) for n in (2, 4)]
            + [(s11, hd_monomial(s11, n)) for n in (2, 5, 10)]
            + criterion_05_library())


def test_transported_forms_match_fresh_gauss_forms(monkeypatch):
    # every form the check reads, folded or Galois-transported, equals
    # gauss_form of the same multiset on a fresh system, in value and T;
    # and the comparison runs once per distinct (record, multisets, k)
    used, ratios, galois_calls = [], [], []
    orbit_form = ie._orbit_form
    q_power = ie.q_power_ratio
    galois = CycloValue.galois

    def recording(system, rec, idx, deg, indices):
        form = orbit_form(system, rec, idx, deg, indices)
        used.append((system.tower.p, deg, indices, form))
        return form

    monkeypatch.setattr(ie, "_orbit_form", recording)
    monkeypatch.setattr(ie, "q_power_ratio", lambda *args: ratios.append(
        args) or q_power(*args))
    monkeypatch.setattr(CycloValue, "galois", lambda v, a: galois_calls.append(
        a) or galois(v, a))
    for sys, mono in orbit_library():
        for d in (1, 2):
            keys = set()
            for idx in range(sys.tower.group_order(d)):
                verify_monomial_identity(sys, mono, sys.character(d, idx))
                rec = sys._identity_records[mono, d]
                keys.add((tuple(sorted(ie._twisted_indices(rec, idx))),
                          idx * rec.p_log % (rec.size - 1)))
            assert len(ratios) == len(keys), (mono, d)
            ratios.clear()
    assert galois_calls  # the orbit route ran
    fresh = {p: system(p, degrees=(1, 2)) for p in (5, 7, 11, 13)}
    checked = set()
    for p, deg, indices, form in used:
        if (p, deg, indices) not in checked:
            checked.add((p, deg, indices))
            assert form == fresh[p].gauss_form(deg, indices), (p, indices)


def test_stabilizer_of_records():
    # a Hasse-Davenport monomial is fixed by every unit: u permutes the
    # characters of order dividing n
    s13 = system(13, degrees=(1, 2))
    mono = hd_monomial(s13, 12)
    for d, n in ((1, 12), (2, 168)):
        verify_monomial_identity(s13, mono, s13.character(d, 1))
        orbit = s13._identity_records[mono, d].orbit
        assert [u for u, _ in orbit] == [u for u in range(1, n)
                                         if math.gcd(u, n) == 1]
        assert all(u * v % n == 1 for u, v in orbit)


def test_trivial_stabilizer_takes_no_galois(monkeypatch):
    # the inverse pair (e4, 1), (e4^-1, -1) over F_5: at degree 1 only
    # u = 1 fixes {(1, 1), (3, -1)} mod 4, so its record has no orbit and
    # no form is transported.  At degree 2 the lifts (6, 1), (18, -1) are
    # fixed by u = 1, 5, 13 and 17 mod 24
    sys = system(5, degrees=(1, 2))
    e4 = sys.char_of_order(1, 4)
    mono = GammaMonomial([(e4, 1), (sys.char_inv(e4), -1)])
    calls = []
    galois = CycloValue.galois
    monkeypatch.setattr(CycloValue, "galois", lambda v, a: calls.append(
        a) or galois(v, a))
    for idx in range(4):
        assert verify_monomial_identity(sys, mono, sys.character(1, idx)) \
            == (-1 if idx == 3 else 0)
    assert sys._identity_records[mono, 1].orbit is None
    assert calls == []
    verify_monomial_identity(sys, mono, sys.character(2, 1))
    assert [u for u, _ in sys._identity_records[mono, 2].orbit] == \
        [1, 5, 13, 17]


def test_period_of_records():
    # lam -> lam eps, eps of order n, permutes the factors of a
    # Hasse-Davenport monomial, so its period is (q^d - 1)/n; the F_5
    # inverse pair has no translation at degree 1
    for p, ns in ((5, (2, 4)), (7, (2, 3, 6)), (13, (2, 3, 4, 6, 12))):
        sys = system(p, degrees=(1, 2))
        for n in ns:
            mono = hd_monomial(sys, n)
            for d in (1, 2):
                verify_monomial_identity(sys, mono, sys.character(d, 1))
                size = p ** d - 1
                assert sys._identity_records[mono, d].period == size // n
    sys = system(5)
    e4 = sys.char_of_order(1, 4)
    mono = GammaMonomial([(e4, 1), (sys.char_inv(e4), -1)])
    verify_monomial_identity(sys, mono, sys.character(1, 1))
    assert sys._identity_records[mono, 1].period == 4


def test_one_fold_per_affine_orbit(monkeypatch):
    # at degree 2 the n = 12 Hasse-Davenport monomial over F_13 has period
    # 14 and every unit mod 168 in its stabilizer, so idx -> u idx + 14 t
    # has one orbit per divisor of 14: four 13-term multisets are folded
    sys = system(13, degrees=(1, 2))
    mono = hd_monomial(sys, 12)
    folded = set()
    gauss_form = CharSystem.gauss_form

    def recording(system, d, indices):
        key = tuple(sorted(indices))
        if (d, key) not in system._form_cache:
            folded.add(key)
        return gauss_form(system, d, indices)

    monkeypatch.setattr(CharSystem, "gauss_form", recording)
    for idx in range(168):
        verify_monomial_identity(sys, mono, sys.character(2, idx))
    assert len(folded) == 4
    assert {len(key) for key in folded} == {13}


def test_memo_keys_on_lam_of_p_V():
    # (1, 1), (eps_2, -1) over F_3 has a nonzero divisor; its record, made
    # as if it vanished, gives lam = 1 and lam = eps_2 the same twisted
    # multiset {0, 1} and lam(p(V)) = 1 and -1.  The first passes and the
    # second must still run its comparison, and fail, in either order
    for order in ((0, 1), (1, 0)):
        sys = system(3)
        rec = ie._prepare(sys, EtaleAlgebra(sys.tower, (1, 1)),
                          VirtualModule((1, -1)),
                          na.NormCharacter((sys.trivial(1),
                                            sys.character(1, 1))), True)
        for idx in order:
            if idx:
                with pytest.raises(InternalCheckError, match="non-power"):
                    ie._identity_exponent(sys, rec, sys.character(1, idx))
            else:
                assert ie._identity_exponent(sys, rec,
                                             sys.character(1, idx)) == 0
