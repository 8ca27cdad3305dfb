"""Tests for origin stalks, trace functions, and the a/b polynomial laws."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charsum.cyclotomic as cy
import charsum.stalk_traces as stm
from charsum.characters import CharSystem
from charsum.errors import InternalCheckError, SchemaError
from charsum.field_tower import build_tower
from charsum.stalk_traces import (
    MonomialDatum,
    QPolynomial,
    a_poly,
    b_poly,
    geometric_sum,
    gm_trace_function,
    stalk_trace_at_zero,
    verify_binomial_identities,
)


def system(p, s=1, degrees=(1,)):
    return CharSystem(build_tower(p, s, degrees=degrees))


S3 = system(3)
S5 = system(5)
S7 = system(7)

Q = QPolynomial((0, 1))


# ------------------------------------------------------------- QPolynomial


def test_qpolynomial_arithmetic():
    p = QPolynomial((1, 2))           # 1 + 2q
    assert p + 1 == QPolynomial((2, 2))
    assert p * p == QPolynomial((1, 4, 4))
    assert (p - p).is_zero()
    assert p ** 0 == QPolynomial((1,))
    assert (Q ** 3).evaluate(5) == 125
    assert p.evaluate(3) == 7
    assert 2 * p == QPolynomial((2, 4))
    assert QPolynomial((0, 0, 0)) == 0
    with pytest.raises(SchemaError):
        Q ** -1


def test_geometric_sum():
    assert geometric_sum(1) == 1
    assert geometric_sum(3) == QPolynomial((1, 1, 1))
    assert geometric_sum(4).evaluate(3) == (3 ** 4 - 1) // 2


# ---------------------------------------------------------- a and b values


def test_polynomial_fixtures():
    assert a_poly(1, 0) == 1
    assert a_poly(1, 1).is_zero()
    assert a_poly(2, 1) == Q
    assert a_poly(2, 2) == Q
    assert a_poly(3, 2) == QPolynomial((0, 2, 1))
    assert b_poly(1, 1) == 1
    assert b_poly(2, 1) == 1
    assert b_poly(2, 2) == Q + 1
    assert b_poly(3, 2) == QPolynomial((1, 2))


def test_polynomial_conventions():
    assert a_poly(0, 0) == 1
    assert a_poly(5, 0) == 1
    assert a_poly(0, 3).is_zero()
    assert b_poly(4, 0).is_zero()
    assert b_poly(0, 4).is_zero()
    with pytest.raises(SchemaError):
        a_poly(-1, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10))
def test_polynomial_recurrences(n, m):
    assert b_poly(n, m) - b_poly(n, m - 1) == a_poly(n, m - 1)
    assert a_poly(n, m) - a_poly(n - 1, m) == Q * b_poly(n - 1, m)
    assert b_poly(n, m) == b_poly(m, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10))
def test_three_term_recursion(n, m):
    if n + m <= 2:
        return
    for f in (a_poly, b_poly):
        assert f(n, m) == (Q - 1) * f(n - 1, m - 1) + f(n - 1, m) + f(n, m - 1)


# ------------------------------------------------------------ origin stalks


def test_stalk_cubic_fixture():
    # (3,-1) with (1, eps_3) over F_7: the stalk is g(eps_3^{-1})
    e3 = S7.char_of_order(1, 3)
    dat = MonomialDatum(1, (3, -1), (S7.trivial(1), e3), 1)
    assert stalk_trace_at_zero(S7, dat) == S7.gauss_sum(S7.char_inv(e3))


def test_stalk_quartic_split_case():
    # (4,-2) with (1, eps_2), q = 1 mod 4: two quartic Gauss sums
    e2 = S5.char_of_order(1, 2)
    e4 = S5.char_of_order(1, 4)
    for a in range(1, 5):
        dat = MonomialDatum(1, (4, -2), (S5.trivial(1), e2), a)
        ai = S5.tower.inv(1, a)
        want = (S5.gauss_sum(e4) * S5.char_value(e4, ai)
                + S5.gauss_sum(S5.char_inv(e4)) * S5.char_value(e4, a))
        assert stalk_trace_at_zero(S5, dat) == want


@pytest.mark.parametrize("sys", [S3, S7])
def test_stalk_quartic_inert_case(sys):
    # q = 3 mod 4: the same datum extends by zero
    e2 = sys.char_of_order(1, 2)
    q = sys.tower.order(1)
    for a in range(1, q):
        dat = MonomialDatum(1, (4, -2), (sys.trivial(1), e2), a)
        assert stalk_trace_at_zero(sys, dat).is_zero()


def test_stalk_small_cases():
    tr = S3.trivial(1)
    # ratio pair with trivial characters: sum psi(t) + 1 = 0
    assert stalk_trace_at_zero(
        S3, MonomialDatum(1, (1, -1), (tr, tr), 1)).is_zero()
    # product pair: constant 1
    assert stalk_trace_at_zero(
        S3, MonomialDatum(1, (1, 1), (tr, tr), 1)) == cy.from_int(1)
    # no coordinates: psi(a)
    assert stalk_trace_at_zero(S3, MonomialDatum(1, (), (), 2)) == \
        S3.psi_value(1, 2)
    # all negative: extension by zero
    assert stalk_trace_at_zero(
        S3, MonomialDatum(1, (-1, -2), (tr, tr), 1)).is_zero()
    # incompatible characters: no mediating character, stalk 0
    e2 = S5.char_of_order(1, 2)
    assert stalk_trace_at_zero(
        S5, MonomialDatum(1, (2, 2), (S5.trivial(1), e2), 1)).is_zero()


def test_stalk_single_positive_coordinate():
    # (n) with chi: 1 when chi is trivial, else 0
    e4 = S5.char_of_order(1, 4)
    assert stalk_trace_at_zero(
        S5, MonomialDatum(1, (2,), (S5.trivial(1),), 3)) == cy.from_int(1)
    assert stalk_trace_at_zero(
        S5, MonomialDatum(1, (2,), (S5.char_of_order(1, 2),), 3)).is_zero()
    assert stalk_trace_at_zero(
        S5, MonomialDatum(1, (1,), (e4,), 2)).is_zero()


def _closed_form(sys, npos, nneg, d, eta, a):
    q = sys.tower.order(1)
    t = sys.tower
    psum = cy.from_int(0)
    for code in range(1, q):
        x = t.pow_elem(1, code, d)
        psum = psum + sys.psi_value(1, t.mul(1, a, x)) * sys.char_value(eta, code)
    if sys.is_trivial(eta):
        return a_poly(npos, nneg).evaluate(q) + \
            b_poly(npos, nneg).evaluate(q) * (1 + psum)
    return b_poly(npos, nneg).evaluate(q) * psum


@pytest.mark.parametrize("p", [3, 5, 7])
def test_stalk_matches_closed_form_on_uniform_shapes(p):
    sys = system(p)
    q = p
    grp = q - 1
    for npos in range(1, 5):
        for nneg in range(0, 5 - npos):
            for d in (1, 2, 3, 4):
                if d % p == 0:
                    continue
                for e in range(grp):
                    eta = sys.character(1, e)
                    exps = (d,) * npos + (-d,) * nneg
                    cs = (eta,) * npos + (sys.char_inv(eta),) * nneg
                    for a in range(1, q):
                        dat = MonomialDatum(1, exps, cs, a)
                        got = stalk_trace_at_zero(sys, dat)
                        assert got == _closed_form(sys, npos, nneg, d, eta, a)


@pytest.mark.parametrize("exps", [(2,), (1, -1), (1, 1, -1), (3, 3)])
def test_closed_form_check_catches_a_wrong_recursion(monkeypatch, exps):
    # each +/-D shape is checked against the closed form, with b = 0 (no
    # negative slot) as well as without
    recursion = stm._a_value
    monkeypatch.setattr(stm, "_a_value", lambda *args: recursion(*args) + 1)
    dat = MonomialDatum(1, exps, (S7.trivial(1),) * len(exps), 3)
    with pytest.raises(InternalCheckError):
        stalk_trace_at_zero(S7, dat)


def test_trace_grid_sums_psi_only_where_the_value_needs_it(monkeypatch):
    # b(1, 0) = 0, so the closed-form checks of the six axis stalks (3) of
    # the (3, -1) grid sum nothing; the one psi sum left is the origin's
    # recursion on (3, -1)
    calls = []
    inner = stm._psi_power_sum
    monkeypatch.setattr(stm, "_psi_power_sum",
                        lambda *args: calls.append(args) or inner(*args))
    e3 = S7.char_of_order(1, 3)
    dat = MonomialDatum(1, (3, -1), (S7.trivial(1), e3), 1)
    assert gm_trace_function(S7, dat).value((0, 0)) == S7.gauss_sum(
        S7.char_inv(e3))
    assert len(calls) == 1


def test_stalk_extension_field():
    sys = system(3, degrees=(1, 2))
    e4 = sys.char_of_order(2, 4)
    dat = MonomialDatum(2, (4, -2), (sys.trivial(2), sys.char_pow(e4, 2)), 1)
    # q = 9 = 1 mod 4: split case applies over F_9
    ai = 1
    want = (sys.gauss_sum(e4) * sys.char_value(e4, ai)
            + sys.gauss_sum(sys.char_inv(e4)) * sys.char_value(e4, 1))
    assert stalk_trace_at_zero(sys, dat) == want


# ------------------------------------------------------------- trace grids


def test_trace_function_cubic_case_table():
    e3 = S7.char_of_order(1, 3)
    dat = MonomialDatum(1, (3, -1), (S7.trivial(1), e3), 1)
    f = gm_trace_function(S7, dat)
    t = S7.tower
    for x in range(7):
        for y in range(7):
            got = f.value((x, y))
            if y != 0:
                mono = t.mul(1, t.pow_elem(1, x, 3), t.inv(1, y)) if x else 0
                want = S7.psi_value(1, mono) * S7.char_value(e3, y)
            elif x != 0:
                want = cy.from_int(0)
            else:
                want = S7.gauss_sum(S7.char_inv(e3))
            assert got == want, (x, y)


def test_trace_function_quartic_case_table():
    e2 = S5.char_of_order(1, 2)
    dat = MonomialDatum(1, (4, -2), (S5.trivial(1), e2), 3)
    f = gm_trace_function(S5, dat)
    t = S5.tower
    stalk = stalk_trace_at_zero(S5, dat)
    for x in range(5):
        for y in range(5):
            got = f.value((x, y))
            if y != 0:
                mono = t.mul(1, 3, t.mul(1, t.pow_elem(1, x, 4),
                                         t.inv(1, t.mul(1, y, y)))) if x else 0
                want = S5.psi_value(1, mono) * S5.char_value(e2, y)
                if x == 0:
                    want = S5.psi_value(1, 0) * S5.char_value(e2, y)
            elif x != 0:
                want = cy.from_int(0)
            else:
                want = stalk
            assert got == want, (x, y)


def test_trace_function_gaussian_boundary():
    dat = MonomialDatum(1, (1, 1), (S3.trivial(1), S3.trivial(1)), 1)
    f = gm_trace_function(S3, dat)
    for x in range(3):
        for y in range(3):
            if x and y:
                assert f.value((x, y)) == S3.psi_value(1, (x * y) % 3)
            else:
                assert f.value((x, y)) == cy.from_int(1)


def test_trace_function_unsupported_shape():
    with pytest.raises(SchemaError):
        gm_trace_function(
            S5, MonomialDatum(1, (2, 1, -1),
                              (S5.trivial(1),) * 3, 1))


def test_trace_function_uniform_shape_k3():
    e2 = S5.char_of_order(1, 2)
    exps, chars = (2, 2, -2), (e2, S5.trivial(1), e2)
    dat = MonomialDatum(1, exps, chars, 1)
    f = gm_trace_function(S5, dat)
    t = S5.tower
    for x in product(range(5), repeat=3):
        zero_set = [i for i in range(3) if x[i] == 0]
        mono = dat.a
        want = cy.from_int(1)
        for i in range(3):
            if x[i]:
                mono = t.mul(1, mono, t.pow_elem(1, x[i], exps[i]))
                want = want * S5.char_value(chars[i], x[i])
        if zero_set:
            # a boundary point: the character values away from the zero
            # set times the origin stalk of the sub-datum on it
            sub = MonomialDatum(1, tuple(exps[i] for i in zero_set),
                                tuple(chars[i] for i in zero_set), mono)
            want = want * stalk_trace_at_zero(S5, sub)
        else:
            want = want * S5.psi_value(1, mono)
        assert f.value(x) == want, x
    # a trivial character on a positive exponent does not force vanishing:
    # the sub-datum (2,) with trivial character has stalk 1, so (2, 0, 1)
    # reads e2(2) e2(1) = -1
    assert f.value((2, 0, 1)) == -1
    # any point with the negative-exponent coordinate zero and some
    # positive coordinate nonzero vanishes (all-negative sub-datum)
    assert f.value((1, 2, 0)).is_zero()


# ------------------------------------------------------ binomial identities


def test_binomial_identity_smallest_case():
    rep = verify_binomial_identities(1, 1, 0)
    assert rep["pass"]
    assert rep["checks"] == {"a_general": True, "b_general": True}


def test_binomial_identities_origin():
    rep = verify_binomial_identities(3, 0, 0)
    assert rep["pass"]
    assert set(rep["checks"]) == {"a_origin", "b_origin"}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_binomial_identities_full_sweep(n):
    for r in range(n + 1):
        for s in range(n + 1):
            rep = verify_binomial_identities(n, r, s)
            assert rep["pass"], (n, r, s)


def test_binomial_identities_reject_bad_range():
    with pytest.raises(SchemaError):
        verify_binomial_identities(0, 0, 0)
    with pytest.raises(SchemaError):
        verify_binomial_identities(2, 3, 0)
