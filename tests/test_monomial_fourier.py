"""Tests for the finite Fourier layer: transforms, I-sums, the solver."""

from __future__ import annotations

import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charsum.cyclotomic as cy
import charsum.monomial_fourier as mf
import charsum.norm_algebra as na
from charsum.characters import CharSystem
from charsum.errors import InternalCheckError, SchemaError, SizeBoundError
from charsum.field_tower import build_tower
from charsum.monomial_fourier import (
    GridFunction,
    MonomialDatum,
    TransformSolution,
    fourier_transform,
    i_sum_closed,
    i_sum_direct,
    solve_monomial_transform,
    sweep_twisted_moments,
    verify_ratio_transform,
    verify_ratio_transform_nfold,
    verify_transform_pointwise,
    verify_twisted_moments,
)


def system(p, s=1, degrees=(1,)):
    return CharSystem(build_tower(p, s, degrees=degrees))


S3 = system(3)
S5 = system(5)
S7 = system(7)


def chars(sys, degree, *orders_or_none):
    out = []
    for o in orders_or_none:
        out.append(sys.trivial(degree) if o == 1
                   else sys.char_of_order(degree, o))
    return tuple(out)


# ------------------------------------------------------------ GridFunction


def test_grid_function_shape_checks():
    t = S5.tower
    with pytest.raises(SchemaError):
        GridFunction(t, 1, 2, [cy.from_int(0)] * 24)
    f = GridFunction.build(t, 1, 2, lambda c: cy.from_int(c[0] + c[1]))
    assert f.value((2, 3)) == cy.from_int(5)
    assert f.codes(f.index((2, 3))) == (2, 3)


def test_grid_equality_reads_the_field_size():
    # ones over F_5^2 and F_7^2: the shorter grid must not decide
    ones5, ones7 = (GridFunction(sys.tower, 1, 2, [cy.from_int(1)] * q * q)
                    for sys, q in ((S5, 5), (S7, 7)))
    assert ones5 != ones7 and ones7 != ones5
    assert ones5 == GridFunction(S5.tower, 1, 2, [cy.from_int(1)] * 25)
    assert hash(ones5) == hash(GridFunction(S5.tower, 1, 2,
                                            [cy.from_int(1)] * 25))


def test_rescale_args_and_negation():
    t = S5.tower
    f = GridFunction.build(t, 1, 1, lambda c: cy.from_int(c[0]))
    g = f.rescale_args((2,))
    assert g.value((1,)) == cy.from_int(2)
    assert g.value((4,)) == cy.from_int(3)  # 2*4 = 8 = 3 in F_5
    h = f.rescale_args((4,))  # x -> -x
    assert h.value((1,)) == cy.from_int(4)
    with pytest.raises(SchemaError):
        f.rescale_args((0,))


@pytest.mark.parametrize("u", [0, -1, 5, 32])
def test_rescale_args_rejects_non_codes(u):
    # over F_5 a scale code must satisfy 0 < u < 5: 32 and 5 would index
    # past the tables, -1 would read them from their end
    e2 = S5.char_of_order(1, 2)
    dat = MonomialDatum(1, (4, -2), (S5.trivial(1), e2), 1)
    f = GridFunction.build(S5.tower, 1, 2,
                           lambda c: cy.from_int(c[0] + 5 * c[1]))
    with pytest.raises(SchemaError):
        f.rescale_args((1, u))
    with pytest.raises(SchemaError):
        verify_transform_pointwise(S5, dat, target=dat,
                                   scalar=cy.from_int(5), arg_scale=(1, u))


@pytest.mark.parametrize("scale", [(1, 0), (1, 5), (1,), (1, 2, 3)])
def test_pointwise_check_rejects_scale_before_transform(monkeypatch, scale):
    # a bad code or a code count other than k is refused before the
    # q^{2k}-term transform is paid for
    import charsum.stalk_traces as st
    e2 = S5.char_of_order(1, 2)
    dat = MonomialDatum(1, (4, -2), (S5.trivial(1), e2), 1)
    calls = []
    for module, name in ((mf, "fourier_transform"),
                         (st, "gm_trace_function")):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, inner=inner:
                            calls.append(args) or inner(*args))
    with pytest.raises(SchemaError):
        verify_transform_pointwise(S5, dat, target=dat,
                                   scalar=cy.from_int(5), arg_scale=scale)
    assert calls == []
    # a valid code builds both trace functions and one transform
    verify_transform_pointwise(S5, dat, target=dat, scalar=cy.from_int(5),
                               arg_scale=(1, 1))
    assert len(calls) == 3


def test_scaled_multiplies_each_distinct_value_once(monkeypatch):
    vals = [cy.root(3, i % 3) for i in range(25)]
    f = GridFunction(S5.tower, 1, 2, vals)
    c = cy.root(5, 2) * 3
    calls = []
    mul = cy.CycloValue.__mul__

    def counting_mul(a, b):
        calls.append(a)
        return mul(a, b)
    monkeypatch.setattr(cy.CycloValue, "__mul__", counting_mul)
    g = f.scaled(c)
    monkeypatch.undo()
    assert len(calls) == 3
    assert list(g.values) == [v * c for v in vals]


def test_fourier_delta_is_constant_one():
    t = S3.tower
    delta = GridFunction.build(
        t, 1, 2, lambda c: cy.from_int(1 if c == (0, 0) else 0))
    fhat = fourier_transform(S3, delta)
    assert all(fhat.value(c) == cy.from_int(1)
               for c in product(range(3), repeat=2))


def _random_grid(sys, degree, k, seed):
    rng = random.Random(seed)
    t = sys.tower
    q = t.order(degree)
    vals = [cy.root(12, rng.randrange(12)) * cy.from_int(rng.randrange(-2, 3))
            for _ in range(q ** k)]
    return GridFunction(t, degree, k, vals)


def test_double_transform_is_reflection():
    f = _random_grid(S3, 1, 2, seed=11)
    ffhat = fourier_transform(S3, fourier_transform(S3, f))
    assert ffhat == f.rescale_args((2, 2)).scaled(cy.from_int(9))


def test_transform_of_quadratic_character():
    e2 = S3.char_of_order(1, 2)
    f = GridFunction.build(S3.tower, 1, 1, lambda c: S3.char_value(e2, c[0]))
    fhat = fourier_transform(S3, f)
    g = S3.gauss_sum(e2)
    want = GridFunction.build(
        S3.tower, 1, 1,
        lambda c: g * S3.char_value(S3.char_inv(e2), c[0]))
    assert fhat == want


def test_transform_size_bound(monkeypatch):
    # the bound counts the q^{2k} terms of the full double sum, whatever
    # the algorithm, so it accepts and refuses the same grids
    f = _random_grid(S3, 1, 2, seed=5)
    g = _random_grid(S5, 1, 1, seed=5)
    fhat, ghat = fourier_transform(S3, f), fourier_transform(S5, g)
    monkeypatch.setattr(mf, "DEFAULT_TERM_BOUND", 10)
    with pytest.raises(SizeBoundError):
        fourier_transform(S3, f)
    monkeypatch.setattr(mf, "DEFAULT_TERM_BOUND", 3 ** 4 - 1)
    with pytest.raises(SizeBoundError, match="81 transform terms exceed"):
        fourier_transform(S3, f)
    monkeypatch.setattr(mf, "DEFAULT_TERM_BOUND", 3 ** 4)
    assert fourier_transform(S3, f) == fhat
    monkeypatch.setattr(mf, "DEFAULT_TERM_BOUND", 5 ** 2 - 1)
    with pytest.raises(SizeBoundError):
        fourier_transform(S5, g)
    monkeypatch.setattr(mf, "DEFAULT_TERM_BOUND", 5 ** 2)
    assert fourier_transform(S5, g) == ghat


def _naive_transform(sys, f):
    """fhat(y) = sum_x f(x) psi(<y, x>), one ring product per (y, x) pair."""
    t, d, k = f.tower, f.degree, f.k
    q = t.order(d)
    psi = [sys.psi_value(d, x) for x in range(q)]
    points = [f.codes(i) for i in range(q ** k)]
    support = [(points[i], v) for i, v in enumerate(f.values) if not v.is_zero()]
    out = []
    for ys in points:
        acc = cy.from_int(0)
        for xs, v in support:
            dot = 0
            for y, x in zip(ys, xs):
                dot = t.add(d, dot, t.mul(d, y, x))
            acc = acc + v * psi[dot]
        out.append(acc)
    return GridFunction(t, d, k, out)


def _mixed_value(rng, p):
    """A value of order 1, p, 12 or 3p, or a sum of two roots."""
    orders = (1, p, 12, 3 * p)
    pick = rng.randrange(6)
    if pick == 0:
        return cy.from_int(0)
    if pick == 5:
        return (cy.root(rng.choice(orders), rng.randrange(36))
                - cy.root(rng.choice(orders), rng.randrange(36)) * 2)
    return cy.root(orders[pick - 1], rng.randrange(36)) * rng.randrange(-3, 4)


@pytest.mark.parametrize("p,degree,k", [
    (3, 1, 1), (3, 1, 2), (3, 1, 3),
    (5, 1, 1), (5, 1, 2),
    (3, 2, 1), (3, 2, 2),
])
def test_transform_matches_naive_sum(p, degree, k):
    # additive twist c = 2: the default twist 1 would hide a dropped twist
    sys = CharSystem(build_tower(p, degrees=(degree,)), 2)
    t = sys.tower
    q = t.order(degree)
    rng = random.Random(1000 * p + 10 * degree + k)
    grids = [
        [_mixed_value(rng, p) for _ in range(q ** k)],
        [cy.from_int(0)] * q ** k,
    ]
    # nonzero on one line along each axis, with values of orders 1 and 4
    # only, so no value carries the p-th roots of the additive character
    for axis in range(k):
        base = [rng.randrange(1, q) for _ in range(k)]
        line = [cy.from_int(0)] * q ** k
        for x in range(q):
            codes = base[:axis] + [x] + base[axis + 1:]
            idx = sum(c * q ** i for i, c in enumerate(codes))
            line[idx] = (cy.root(4, rng.randrange(4))
                         * rng.choice((-2, -1, 1, 3)))
        grids.append(line)
    for vals in grids:
        f = GridFunction(t, degree, k, vals)
        assert fourier_transform(sys, f) == _naive_transform(sys, f)


def _double_sum(sys, f):
    """fhat(y) = sum over every pair (x, y) of f(x) psi(<y, x>), one ring
    product per pair and <y, x> summed in the field."""
    t, d, k = f.tower, f.degree, f.k
    q = t.order(d)
    points = [f.codes(i) for i in range(q ** k)]
    out = []
    for ys in points:
        acc = cy.from_int(0)
        for xs, v in zip(points, f.values):
            dot = 0
            for y, x in zip(ys, xs):
                dot = t.add(d, dot, t.mul(d, y, x))
            acc = acc + v * sys.psi_value(d, dot)
        out.append(acc)
    return GridFunction(t, d, k, out)


@pytest.mark.parametrize("p,degree,k", [
    (3, 1, 1), (3, 1, 2), (5, 1, 1), (5, 1, 2), (3, 2, 1),
])
def test_transform_equals_defining_double_sum(p, degree, k):
    sys = CharSystem(build_tower(p, degrees=(degree,)), 2)
    t = sys.tower
    q = t.order(degree)
    # zero values and values at orders 1, p and (q - 1) p
    orders = (1, p, (q - 1) * p)
    rng = random.Random(7 * p + 3 * degree + k)

    def value():
        pick = rng.randrange(5)
        if pick == 0:
            return cy.from_int(0)
        if pick == 4:
            return (cy.root(orders[2], rng.randrange(orders[2]))
                    + cy.root(p, rng.randrange(p)) * rng.randrange(-3, 4))
        return (cy.root(orders[pick - 1], rng.randrange(orders[pick - 1]))
                * rng.choice((-3, -1, 1, 2)))
    vals = [value() for _ in range(q ** k)]
    f = GridFunction(t, degree, k, vals)
    assert fourier_transform(sys, f) == _double_sum(sys, f)
    # scaled by 10^25, q^k max|coeff| needs slots wider than 8 bytes
    wide = GridFunction(t, degree, k, [v * 10 ** 25 for v in vals])
    width = max(max(map(abs, v.coeffs)) for v in wide.values) * q ** k
    assert cy._slot_codec(width.bit_length() + 3)[1] is None
    assert fourier_transform(sys, wide) == _double_sum(sys, wide)


def test_transform_reduces_once_per_point(monkeypatch):
    # the F_13 cubic grid (3, -1), (1, e3): values of orders 1, 13 and 39
    from charsum.stalk_traces import gm_trace_function
    sys = system(13)
    dat = MonomialDatum(1, (3, -1), (sys.trivial(1),
                                     sys.char_of_order(1, 3)), 2)
    f = gm_trace_function(sys, dat)
    want = fourier_transform(sys, f)
    calls = []
    reduce = cy.reduce_mod_cyclotomic

    def counting(*args, **kwargs):
        calls.append(args[1])
        return reduce(*args, **kwargs)
    monkeypatch.setattr(cy, "reduce_mod_cyclotomic", counting)
    assert fourier_transform(sys, f) == want
    assert 0 < len(calls) <= 13 ** 2


def test_transform_slot_outside_bound_raises(monkeypatch):
    f = _random_grid(S5, 1, 1, seed=3)
    unpack = cy._unpack

    def high_slot(*args):
        vec = list(unpack(*args))
        vec[0] = 10 ** 6
        return tuple(vec)
    monkeypatch.setattr(cy, "_unpack", high_slot)
    with pytest.raises(InternalCheckError, match="outside the bound"):
        fourier_transform(S5, f)


def inner(f, g):
    """(f, g) = sum_x f(x) conj(g(x)) over a common grid."""
    acc = cy.from_int(0)
    for a, b in zip(f.values, g.values):
        acc = acc + a * b.conjugate()
    return acc


def test_inner_products():
    t = S3.tower
    delta = GridFunction.build(
        t, 1, 2, lambda c: cy.from_int(1 if c == (0, 0) else 0))
    assert inner(delta, delta) == cy.from_int(1)
    # Parseval: the transform scales inner products by q^k
    f = _random_grid(S3, 1, 2, seed=1)
    g = _random_grid(S3, 1, 2, seed=2)
    lhs = inner(fourier_transform(S3, f), fourier_transform(S3, g))
    assert lhs == cy.from_int(9) * inner(f, g)


def test_character_grid_orthogonality():
    e2 = S5.char_of_order(1, 2)
    e4 = S5.char_of_order(1, 4)
    def ext(lam1, lam2):
        return GridFunction.build(
            S5.tower, 1, 2,
            lambda c: S5.char_value(lam1, c[0]) * S5.char_value(lam2, c[1]))
    assert inner(ext(e2, e4), ext(e4, e2)).is_zero()
    assert inner(ext(e2, e4), ext(e2, e2)).is_zero()
    assert inner(ext(e2, e4), ext(e2, e4)) == cy.from_int(16)


# ------------------------------------------------------------------ I-sums


def test_i_sum_no_root_vanishes():
    e4 = S5.char_of_order(1, 4)
    for a in range(1, 5):
        dat = MonomialDatum(1, (2,), chars(S5, 1, 1), a)
        assert i_sum_direct(S5, dat, (e4,)).is_zero()
        assert i_sum_closed(S5, dat, (e4,)).is_zero()


def test_i_sum_square_fixture():
    # one variable, n=2, lambda=eps_2: the two quartic Gauss sums
    e2 = S5.char_of_order(1, 2)
    e4 = S5.char_of_order(1, 4)
    dat = MonomialDatum(1, (2,), chars(S5, 1, 1), 1)
    want = S5.gauss_sum(e4) + S5.gauss_sum(S5.char_pow(e4, 3))
    assert i_sum_closed(S5, dat, (e2,)) == want
    assert i_sum_direct(S5, dat, (e2,)) == want


def test_i_sum_mismatched_pair_vanishes():
    e2 = S5.char_of_order(1, 2)
    e4 = S5.char_of_order(1, 4)
    dat = MonomialDatum(1, (1, 1), chars(S5, 1, 1, 1), 1)
    assert i_sum_closed(S5, dat, (e2, e4)).is_zero()
    assert i_sum_direct(S5, dat, (e2, e4)).is_zero()


def test_i_sum_k0_is_psi():
    dat = MonomialDatum(1, (), (), 2)
    assert i_sum_closed(S5, dat, ()) == S5.psi_value(1, 2)
    assert i_sum_direct(S5, dat, ()) == S5.psi_value(1, 2)


def _exponent_pool(p):
    return [n for n in range(-4, 5) if n and math.gcd(n, p) == 1]


@pytest.mark.parametrize("p,kmax", [(3, 3), (5, 2)])
def test_i_sum_direct_equals_closed_exhaustive(p, kmax):
    sys = system(p)
    grp = p - 1
    for k in range(1, kmax + 1):
        for ns in product(_exponent_pool(p), repeat=k):
            for idxs in product(range(grp), repeat=k):
                lams = tuple(sys.character(1, i) for i in idxs)
                dat = MonomialDatum(1, ns, chars(sys, 1, *([1] * k)), 1)
                assert i_sum_direct(sys, dat, lams) == \
                    i_sum_closed(sys, dat, lams), (ns, idxs)


@pytest.mark.parametrize("p,s", [(7, 1), (3, 2)])
def test_i_sum_direct_equals_closed_sampled(p, s):
    sys = system(p, s)
    grp = sys.tower.group_order(1)
    rng = random.Random(100 * p + s)
    pool = [n for n in range(-4, 5) if n and math.gcd(n, p) == 1]
    for _ in range(40):
        k = rng.randint(1, 3)
        ns = tuple(rng.choice(pool) for _ in range(k))
        lams = tuple(sys.character(1, rng.randrange(grp)) for _ in range(k))
        a = rng.randrange(1, sys.tower.order(1))
        dat = MonomialDatum(1, ns, chars(sys, 1, *([1] * k)), a)
        assert i_sum_direct(sys, dat, lams) == i_sum_closed(sys, dat, lams)


def test_i_sum_rejects_bad_datum():
    with pytest.raises(SchemaError):
        i_sum_direct(S5, MonomialDatum(1, (5,), chars(S5, 1, 1), 1), (S5.trivial(1),))
    with pytest.raises(SchemaError):
        i_sum_direct(S5, MonomialDatum(1, (0,), chars(S5, 1, 1), 1), (S5.trivial(1),))
    with pytest.raises(SchemaError):
        i_sum_direct(S5, MonomialDatum(1, (2,), chars(S5, 1, 1), 0), (S5.trivial(1),))


# ------------------------------------------------------------------ solver


def test_solver_square_family():
    # one variable, n=2: chi = eps_2, b = -1/(4a), c = -g(eps_2) eps_2(a)
    t = S5.tower
    e2 = S5.char_of_order(1, 2)
    for a in range(1, 5):
        dat = MonomialDatum(1, (2,), chars(S5, 1, 1), a)
        sol = solve_monomial_transform(S5, dat)
        assert sol.case == 1
        assert sol.chi == e2
        assert sol.exponents == (2,)
        assert S5.is_trivial(sol.characters[0])
        assert sol.b == t.neg(1, t.inv(1, t.mul(1, 4, a)))
        want_c = (cy.from_int(-1) * S5.gauss_sum(e2)) * S5.char_value(e2, a)
        assert sol.c == want_c


def test_solver_cubic_fixture():
    # (3,-1) with (1, eps_3) over F_7: chi = eps_3, b = 27^{-1} = 6, c = 7
    e3 = S7.char_of_order(1, 3)
    dat = MonomialDatum(1, (3, -1), (S7.trivial(1), e3), 1)
    sol = solve_monomial_transform(S7, dat)
    assert sol.case == 1
    assert sol.chi == e3
    assert sol.b == 6
    assert sol.c == cy.from_int(7)
    assert sol.exponents == (3, -1)
    assert S7.is_trivial(sol.characters[0])
    assert sol.characters[1] == e3
    assert S7.char_order(sol.chi) == 3


def test_solver_ratio_family_case_two():
    # (1,-1) with (chi, chi^{-1}): case (ii), b = -a, eta = (chi^{-1}, chi)
    e3 = S7.char_of_order(1, 3)
    for a in (1, 2, 5):
        dat = MonomialDatum(1, (1, -1), (e3, S7.char_inv(e3)), a)
        sol = solve_monomial_transform(S7, dat)
        assert sol.case == 2
        assert S7.is_trivial(sol.chi)
        assert sol.b == (7 - a) % 7
        assert sol.exponents == (-1, 1)
        assert sol.characters == (S7.char_inv(e3), e3)


def test_solver_gaussian():
    dat = MonomialDatum(1, (1, 1), chars(S3, 1, 1, 1), 1)
    sol = solve_monomial_transform(S3, dat)
    assert sol.case == 1
    assert sol.b == 2
    assert sol.c == cy.from_int(3)
    assert all(S3.is_trivial(h) for h in sol.characters)


def test_solver_abs_c_squared():
    data = [
        (S5, (2,), chars(S5, 1, 1), 3),
        (S7, (3, -1), (S7.trivial(1), S7.char_of_order(1, 3)), 2),
        (S5, (2, 2, -2), chars(S5, 1, 2, 1, 2), 2),
        (S3, (1, 1, 1, -1), chars(S3, 1, 1, 1, 1, 1), 1),
    ]
    for sys, exps, cs, a in data:
        sol = solve_monomial_transform(sys, MonomialDatum(1, exps, cs, a))
        q = sys.tower.order(1)
        assert (sol.c * sol.c.conjugate()) == cy.from_int(q ** len(exps))


def test_solver_minimal_degree_character():
    # same datum lifted to F_49: chi is still reported at degree 1
    sys = system(7, degrees=(1, 2))
    e3 = sys.char_of_order(1, 3)
    lifted = MonomialDatum(2, (3, -1), (sys.trivial(2),
                                        sys.lift_character(e3, 2)),
                           sys.tower.embed(1, 2, 1))
    sol = solve_monomial_transform(sys, lifted)
    assert sol.chi.degree == 1
    assert sol.twist == 0
    assert (sol.c * sol.c.conjugate()) == cy.from_int(49 ** 2)


def test_solver_rejects_bad_sum():
    with pytest.raises(SchemaError):
        solve_monomial_transform(S5, MonomialDatum(1, (1, 1, 1), chars(S5, 1, 1, 1, 1), 1))
    with pytest.raises(SchemaError):
        solve_monomial_transform(S5, MonomialDatum(1, (4, -1), chars(S5, 1, 1, 1), 1))


def test_solver_rejects_unsolvable_divisor_equation():
    # (3,-1) over F_5 leaves two third-points no character can supply
    with pytest.raises(SchemaError):
        solve_monomial_transform(S5, MonomialDatum(1, (3, -1), chars(S5, 1, 1, 1), 1))
    e2 = S5.char_of_order(1, 2)
    e4 = S5.char_of_order(1, 4)
    with pytest.raises(SchemaError):
        solve_monomial_transform(
            S5, MonomialDatum(1, (2, 2, -2), (e4, e2, S5.trivial(1)), 1))


def test_solver_even_field_cubic():
    # q = 4: (3,-1) with (1, eps_3) is solvable, gcd = 1, no parity issue
    sys = system(2, 2)
    e3 = sys.char_of_order(1, 3)
    dat = MonomialDatum(1, (3, -1), (sys.trivial(1), e3), 1)
    sol = solve_monomial_transform(sys, dat)
    assert sol.case == 1
    assert (sol.c * sol.c.conjugate()) == cy.from_int(16)
    assert verify_transform_pointwise(sys, dat, sol)


# -------------------------------------------------------- twisted moments


def test_twisted_moments_cubic_fixture():
    e3 = S7.char_of_order(1, 3)
    e6 = S7.char_of_order(1, 6)
    dat = MonomialDatum(1, (3, -1), (S7.trivial(1), e3), 1)
    sol = solve_monomial_transform(S7, dat)
    lams = (e6, S7.char_pow(e6, 5))
    assert verify_twisted_moments(S7, dat, sol, lams)
    assert verify_twisted_moments(S7, dat, sol, lams, method="direct")
    # a tuple with no common base vanishes on both sides and passes
    assert verify_twisted_moments(S7, dat, sol, (e6, e6))


def test_twisted_moments_square_fixture():
    e4 = S5.char_of_order(1, 4)
    dat = MonomialDatum(1, (2,), chars(S5, 1, 1), 1)
    sol = solve_monomial_transform(S5, dat)
    assert verify_twisted_moments(S5, dat, sol, (e4,))
    assert verify_twisted_moments(S5, dat, sol, (e4,), method="direct")


def test_twisted_moments_rejects_trivial_lambda():
    dat = MonomialDatum(1, (2,), chars(S5, 1, 1), 1)
    sol = solve_monomial_transform(S5, dat)
    with pytest.raises(SchemaError):
        verify_twisted_moments(S5, dat, sol, (S5.trivial(1),))


@pytest.mark.parametrize("sys,exps,orders,a", [
    (S5, (2,), (1,), 1),
    (S5, (2,), (1,), 3),
    (S7, (3, -1), (1, 3), 1),
    (S7, (1, -1), (3, 3), 2),
    (S3, (1, 1), (1, 1), 1),
])
def test_sweep_twisted_moments_depth_two(sys, exps, orders, a):
    cs = []
    for i, o in enumerate(orders):
        c = sys.trivial(1) if o == 1 else sys.char_of_order(1, o)
        if exps[i] < 0 and o != 1:
            c = sys.char_inv(c)
        cs.append(c)
    dat = MonomialDatum(1, exps, tuple(cs), a)
    rep = sweep_twisted_moments(sys, dat, depth=2)
    assert rep["pass"]
    assert not rep["failures"]
    assert rep["nonvanishing"] >= 1
    assert rep["depth"] == 2


def _tamper_c(sys, sol, degree):
    return na.NormSolution(sol.case, sol.ranks, sol.characters, sol.nu,
                           sol.b, -sol.c, sol.twist)


def _tamper_b(sys, sol, degree):
    t = sys.tower
    return na.NormSolution(sol.case, sol.ranks, sol.characters, sol.nu,
                           t.mul(degree, sol.b, t.generator(degree)), sol.c,
                           sol.twist)


def _tamper_eta(sys, sol, degree):
    # shifting eta_1 by a non-cube kills the right root of every tuple
    etas = sol.characters.chars
    eta = (sys.char_mul(etas[0], sys.character(degree, 1)),) + etas[1:]
    return na.NormSolution(sol.case, sol.ranks, na.NormCharacter(eta),
                           sol.nu, sol.b, sol.c, sol.twist)


@pytest.mark.parametrize("tamper", [_tamper_c, _tamper_b, _tamper_eta])
def test_sweep_fails_on_tampered_solution(monkeypatch, tamper):
    e3 = S7.char_of_order(1, 3)
    dat = MonomialDatum(1, (3, -1), (S7.trivial(1), e3), 1)
    honest = sweep_twisted_moments(S7, dat, depth=2)
    assert honest["pass"] and honest["nonvanishing"] > 0
    solve = na.solve_norm_transform
    monkeypatch.setattr(
        na, "solve_norm_transform",
        lambda sys, alg, *data: tamper(sys, solve(sys, alg, *data),
                                       alg.base_degree))
    rep = sweep_twisted_moments(S7, dat, depth=2)
    assert not rep["pass"]
    assert rep["checked"] == honest["checked"]
    if tamper is _tamper_c:
        # -c flips exactly the nonzero right sides
        assert len(rep["failures"]) == honest["nonvanishing"]
    elif tamper is _tamper_eta:
        # every nonvanishing tuple now meets a right side of 0
        failed = {(f["degree"], tuple(f["lams"])) for f in rep["failures"]}
        nonvanishing = set()
        for e in (1, 2):
            dat_e = MonomialDatum(e, dat.exponents, tuple(
                S7.lift_character(chi, e) for chi in dat.characters),
                S7.tower.embed(1, e, dat.a))
            for idx in product(range(1, 7 ** e - 1), repeat=2):
                lams = tuple(S7.character(e, i) for i in idx)
                left = tuple(S7.char_mul(chi, S7.char_inv(lam))
                             for chi, lam in zip(dat_e.characters, lams))
                if not i_sum_closed(S7, dat_e, left).is_zero():
                    nonvanishing.add((e, idx))
        assert len(nonvanishing) == honest["nonvanishing"]
        assert nonvanishing <= failed
    else:
        assert rep["failures"]


# --------------------------------------------------------------- pointwise


def test_pointwise_cubic_solver_and_explicit_form():
    e3 = S7.char_of_order(1, 3)
    dat = MonomialDatum(1, (3, -1), (S7.trivial(1), e3), 1)
    sol = solve_monomial_transform(S7, dat)
    assert verify_transform_pointwise(S7, dat, sol)
    # same statement via the explicit route: fhat(x,y) = 7 f(x, 27y)
    assert verify_transform_pointwise(
        S7, dat, target=dat, scalar=cy.from_int(7), arg_scale=(1, 27 % 7))


def test_pointwise_cubic_larger_field():
    sys = system(13)
    e3 = sys.char_of_order(1, 3)
    dat = MonomialDatum(1, (3, -1), (sys.trivial(1), e3), 1)
    sol = solve_monomial_transform(sys, dat)
    assert verify_transform_pointwise(sys, dat, sol)
    assert verify_transform_pointwise(
        sys, dat, target=dat, scalar=cy.from_int(13), arg_scale=(1, 27 % 13))


@pytest.mark.parametrize("sys", [S5, S7])
def test_pointwise_quartic_family_solver_route(sys):
    # (4,-2) with (1, eps_2): solver output verifies at every a, both
    # residue classes of q mod 4
    e2 = sys.char_of_order(1, 2)
    q = sys.tower.order(1)
    for a in range(1, q):
        dat = MonomialDatum(1, (4, -2), (sys.trivial(1), e2), a)
        sol = solve_monomial_transform(sys, dat)
        assert verify_transform_pointwise(sys, dat, sol), a


def test_pointwise_quartic_family_rescaled_form():
    # at q=5, a=2 the b-datum is the a-datum with y doubled
    e2 = S5.char_of_order(1, 2)
    dat = MonomialDatum(1, (4, -2), (S5.trivial(1), e2), 2)
    assert verify_transform_pointwise(
        S5, dat, target=dat, scalar=cy.from_int(5), arg_scale=(1, 2))


def test_pointwise_gaussian_and_wider_shapes():
    dat = MonomialDatum(1, (1, 1), chars(S3, 1, 1, 1), 1)
    assert verify_transform_pointwise(
        S3, dat, solve_monomial_transform(S3, dat))
    e2 = S5.char_of_order(1, 2)
    dat3 = MonomialDatum(1, (2, 2, -2), (e2, S5.trivial(1), e2), 2)
    assert verify_transform_pointwise(
        S5, dat3, solve_monomial_transform(S5, dat3))
    dat4 = MonomialDatum(1, (1, 1, 1, -1), chars(S3, 1, 1, 1, 1, 1), 1)
    assert verify_transform_pointwise(
        S3, dat4, solve_monomial_transform(S3, dat4))


def test_pointwise_rejects_unsupported_and_half_specified():
    dat = MonomialDatum(1, (2, 1, -1), chars(S5, 1, 1, 1, 1), 1)
    sol = solve_monomial_transform(S5, dat)
    with pytest.raises(SchemaError):
        verify_transform_pointwise(S5, dat, sol)
    good = MonomialDatum(1, (2,), chars(S5, 1, 1), 1)
    with pytest.raises(SchemaError):
        verify_transform_pointwise(S5, good, target=good)  # scalar missing


# --------------------------------------------------------- ratio transforms


def test_ratio_transform_basic():
    assert verify_ratio_transform(S5, 1, 1, 1, S5.trivial(1))


def test_ratio_transform_exhaustive_small_field():
    for a in range(1, 5):
        for xh in range(1, 5):
            for yh in range(1, 5):
                for i in range(4):
                    assert verify_ratio_transform(S5, a, xh, yh,
                                                  S5.character(1, i))


def test_ratio_transform_sampled_seven():
    rng = random.Random(7)
    for _ in range(12):
        a, xh, yh = (rng.randrange(1, 7) for _ in range(3))
        chi = S7.character(1, rng.randrange(6))
        assert verify_ratio_transform(S7, a, xh, yh, chi)


def test_ratio_transform_exhaustive_f9_twisted():
    # every chi, a, xhat and yhat over F_9 with additive twist c = 5
    s9 = CharSystem(build_tower(3, 2), c=5)
    for a, xh, yh in product(range(1, 9), repeat=3):
        for i in range(8):
            assert verify_ratio_transform(s9, a, xh, yh, s9.character(1, i))


def test_ratio_check_nfold_with_coefficient():
    # the shared body at n = 2 with a != 1, over F_9 with twist c = 5
    s9 = CharSystem(build_tower(3, 2), c=5)
    rng = random.Random(9)
    moved = 0
    for _ in range(40):
        a = rng.randrange(2, 9)
        xh = tuple(rng.randrange(1, 9) for _ in range(2))
        yh = tuple(rng.randrange(1, 9) for _ in range(2))
        chi = s9.character(1, rng.randrange(1, 8))
        assert mf._ratio_check(s9, chi, a, xh, yh)
        moved += mf._ratio_sum(s9, chi, a, xh, yh) \
            != mf._ratio_sum(s9, chi, 1, xh, yh)
    # the coefficient changes the sum, so the a-terms are exercised
    assert moved > 0


def test_ratio_transform_rejects_zero_parameters():
    with pytest.raises(SchemaError):
        verify_ratio_transform(S5, 0, 1, 1, S5.trivial(1))
    with pytest.raises(SchemaError):
        verify_ratio_transform(S5, 1, 0, 1, S5.trivial(1))


@pytest.mark.parametrize("call", [
    lambda chi: verify_ratio_transform(S5, 7, 1, 1, chi),
    lambda chi: verify_ratio_transform(S5, -1, 1, 1, chi),
    lambda chi: verify_ratio_transform_nfold(S5, 2, chi, (1, 6), (1, 1)),
], ids=["a-above-field", "a-negative", "nfold-xhat-above-field"])
def test_ratio_transform_rejects_non_field_codes(call):
    # a, xhat and yhat are codes of F_5^*: 0 < x < 5
    with pytest.raises(SchemaError):
        call(S5.char_of_order(1, 2))


def test_ratio_transform_nfold():
    e2 = S5.char_of_order(1, 2)
    assert verify_ratio_transform_nfold(S5, 2, e2, (1, 2), (1, 1))
    assert verify_ratio_transform_nfold(S5, 1, S5.trivial(1), (2,), (3,))
    assert verify_ratio_transform_nfold(S5, 2, S5.char_of_order(1, 4),
                                        (2, 3), (4, 1))
    with pytest.raises(SchemaError):
        verify_ratio_transform_nfold(S5, 2, e2, (1, 0), (1, 1))


# -------------------------------------------------------------- properties


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4),
       st.integers(1, 4))
def test_property_i_sum_agreement(i1, i2, n1, a):
    lams = (S5.character(1, i1), S5.character(1, i2))
    dat = MonomialDatum(1, (n1, -1), chars(S5, 1, 1, 1), a)
    assert i_sum_direct(S5, dat, lams) == i_sum_closed(S5, dat, lams)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2,), (1, 1), (3, -1), (1, -1), (4, -2), (2, 2, -2)]),
       st.integers(1, 6), st.integers(0, 100))
def test_property_solver_outputs_verify(exps, a, charseed):
    sys = S7
    q = 7
    rng = random.Random(charseed)
    cs = tuple(sys.character(1, rng.randrange(6)) for _ in exps)
    dat = MonomialDatum(1, exps, cs, a % (q - 1) + 1)
    try:
        sol = solve_monomial_transform(sys, dat)
    except SchemaError:
        return
    assert (sol.c * sol.c.conjugate()) == cy.from_int(q ** len(exps))
    lams = tuple(sys.character(1, rng.randrange(1, 6)) for _ in exps)
    assert verify_twisted_moments(sys, dat, sol, lams)
