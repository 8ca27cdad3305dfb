"""Tests for finite field towers: moduli, generators, embeddings, dlog."""

from __future__ import annotations

import random

import pytest

from charsum.errors import InternalCheckError, SchemaError, SizeBoundError
from charsum.field_tower import FieldTower, build_tower

# --------------------------------------------------------- fixed moduli
# first irreducible monic polynomial in ascending code order


@pytest.mark.parametrize("p,s,d,expected", [
    (2, 1, 1, (0, 1)),
    (2, 1, 2, (1, 1, 1)),
    (2, 1, 3, (1, 1, 0, 1)),
    (2, 1, 4, (1, 1, 0, 0, 1)),
    (3, 1, 2, (1, 0, 1)),
    (3, 1, 3, (1, 2, 0, 1)),
    (5, 1, 2, (2, 0, 1)),
    (2, 2, 1, (1, 1, 1)),
    (3, 2, 1, (1, 0, 1)),
])
def test_first_irreducible_modulus(p, s, d, expected):
    t = build_tower(p, s, degrees=(d,))
    assert t.modulus(d) == expected


def test_generator_fixtures():
    assert build_tower(5).generator(1) == 2
    assert build_tower(7).generator(1) == 3
    assert build_tower(3, degrees=(1, 2)).generator(2) == 4
    assert build_tower(2, 2).generator(1) == 2


def test_dlog_fixture():
    t = build_tower(5)
    assert t.log(1, 4) == 2
    assert t.exp(1, 3) == 3  # 2^3 = 8 = 3 mod 5


def test_field_axioms_exhaustive_f8():
    t = build_tower(2, 1, degrees=(3,))
    els = range(8)
    for a in els:
        for b in els:
            assert t.add(3, a, b) == t.add(3, b, a)
            assert t.mul(3, a, b) == t.mul(3, b, a)
            for c in els:
                lhs = t.mul(3, a, t.add(3, b, c))
                rhs = t.add(3, t.mul(3, a, b), t.mul(3, a, c))
                assert lhs == rhs


def test_inverses():
    for p, s, d in [(3, 1, 2), (2, 1, 3), (2, 2, 1), (5, 1, 1)]:
        t = build_tower(p, s, degrees=(d,))
        for a in range(1, t.order(d)):
            assert t.mul(d, a, t.inv(d, a)) == 1


def test_embed_is_field_homomorphism():
    for p, s, dims in [(3, 1, (1, 2)), (2, 1, (1, 2, 4)), (2, 2, (1, 2)),
                       (5, 1, (1, 2))]:
        t = build_tower(p, s, degrees=dims)
        e, d = dims[0], dims[-1]
        size = t.order(e)
        for a in range(size):
            for b in range(size):
                assert t.embed(e, d, t.add(e, a, b)) == \
                    t.add(d, t.embed(e, d, a), t.embed(e, d, b))
                assert t.embed(e, d, t.mul(e, a, b)) == \
                    t.mul(d, t.embed(e, d, a), t.embed(e, d, b))


def test_embed_fixes_prime_field_constants():
    for p, s, d in [(3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 1, 3)]:
        t = build_tower(p, s, degrees=(1, d))
        for c in range(p):
            assert t.embed(1, d, c) == c


def test_embed_transitivity():
    t = build_tower(3, 1, degrees=(1, 2, 4))
    for a in range(t.order(1)):
        assert t.embed(2, 4, t.embed(1, 2, a)) == t.embed(1, 4, a)
    t2 = build_tower(2, 1, degrees=(2, 4, 8))
    for a in range(t2.order(2)):
        assert t2.embed(4, 8, t2.embed(2, 4, a)) == t2.embed(2, 8, a)


def test_norm_matches_frobenius_product():
    for p, s, d, e in [(3, 1, 2, 1), (2, 1, 4, 2), (2, 2, 2, 1), (3, 1, 6, 2)]:
        t = build_tower(p, s, degrees=(e, d))
        q = t.q
        rng = random.Random(7)
        codes = list(range(t.order(d)))
        sample = codes if len(codes) <= 100 else rng.sample(codes, 100)
        for a in sample:
            prod = 1
            cur = a
            for _ in range(d // e):
                prod = t.mul(d, prod, cur)
                cur = t.pow_elem(d, cur, q ** e)
            if a == 0:
                prod = 0
            assert t.embed(e, d, t.norm_to(d, e, a)) == prod


def test_trace_matches_frobenius_sum():
    for p, s, d, e in [(3, 1, 2, 1), (2, 1, 4, 2), (3, 1, 6, 3)]:
        t = build_tower(p, s, degrees=(e, d))
        q = t.q
        rng = random.Random(11)
        codes = list(range(t.order(d)))
        sample = codes if len(codes) <= 100 else rng.sample(codes, 100)
        for a in sample:
            acc = 0
            cur = a
            for _ in range(d // e):
                acc = t.add(d, acc, cur)
                cur = t.pow_elem(d, cur, q ** e)
            assert t.embed(e, d, t.trace_to(d, e, a)) == acc


def test_norm_transitivity():
    t = build_tower(2, 1, degrees=(1, 2, 4))
    for a in range(16):
        assert t.norm_to(2, 1, t.norm_to(4, 2, a)) == t.norm_to(4, 1, a)


def test_norm_multiplicative_trace_additive():
    t = build_tower(3, 1, degrees=(1, 2))
    for a in range(9):
        for b in range(9):
            assert t.norm_to(2, 1, t.mul(2, a, b)) == \
                t.mul(1, t.norm_to(2, 1, a), t.norm_to(2, 1, b))
            assert t.trace_to(2, 1, t.add(2, a, b)) == \
                t.add(1, t.trace_to(2, 1, a), t.trace_to(2, 1, b))


def test_absolute_trace():
    t = build_tower(3, 2, degrees=(1, 2))
    # additive, Frobenius invariant, surjective onto F_p
    seen = set()
    for a in range(t.order(2)):
        ta = t.absolute_trace(2, a)
        seen.add(ta)
        assert ta == t.absolute_trace(2, t.pow_elem(2, a, 3) if a else 0)
    assert seen == {0, 1, 2}
    for a in range(t.order(1)):
        for b in range(t.order(1)):
            s = t.absolute_trace(1, t.add(1, a, b))
            assert s == (t.absolute_trace(1, a) + t.absolute_trace(1, b)) % 3


def test_absolute_trace_of_one():
    t = build_tower(3, 1, degrees=(1, 2))
    assert t.absolute_trace(2, 1) == 2 % 3
    t2 = build_tower(2, 2, degrees=(1,))
    assert t2.absolute_trace(1, 1) == 0  # [F_4 : F_2] = 2 is even


def test_absolute_trace_table_matches():
    for p, s, d in [(3, 1, 2), (2, 1, 4), (2, 2, 1), (5, 1, 2)]:
        t = build_tower(p, s, degrees=(d,))
        tab = t.absolute_trace_table(d)
        assert len(tab) == t.order(d)
        for a in range(t.order(d)):
            assert tab[a] == t.absolute_trace(d, a)


def test_pow_elem_negative():
    t = build_tower(3, 1, degrees=(2,))
    for a in range(1, 9):
        assert t.mul(2, t.pow_elem(2, a, -1), a) == 1
        assert t.pow_elem(2, a, -3) == t.inv(2, t.pow_elem(2, a, 3))


def test_size_bound():
    with pytest.raises(SizeBoundError):
        build_tower(2, 1, degrees=(23,))


def test_bad_params():
    with pytest.raises(SchemaError):
        build_tower(4)
    with pytest.raises(SchemaError):
        build_tower(3, 0)
    with pytest.raises(SchemaError):
        build_tower(3, degrees=(0,))


def test_deep_tower_embed_sample():
    t = build_tower(3, 1, degrees=(1, 2, 3, 6))
    rng = random.Random(3)
    for _ in range(300):
        a = rng.randrange(9)
        b = rng.randrange(9)
        assert t.embed(2, 6, t.add(2, a, b)) == \
            t.add(6, t.embed(2, 6, a), t.embed(2, 6, b))
        assert t.embed(3, 6, t.mul(3, a, b)) == \
            t.mul(6, t.embed(3, 6, a), t.embed(3, 6, b))


# ------------------------------------------------------------ log tables


def test_no_cache_dir_still_works():
    t = build_tower(3, 1, degrees=(2,))
    assert t.log(2, t.generator(2)) == 1


def test_size_builds_nothing():
    t = FieldTower(3, 2)
    assert [t.order(d) for d in (1, 2, 3)] == [9, 81, 729]
    assert [t.group_order(d) for d in (1, 2, 3)] == [8, 80, 728]
    with pytest.raises(SizeBoundError):
        t.order(12)
    # a degree this large is refused before any power is formed
    with pytest.raises(SizeBoundError):
        t.order(10 ** 12)
    with pytest.raises(SizeBoundError):
        t.group_order(12)
    with pytest.raises(SchemaError):
        t.order(0)
    with pytest.raises(SchemaError):
        t.group_order(0)
    assert t._levels == {}
    assert t.order(3) == t.level(3).n + 1


# ------------------------------------------------------------ Zech tables


@pytest.mark.parametrize("p,s,d", [(2, 1, 1), (2, 1, 3), (2, 3, 1), (3, 2, 1),
                                   (3, 1, 2), (5, 1, 2), (13, 1, 2)])
def test_zech_table_is_log_of_one_minus(p, s, d):
    t = build_tower(p, s, degrees=(d,))
    z = t.zech_table(d)
    assert z[0] == 0 and len(z) == t.group_order(d)
    for j in range(1, t.group_order(d)):
        assert z[j] == t.log(d, t.sub(d, 1, t.exp(d, j)))
    assert t.zech_table(d) is z


def test_tampered_zech_entry_raises():
    # one exp-table entry off makes exactly one Zech entry wrong, and the
    # involution check on the finished table catches it
    t = build_tower(13, 1, degrees=(2,))
    lv = t.level(2)
    lv.exp_table = list(lv.exp_table)
    lv.exp_table[5] = lv.exp_table[6]
    with pytest.raises(InternalCheckError, match="Zech table"):
        t.zech_table(2)
    assert lv.zech is None


# -------------------------------------------------- norm and trace tables


@pytest.mark.parametrize("p,d,e", [(3, 2, 1), (7, 2, 1), (3, 2, 2),
                                   (7, 1, 1)])
def test_norm_and_trace_tables_match_maps(p, d, e):
    # F_9/F_3 and F_49/F_7, and each field over itself
    t = build_tower(p, 1, degrees=(e, d))
    norms, traces = t.norm_log_table(d, e), t.trace_table(d, e)
    assert len(norms) == len(traces) == t.group_order(d)
    for j in range(t.group_order(d)):
        x = t.exp(d, j)
        assert norms[j] == t.log(e, t.norm_to(d, e, x))
        assert traces[j] == t.trace_to(d, e, x)
    assert t.norm_log_table(d, e) is norms
    assert t.trace_table(d, e) is traces
    log = t.log_table(d)
    assert all(log[x] == t.log(d, x) for x in range(1, t.order(d)))


def test_map_tables_refuse_a_non_subfield():
    t = build_tower(3, 1, degrees=(2, 3))
    with pytest.raises(InternalCheckError):
        t.norm_log_table(3, 2)
    with pytest.raises(InternalCheckError):
        t.trace_table(2, 3)
