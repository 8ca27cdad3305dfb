"""Tests for the integer helpers: the linear-congruence solver and the
group-ring fold."""

from __future__ import annotations

from collections import Counter
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from charsum._intutil import group_ring_fold, solve_congruences


def least_root_by_scan(coeffs, residues, modulus):
    for t in range(modulus):
        if all((n * t - c) % modulus == 0 for n, c in zip(coeffs, residues)):
            return t
    return None


@st.composite
def congruence_systems(draw):
    modulus = draw(st.sampled_from([1, 2, 48, 168, 2184]))
    coeffs = draw(st.lists(st.integers(-2 * modulus, 2 * modulus),
                           max_size=4))
    # half the systems are built around a planted root, so solvable ones
    # with several congruences occur; the rest draw residues freely
    if draw(st.booleans()):
        t0 = draw(st.integers(0, modulus - 1))
        residues = [n * t0 + modulus * draw(st.integers(-2, 2))
                    for n in coeffs]
    else:
        residues = [draw(st.integers(-modulus, 2 * modulus))
                    for _ in coeffs]
    return coeffs, residues, modulus


@settings(max_examples=300, deadline=None)
@given(congruence_systems())
def test_property_solve_congruences_matches_scan(system):
    coeffs, residues, modulus = system
    assert solve_congruences(coeffs, residues, modulus) == \
        least_root_by_scan(coeffs, residues, modulus)


def test_solve_congruences_fixtures():
    # 3t = 0 and -t = 4 (mod 6): t = 2
    assert solve_congruences([3, -1], [0, 4], 6) == 2
    # 2t = 1 (mod 6) has no solution
    assert solve_congruences([2], [1], 6) is None
    # consistent alone, inconsistent together: t = 0 (mod 2), t = 1 (mod 2)
    assert solve_congruences([3, 3], [0, 3], 6) is None
    # a zero coefficient asks its residue to vanish and pins nothing
    assert solve_congruences([0], [0], 48) == 0
    assert solve_congruences([0], [5], 48) is None
    assert solve_congruences([], [], 2184) == 0
    assert solve_congruences([5, 7], [3, 3], 1) == 0


@st.composite
def fold_inputs(draw):
    m1 = draw(st.integers(1, 12))
    m2 = draw(st.integers(1, 7))
    pair = st.tuples(st.integers(-2 * m1, 2 * m1),
                     st.integers(-2 * m2, 2 * m2))
    pools = draw(st.lists(st.lists(pair, max_size=5), max_size=4))
    return pools, m1, m2


@settings(max_examples=300, deadline=None)
@given(fold_inputs())
def test_property_group_ring_fold_matches_enumeration(inputs):
    pools, m1, m2 = inputs
    want = Counter((sum(u for u, _ in combo) % m1,
                    sum(v for _, v in combo) % m2)
                   for combo in product(*pools))
    assert group_ring_fold(pools, m1, m2) == want


def test_group_ring_fold_fixtures():
    # no pools give the unit; an empty pool gives the empty histogram
    assert group_ring_fold([], 5, 3) == {(0, 0): 1}
    assert group_ring_fold([[(1, 1)], []], 5, 3) == {}
    assert group_ring_fold([[(1, 2), (4, 1)], [(4, 1)]], 5, 3) == \
        {(0, 0): 1, (3, 2): 1}
