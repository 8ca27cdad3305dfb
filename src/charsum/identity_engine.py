"""Monomial identities between Gauss sums, driven by divisor relations.

A GammaMonomial is a finite list of (character, exponent) pairs over one
tower.  Attached to it is the divisor sum of the exponent-n division points
of the character points on Q/Z.  When that divisor vanishes, the twisted
product prod_i g(lam^{n_i} chi_i) equals lam(prod n_i^{n_i}) * prod_i g(chi_i)
times an integer power of the field size, for every lam over every extension;
verify_monomial_identity recovers that exponent exactly.  When the divisor
does not vanish, find_violation scans extensions for a character witnessing
that no collapse of this shape can hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from charsum.characters import CharSystem, MultCharacter
from charsum.cyclotomic import q_power_ratio
from charsum.divisor_calc import Divisor, divisor_of_char_power
from charsum.errors import InternalCheckError, SchemaError


@dataclass(frozen=True)
class GammaMonomial:
    """Formal product prod_i g(chi_i)^{n_i}, stored as (chi_i, n_i) pairs."""

    terms: tuple[tuple[MultCharacter, int], ...]

    def __init__(self, terms):
        object.__setattr__(self, "terms",
                           tuple((chi, int(n)) for chi, n in terms))


def _check_terms(system: CharSystem, mono: GammaMonomial) -> None:
    p = system.tower.p
    for chi, n in mono.terms:
        if n == 0:
            raise SchemaError("monomial exponents must be nonzero")
        if math.gcd(n, p) != 1:
            raise SchemaError(
                f"exponent {n} is not coprime to the characteristic {p}")


def predicted_divisor(system: CharSystem, mono: GammaMonomial) -> Divisor:
    """The divisor sum over terms; zero is the identity-holds criterion."""
    _check_terms(system, mono)
    total = Divisor()
    for chi, n in mono.terms:
        total = total + divisor_of_char_power(system.char_point(chi), n)
    return total


def _has_zero_divisor(system: CharSystem, mono: GammaMonomial) -> bool:
    """predicted_divisor(system, mono).is_zero(), computed once per monomial:
    the divisor depends on the monomial only, never on lam."""
    zero = system._zero_divisor_cache.get(mono)
    if zero is None:
        zero = predicted_divisor(system, mono).is_zero()
        system._zero_divisor_cache[mono] = zero
    return zero


def _lifted_terms(system: CharSystem, mono: GammaMonomial, d: int):
    out = []
    for chi, n in mono.terms:
        if d % chi.degree:
            raise SchemaError(
                f"degree {d} is not a multiple of term degree {chi.degree}")
        out.append((system.lift_character(chi, d), n))
    return out


def verify_monomial_identity(system: CharSystem, mono: GammaMonomial,
                             lam: MultCharacter) -> int:
    """Exponent m with prod g(lam^n chi') = Q^m lam(prod n^n) prod g(chi').

    Q is the order of lam's field, chi' the norm-lift of chi to that field.
    Requires the predicted divisor to vanish.  When every twisted character
    lam^n chi' is nontrivial, checks 2m = #{i : chi_i trivial} as well.
    """
    if not _has_zero_divisor(system, mono):
        raise SchemaError(
            "monomial has a nonzero divisor; no identity is predicted")
    t = system.tower
    d = lam.degree
    big_q = t.order(d)
    lhs_idx = []
    rhs_idx = []
    elem = t.from_int(1)
    trivial_base = 0
    trivial_twisted = 0
    for chi, n in _lifted_terms(system, mono, d):
        twisted = system.char_mul(system.char_pow(lam, n), chi)
        lhs_idx.append(twisted.index)
        rhs_idx.append(chi.index)
        elem = t.mul(d, elem, t.pow_elem(d, t.from_int(n), n))
        trivial_base += system.is_trivial(chi)
        trivial_twisted += system.is_trivial(twisted)
    lhs = system.product_of_gauss(d, lhs_idx)
    rhs = system.char_value(lam, elem) * system.product_of_gauss(d, rhs_idx)
    m = q_power_ratio(lhs, rhs, big_q)
    if m is None:
        raise InternalCheckError(
            "zero-divisor monomial produced a non-power Gauss-sum ratio")
    if trivial_twisted == 0 and 2 * m != trivial_base:
        raise InternalCheckError(
            f"parity clause fails: 2*{m} != {trivial_base}")
    return m


def _abs2_side(system: CharSystem, lifted, lam: MultCharacter,
               positive: bool):
    indices = []
    for chi, n in lifted:
        if (n > 0) != positive:
            continue
        base = chi if positive else system.char_inv(chi)
        indices.append(
            system.char_mul(system.char_pow(lam, abs(n)), base).index)
    return system.product_of_gauss(lam.degree, indices).abs_squared()


def find_violation(system: CharSystem, mono: GammaMonomial, max_degree: int):
    """Scan extensions for a character breaking the monomial's collapse.

    Splits the monomial into its positive and negative parts and compares
    the abs_squared of the two twisted Gauss-sum products against the
    trivial-character baseline; any collapse forces the cross ratio
    A(lam) B(1) = A(1) B(lam).  Returns None when the divisor is zero (no
    witness can exist), a (degree, character) pair for the first witness
    found, and "inconclusive" when the scan depth is exhausted.

    Degrees ascend, characters by index ascending; fully deterministic.
    """
    div = predicted_divisor(system, mono)
    t = system.tower
    witness = None
    for d in range(1, max_degree + 1):
        if any(d % chi.degree for chi, _ in mono.terms):
            continue
        lifted = _lifted_terms(system, mono, d)
        base_a = base_b = None
        for idx in range(t.group_order(d)):
            lam = system.character(d, idx)
            a = _abs2_side(system, lifted, lam, True)
            b = _abs2_side(system, lifted, lam, False)
            if idx == 0:
                base_a, base_b = a, b
            elif a * base_b != base_a * b:
                witness = (d, lam)
                break
        if witness:
            break
    if witness is not None:
        if div.is_zero():
            raise InternalCheckError(
                "witness found for a zero-divisor monomial")
        return witness
    return None if div.is_zero() else "inconclusive"
