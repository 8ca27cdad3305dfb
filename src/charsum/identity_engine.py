"""Monomial identities between Gauss sums, driven by divisor relations.

A GammaMonomial is a finite list of (character, exponent) pairs over one
tower.  Attached to it is the divisor sum of the exponent-n division points
of the character points on Q/Z.  When that divisor vanishes, the twisted
product prod_i g(lam^{n_i} chi_i) equals lam(prod n_i^{n_i}) * prod_i g(chi_i)
times an integer power of the field size, for every lam over every extension;
verify_monomial_identity recovers that exponent exactly by running the norm
identity of norm_algebra on the split algebra F_Q^k.  What that identity
needs of a monomial at one degree and not of lam (the zero-divisor flag,
the lifted terms, p(V) as a discrete log, the Jacobi form C g(T) of g(chi')
and the trivial weight) is one IdentityRecord per (monomial, degree), kept
on the CharSystem; each lam then only twists indices, takes the Jacobi
form of its twisted product and compares the narrow C's, g(T) cancelling.
The form comes by the orbit route: a unit u that fixes the multiset of
(chi_i, n_i), as every unit fixes a Hasse-Davenport monomial's, turns
lam's twisted multiset into u times it, that of lam^u, and the Galois law
sigma_u g(chi_a) = g(chi_{ua}) (sigma_u fixing zeta_p) maps the form
C g(T) to sigma_u(C) g(T^u).  A translation lam -> lam chi_t that only
permutes the terms, as lam -> lam eps does for eps of order n in the
Hasse-Davenport monomial of n, leaves the twisted multiset as it is; the
least such t is the record's period t0.  So only one lam per orbit of
idx -> u idx + t (t in t0 Z) is folded by Jacobi sums, and the rest take
CycloValue.galois of its C, or its form unchanged.  That stays
in Z[zeta_{q^d-1}]: on the Gauss sums themselves, at order (q^d - 1) p,
galois(u) would move zeta_p as well.  Per lam there still run the exact
comparison of the C's with lam(p(V)) and the parity clause, unless the
same record, twisted multiset and lam(p(V)) were compared before, whose
m is memoised (norm_algebra._identity_exponent).  When the divisor does not
vanish, find_violation scans extensions for a character witnessing that
no collapse of this shape can hold: it counts nontrivial twisted characters
to find the witness and certifies the one it returns with an exact |.|^2
cross ratio of Gauss-sum products.
"""

from __future__ import annotations

import math
from fractions import Fraction

from charsum._value import Value
from charsum.characters import CharSystem, MultCharacter
from charsum.divisor_calc import Divisor
from charsum.errors import InternalCheckError, SchemaError
from charsum.norm_algebra import (IdentityRecord, NormCharacter,
                                  VirtualModule, _identity_exponent,
                                  _prepare, _split_algebra, _twisted_indices,
                                  check_exponents)


class GammaMonomial(Value):
    """Formal product prod_i g(chi_i)^{n_i}, stored as (chi_i, n_i) pairs.

    A Value, hashed once, here, as hash(terms), since every identity check
    looks its record up by (monomial, degree).  terms is not to be
    reassigned."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms):
        self.terms: tuple[tuple[MultCharacter, int], ...] = tuple(
            (chi, int(n)) for chi, n in terms)
        self._hash = hash(self.terms)

    def __hash__(self):
        return self._hash


def check_terms(system: CharSystem, mono: GammaMonomial) -> None:
    check_exponents(system, [n for _, n in mono.terms])


def predicted_divisor(system: CharSystem, mono: GammaMonomial) -> Divisor:
    """The divisor sum over terms; zero is the identity-holds criterion.

    The term (chi, n), chi of index a among the N characters of its
    degree, has the |n| division points (sign(n) a + i N) / (|n| N) mod 1
    with multiplicity sign(n) (divisor_of_char_power).  Every term's points
    are summed as integer numerators over L = lcm |n| N, and only the
    points that survive become Fractions."""
    check_terms(system, mono)
    terms = [(chi.index, system.tower.group_order(chi.degree), n)
             for chi, n in mono.terms]
    den = math.lcm(*(abs(n) * size for _, size, n in terms))
    pts: dict[int, int] = {}
    for a, size, n in terms:
        sign, width = (1, n) if n > 0 else (-1, -n)
        step = den // (width * size)
        for i in range(width):
            x = (sign * a + i * size) * step % den
            pts[x] = pts.get(x, 0) + sign
    return Divisor({Fraction(x, den): c for x, c in pts.items() if c})


def _lifted_terms(system: CharSystem, mono: GammaMonomial, d: int):
    out = []
    for chi, n in mono.terms:
        if d % chi.degree:
            raise SchemaError(
                f"degree {d} is not a multiple of term degree {chi.degree}")
        out.append((system.lift_character(chi, d), n))
    return out


def _record(system: CharSystem, mono: GammaMonomial,
            d: int) -> IdentityRecord:
    """The identity record of mono at degree d, built once per system.

    It is the record of the split algebra F_{q^d}^k over base degree d,
    with ranks n_i and the norm-lifts chi_i' of the terms, validated
    once.  Its zero flag is that of predicted_divisor: the divisor of the
    monomial depends on neither d nor lam, so a record at a lower degree
    lends its flag.  The empty monomial has no algebra; its record has no
    factors.
    """
    records = system._identity_records
    rec = records.get((mono, d))
    if rec is None:
        lower = [r for r in map(records.get, ((mono, e) for e in range(1, d)))
                 if r is not None]
        zero = lower[0].zero if lower else \
            predicted_divisor(system, mono).is_zero()
        lifted = _lifted_terms(system, mono, d)
        if lifted:
            rec = _prepare(
                system, _split_algebra(system, d, len(lifted)),
                VirtualModule(n for _, n in lifted),
                NormCharacter(chi for chi, _ in lifted), zero)
        else:
            rec = IdentityRecord(zero, d, system.tower.order(d), (), None,
                                 None, None, None, None)
        records[mono, d] = rec
    return rec


def verify_monomial_identity(system: CharSystem, mono: GammaMonomial,
                             lam: MultCharacter) -> int:
    """Exponent m with prod g(lam^n chi') = Q^m lam(prod n^n) prod g(chi').

    Q is the order of lam's field, chi' the norm-lift of chi to that field.
    Requires the predicted divisor to vanish.  When every twisted character
    lam^n chi' is nontrivial, checks 2m = #{i : chi_i trivial} as well.
    This is the norm identity of the split algebra F_Q^k with ranks n_i:
    its record (_record) holds the lifted terms, p(V) as a discrete log,
    the Jacobi form of g(chi'), the units that fix the terms and their
    period, so each lam pays only for the Jacobi form of its twisted
    product (cached by multiset; folded once per orbit of those units
    and translations and Galois-transported along it), lam(p(V)) times
    the recorded C, and the checks, which are memoised by their inputs.
    """
    rec = _record(system, mono, lam.degree)
    if not rec.zero:
        raise SchemaError(
            "monomial has a nonzero divisor; no identity is predicted")
    if not rec.factors:
        return 0
    return _identity_exponent(system, rec, lam)


def _balance(system: CharSystem, rec: IdentityRecord,
             lam: MultCharacter) -> int:
    """Nontrivial twisted characters lam^n chi' with n > 0, less those
    with n < 0; |g(chi)|^2 = Q^[chi nontrivial] makes Q^balance the |.|^2
    ratio of the positive to the negative part."""
    return sum(1 if f[1] > 0 else -1 for f, t in
               zip(rec.factors, _twisted_indices(rec, lam.index)) if t)


def _abs2_sides(system: CharSystem, rec: IdentityRecord,
                lam: MultCharacter):
    """Exact |.|^2 of the positive and of the negative twisted part."""
    twisted = [(MultCharacter(f[0], t), f[1]) for f, t in
               zip(rec.factors, _twisted_indices(rec, lam.index))]
    return [system.product_of_gauss(
        chi for chi, n in twisted if (n > 0) == positive).abs_squared()
        for positive in (True, False)]


def find_violation(system: CharSystem, mono: GammaMonomial, max_degree: int):
    """Scan extensions for a character breaking the monomial's collapse.

    Any collapse of the identity's shape forces the |.|^2 cross ratio
    A(lam) B(1) = A(1) B(lam) of the positive and negative twisted parts,
    so lam is a witness exactly when its balance (_balance) differs from
    that of the trivial character: the scan counts nontrivial characters
    and multiplies no Gauss sums.  The first witness is then certified by
    the exact cross ratio of the Gauss-sum products.  Returns None when
    the divisor is zero (no witness can exist), a (degree, character)
    pair for the first witness found, and "inconclusive" when the scan
    depth is exhausted.

    Degrees ascend, characters by index ascending; fully deterministic.
    """
    zero = None
    for d in range(1, max_degree + 1):
        if any(d % chi.degree for chi, _ in mono.terms):
            continue
        rec = _record(system, mono, d)
        zero = rec.zero
        one = system.trivial(d)
        base = _balance(system, rec, one)
        for idx in range(1, system.tower.group_order(d)):
            lam = system.character(d, idx)
            if _balance(system, rec, lam) == base:
                continue
            if zero:
                raise InternalCheckError(
                    "witness found for a zero-divisor monomial")
            a, b = _abs2_sides(system, rec, lam)
            a1, b1 = _abs2_sides(system, rec, one)
            if a * b1 == a1 * b:
                raise InternalCheckError(
                    "the exact |.|^2 cross ratio holds at the counted "
                    "witness")
            return d, lam
    if zero is None:  # no degree in range carries every term
        zero = predicted_divisor(system, mono).is_zero()
    return None if zero else "inconclusive"
