"""Monomial identities between Gauss sums, driven by divisor relations.

A GammaMonomial is a finite list of (character, exponent) pairs over one
tower.  Attached to it is the divisor sum of the exponent-n division points
of the character points on Q/Z.  When that divisor vanishes, the twisted
product prod_i g(lam^{n_i} chi_i) equals lam(prod n_i^{n_i}) * prod_i g(chi_i)
times an integer power of the field size, for every lam over every extension;
verify_monomial_identity recovers that exponent exactly by running the norm
identity of norm_algebra on the split algebra F_Q^k.  When the divisor does
not vanish, find_violation scans extensions for a character witnessing that
no collapse of this shape can hold: it counts nontrivial twisted characters
to find the witness and certifies the one it returns with an exact |.|^2
cross ratio of Gauss-sum products.
"""

from __future__ import annotations

from dataclasses import dataclass

from charsum.characters import CharSystem, MultCharacter
from charsum.divisor_calc import Divisor, divisor_of_char_power
from charsum.errors import InternalCheckError, SchemaError
from charsum.norm_algebra import (EtaleAlgebra, NormCharacter, VirtualModule,
                                  _identity_exponent, check_exponents)


@dataclass(frozen=True)
class GammaMonomial:
    """Formal product prod_i g(chi_i)^{n_i}, stored as (chi_i, n_i) pairs."""

    terms: tuple[tuple[MultCharacter, int], ...]

    def __init__(self, terms):
        object.__setattr__(self, "terms",
                           tuple((chi, int(n)) for chi, n in terms))


def check_terms(system: CharSystem, mono: GammaMonomial) -> None:
    check_exponents(system, [n for _, n in mono.terms])


def predicted_divisor(system: CharSystem, mono: GammaMonomial) -> Divisor:
    """The divisor sum over terms; zero is the identity-holds criterion."""
    check_terms(system, mono)
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
    This is the norm identity of the split algebra F_Q^k with ranks n_i.
    """
    if not _has_zero_divisor(system, mono):
        raise SchemaError(
            "monomial has a nonzero divisor; no identity is predicted")
    d = lam.degree
    lifted = _lifted_terms(system, mono, d)
    if not lifted:
        return 0
    algebra = EtaleAlgebra(system.tower, (d,) * len(lifted), d)
    return _identity_exponent(
        system, algebra, VirtualModule(n for _, n in lifted),
        NormCharacter(chi for chi, _ in lifted), lam)


def _twisted_terms(system: CharSystem, lifted, lam: MultCharacter):
    return [(system.char_mul(system.char_pow(lam, n), chi), n)
            for chi, n in lifted]


def _balance(system: CharSystem, lifted, lam: MultCharacter) -> int:
    """Nontrivial twisted characters lam^n chi' with n > 0, less those
    with n < 0; |g(chi)|^2 = Q^[chi nontrivial] makes Q^balance the |.|^2
    ratio of the positive to the negative part."""
    return sum(1 if n > 0 else -1
               for chi, n in _twisted_terms(system, lifted, lam)
               if not system.is_trivial(chi))


def _abs2_sides(system: CharSystem, lifted, lam: MultCharacter):
    """Exact |.|^2 of the positive and of the negative twisted part."""
    twisted = _twisted_terms(system, lifted, lam)
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
    zero = _has_zero_divisor(system, mono)
    for d in range(1, max_degree + 1):
        if any(d % chi.degree for chi, _ in mono.terms):
            continue
        lifted = _lifted_terms(system, mono, d)
        one = system.trivial(d)
        base = _balance(system, lifted, one)
        for idx in range(1, system.tower.group_order(d)):
            lam = system.character(d, idx)
            if _balance(system, lifted, lam) == base:
                continue
            if zero:
                raise InternalCheckError(
                    "witness found for a zero-divisor monomial")
            a, b = _abs2_sides(system, lifted, lam)
            a1, b1 = _abs2_sides(system, lifted, one)
            if a * b1 == a1 * b:
                raise InternalCheckError(
                    "the exact |.|^2 cross ratio holds at the counted "
                    "witness")
            return d, lam
    return None if zero else "inconclusive"
