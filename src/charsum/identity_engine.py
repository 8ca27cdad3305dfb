"""Gauss-sum identities driven by divisor relations: every identity route.

A GammaMonomial is a finite list of (character, exponent) pairs over one
tower.  Attached to it is the divisor sum of the exponent-n division points
of the character points on Q/Z (one divisor_fold).  When it vanishes, the
twisted product prod_i g(lam^{n_i} chi_i) equals lam(prod n_i^{n_i}) *
prod_i g(chi_i) times an integer power of the field size, for every lam
over every extension; verify_monomial_identity recovers that exponent
exactly by running the norm identity (verify_norm_identity, the front for
any etale algebra of norm_algebra) on the split algebra F_Q^k.  What that
identity needs of its data and not of lam (the zero-divisor flag, the
lifted terms, p(V) as a discrete log, the Jacobi form C g(T) of g(chi')
and the trivial weight) is one IdentityRecord per (monomial, degree) or
(algebra, module, chi), kept on the CharSystem; each lam then only twists
indices, takes the Jacobi form of its twisted product and compares the
narrow C's, g(T) cancelling.  The forms come along the orbits of lam under
the units and translations that fix the terms, one Jacobi fold per orbit
and Galois maps along it, and m is memoised per record, twisted multiset
and lam(p(V)); _identity_exponent says how and why.  When the divisor does
not vanish, find_violation scans extensions for a character witnessing
that no collapse of this shape can hold: it counts nontrivial twisted
characters to find the witness and certifies the one it returns with an
exact |.|^2 cross ratio of Gauss-sum products.
"""

from __future__ import annotations

import math

from charsum._value import Value
from charsum.characters import CharSystem, MultCharacter
from charsum.cyclotomic import from_int, q_power_ratio, root
from charsum.divisor_calc import Divisor, divisor_fold
from charsum.errors import InternalCheckError, SchemaError
from charsum.norm_algebra import (EtaleAlgebra, NormCharacter, VirtualModule,
                                  _scale, _split_algebra, check_exponents,
                                  check_norm_data, module_divisor)


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
    degree, is the divisor_fold term (a, N, n, 1): the |n| division points
    (sign(n) a + i N) / (|n| N) mod 1 with multiplicity sign(n).  This is
    the module divisor of each record's split algebra (_record): its
    weights are all 1, and a norm-lift keeps a character's point."""
    check_terms(system, mono)
    return divisor_fold((chi.index, system.tower.group_order(chi.degree), n, 1)
                        for chi, n in mono.terms)


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
    This is the norm identity of the split algebra F_Q^k with ranks n_i,
    run by _identity_exponent on its record (_record).
    """
    rec = _record(system, mono, lam.degree)
    if not rec.zero:
        raise SchemaError(
            "monomial has a nonzero divisor; no identity is predicted")
    if not rec.factors:
        return 0
    return _identity_exponent(system, rec, lam)


# ---------------------------------------- the norm front and the records


def verify_norm_identity(system: CharSystem, algebra: EtaleAlgebra,
                         module: VirtualModule, chi: NormCharacter,
                         lam: MultCharacter) -> int:
    """Exponent m with g((lam o det_V) chi) = q^m lam(p(V)) g(chi).

    q is the base field size.  Requires the module divisor of chi to
    vanish.  When every twisted factor character is nontrivial, checks
    2m = sum of d_i over the factors with chi_i trivial.  The record of
    (algebra, module, chi) is built and certified once per system.
    """
    key = (algebra, module, chi)
    rec = system._identity_records.get(key)
    if rec is None:
        rec = system._identity_records[key] = _prepare(
            system, algebra, module, chi)
    if lam.degree != rec.base:
        raise SchemaError(
            f"twisting character of degree {lam.degree} on base degree "
            f"{rec.base}")
    if not rec.zero:
        raise SchemaError(
            "module carries a nonzero divisor; no identity is predicted")
    return _identity_exponent(system, rec, lam)


class IdentityRecord(Value):
    """The part of the norm identity of (algebra, module, chi) that does not
    depend on the twisting character lam, built by _prepare.

    Each factor is (D_i, n_i, n_i s_i, index of chi_i, |F_{q^{D_i}}^*|),
    with s_i = |F_{q^{D_i}}^*| / |F_{q^e}^*|, so that (lam o det_V) chi has
    index (lam.index n_i s_i + index of chi_i) mod |F_{q^{D_i}}^*| on
    factor i.  forms holds, per factor degree D ascending, (D, the
    positions of the factors of degree D, C, T) with C g(chi_T) the Jacobi
    form (CharSystem.gauss_form) of the product of g(chi_i) over those
    factors.  On a split record (every D_i = e) orbit holds the pairs
    (u, u^-1 mod q^e - 1) over the stabilizer S of the multiset of
    (index of chi_i, n_i) under multiplication by units u, when S is not
    {1}, and period the least t0 | q^e - 1 whose translation
    (index of chi_i) -> (index of chi_i) + t0 n_i fixes that multiset, so
    that lam and lam chi_{t0} have one twisted multiset: for the
    Hasse-Davenport monomial of n, t0 = (q^e - 1)/n and the translation is
    lam -> lam eps.  _orbit_form reads both.  The last five fields are
    None unless the divisor vanishes.  A Value; the fields are not to be
    reassigned.
    """

    __slots__ = (
        "zero",  # the module divisor vanishes
        "base",  # e, the degree of lam
        "size",  # q^e
        "factors",
        "p_log",  # discrete log of p(V) in F_{q^e}^*
        "forms",  # g(chi) = prod over forms of C g(chi_T)
        "trivial_weight",  # sum of d_i over the trivial chi_i
        "orbit",  # the stabilizer S as (u, u^-1) pairs
        "period",  # t0: the twisted multisets of idx and idx + t0 agree
    )


def _prepare(system, algebra, module, chi, zero=None):
    """Validate (algebra, module, chi) once and build its IdentityRecord.

    zero is whether the module divisor vanishes, when the caller has it;
    otherwise it is computed here.  p(V), its log and the Jacobi forms of
    g(chi) are only computed when it vanishes, as only then is an identity
    predicted.  The forms are certified once, as an exact ring equality
    with the direct product product_of_gauss(chi), so a wrong Gauss or
    Jacobi sum raises InternalCheckError here.
    """
    check_norm_data(system, algebra, module, chi)
    if zero is None:
        zero = module_divisor(system, algebra, chi, module).is_zero()
    t = system.tower
    e = algebra.base_degree
    factors = tuple((deg, n, n * (t.group_order(deg) // t.group_order(e)),
                     ch.index, t.group_order(deg))
                    for ch, n, deg in zip(chi.chars, module.ranks,
                                          algebra.degrees))
    p_log = forms = trivial_weight = orbit = period = None
    if zero:
        p_log = t.log(e, _scale(system, algebra, module))
        forms = []
        g_chi = from_int(1)
        for deg in sorted(set(algebra.degrees)):
            pos = tuple(i for i, d in enumerate(algebra.degrees) if d == deg)
            c, tt = system.gauss_form(deg, [chi.chars[i].index for i in pos])
            forms.append((deg, pos, c, tt))
            g_chi = g_chi * c * system.gauss_sum(MultCharacter(deg, tt))
        if g_chi != system.product_of_gauss(chi.chars):
            raise InternalCheckError(
                "Jacobi form of g(chi) differs from the Gauss-sum product")
        forms = tuple(forms)
        trivial_weight = sum(d * system.is_trivial(ch) for ch, d in
                             zip(chi.chars, algebra.rel_degrees()))
        if set(algebra.degrees) == {e}:  # split
            orbit = _stabilizer(factors, t.group_order(e))
            period = _period(factors, t.group_order(e))
    return IdentityRecord(zero, e, t.order(e), factors, p_log, forms,
                          trivial_weight, orbit, period)


def _stabilizer(factors, n):
    """The pairs (u, u^-1 mod n) over the units u mod n with
    u {(c_i, n_i)} = {(c_i, n_i)} as multisets, c_i the index of chi_i;
    None when only u = 1 does so."""
    want = sorted((c % n, r) for _, r, _, c, _ in factors)
    pairs = tuple((u, pow(u, -1, n)) for u in range(1, n)
                  if math.gcd(u, n) == 1
                  and sorted([(u * c % n, r) for c, r in want]) == want)
    return pairs if len(pairs) > 1 else None


def _period(factors, n):
    """The least t | n with {(n_i, c_i + t n_i)} = {(n_i, c_i)} as
    multisets mod n, c_i the index of chi_i.  The t that qualify are its
    multiples, and a twist by chi_t permutes the twisted indices."""
    want = sorted((r, c % n) for _, r, _, c, _ in factors)
    return next(t for t in range(1, n + 1) if n % t == 0
                and sorted([(r, (c + t * r) % n) for r, c in want]) == want)


def _twisted_indices(rec: IdentityRecord, idx: int) -> list[int]:
    """Index of (chi_idx o det_V) chi on each factor, by integer
    arithmetic."""
    return [(idx * step + c) % n for _, _, step, c, n in rec.factors]


def _orbit_form(system, rec, idx, deg, indices):
    """gauss_form(deg, indices) for the sorted multiset of lam = chi_idx's
    twisted indices on the factors of degree deg.

    On a miss, a record with an orbit folds one lam per orbit of
    idx -> u idx + t, u in S and t in t0 Z (t0 the record's period): the
    representative r = min over u in S of u idx mod t0.  Then
    idx = w r + t with w in S.  The translation leaves the twisted
    multiset as it is, and w {(c_i, n_i)} = {(c_i, n_i)} makes it w times
    r's, so lam's form is (galois(w) of C_r, w T_r), or r's own form when
    w = 1.  It is cached as the multiset's form."""
    if rec.orbit is None:
        return system.gauss_form(deg, indices)
    form = system._form_cache.get((deg, indices))
    if form is None:
        t0 = rec.period
        idx %= t0
        r, w = min((u * idx % t0, v) for u, v in rec.orbit)
        c, t = system.gauss_form(deg, _twisted_indices(rec, r))
        form = (c, t) if w == 1 else (c.galois(w), w * t % (rec.size - 1))
        system._form_cache[deg, indices] = form
    return form


def _identity_exponent(system, rec, lam):
    """verify_norm_identity for lam on the record of data with a vanishing
    divisor; verify_monomial_identity runs here on the records of split
    algebras.

    The identity is checked in Jacobi form.  Per factor degree D, the
    twisted Gauss sums fold into C' g(T') against the recorded C g(T) of
    g(chi).  On a split record with a stabilizer S, C' g(T') comes by the
    orbit route (_orbit_form): only the representative r of lam's orbit
    under idx -> u idx + t (u in S, t a multiple of the record's period)
    is folded by Jacobi sums.  A translation leaves the twisted multiset
    as it is, as lam -> lam eps does on a Hasse-Davenport monomial, and
    lam = chi_{wr + t} takes (sigma_w C_r, w T_r) by the Galois law
    sigma_w J(a, b) = J(wa, wb).
    Its sigma_w fixes zeta_p, as it must to map g(chi_a) to g(chi_{wa});
    the forms lie in Z[zeta_{q^e-1}], which holds no zeta_p, so there it
    is CycloValue.galois(w).  Other records take CharSystem.gauss_form.

    Where T' = T the common g(T) is nonzero and cancels exactly, so only
    the narrow C', C in Z[zeta_{q^D-1}] are multiplied and compared;
    otherwise both sides take their own Gauss sum.  This happens only on
    algebras of mixed factor degrees: on one degree a vanishing divisor
    forces the ranks to sum to 0, so lam's twists cancel in T'.  The
    right side also takes lam(p(V)) = zeta^k, k = idx(lam) log p(V), from
    the recorded log.  Then the q-power ratio of the full coefficient
    vectors and the parity clause.  The recorded forms were certified
    against the direct Gauss-sum product by _prepare.

    So per lam there run the index twist, the comparison and the parity
    clause.  Their inputs are the record, the twisted multiset per degree
    and k, and m is memoised on the system under exactly that key: a lam
    that repeats all three reads m, and every other lam runs the
    comparison."""
    twisted = _twisted_indices(rec, lam.index)
    k = lam.index * rec.p_log % (rec.size - 1)
    sets = tuple(tuple(sorted(twisted[i] for i in pos))
                 for _, pos, _, _ in rec.forms)
    # the record is held in the value, so its id names no other record
    key = (id(rec), sets, k)
    hit = system._identity_memo.get(key)
    if hit is not None:
        return hit[1]
    lhs = from_int(1)
    rhs = root(rec.size - 1, k)
    for (deg, _, c, tt), indices in zip(rec.forms, sets):
        c_lam, t_lam = _orbit_form(system, rec, lam.index, deg, indices)
        lhs = lhs * c_lam
        rhs = rhs * c
        if t_lam != tt:
            lhs = lhs * system.gauss_sum(MultCharacter(deg, t_lam))
            rhs = rhs * system.gauss_sum(MultCharacter(deg, tt))
    m = q_power_ratio(lhs, rhs, rec.size)
    if m is None:
        raise InternalCheckError(
            "zero-divisor data produced a non-power Gauss-sum ratio")
    if all(twisted) and 2 * m != rec.trivial_weight:
        raise InternalCheckError(
            f"parity clause fails: 2*{m} != {rec.trivial_weight}")
    system._identity_memo[key] = (rec, m)
    return m


# --------------------------------------------------------------- falsifier


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
