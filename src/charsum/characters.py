"""Multiplicative and additive characters of finite fields and Gauss sums.

Characters at degree d are indexed against the tower's compatible generator:
chi_j(g^i) = zeta_{q^d-1}^{j*i}, and chi(0) = 0 for every chi, including the
trivial one.  The additive character is x -> zeta_p^{AbsTr(c*x)} for a fixed
nonzero twist c in the base field, embedded upward, so the degree-d additive
character is the base one composed with the relative trace.

Gauss sums are accumulated as exact root-count vectors at order
M = (q^d - 1) * p using zeta_{q^d-1} = zeta_M^p and zeta_p = zeta_M^{q^d-1},
then reduced; the gcd shrink in from_root_counts keeps lifted-character sums
in small rings.

Jacobi sums J(a, b) = sum over x != 0, 1 of a(x) b(1 - x) need no additive
character: through the tower's Zech table they are root counts at order
q^d - 1 alone.  The law g(a) g(b) = J(a, b) g(ab) folds a product of
Gauss sums of one degree into its Jacobi form C g(T) (gauss_form), with T
the product character and C in Z[zeta_{q^d-1}], phi(q^d - 1) wide against
phi((q^d - 1) p) for the Gauss sums.  The identity check compares Jacobi
forms and cancels a common g(T); product_of_gauss stays the direct
product, which certifies each recorded form once (identity_engine._prepare).
"""

from __future__ import annotations

import math
from fractions import Fraction

from charsum._value import Value
from charsum.cyclotomic import CycloValue, from_int, from_root_counts, root
from charsum.errors import InternalCheckError, SchemaError
from charsum.field_tower import FieldTower


class MultCharacter(Value):
    """The character chi_index of F_{q^degree}^*, indexed as the module
    docstring says.  A Value; degree and index are not to be reassigned."""

    __slots__ = ("degree", "index")

    def __init__(self, degree: int, index: int):
        self.degree = degree
        self.index = index


class _GroupOrders(dict):
    """|F_{q^d}^*| by degree d, asked of the tower once per degree."""

    def __init__(self, tower: FieldTower):
        super().__init__()
        self.tower = tower

    def __missing__(self, d: int) -> int:
        n = self[d] = self.tower.group_order(d)
        return n


class CharSystem:
    def __init__(self, tower: FieldTower, c: int = 1):
        if not (0 < c < tower.q):
            raise SchemaError(f"additive twist {c} is not a nonzero base field element")
        self.tower = tower
        self.c = c
        self._group_order = _GroupOrders(tower)
        self._psi_exponents: dict[int, list[int]] = {}
        self._gauss_cache: dict[tuple[int, int], CycloValue] = {}
        self._product_cache: dict[tuple[tuple[int, int], ...], CycloValue] = {}
        self._jacobi_cache: dict[tuple[int, int, int], CycloValue] = {}
        self._form_cache: dict[tuple[int, tuple[int, ...]],
                               tuple[CycloValue, int]] = {}
        # (d, k) -> the split norm_algebra.EtaleAlgebra F_{q^d}^k over
        # base degree d, shared by the I-sums and the identity records
        self._split_algebras: dict = {}
        # (GammaMonomial, degree) or (algebra, module, chi) ->
        # identity_engine.IdentityRecord: what its identity needs that does
        # not depend on the twisting character
        self._identity_records: dict = {}
        # (id of a record, twisted multisets, k) -> (record, m): the
        # identity check's memo (identity_engine._identity_exponent)
        self._identity_memo: dict = {}

    # ---- the character group at each degree

    def character(self, degree: int, index: int) -> MultCharacter:
        return MultCharacter(degree, index % self._group_order[degree])

    def trivial(self, degree: int) -> MultCharacter:
        return MultCharacter(degree, 0)

    def char_of_order(self, degree: int, n: int, power: int = 1) -> MultCharacter:
        nd = self._group_order[degree]
        if n < 1 or nd % n:
            raise SchemaError(f"no character of order {n} at degree {degree}")
        return self.character(degree, (nd // n) * power)

    def char_mul(self, a: MultCharacter, b: MultCharacter) -> MultCharacter:
        if a.degree != b.degree:
            raise InternalCheckError(
                f"product of characters of degrees {a.degree} and {b.degree}")
        return self.character(a.degree, a.index + b.index)

    def char_pow(self, a: MultCharacter, k: int) -> MultCharacter:
        return self.character(a.degree, a.index * k)

    def char_inv(self, a: MultCharacter) -> MultCharacter:
        return self.char_pow(a, -1)

    def is_trivial(self, a: MultCharacter) -> bool:
        return a.index == 0

    def char_order(self, a: MultCharacter) -> int:
        n = self._group_order[a.degree]
        return n // math.gcd(a.index, n)

    def lift_character(self, chi: MultCharacter, d: int) -> MultCharacter:
        """chi composed with the norm from degree d down to chi.degree."""
        e = chi.degree
        if d % e:
            raise InternalCheckError(f"degree {d} is not a multiple of {e}")
        scale = self._group_order[d] // self._group_order[e]
        return self.character(d, chi.index * scale)

    def char_point(self, chi: MultCharacter) -> Fraction:
        return Fraction(chi.index, self._group_order[chi.degree])

    def char_from_point(self, degree: int, point: Fraction) -> MultCharacter:
        pt = point - math.floor(point)
        num = pt * self._group_order[degree]
        if num.denominator != 1:
            raise SchemaError(f"{point} is not a character point at degree {degree}")
        return self.character(degree, int(num))

    # ---- values

    def sign_at_neg_one(self, index: int) -> int:
        """chi_index(-1), the one rule for it: (-1)^index when q is odd,
        as -1 = g^{(q^d-1)/2} at every degree d, and 1 when q is even,
        where -1 = 1."""
        return -1 if self.tower.p % 2 and index % 2 else 1

    def char_value(self, chi: MultCharacter, x: int) -> CycloValue:
        if x == 0:
            return from_int(0)
        n = self._group_order[chi.degree]
        return root(n, chi.index * self.tower.log(chi.degree, x))

    def psi_exponents(self, d: int) -> list[int]:
        """AbsTr(c_d x) for every code x at degree d, c_d the twist embedded
        at degree d, so psi(x) = zeta_p^{psi_exponents(d)[x]}.  Built once
        per degree from the tower's trace table."""
        tab = self._psi_exponents.get(d)
        if tab is None:
            t = self.tower
            tr = t.absolute_trace_table(d)
            cd = t.embed(1, d, self.c)
            tab = [tr[t.mul(d, cd, x)] for x in range(t.order(d))]
            self._psi_exponents[d] = tab
        return tab

    def psi_value(self, d: int, x: int) -> CycloValue:
        return root(self.tower.p, self.psi_exponents(d)[x])

    # ---- Gauss sums

    def gauss_sum(self, chi: MultCharacter) -> CycloValue:
        key = (chi.degree, chi.index)
        val = self._gauss_cache.get(key)
        if val is not None:
            return val
        d = chi.degree
        t = self.tower
        n = self._group_order[d]
        p = t.p
        M = n * p
        psi = self.psi_exponents(d)
        counts = [0] * M
        idx = chi.index
        a = 0
        for x in t.exp_table(d):
            counts[(a * p + psi[x] * n) % M] += 1
            a += idx
            if a >= n:
                a -= n
        val = from_root_counts(M, counts)
        self._gauss_cache[key] = val
        return val

    def conj_gauss_sum(self, chi: MultCharacter) -> CycloValue:
        # conj(g(chi)) = chi(-1) * g(chi^{-1}); avoids conjugating a big value
        return (self.sign_at_neg_one(chi.index)
                * self.gauss_sum(self.char_inv(chi)))

    def product_of_gauss(self, chars) -> CycloValue:
        """prod g(chi) over characters of any degrees, cached by the
        multiset of their (degree, index) pairs."""
        n = self._group_order
        key = tuple(sorted((chi.degree, chi.index % n[chi.degree])
                           for chi in chars))
        val = self._product_cache.get(key)
        if val is None:
            # a balanced tree over the factors in ascending ring order
            # keeps the narrow factors' products narrow; left to right,
            # each step packs at the accumulator's width
            vals = sorted((self.gauss_sum(MultCharacter(d, i))
                           for d, i in key), key=lambda v: v.order)
            while len(vals) > 1:
                vals = [vals[j] * vals[j + 1] if j + 1 < len(vals)
                        else vals[j] for j in range(0, len(vals), 2)]
            val = vals[0] if vals else from_int(1)
            self._product_cache[key] = val
        return val

    # ---- Jacobi sums and the Jacobi form of a product of Gauss sums

    def jacobi_sum(self, d: int, a: int, b: int) -> CycloValue:
        """J(a, b) = sum over x != 0, 1 of chi_a(x) chi_b(1 - x) for the
        degree-d characters of indices a and b.  With x = g^j, 1 - x is
        g^{z[j]} for the tower's Zech table z, so each point adds one to
        the count of zeta_{q^d-1}^{a j + b z[j]}.  J does not depend on the
        additive twist, and J(a, b) = J(b, a) (x -> 1 - x), so it is cached
        by the unordered pair."""
        n = self._group_order[d]
        a %= n
        b %= n
        key = (d, a, b) if a <= b else (d, b, a)
        val = self._jacobi_cache.get(key)
        if val is None:
            z = self.tower.zech_table(d)
            counts = [0] * n
            for j in range(1, n):
                counts[(a * j + b * z[j]) % n] += 1
            val = self._jacobi_cache[key] = from_root_counts(n, counts)
        return val

    def gauss_form(self, d: int, indices) -> tuple[CycloValue, int]:
        """(C, T) with prod g(chi_i) = C g(chi_T) over the degree-d
        characters of a nonempty multiset of indices: T is the index of the
        product character and C lies in Z[zeta_{q^d-1}].

        The sorted multiset is folded left to right.  With acc the product
        so far and b the next index, C is multiplied by J(acc, b) when
        acc b is nontrivial, by -acc(-1) q^d when only acc b is trivial
        (g(a) g(a^{-1}) = a(-1) q^d and g(1) = -1), and by -1 when both are
        trivial (g(1)^2 = -g(1)).  Cached by the multiset."""
        n = self._group_order[d]
        key = (d, tuple(sorted(i % n for i in indices)))
        form = self._form_cache.get(key)
        if form is None:
            acc, *rest = key[1]
            c = from_int(1)
            for b in rest:
                ab = (acc + b) % n
                if ab:
                    c = c * self.jacobi_sum(d, acc, b)
                elif acc:
                    c = c * (-self.tower.order(d)
                             * self.sign_at_neg_one(acc))
                else:
                    c = -c
                acc = ab
            form = self._form_cache[key] = (c, acc)
        return form

    # ---- lifting and multiplication laws for Gauss sums

    def check_hd_lift(self, chi: MultCharacter, d: int) -> bool:
        """-g(chi o Nm) == (-g(chi))^{d/e} for the degree-d lift of chi."""
        # lift_character raises InternalCheckError unless chi.degree | d
        lhs = -self.gauss_sum(self.lift_character(chi, d))
        rhs = (-self.gauss_sum(chi)) ** (d // chi.degree)
        return lhs == rhs

    def check_hd_product(self, lam: MultCharacter, n: int) -> bool:
        """g(lam^n) prod g(eps^i) == lam(n^n) prod g(lam eps^i), eps of order n."""
        d = lam.degree
        t = self.tower
        nd = self._group_order[d]
        if n < 1 or nd % n:
            raise SchemaError(f"order {n} does not divide {nd}")
        step = nd // n
        lhs = self.gauss_sum(self.char_pow(lam, n))
        for i in range(1, n):
            lhs = lhs * self.gauss_sum(self.character(d, step * i))
        nn = t.pow_elem(d, t.from_int(n), n)
        rhs = self.char_value(lam, nn)
        for i in range(n):
            rhs = rhs * self.gauss_sum(self.character(d, lam.index + step * i))
        return lhs == rhs
