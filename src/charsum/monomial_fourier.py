"""Exact finite Fourier analysis for monomial sum data.

A monomial datum (d, n, chi, a) is the split case of the norm layer: the
algebra F_{q^d}^k over base degree d, with ranks n, characters chi and
coefficient a.  Its twisted sums

    I^{n_1..n_k}_{lam_1..lam_k}(a)
        = sum over (x_i) in (F_{q^d}^*)^k of psi(a prod x_i^{n_i}) prod lam_i(x_i),

its transform solver (exponent sum 2 or 0: the transformed datum
(W, eta, b) and the exact constant c) and its moment sweeps are fronts
that validate the datum and run norm_algebra's engine on the split
algebra.  This module adds what is particular to monomials: grid
functions on F_{q^d}^k with cyclotomic-integer values, the exact Fourier
transform in row-column form (one coordinate axis at a time, each value
one packed residue on which psi acts by a bit rotation, one reduction
per distinct output), pointwise transform checks and the ratio
transforms.
Everything is integer arithmetic in cyclotomic fields; nothing is floated.
"""

from __future__ import annotations

import math

from . import cyclotomic as cy
from ._intutil import group_ring_fold
from ._value import Value
from .characters import CharSystem, MultCharacter
from .cyclotomic import CycloValue
from .errors import InternalCheckError, SchemaError, SizeBoundError
from .norm_algebra import (DEFAULT_TERM_BOUND, MonomialDatum, NormCharacter,
                           VirtualModule, _i_sum, _split_algebra, _sweep,
                           check_exponents, check_norm_data,
                           solve_norm_transform, verify_norm_moments)


def check_monomial_datum(system: CharSystem, datum: MonomialDatum):
    if len(datum.characters) != len(datum.exponents):
        raise SchemaError("exponent and character lists differ in length")
    check_exponents(system, datum.exponents)
    for chi in datum.characters:
        if chi.degree != datum.degree:
            raise SchemaError("character degree differs from the datum degree")
    if not (0 < datum.a < system.tower.order(datum.degree)):
        raise SchemaError("coefficient must be a nonzero field element")


def _split(system, datum):
    """The split algebra F_{q^d}^k over base degree d, the module of the
    exponents and the norm character of the datum's characters."""
    return (_split_algebra(system, datum.degree, datum.k),
            VirtualModule(datum.exponents), NormCharacter(datum.characters))


# ---------------------------------------------------------------- grids


def _check_scale_codes(factors, k, q):
    """One nonzero scale code 0 < u < q per coordinate of F_q^k."""
    if len(factors) != k or not all(0 < u < q for u in factors):
        raise SchemaError(
            f"need one nonzero scale code below {q} per coordinate")


class GridFunction:
    """Dense function F_{q^degree}^k -> CycloValue, little-endian indexed."""

    __slots__ = ("tower", "degree", "k", "values", "_q")

    def __init__(self, tower, degree, k, values):
        self.tower = tower
        self.degree = degree
        self.k = k
        self._q = tower.order(degree)
        self.values = tuple(values)
        if len(self.values) != self._q ** k:
            raise SchemaError(
                f"grid needs {self._q ** k} values, got {len(self.values)}")

    @classmethod
    def build(cls, tower, degree, k, fn):
        q = tower.order(degree)
        vals = []
        for idx in range(q ** k):
            vals.append(fn(cls._codes_static(idx, q, k)))
        return cls(tower, degree, k, vals)

    @staticmethod
    def _codes_static(index, q, k):
        out = []
        for _ in range(k):
            index, c = divmod(index, q)
            out.append(c)
        return tuple(out)

    def codes(self, index):
        return self._codes_static(index, self._q, self.k)

    def index(self, codes):
        idx = 0
        for c in reversed(codes):
            idx = idx * self._q + c
        return idx

    def value(self, codes):
        return self.values[self.index(codes)]

    def scaled(self, c) -> "GridFunction":
        """c f, one product per distinct stored value."""
        memo = {}

        def times_c(v):
            key = (v.order, v.coeffs)
            out = memo.get(key)
            if out is None:
                out = memo[key] = v * c
            return out
        return GridFunction(self.tower, self.degree, self.k,
                            map(times_c, self.values))

    def rescale_args(self, factors) -> "GridFunction":
        """g with g(x_1..x_k) = f(u_1 x_1, .., u_k x_k); each u_i must be a
        nonzero code, 0 < u_i < q^degree."""
        q = self._q
        _check_scale_codes(factors, self.k, q)
        t, d = self.tower, self.degree
        # u_i x for every code x, one row per coordinate
        rows = [[t.mul(d, u, x) for x in range(q)] for u in factors]
        return GridFunction(t, d, self.k, (
            self.value([row[c] for row, c in zip(rows, self.codes(idx))])
            for idx in range(len(self.values))))

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return (self.degree == other.degree and self.k == other.k
                and self._q == other._q and self.values == other.values)

    def __hash__(self):
        return hash((self.degree, self.k, self.values))

    def __repr__(self):
        return f"GridFunction(degree={self.degree}, k={self.k}, q={self._q})"


def fourier_transform(system: CharSystem, f: GridFunction) -> GridFunction:
    """fhat(y) = sum_x f(x) psi(<y, x>), exact, one coordinate at a time.

    psi(<y, x>) = prod_i psi(y_i x_i), so the transform is k one-variable
    transforms, each along every line of the grid parallel to one axis:
    k q^{k+1} integer additions in place of q^{2k} ring products.  The
    bound counts the q^{2k} terms of the full double sum.

    Every value is lifted to L = lcm(p, value orders) by x -> x^{L/order}
    alone: its coefficients then stand for it exactly in Z[x]/(x^L - 1),
    unreduced.  That ring maps to Z/N, N = 2^{wL} - 1, by x -> 2^w, and
    each value is held as one residue mod N.  psi(yx) = zeta_L^{(L/p) e},
    e = Tr(c y x) (c the additive twist), multiplies by 2^{w e L/p}, a
    rotation of the wL bits, so each live value's p rotations are
    precomputed and an output point is a sum of q residues and one % N.
    Each output coefficient mod x^L - 1 is a sum of q^k input
    coefficients, so B = q^k max|coeff| bounds it, and w has B's bits
    plus 3.  Then the signed residue is that polynomial at 2^w exactly;
    it is unpacked, every slot is checked against B, and it is reduced
    mod Phi_L once per distinct output.
    """
    t, d, k = f.tower, f.degree, f.k
    q = t.order(d)
    if q ** (2 * k) > DEFAULT_TERM_BOUND:
        raise SizeBoundError(f"{q ** (2 * k)} transform terms exceed the "
                             f"bound {DEFAULT_TERM_BOUND}")
    p = t.p
    L = math.lcm(p, *(v.order for v in f.values))
    bound = q ** k * max(max(map(abs, v.coeffs)) for v in f.values)
    nbytes, fmt = cy._slot_codec(bound.bit_length() + 3)
    w = 8 * nbytes
    N = (1 << (w * L)) - 1
    H = cy._top_bits(nbytes, L)
    shift = w * (L // p)
    psi = system.psi_exponents(d)
    psi_exp = [[psi[t.mul(d, y, x)] for x in range(q)] for y in range(q)]
    lifted = {}

    def residue(v):
        # x -> x^{L/order}: coefficient i moves to slot i L/order
        key = (v.order, v.coeffs)
        r = lifted.get(key)
        if r is None:
            s = L // v.order
            vec = [0] * L
            vec[:len(v.coeffs) * s:s] = v.coeffs
            r = lifted[key] = cy._pack(vec, nbytes, fmt, H) % N
        return r

    grid = list(map(residue, f.values))
    rotations = {}

    def rotate(r):
        # r 2^{shift e} mod N for e < p
        rots = rotations.get(r)
        if rots is None:
            rots = rotations[r] = [r] + [(r << shift * e) % N
                                         for e in range(1, p)]
        return rots

    stride = 1
    for _ in range(k):
        for base in range(q ** k):
            if base // stride % q:
                continue
            line = range(base, base + q * stride, stride)
            live = [(x, rotate(r)) for x, r in
                    enumerate(grid[i] for i in line) if r]
            if not live:
                continue
            for y, i in enumerate(line):
                row = psi_exp[y]
                grid[i] = sum(rots[row[x]] for x, rots in live) % N
        stride *= q

    half = N >> 1
    decoded = {0: cy.from_int(0)}

    def decode(r):
        val = decoded.get(r)
        if val is None:
            vec = cy._unpack(r - N if r > half else r, nbytes, fmt, L, H)
            if max(vec) > bound or -min(vec) > bound:
                raise InternalCheckError(
                    f"transform slot outside the bound {bound} at order {L}")
            val = decoded[r] = cy._make(
                L, cy.reduce_mod_cyclotomic(vec, L, _bound=bound))
        return val
    return GridFunction(t, d, k, map(decode, grid))


# ---------------------------------------------------------------- I-sums


def _i_sum_raw(system, degree, exponents, a, lams, method):
    """I^{n..}_{lam..}(a) over F_{q^degree}, by the norm layer's sum on the
    split algebra; with no coordinates the torus is one point and the sum
    is psi(a)."""
    if not exponents and not lams:
        return system.psi_value(degree, a)
    algebra = _split_algebra(system, degree, len(exponents))
    lam = NormCharacter(lams)
    check_norm_data(system, algebra, chi=lam, a=a)
    return _i_sum(system, algebra, VirtualModule(exponents), lam, a, method)


def i_sum_direct(system: CharSystem, datum: MonomialDatum, lams) -> CycloValue:
    """Brute-force I^{n_1..n_k}_{lam_1..lam_k}(a) over the torus."""
    check_monomial_datum(system, datum)
    return _i_sum_raw(system, datum.degree, datum.exponents, datum.a,
                      tuple(lams), "direct")


def i_sum_closed(system: CharSystem, datum: MonomialDatum, lams) -> CycloValue:
    """Closed form: 0 without a common root lam with lam_i = lam^{n_i}, else
    (q-1)^{k-1} sum over chi with chi^d = 1 of g(lam chi)(lam chi)(a^{-1}),
    d the gcd of the exponents.  This is the norm layer's closed form on
    the split algebra, which finds the root by gcd and CRT."""
    check_monomial_datum(system, datum)
    return _i_sum_raw(system, datum.degree, datum.exponents, datum.a,
                      tuple(lams), "closed")


# ---------------------------------------------------------------- the solver


class TransformSolution(Value):
    """Transformed datum (exponents, characters, b) plus the constant c.

    case 1 covers exponent sum 2 (exponents kept), case 2 covers exponent
    sum 0 (exponents negated).  chi is the mediating character, stored at
    the smallest tower degree that realizes its point; twist is the integer
    m with 2m + 1 = #trivial among {chi, chi_1, .., chi_k}.  A Value; the
    fields are not to be reassigned.
    """

    __slots__ = ("case", "exponents", "characters", "chi", "b", "c",
                 "twist")

    def transformed(self):
        """(module, characters, b, c): the right side of the moment check."""
        return (VirtualModule(self.exponents), NormCharacter(self.characters),
                self.b, self.c)


def _minimal_degree(system, degree, den):
    t = system.tower
    for dm in range(1, degree + 1):
        if degree % dm == 0 and t.group_order(dm) % den == 0:
            return dm
    raise SchemaError(f"no subfield of degree dividing {degree} carries "
                      f"a character point of denominator {den}")


def solve_monomial_transform(system: CharSystem,
                             datum: MonomialDatum) -> TransformSolution:
    """solve_norm_transform on the split algebra, with the mediating
    character reported at the smallest tower degree that realizes it.

    The equation (0) +/- (point of chi^{-1}) = sum_i D_{chi_i^{-1}, n_i}
    pins the point of chi uniquely, so there is exactly one candidate
    solution; failure modes are all explicit SchemaErrors.
    """
    check_monomial_datum(system, datum)
    sol = solve_norm_transform(system, *_split(system, datum), datum.a)
    point = system.char_point(sol.nu)
    chi = system.char_from_point(
        _minimal_degree(system, datum.degree, point.denominator), point)
    return TransformSolution(sol.case, sol.ranks, sol.characters.chars, chi,
                             sol.b, sol.c, sol.twist)


# ------------------------------------------------------- identity checks


def verify_twisted_moments(system, datum, solution, lams, *,
                           method="closed") -> bool:
    """Check (-q)^k I^{n..}_{chi_i/lam_i}(a) = c prod conj(g(lam_i)) I^{m..}_{eta_i lam_i}(b)."""
    check_monomial_datum(system, datum)
    return verify_norm_moments(system, *_split(system, datum), datum.a,
                               solution, NormCharacter(lams), method=method)


def sweep_twisted_moments(system, datum, *, depth=2):
    """Run the check of verify_twisted_moments over every nontrivial tuple
    at each extension degree e <= depth; the report counts nonvanishing
    tuples.  This is sweep_norm_moments on the split algebra: each
    base-changed datum is solved by solve_norm_transform, whose target
    (W, eta, b, c) is the one solve_monomial_transform reports.  Which
    tuples are evaluated, and by which route, is said once in
    norm_algebra._sweep."""
    check_monomial_datum(system, datum)
    return _sweep(system, *_split(system, datum), datum.a, depth)


def verify_transform_pointwise(system, datum, solution=None, *, target=None,
                               scalar=None, arg_scale=None) -> bool:
    """Check fhat = (-1)^k c f' at every grid point, f and f' being the
    full trace functions of the datum and of its transformed partner.

    An explicit (target, scalar, arg_scale) triple replaces the solver
    route and checks fhat(x) = scalar * f_target(u_1 x_1, .., u_k x_k).
    Rescaling only multiplies the target's coefficient by prod u_i^{n_i},
    which is a square when every n_i is even; the route can then express
    a transform only when b lies in the same square class as the target's
    coefficient.  For the quartic datum (4, -2) with target = datum,
    b = -a^{-1}/64 shares the square class of a exactly when -1 is a
    square: some rescaling can match over F_5, none over F_7.  The scale
    codes are checked before any trace function or transform is built.
    """
    from .stalk_traces import gm_trace_function

    check_monomial_datum(system, datum)
    if target is None:
        if solution is None:
            solution = solve_monomial_transform(system, datum)
        target = MonomialDatum(datum.degree, solution.exponents,
                               solution.characters, solution.b)
        scalar = solution.c if datum.k % 2 == 0 else -solution.c
    elif scalar is None:
        raise SchemaError("an explicit target needs an explicit scalar")
    if arg_scale is not None:
        _check_scale_codes(arg_scale, target.k,
                           system.tower.order(target.degree))
    fhat = fourier_transform(system, gm_trace_function(system, datum))
    f2 = gm_trace_function(system, target)
    if arg_scale is not None:
        f2 = f2.rescale_args(arg_scale)
    return fhat == f2.scaled(scalar)


def _ratio_sum(system, chi, a, xhat, yhat) -> CycloValue:
    """Sum over unit tuples x, y of psi(a r + sum x_m xhat_m + sum y_m yhat_m)
    chi(r), r = prod x_m / prod y_m, as one exponent histogram at M = n p,
    n = q^d - 1: psi(z) chi(r) = zeta_M^{n Tr(cz) + p idx log r}.

    psi is additive and its exponents add mod p (Tr is F_p-linear), so a
    side enters only through (log prod x_m, sum of the psi exponents of
    x_m hat_m), and each side is the product of its pools of
    (e, psi exponent of g^e hat_m) in the group ring of Z/n x Z/p
    (group_ring_fold).  A pair of entries then adds the psi exponent of
    a r to theirs; no field addition is made."""
    d = chi.degree
    t = system.tower
    grp = t.group_order(d)
    p = t.p
    order = grp * p
    psi = system.psi_exponents(d)
    exp, log = t.exp_table(d), t.log_table(d)
    log_a = log[a]

    def side(hats):
        # (log of prod x_m, psi exponent of sum x_m hat_m) -> unit tuples x
        return group_ring_fold(
            [[(e, psi[exp[(e + log[h]) % grp]]) for e in range(grp)]
             for h in hats], grp, p)

    # psi exponent of a r, by lr = log r
    psi_a = [psi[exp[(lr + log_a) % grp]] for lr in range(grp)]
    counts = [0] * order
    ys = side(yhat)
    for (ex, lin_x), cnt_x in side(xhat).items():
        for (ey, lin_y), cnt_y in ys.items():
            lr = (ex - ey) % grp
            e = (chi.index * lr % grp) * p + (psi_a[lr] + lin_x + lin_y) * grp
            counts[e % order] += cnt_x * cnt_y
    return cy.from_root_counts(order, counts)


def _ratio_check(system, chi, a, xhat, yhat) -> bool:
    """The n-fold ratio transform with coefficient a, n = len(xhat):
    _ratio_sum against q^n psi(a w) chi(w) - (1 + q + .. + q^{n-1})
    g(chi) chi^{-1}(a), where w = (-1)^n prod yhat_m / xhat_m.
    Substituting x_1 -> x_1/a takes coefficient a to coefficient 1, so
    both public ratio checks are this one identity.  a and every hat must
    be a nonzero field code, 0 < x < q^d."""
    d = chi.degree
    t = system.tower
    q, n = t.order(d), len(xhat)
    if not all(0 < x < q for x in (a, *xhat, *yhat)):
        raise SchemaError(f"a, xhat and yhat must be nonzero codes below {q}")
    lhs = _ratio_sum(system, chi, a, xhat, yhat)
    w = t.from_int(1)
    for xh, yh in zip(xhat, yhat):
        w = t.mul(d, w, t.mul(d, yh, t.inv(d, xh)))
    if n % 2:
        w = t.neg(d, w)
    geom = sum(q ** i for i in range(n))
    rhs = (q ** n * system.psi_value(d, t.mul(d, a, w))
           * system.char_value(chi, w)
           - geom * system.gauss_sum(chi)
           * system.char_value(system.char_inv(chi), a))
    return lhs == rhs


def verify_ratio_transform(system, a, xhat, yhat, chi) -> bool:
    """Check sum over (x,y) in (F_q^*)^2 of psi(a x/y + x xhat + y yhat) chi(x/y)
    against q psi(-a yhat/xhat) chi(-yhat/xhat) - g(chi) chi^{-1}(a)."""
    return _ratio_check(system, chi, a, (xhat,), (yhat,))


def verify_ratio_transform_nfold(system, n, chi, xhat, yhat) -> bool:
    """n-fold version: the same shape with x/y replaced by prod x_m / prod y_m
    and the Gauss term weighted by 1 + q + .. + q^{n-1}."""
    xhat, yhat = tuple(xhat), tuple(yhat)
    if len(xhat) != n or len(yhat) != n:
        raise SchemaError(f"need {n} components on each side")
    return _ratio_check(system, chi, system.tower.from_int(1), xhat, yhat)
