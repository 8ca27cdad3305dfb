"""Norm-form layer: etale algebras over a base field in the tower, and the
one transform engine of the package.

An EtaleAlgebra is a product of tower fields F_{q^{D_i}} viewed over the
base F_{q^e} (e = base_degree, e | D_i).  A VirtualModule assigns an integer
rank n_i to each factor; attached to it are the determinant homomorphism

    det_V : k^* -> F_{q^e}^* : (x_i) |-> prod Nm(x_i)^{n_i},

the scale p(V) = prod n_i^{n_i d_i} (d_i = D_i/e), the index d(V) = gcd n_i,
and the weighted divisor sum_i d_i D_{chi_i, n_i} (divisor_fold).  On top
of that sit the algebra Gauss sum, the determinant-twisted sums I_{V,lam}(a)
in direct and closed form, and the transform solver for modules of rank 2
or 0 with its moment verifier and sweep.  The algebra Gauss-sum identity
(verify_norm_identity) is checked in identity_engine with the monomial
identities; that module reads this one, never the reverse.  The closed
I-sum is a short sum of Gauss sums (_i_terms); _sweep says which twists
the sweep evaluates, by which of its two routes, and how the Jacobi-form
route folds one twist per Galois orbit.

A monomial datum over F_{q^d} is the split algebra F_{q^d}^k over base
degree d with ranks equal to its exponents; monomial_fourier is a front
that runs its solver, I-sums and sweeps through this engine.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import cyclotomic as cy
from ._intutil import group_ring_fold, solve_congruences
from ._value import Value
from .characters import CharSystem, MultCharacter
from .cyclotomic import CycloValue
from .divisor_calc import Divisor, divisor_fold
from .errors import InternalCheckError, SchemaError, SizeBoundError

DEFAULT_TERM_BOUND = 1 << 26
# zeta_M^k by k mod M; a sweep's I-sum terms read few roots many times
_root = lru_cache(maxsize=None)(cy.root)

__all__ = [
    "EtaleAlgebra", "VirtualModule", "NormCharacter", "NormSolution",
    "MonomialDatum", "check_exponents", "check_norm_data", "rk",
    "d_of", "p_of", "module_divisor",
    "is_nondegenerate", "iter_nondegenerate", "gauss_sum_algebra",
    "i_norm_direct", "i_norm_closed",
    "solve_norm_transform", "verify_norm_moments", "sweep_norm_moments",
    "sweep_tuples", "base_change", "extend_module", "extend_character",
    "extend_scalar", "as_monomial_datum",
]


class EtaleAlgebra(Value):
    """Product of tower fields with degrees[i] viewed over F_{q^base_degree}.

    A Value; the fields are not to be reassigned."""

    __slots__ = ("tower", "degrees", "base_degree")

    def __init__(self, tower, degrees, base_degree=1):
        degrees = tuple(int(d) for d in degrees)
        base_degree = int(base_degree)
        if not degrees:
            raise SchemaError("an etale algebra needs at least one factor")
        tower.order(base_degree)
        for d in degrees:
            if d % base_degree:
                raise SchemaError(
                    f"factor degree {d} is not a multiple of the base "
                    f"degree {base_degree}")
            tower.order(d)
        self.tower = tower
        self.degrees = degrees
        self.base_degree = base_degree

    @property
    def r(self):
        return len(self.degrees)

    def rel_degrees(self):
        """Factor degrees over the base field."""
        return tuple(d // self.base_degree for d in self.degrees)

    def dim(self):
        """Dimension of the algebra over its base field."""
        return sum(self.rel_degrees())


def _split_algebra(system: CharSystem, d: int, k: int) -> EtaleAlgebra:
    """The split algebra F_{q^d}^k over base degree d, built once per
    (d, k) and system."""
    algebra = system._split_algebras.get((d, k))
    if algebra is None:
        algebra = system._split_algebras[d, k] = EtaleAlgebra(
            system.tower, (d,) * k, d)
    return algebra


class VirtualModule(Value):
    """Integer rank per algebra factor; negative and zero ranks allowed.
    A Value; ranks is not to be reassigned."""

    __slots__ = ("ranks",)

    def __init__(self, ranks):
        self.ranks = tuple(int(n) for n in ranks)


class NormCharacter(Value):
    """One multiplicative character per algebra factor.  A Value; chars is
    not to be reassigned."""

    __slots__ = ("chars",)

    def __init__(self, chars):
        self.chars = tuple(chars)


class MonomialDatum(Value):
    """Exponents n_i, characters chi_i and a coefficient a over F_{q^degree}.

    The datum stands for the function psi(a prod x_i^{n_i}) prod chi_i(x_i)
    on the torus (F_{q^degree}^*)^k, the split case of the norm layer.
    Exponents must be nonzero and coprime to p (check_exponents); the
    datum is checked against a concrete CharSystem by
    monomial_fourier.check_monomial_datum.  A Value; the fields are not to
    be reassigned.
    """

    __slots__ = ("degree", "exponents", "characters", "a")

    def __init__(self, degree, exponents, characters, a):
        self.degree = int(degree)
        self.exponents = tuple(int(n) for n in exponents)
        self.characters = tuple(characters)
        self.a = int(a)

    @property
    def k(self):
        return len(self.exponents)


def check_exponents(system: CharSystem, exponents) -> None:
    """The one exponent rule of monomial data, Gamma-monomial terms and
    module ranks: each exponent is nonzero and coprime to p, as the scale
    prod n^n and the n-division points ask.  gcd(0, p) = p, so one gcd
    test covers both."""
    p = system.tower.p
    for n in exponents:
        if math.gcd(n, p) != 1:
            raise SchemaError(
                f"exponent {n} is zero or shares a factor with p={p}")


def check_norm_data(system: CharSystem, algebra: EtaleAlgebra,
                    module: VirtualModule | None = None,
                    chi: NormCharacter | None = None,
                    a: int | None = None) -> None:
    """Check the data against the system's tower: one rank per factor,
    each nonzero rank under check_exponents (zero ranks are allowed), one
    character per factor at the factor's degree, a a base-field unit."""
    if algebra.tower is not system.tower:
        raise SchemaError("algebra was built over a different tower")
    if module is not None:
        if len(module.ranks) != algebra.r:
            raise SchemaError(
                f"{len(module.ranks)} ranks for {algebra.r} algebra factors")
        check_exponents(system, [n for n in module.ranks if n])
    if chi is not None:
        if len(chi.chars) != algebra.r:
            raise SchemaError(
                f"{len(chi.chars)} characters for {algebra.r} algebra factors")
        for ch, d in zip(chi.chars, algebra.degrees):
            if ch.degree != d:
                raise SchemaError(
                    f"character of degree {ch.degree} on a factor of "
                    f"degree {d}")
    if a is not None:
        if not 0 < a < system.tower.order(algebra.base_degree):
            raise SchemaError(f"coefficient {a} is not a base-field unit")


def rk(algebra: EtaleAlgebra, module: VirtualModule) -> int:
    """Rank over the base field, sum n_i d_i."""
    return sum(n * d for n, d in zip(module.ranks, algebra.rel_degrees()))


def d_of(module: VirtualModule) -> int:
    """gcd of the ranks; 0 when the module is zero."""
    return math.gcd(*(abs(n) for n in module.ranks))


def p_of(system: CharSystem, algebra: EtaleAlgebra,
         module: VirtualModule) -> int:
    """The scale prod n_i^{n_i d_i} as a base-field unit; zero ranks
    contribute factor 1, negative exponents mean inversion."""
    check_norm_data(system, algebra, module)
    return _scale(system, algebra, module)


def _scale(system, algebra, module):
    """p_of on validated data."""
    t = system.tower
    e = algebra.base_degree
    out = t.embed(1, e, t.from_int(1))
    for n, d in zip(module.ranks, algebra.rel_degrees()):
        if n == 0:
            continue
        base = t.embed(1, e, t.from_int(n))
        out = t.mul(e, out, t.pow_elem(e, base, n * d))
    return out


def module_divisor(system: CharSystem, algebra: EtaleAlgebra,
                   chi: NormCharacter, module: VirtualModule) -> Divisor:
    """Weighted divisor sum_i d_i * (divisor of the n_i-th power points of
    chi_i); zero-rank factors contribute nothing."""
    check_norm_data(system, algebra, module, chi)
    return divisor_fold(_divisor_terms(system, algebra, chi, module))


def _divisor_terms(system, algebra, chi, module):
    """The divisor_fold terms of sum_i d_i D_{chi_i, n_i}, with weight
    d_i = D_i/e on factor i."""
    t = system.tower
    return [(ch.index, t.group_order(ch.degree), n, d) for ch, n, d in
            zip(chi.chars, module.ranks, algebra.rel_degrees())]


def is_nondegenerate(system: CharSystem, chi: NormCharacter) -> bool:
    return all(not system.is_trivial(ch) for ch in chi.chars)


def iter_nondegenerate(system: CharSystem, algebra: EtaleAlgebra):
    """All non-degenerate characters of k^*, factor indices ascending."""
    t = system.tower
    pools = [[system.character(d, i) for i in range(1, t.group_order(d))]
             for d in algebra.degrees]
    for combo in product(*pools):
        yield NormCharacter(combo)


def gauss_sum_algebra(system: CharSystem, algebra: EtaleAlgebra,
                      chi: NormCharacter, *,
                      method: str = "factor") -> CycloValue:
    """Gauss sum over k^* against psi of the trace to the base field.

    The factor method multiplies the per-factor Gauss sums.  The direct
    method brute-forces the defining sum as an oracle for that law: every
    unit tuple is enumerated and its factors' traces, read from the
    tower's trace tables, are added in the base field.  With L = lcm of
    the |F_{q^{D_i}}^*|, prod chi_i(x_i) is a power of zeta_L and psi of
    the trace one of zeta_p, so each point adds one to an exponent
    histogram at M = L p, which from_root_counts reduces once.
    """
    check_norm_data(system, algebra, chi=chi)
    if method == "factor":
        return system.product_of_gauss(chi.chars)
    if method != "direct":
        raise SchemaError(f"unknown method {method!r}")
    t = system.tower
    e = algebra.base_degree
    sizes = [t.group_order(d) for d in algebra.degrees]
    units = math.prod(sizes)
    if units > DEFAULT_TERM_BOUND:
        raise SizeBoundError(
            f"{units} terms exceed the bound {DEFAULT_TERM_BOUND}")
    p = t.p
    span = math.lcm(*sizes)
    order = span * p
    psi = system.psi_exponents(e)
    add = t.add
    # per factor and x = g^j: (Tr_{D->e}(x), log_zeta_L chi(x) mod L)
    pools = [[(tr, ch.index * (span // size) * j % span)
              for j, tr in enumerate(t.trace_table(d, e))]
             for d, size, ch in zip(algebra.degrees, sizes, chi.chars)]
    *head, last = pools
    counts = [0] * order
    # each tuple's trace is its head's sum, added once per head in the
    # field, plus its last factor's trace
    for combo in product(*head):
        tr = charge = 0
        for tr_i, c in combo:
            tr = add(e, tr, tr_i)
            charge += c
        for tr_l, c in last:
            counts[((charge + c) % span * p
                    + psi[add(e, tr, tr_l)] * span) % order] += 1
    return cy.from_root_counts(order, counts)


# ------------------------------------------------- determinant-twisted sums


def _i_direct(system, algebra, module, lam, a):
    """I_{V,lam}(a) = sum over x in k^* of psi(a det_V(x)) lam(x), every
    point counted.

    With L = lcm of the |F_{q^{D_i}}^*|, lam(x) is a power of zeta_L and
    psi(a det_V(x)) one of zeta_p.  A point x = (g_i^{j_i}) enters only
    through m = log det_V(x) = sum n_i log Nm(g_i^{j_i}) mod q^e - 1, read
    from the tower's norm-log tables, and its charge c = sum log_zeta_L
    lam_i(x_i) mod L.  All factors but the last are folded into a
    histogram of (m, c), their product in the group ring of
    Z/(q^e - 1) x Z/L (group_ring_fold), so each entry counts its tuples.
    Each entry then meets each point of the last factor, and adds its
    count to an exponent histogram at M = L p, which from_root_counts
    reduces once.
    """
    t = system.tower
    e = algebra.base_degree
    grp = t.group_order(e)
    sizes = [t.group_order(d) for d in algebra.degrees]
    if math.prod(sizes) > DEFAULT_TERM_BOUND:
        raise SizeBoundError(
            f"{math.prod(sizes)} terms exceed the bound {DEFAULT_TERM_BOUND}")
    p = t.p
    span = math.lcm(*sizes)
    order = span * p
    psi = system.psi_exponents(e)
    exp = t.exp_table(e)
    log_a = t.log(e, a)
    # psi(a g_e^m) as a power of zeta_M, for m < q^e - 1
    tr_a = [psi[exp[(log_a + m) % grp]] * span for m in range(grp)]
    # per factor and x = g^j: (log of Nm(x)^n in the base, log_zeta_L lam(x))
    pools = [[(n * nl % grp, ch.index * (span // size) * j % span)
              for j, nl in enumerate(t.norm_log_table(d, e))]
             for d, size, n, ch in zip(algebra.degrees, sizes, module.ranks,
                                       lam.chars)]
    *head, last = pools
    counts = [0] * order
    for (m, c), cnt in group_ring_fold(head, grp, span).items():
        for m2, c2 in last:
            counts[((c + c2) % span * p + tr_a[(m + m2) % grp]) % order] \
                += cnt
    return cy.from_root_counts(order, counts)


def i_norm_direct(system: CharSystem, algebra: EtaleAlgebra,
                  module: VirtualModule, lam: NormCharacter,
                  a: int) -> CycloValue:
    """I_{V,lam}(a) = sum over x in k^* of psi(a det_V(x)) lam(x), summed
    by brute force over every point as an oracle for the closed form."""
    check_norm_data(system, algebra, module, lam, a)
    return _i_direct(system, algebra, module, lam, a)


def _factor_through_det(system, algebra, module, lam):
    """The base character mu of least index with lam = mu o det_V, or None.

    On a factor of degree D the lift of mu^n has index n idx(mu) s with
    s = |F_{q^D}^*| / |F_{q^e}^*|, so the factor asks s | idx(lam_i) and
    n idx(mu) = idx(lam_i)/s mod q^e - 1; the system is solved by gcd/CRT.
    """
    t = system.tower
    e = algebra.base_degree
    grp = t.group_order(e)
    targets = []
    for ch, deg in zip(lam.chars, algebra.degrees):
        s = t.group_order(deg) // grp
        if ch.index % s:
            return None
        targets.append(ch.index // s)
    idx = solve_congruences(module.ranks, targets, grp)
    return None if idx is None else system.character(e, idx)


def _i_terms(system, algebra, module, lam, a):
    """The closed I_{V,lam}(a) as terms (coef, T), I = sum of coef g(chi_T)
    over the base characters chi_T of index T: none unless lam = mu o det_V,
    then one per nu trivial on the image of det_V, with T = idx(mu nu) and
    coef = |k^*|/(q-1) (mu nu)(a^{-1}) an integer times a root of unity."""
    t = system.tower
    e = algebra.base_degree
    mu = _factor_through_det(system, algebra, module, lam)
    if mu is None:
        return []
    grp = t.group_order(e)
    # the nu trivial on the image of det_V, the d(V)-th powers, are the
    # characters of order dividing gcd(d(V), q-1); the zero module has
    # d(V) = 0 and leaves the whole dual group
    d1 = math.gcd(d_of(module), grp)
    units = cy.from_int(
        math.prod(t.group_order(d) for d in algebra.degrees) // grp)
    log_ai = t.log(e, t.inv(e, a))
    return [(units * _root(grp, idx * log_ai % grp), idx) for idx in
            ((mu.index + j * (grp // d1)) % grp for j in range(d1))]


def _i_closed(system, algebra, module, lam, a):
    e = algebra.base_degree
    return sum((coef * system.gauss_sum(MultCharacter(e, idx))
                for coef, idx in _i_terms(system, algebra, module, lam, a)),
               cy.from_int(0))


def i_norm_closed(system: CharSystem, algebra: EtaleAlgebra,
                  module: VirtualModule, lam: NormCharacter,
                  a: int) -> CycloValue:
    """Closed form of I_{V,lam}(a): zero unless lam factors through det_V
    as mu, then |k^*|/(q-1) times the sum of g(mu nu)(mu nu)(a^{-1}) over
    the gcd(d(V), q-1) characters nu trivial on the image of det_V.  mu is
    found by solving n_i idx(mu) = idx(lam_i)/s_i mod q-1 with gcd and CRT,
    not by scanning the base character group."""
    check_norm_data(system, algebra, module, lam, a)
    return _i_closed(system, algebra, module, lam, a)


def _i_sum(system, algebra, module, lam, a, method):
    """I_{V,lam}(a) on data the caller has validated."""
    if method == "closed":
        return _i_closed(system, algebra, module, lam, a)
    if method == "direct":
        return _i_direct(system, algebra, module, lam, a)
    raise SchemaError(f"unknown I-sum method {method!r}")


# ---------------------------------------------------------- transform solver


class NormSolution(Value):
    """Transformed module data (ranks, characters, b) plus the constant c.

    case 1 covers base rank 2 (module kept), case 2 covers base rank 0
    (module negated).  nu is the mediating base-field character; twist is
    the integer m with 2m + 1 = [nu trivial] + sum of d_i over trivial
    chi_i.  A Value; the fields are not to be reassigned.
    """

    __slots__ = ("case", "ranks", "characters", "nu", "b", "c", "twist")

    def transformed(self):
        """(module, characters, b, c): the right side of the moment check."""
        return VirtualModule(self.ranks), self.characters, self.b, self.c


def solve_norm_transform(system: CharSystem, algebra: EtaleAlgebra,
                         module: VirtualModule, chi: NormCharacter,
                         a: int) -> NormSolution:
    """Solve the divisor equation for the mediating base character nu and
    assemble the transformed module datum with its constant.

    The equation (0) +/- (point of nu^{-1}) = sum_i d_i D_{chi_i^{-1}, n_i}
    pins nu uniquely; with every point negated it reads
    (0) +/- (point of nu) = sum_i d_i D_{chi_i, n_i}.  The scale relations
    are a*b = -1/p(V) in case 1 and a/b = 1/p(V) in case 2.
    """
    check_norm_data(system, algebra, module, chi, a)
    for ch, n in zip(chi.chars, module.ranks):
        if n == 0 and system.is_trivial(ch):
            # the factor's function is 1 on F^*, whose transform
            # q delta_0 - 1 has a point mass
            raise SchemaError(
                "a rank-0 factor with the trivial character has no "
                "transform of the same type")
    t = system.tower
    e = algebra.base_degree
    q = t.order(e)
    rank = rk(algebra, module)
    if rank == 2:
        case = 1
    elif rank == 0:
        case = 2
    else:
        raise SchemaError(f"base rank {rank} admits no transform identity")
    dv = d_of(module)
    if case == 1 and dv == 2 and t.p == 2:
        raise SchemaError("rank gcd 2 needs odd q")

    # the negated equation less the origin, one fold: (r) in case 1 and
    # -(r) in case 2, with r the point of nu
    pts = divisor_fold(_divisor_terms(system, algebra, chi, module)
                       + [(0, 1, 1, -1)]).points()
    if len(pts) != 1 or pts[0][1] != (1 if case == 1 else -1):
        raise SchemaError("divisor equation has no mediating character")
    [(r, _)] = pts
    if case == 1 and dv == 2 and r != Fraction(1, 2):
        raise SchemaError("rank gcd 2 requires the order-2 character")
    if case == 2 and dv != 1 and r != 0:
        raise SchemaError("rank gcd > 1 requires a trivial mediating character")
    if (q - 1) % r.denominator:
        raise SchemaError(
            f"mediating point {r} is not realized over the base field F_{q}")
    nu = system.char_from_point(e, r)

    pv = _scale(system, algebra, module)
    if case == 1:
        b = t.neg(e, t.inv(e, t.mul(e, a, pv)))
    else:
        b = t.mul(e, a, pv)

    trivial = int(system.is_trivial(nu)) + sum(
        d * system.is_trivial(ch)
        for ch, d in zip(chi.chars, algebra.rel_degrees()))
    if trivial % 2 == 0:
        raise InternalCheckError(
            f"solution has trivial-character weight {trivial}; "
            f"an odd weight is forced")
    m = (trivial - 1) // 2

    scalar, nu_s = _c_head(system, algebra, case, nu, b, m)
    c = scalar * system.gauss_sum(system.character(e, -nu_s))
    for ch in chi.chars:
        c = c * system.gauss_sum(ch)
    dim = algebra.dim()
    norm = (c * c.conjugate()).as_int()
    if norm != q ** dim:
        raise InternalCheckError(
            f"|c|^2 = {norm} differs from q^dim = {q ** dim}")
    out_ranks = module.ranks if case == 1 else tuple(-n for n in module.ranks)

    eta = NormCharacter(tuple(
        system.char_mul(
            system.lift_character(system.char_pow(nu, n), deg),
            system.char_inv(ch))
        for ch, n, deg in zip(chi.chars, module.ranks, algebra.degrees)))
    return NormSolution(case, out_ranks, eta, nu, b, c, m)


def _c_head(system, algebra, case, nu, b, m):
    """(s, k) with c = s g(chi_{-k}) prod g(chi_i), the one statement of the
    solution's constant: k = idx(nu) in case 1 and -idx(nu) in case 2, and
    s = -(-1)^dim q^m chi_k(-b), with m the solution's twist.  The solver
    multiplies s by the Gauss sums, _c_form by the Jacobi form of the same
    product."""
    t = system.tower
    e = algebra.base_degree
    k = nu.index if case == 1 else -nu.index
    return (system.char_value(system.character(e, k), t.neg(e, b))
            * (-(-1) ** algebra.dim() * t.order(e) ** m)), k


def _twisted(system, chars, lam, sign):
    """chars lam^sign factor by factor: chi lam^{-1} and eta lam are the
    characters of the two I-sums of the moment identity at the twist lam."""
    return NormCharacter(tuple(system.char_mul(ch, system.char_pow(lm, sign))
                               for ch, lm in zip(chars.chars, lam.chars)))


def _moment_sides(system, algebra, module, chi, a, target, lam, method):
    """Both sides of the moment identity at one twist, on validated data;
    target is the transformed (module, characters, b, c).  The right
    I-sum is evaluated first; when it vanishes the right side is exactly
    0 and conj(g(lam)) is never formed.  With method "closed" each side is
    exactly 0 unless its twisted character factors through det, so the
    sweep calls this only on the support that _support lists."""
    module_w, eta, b, c = target
    q = system.tower.order(algebra.base_degree)
    lhs = (-q) ** algebra.dim() * _i_sum(
        system, algebra, module, _twisted(system, chi, lam, -1), a, method)
    rhs = _i_sum(system, algebra, module_w, _twisted(system, eta, lam, 1), b,
                 method)
    if not rhs.is_zero():
        rhs = rhs * c
        for lm in lam.chars:
            rhs = rhs * system.conj_gauss_sum(lm)
    return lhs, rhs


def verify_norm_moments(system: CharSystem, algebra: EtaleAlgebra,
                        module: VirtualModule, chi: NormCharacter, a: int,
                        solution, lam: NormCharacter, *,
                        method: str = "closed") -> bool:
    """Check (-q)^dim I_{V, chi/lam}(a) = c conj(g(lam)) I_{W, eta lam}(b)
    for a non-degenerate lam; q is the base field size.  The solution is
    a NormSolution, or any object whose transformed() gives (W, eta, b, c)."""
    check_norm_data(system, algebra, module, chi, a)
    check_norm_data(system, algebra, chi=lam)
    if not is_nondegenerate(system, lam):
        raise SchemaError("twisting characters must all be nontrivial")
    target = solution.transformed()
    module_w, eta, b, _ = target
    check_norm_data(system, algebra, module_w, eta, b)
    lhs, rhs = _moment_sides(system, algebra, module, chi, a, target, lam,
                             method)
    return lhs == rhs


# --------------------------------------------------------------- base change


def base_change(system: CharSystem, algebra: EtaleAlgebra,
                e: int) -> EtaleAlgebra:
    """Extend scalars by degree e: a factor of relative degree d splits
    into gcd(d, e) copies of the compositum."""
    check_norm_data(system, algebra)
    eb = algebra.base_degree
    return EtaleAlgebra(algebra.tower, tuple(
        deg for deg, _ in _copies(algebra.degrees, eb, e, algebra.degrees)),
        eb * e)


def _copies(degrees, base_degree, e, values):
    """Base change by e splits a factor of degree D into
    gcd(D/base_degree, e) copies of degree lcm(D, base_degree e); each
    factor's value goes to each of its copies, as (copy degree, value).
    The one check of e for every base-change function."""
    if e < 1:
        raise SchemaError(f"extension degree {e} must be positive")
    out = []
    for deg, value in zip(degrees, values):
        out.extend([(math.lcm(deg, base_degree * e), value)]
                   * math.gcd(deg // base_degree, e))
    return out


def extend_module(system: CharSystem, algebra: EtaleAlgebra,
                  module: VirtualModule, e: int) -> VirtualModule:
    check_norm_data(system, algebra, module)
    return VirtualModule(tuple(n for _, n in _copies(
        algebra.degrees, algebra.base_degree, e, module.ranks)))


def extend_character(system: CharSystem, algebra: EtaleAlgebra,
                     chi: NormCharacter, e: int) -> NormCharacter:
    """Norm-lift each factor character to the extended factor; every copy
    of a split factor carries the same lift."""
    check_norm_data(system, algebra, chi=chi)
    return NormCharacter(tuple(system.lift_character(ch, deg)
                               for deg, ch in _copies(
                                   algebra.degrees, algebra.base_degree, e,
                                   chi.chars)))


def extend_scalar(system: CharSystem, algebra: EtaleAlgebra,
                  a: int, e: int) -> int:
    """Embed a base-field scalar into the extended base, the base field
    read as a one-factor algebra."""
    check_norm_data(system, algebra, a=a)
    eb = algebra.base_degree
    [(deg, _)] = _copies((eb,), eb, e, (a,))
    return system.tower.embed(eb, deg, a)


def sweep_tuples(algebra: EtaleAlgebra, depth: int) -> int:
    """Twists a moment sweep to depth checks on the algebra, its checked
    count: at each e <= depth, the non-degenerate characters of the
    algebra base-changed by e over its own base field.  Reads field sizes
    only; builds no level."""
    return sum(_nondegenerate_count(algebra.tower, [
        deg for deg, _ in _copies(algebra.degrees, algebra.base_degree, e,
                                  algebra.degrees)])
        for e in range(1, depth + 1))


def _nondegenerate_count(tower, degrees):
    """One nontrivial character per factor: prod of (q^D - 2)."""
    return math.prod(tower.order(d) - 2 for d in degrees)


def _support(system, algebra, module, chi, target):
    """The non-degenerate twists lam at which a closed side of the moment
    identity can be nonzero, in iter_nondegenerate order.

    The left I-sum is 0 unless chi lam^{-1} = mu o det_V, and the right one
    unless eta lam = mu o det_W, for a base character mu = chi_j.  On a
    factor of degree D the lift of mu^n has index n s j, with
    s = (q^D - 1)/(q^e - 1).  So the left support is
    idx(lam_i) = idx(chi_i) - n_i s_i j and the right one
    idx(lam_i) = n'_i s_i j - idx(eta_i), over the ranks n' of W, as j runs
    over the q^e - 1 base characters.  Tuples with a trivial factor are
    dropped; zero ranks or d(V) > 1 repeat tuples, so the union is a set.
    """
    t = system.tower
    module_w, eta, _, _ = target
    grp = t.group_order(algebra.base_degree)
    orders = [t.group_order(d) for d in algebra.degrees]
    sides = ([(ch.index, -n * (o // grp))
              for ch, n, o in zip(chi.chars, module.ranks, orders)],
             [(-et.index, n * (o // grp))
              for et, n, o in zip(eta.chars, module_w.ranks, orders)])
    found = set()
    for j in range(grp):
        for side in sides:
            idx = tuple((c + s * j) % o for (c, s), o in zip(side, orders))
            if all(idx):
                found.add(idx)
    return [NormCharacter(tuple(system.character(d, i)
                                for d, i in zip(algebra.degrees, idx)))
            for idx in sorted(found)]


def _c_form(system, algebra, chi, sol):
    """(s C_c, T_c) with sol.c = s C_c g(chi_{T_c}) on a split algebra, or
    None when the degree takes the full products: the algebra has a factor
    of another degree, sol is not a NormSolution, or the form is not sol.c.

    With c = s g(chi_{-k}) prod g(chi_i) (_c_head), (C_c, T_c) is the
    Jacobi form of g(chi_{-k}) prod g(chi_i).  The form is certified by one
    exact product at order (q^e - 1) p against the c the solution
    carries."""
    e = algebra.base_degree
    if not isinstance(sol, NormSolution) or any(
            d != e for d in algebra.degrees):
        return None
    scalar, k = _c_head(system, algebra, sol.case, sol.nu, sol.b, sol.twist)
    c_c, t_c = system.gauss_form(e, [-k] + [ch.index for ch in chi.chars])
    form = c_c * scalar
    if form * system.gauss_sum(MultCharacter(e, t_c)) != sol.c:
        return None
    return form, t_c


def _sweep_stabilizer(system, algebra, chi, target, c_form):
    """The pairs (u, u^-1 mod q^e - 1) over the units u that fix the index
    of every chi_i and eta_i and T_c, and the form F of c = F g(chi_{T_c})
    under galois(u): then sigma_u fixes chi, eta and c (_sweep)."""
    form, t_c = c_form
    n = system.tower.group_order(algebra.base_degree)
    fixed = [t_c] + [ch.index for ch in chi.chars + target[1].chars]
    return [(u, pow(u, -1, n)) for u in range(1, n) if math.gcd(u, n) == 1
            and all(u * i % n == i % n for i in fixed)
            and form.galois(u) == form]


def _right_terms(system, algebra, target, lam, c_form):
    """The fold of one twist: the right side at lam, sum B_T g(chi_T), as
    the map T -> B_T, zero entries dropped.  Each term coef g(chi_T) of
    I_{W, eta lam}(b), times c = F g(chi_{T_c}) and prod conj(g(lam_i)) =
    prod lam_i(-1) g(lam_i^{-1}), folds into B g(chi_T') through Jacobi
    forms of pairs (gauss_form), which the field bounds."""
    module_w, eta, b, _ = target
    form, t_c = c_form
    e = algebra.base_degree
    right = {}
    inv = [-lm.index for lm in lam.chars]
    sign = system.sign_at_neg_one(sum(lm.index for lm in lam.chars))
    for coef, idx in _i_terms(system, algebra, module_w,
                              _twisted(system, eta, lam, 1), b):
        val, acc = form * coef * sign, t_c
        for x in [idx] + inv:
            c_x, acc = system.gauss_form(e, (acc, x))
            val = val * c_x
        right[acc] = right.get(acc, 0) + val
    return {idx: val for idx, val in right.items() if val}


def _twist_by_forms(system, algebra, module, chi, a, lam, right):
    """One twist of the moment identity on a split algebra in Jacobi form:
    whether its sides are nonzero once they are proved equal, or None when
    the comparison below proves nothing and the full products decide.

    right is the map T -> B_T of the right side (_right_terms, or its
    Galois transport in _sweep).  The left side is sum A_T g(chi_T) with
    A_T = (-q)^dim coef over the terms (coef, T) of its I-sum (_i_terms).
    Equal maps T -> A_T and T -> B_T, zero entries dropped, prove the
    sides equal; unequal ones do not prove them different, as the g(chi_T)
    need not be independent over Z[zeta_{q-1}]."""
    e = algebra.base_degree
    scale = (-system.tower.order(e)) ** algebra.dim()
    left = {idx: coef * scale for coef, idx in _i_terms(
        system, algebra, module, _twisted(system, chi, lam, -1), a)}
    if left != right:
        return None
    if len(left) > 1:
        return not sum(val * system.gauss_sum(MultCharacter(e, idx))
                       for idx, val in left.items()).is_zero()
    return bool(left)


def _sweep(system, algebra, module, chi, a, depth):
    """The moment sweep on validated data: at each extension degree
    e <= depth, solve the base-changed data with solve_norm_transform and
    check the identity at every non-degenerate twist.  The monomial sweep
    runs here on its split algebra, so both sweeps share this one solver.

    checked counts every twist, _nondegenerate_count per degree, but only
    the union of the two supports of the solved target (_support) is
    evaluated: off it both closed I-sums are exactly 0 by construction,
    so the identity holds there and the twist is not nonvanishing.  A
    wrong eta or W moves the right support, and the twists it moves to
    are still evaluated.

    An evaluated twist takes one of two routes.  On a split degree, where
    every factor has the base degree and c in Jacobi form is certified
    against the solution's c (_c_form), _twist_by_forms compares both
    sides term by term at order q^e - 1; a match proves the identity.
    There the right sides come along Galois orbits.  sigma_u for u in S
    (_sweep_stabilizer) fixes zeta_p, chi, eta and c, and maps g(chi_x)
    to g(chi_{ux}), so it takes the identity and the support at lam to
    those at lam^u.  Only the representative r = min over u in S of
    u idx(lam), which sorts first, is folded (_right_terms), and
    lam = sigma_w(r) takes {w T: sigma_w(B_T)} from r's map T -> B_T.
    Every other twist, every twist whose terms do not match, and every
    twist whose representative's did not, takes the full products of the
    closed sides at order (q^e - 1) p (_moment_sides), which decide it
    and record any failure.
    """
    report = {"depth": depth, "checked": 0, "nonvanishing": 0,
              "failures": []}
    for e in range(1, depth + 1):
        alg_e = base_change(system, algebra, e)
        mod_e = extend_module(system, algebra, module, e)
        chi_e = extend_character(system, algebra, chi, e)
        a_e = extend_scalar(system, algebra, a, e)
        sol = solve_norm_transform(system, alg_e, mod_e, chi_e, a_e)
        target = sol.transformed()
        report["checked"] += _nondegenerate_count(system.tower, alg_e.degrees)
        c_form = _c_form(system, alg_e, chi_e, sol)
        if c_form is not None:
            n = system.tower.group_order(alg_e.base_degree)
            orbit = _sweep_stabilizer(system, alg_e, chi_e, target, c_form)
        rights = {}  # a representative's right map, None if it failed
        for lam in _support(system, alg_e, mod_e, chi_e, target):
            idx = tuple(lm.index for lm in lam.chars)
            live = None
            if c_form is not None:
                r, w = min((tuple(u * i % n for i in idx), v)
                           for u, v in orbit)
                if r == idx:
                    right = _right_terms(system, alg_e, target, lam, c_form)
                    live = _twist_by_forms(system, alg_e, mod_e, chi_e, a_e,
                                           lam, right)
                    rights[r] = None if live is None else right
                elif rights.get(r) is not None:
                    live = _twist_by_forms(
                        system, alg_e, mod_e, chi_e, a_e, lam,
                        {w * t % n: val.galois(w)
                         for t, val in rights[r].items()})
            if live is None:
                lhs, rhs = _moment_sides(system, alg_e, mod_e, chi_e, a_e,
                                         target, lam, "closed")
                if lhs != rhs:
                    report["failures"].append(
                        {"degree": alg_e.base_degree, "lams": list(idx)})
                    continue
                live = not lhs.is_zero()
            report["nonvanishing"] += live
    report["pass"] = not report["failures"] and report["nonvanishing"] > 0
    return report


def sweep_norm_moments(system: CharSystem, algebra: EtaleAlgebra,
                       module: VirtualModule, chi: NormCharacter, a: int, *,
                       depth: int = 2) -> dict:
    """Run the moment check of verify_norm_moments over every
    non-degenerate character at each extension degree e <= depth; the
    report counts nonvanishing ones and has the keys depth, checked,
    nonvanishing, failures and pass.  Which twists are evaluated, and by
    which route, is said once in _sweep."""
    check_norm_data(system, algebra, module, chi, a)
    return _sweep(system, algebra, module, chi, a, depth)


# ------------------------------------------------------------ split case


def as_monomial_datum(algebra: EtaleAlgebra, module: VirtualModule,
                      chi: NormCharacter, a: int) -> MonomialDatum:
    """The monomial datum a split algebra's data reduces to."""
    if any(d != algebra.base_degree for d in algebra.degrees):
        raise SchemaError("algebra is not split over its base field")
    if any(n == 0 for n in module.ranks):
        raise SchemaError("zero ranks have no monomial counterpart")
    return MonomialDatum(algebra.base_degree, module.ranks, chi.chars, a)
