"""Origin stalk traces of monomial middle extensions.

The two polynomial families a(n,m), b(n,m) in q, the trace value at the
origin for a monomial datum, the full trace function on F_{q^d}^k, and the
four binomial identities that the transform forces on a and b.

The origin value is computed from a small set of closed base cases plus a
three-term recursion on exponent shapes; the recursion is experimental for
mixed shapes with three or more coordinates, so every datum whose exponents
all equal +/-d is cross-checked against the closed form and a disagreement
aborts instead of returning a value.
"""

from __future__ import annotations

import math
from math import comb

from . import cyclotomic as cy
from ._intutil import solve_congruences
from .errors import InternalCheckError, SchemaError
from .monomial_fourier import (GridFunction, MonomialDatum,
                               check_monomial_datum, _i_sum_raw)

__all__ = [
    "QPolynomial", "MonomialDatum", "a_poly", "b_poly", "geometric_sum",
    "stalk_trace_at_zero", "has_trace_function", "gm_trace_function",
    "check_triple", "verify_binomial_identities",
]


class QPolynomial:
    """Polynomial in the formal variable q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other):
        other = _qp(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial(
            ((self.coeffs[i] if i < len(self.coeffs) else 0)
             + (other.coeffs[i] if i < len(other.coeffs) else 0))
            for i in range(n))

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_qp(other))

    def __rsub__(self, other):
        return _qp(other) + (-self)

    def __mul__(self, other):
        other = _qp(other)
        if not self.coeffs or not other.coeffs:
            return QPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise SchemaError("negative polynomial powers are not defined")
        result = QPolynomial((1,))
        for _ in range(n):
            result = result * self
        return result

    def evaluate(self, q):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        other = _qp(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "QPolynomial(0)"
        parts = [f"{c}q^{i}" for i, c in enumerate(self.coeffs) if c]
        return "QPolynomial(" + " + ".join(parts) + ")"


def _qp(x):
    if isinstance(x, QPolynomial):
        return x
    if isinstance(x, int):
        return QPolynomial((x,))
    raise TypeError(f"cannot coerce {x!r} to QPolynomial")


QVAR = QPolynomial((0, 1))


def a_poly(n, m) -> QPolynomial:
    """a(n,m) = sum_{i<m} C(m-1,i) C(n-1,i+1) q^{i+1}; a(n,0) = 1, a(0,m) = 0."""
    if n < 0 or m < 0:
        raise SchemaError("a(n,m) needs n, m >= 0")
    if m == 0:
        return QPolynomial((1,))
    if n == 0:
        return QPolynomial()
    return QPolynomial([0] + [comb(m - 1, i) * comb(n - 1, i + 1)
                              for i in range(m)])


def b_poly(n, m) -> QPolynomial:
    """b(n,m) = sum_{i<m} C(m-1,i) C(n-1,i) q^i; b(n,0) = 0, b(0,m) = 0."""
    if n < 0 or m < 0:
        raise SchemaError("b(n,m) needs n, m >= 0")
    if m == 0 or n == 0:
        return QPolynomial()
    return QPolynomial([comb(m - 1, i) * comb(n - 1, i) for i in range(m)])


def geometric_sum(n) -> QPolynomial:
    """1 + q + .. + q^{n-1}."""
    return QPolynomial((1,) * n)


# ------------------------------------------------------------ origin stalks


def _mediating_character(system, degree, slots, chars):
    """The eta of least index with eta^{s_i} = chi_i for all i, if any."""
    e = solve_congruences(slots, [chi.index for chi in chars],
                          system.tower.group_order(degree))
    return None if e is None else system.character(degree, e)


def _psi_power_sum(system, degree, a, n, chi):
    """sum over t in F_{q^degree}^* of psi(a t^n) chi(t)."""
    return _i_sum_raw(system, degree, (n,), a, (chi,), "direct")


def _a_value(system, degree, a, dd, chi, pos, neg, memo):
    """The recursion on positive/negative slot tuples, coefficient fixed."""
    key = (pos, neg)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if not pos:
        val = cy.from_int(0)
    elif not neg:
        g = math.gcd(*pos)
        val = cy.from_int(1 if system.is_trivial(system.char_pow(chi, g))
                          else 0)
    elif len(pos) == 1 and len(neg) == 1:
        e = math.gcd(pos[0], neg[0])
        mu = system.char_pow(chi, e)
        val = _psi_power_sum(system, degree, a, dd * e, mu)
        if system.is_trivial(mu):
            val = val + 1
    elif len(pos) == 1:
        val = _a_value(system, degree, a, dd, chi,
                       (math.lcm(pos[0], neg[0]),), neg[1:], memo)
    else:
        n = math.lcm(pos[0], neg[0])
        n2 = math.lcm(n, pos[1])
        q = system.tower.order(degree)
        val = ((q - 1) * _a_value(system, degree, a, dd, chi,
                                  (n2,) + pos[2:], neg[1:], memo)
               + _a_value(system, degree, a, dd, chi,
                          (n,) + pos[1:], neg[1:], memo)
               + _a_value(system, degree, a, dd, chi,
                          pos[1:], (n,) + neg[1:], memo))
    memo[key] = val
    return val


def _gm_closed_form(system, degree, a, dd, chi, npos, nneg):
    q = system.tower.order(degree)
    b = b_poly(npos, nneg).evaluate(q)
    # b is 0 on a shape with no negative slot, and then takes no psi sum
    psi = _psi_power_sum(system, degree, a, dd, chi) if b else 0
    if system.is_trivial(chi):
        return a_poly(npos, nneg).evaluate(q) + b * (1 + psi)
    return b * psi


def stalk_trace_at_zero(system, datum: MonomialDatum):
    """Trace of the middle extension at the origin of F_{q^d}^k.

    Vanishes when every exponent is negative or when no character eta has
    eta^{n_i/D} = chi_i for all i (D = gcd of the |n_i|); otherwise the
    datum is brought to its canonical slot form and reduced by the
    recursion.  Data whose exponents all equal +/-D are checked against
    the closed a/b form before the value is released.
    """
    check_monomial_datum(system, datum)
    d = datum.degree
    if datum.k == 0:
        return system.psi_value(d, datum.a)
    if all(n < 0 for n in datum.exponents):
        return cy.from_int(0)
    dd = math.gcd(*[abs(n) for n in datum.exponents])
    slots = [n // dd for n in datum.exponents]
    eta = _mediating_character(system, d, slots, datum.characters)
    if eta is None:
        return cy.from_int(0)
    pos = tuple(s for s in slots if s > 0)
    neg = tuple(-s for s in slots if s < 0)
    val = _a_value(system, d, datum.a, dd, eta, pos, neg, {})
    if all(abs(s) == 1 for s in slots):
        closed = _gm_closed_form(system, d, datum.a, dd, eta, len(pos), len(neg))
        if val != closed:
            raise InternalCheckError(
                f"recursion value disagrees with the closed form on the "
                f"+/-{dd} shape ({len(pos)}, {len(neg)}) at degree {d}")
    return val


def has_trace_function(exponents) -> bool:
    """Whether gm_trace_function covers the shape: k <= 2, or any k whose
    exponents share one absolute value."""
    return len(exponents) <= 2 or len({abs(n) for n in exponents}) == 1


def gm_trace_function(system, datum: MonomialDatum) -> GridFunction:
    """Full trace function on F_{q^d}^k.

    At every point the coordinates away from the vanishing set contribute
    their character values, one root of unity, and fold their monomial part
    into the coefficient of the sub-datum whose origin stalk supplies the
    rest.  On the torus that sub-datum is empty and its stalk is
    psi(coefficient), so the value is psi(a prod x_i^{n_i}) prod chi_i(x_i).

    A point's value depends only on its zero set, its folded coefficient
    and its charge sum idx(chi_i) log(x_i) mod q^d - 1, and is memoised by
    that triple; the stalks are memoised by (zero set, coefficient).  The
    coefficient and the charge are read from the level's exp and log
    tables, bound once per call.

    Supported on the shapes of has_trace_function.
    """
    check_monomial_datum(system, datum)
    exps = datum.exponents
    if not has_trace_function(exps):
        raise SchemaError(
            "mixed exponent shapes with more than two coordinates are "
            "outside the supported trace-function class")
    t = system.tower
    d = datum.degree
    grp = t.group_order(d)
    exp, log = t.exp_table(d), t.log_table(d)
    log_a = log[datum.a]
    weights = [(n, chi.index) for n, chi in zip(exps, datum.characters)]
    stalk_cache = {}
    point_cache = {}

    def value(codes):
        zero_set = tuple(i for i, c in enumerate(codes) if c == 0)
        # logs of the folded coefficient a prod x_i^{n_i} and of the charge
        lc = log_a
        charge = 0
        for c, (n, idx) in zip(codes, weights):
            if c:
                lx = log[c]
                lc += n * lx
                charge += idx * lx
        coeff = exp[lc % grp]
        charge %= grp
        val = point_cache.get((zero_set, coeff, charge))
        if val is None:
            stalk = stalk_cache.get((zero_set, coeff))
            if stalk is None:
                sub = MonomialDatum(
                    d, tuple(exps[i] for i in zero_set),
                    tuple(datum.characters[i] for i in zero_set), coeff)
                stalk = stalk_trace_at_zero(system, sub)
                stalk_cache[zero_set, coeff] = stalk
            val = cy.root(grp, charge) * stalk
            point_cache[zero_set, coeff, charge] = val
        return val

    return GridFunction.build(t, d, datum.k, value)


# ------------------------------------------------------ binomial identities


def check_triple(n, r, s) -> None:
    """The binomial identities are stated for n >= 1 and 0 <= r, s <= n."""
    if n < 1 or not (0 <= r <= n) or not (0 <= s <= n):
        raise SchemaError("need n >= 1 and 0 <= r,s <= n")


def verify_binomial_identities(n, r, s) -> dict:
    """Exact polynomial checks of the four a/b binomial identities.

    For (r,s) != (0,0) the general identities are checked; at (0,0) the
    degenerate pair with right side -(1+q+..+q^{n-1}) resp. its negative.
    """
    check_triple(n, r, s)
    qm1 = QVAR - 1

    def weighted(poly_fn):
        total = QPolynomial()
        for i in range(r + 1):
            for j in range(n - r + 1):
                for kk in range(s + 1):
                    for ll in range(n - s + 1):
                        if (i, j, kk, ll) == (0, 0, 0, 0):
                            continue
                        w = (comb(r, i) * comb(n - r, j)
                             * comb(s, kk) * comb(n - s, ll))
                        if (r + s + j + ll) % 2:
                            w = -w
                        # the dual vanishing pattern enters transposed
                        total = total + w * qm1 ** (r + s - i - kk) \
                            * poly_fn(kk + ll, i + j)
        return total

    checks = {}
    if (r, s) != (0, 0):
        sign = -1 if (r + s) % 2 else 1
        tail = sign * qm1 ** (r + s - 1)
        checks["a_general"] = (
            weighted(a_poly) == QVAR ** n * a_poly(r, s) + tail)
        checks["b_general"] = (
            weighted(b_poly) == QVAR ** n * b_poly(r, s) - tail)
    else:
        checks["a_origin"] = weighted(a_poly) == -geometric_sum(n)
        checks["b_origin"] = weighted(b_poly) == geometric_sum(n)
    return {"n": n, "r": r, "s": s, "checks": checks,
            "pass": all(checks.values())}
