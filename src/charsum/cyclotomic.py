"""Exact arithmetic in cyclotomic integer rings Z[zeta_M].

A value is a coefficient vector over the power basis 1, x, ..., x^{phi(M)-1}
of Q(zeta_M), reduced mod the M-th cyclotomic polynomial.  Every operation is
exact; no floating point appears anywhere in this module.

Polynomials are packed into one integer, each coefficient in a
two's-complement slot of one fixed width (`_pack`, `_unpack`).  Slots of up
to 8 bytes are written and read by one `struct` call each, so no Python code
runs per coefficient.  Every product is one integer product of the packed
operands (signed Kronecker substitution), with a proven coefficient bound.

Reduction mod Phi_M folds mod x^M - 1 and then divides twice on one packed
integer: by the sparse multiple Phi_r(x^{M/r}) of Phi_M, r = rad(M)/P for
the largest prime P of M, and by Phi_M, whose quotient is then only
phi(M)/(P - 1) slots long.  Each division is polynomial Barrett with the
sparse inverse series of the reversed divisor, done as shifts and adds of
the packed integer, and ends with an exact range check on the remainder.

Three special paths stay, each for a reason:
- `_divide` subtracts Q D(2^w) in blocks of nearby divisor terms, so each
  term is added into an integer of at most twice the quotient's slots;
  without the blocks, reducing one product at M = 2184 took 1.3 to 1.8
  times as long.
- `_pack` and `_unpack` have a per-slot codec for slots wider than 8
  bytes, which the input's width selects: the falsifier's coefficients of
  up to 10^31 at M = 2184 need it.
- `_trace_table` gives the normalized trace to Q behind `__hash__`, which
  equal values stored at different orders must share.
"""

from __future__ import annotations

import math
import operator
import struct
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, repeat

from charsum._intutil import euler_phi, factorize, moebius
from charsum._value import Value
from charsum.errors import InternalCheckError

# ------------------------------------------------------------------ integer
# polynomials: tuples of coefficients, index = degree

def _trim(p: Sequence[int]) -> tuple[int, ...]:
    if not p:
        return (0,)
    n = len(p)
    while n > 1 and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


def _slot_codec(bits: int) -> tuple[int, str | None]:
    # the narrowest slot width in bytes with at least `bits` bits, and its
    # struct format; slots of 1, 2, 4 or 8 bytes go through struct in one
    # call each way, wider ones take one to_bytes or from_bytes per slot
    nbytes = (bits + 7) // 8
    if nbytes > 8:
        return nbytes, None
    nbytes = 1 << (nbytes - 1).bit_length()
    return nbytes, "<%d" + "bhiq"[nbytes.bit_length() - 1]


def _top_bits(nbytes: int, count: int) -> int:
    # H: the top bit of each of `count` slots set
    return int.from_bytes((1 << (8 * nbytes - 1)).to_bytes(nbytes, "little")
                          * count, "little")


def _pack(p: Sequence[int], nbytes: int, fmt: str | None, H: int) -> int:
    # sum p_k 2^{wk}, w = 8 * nbytes: the slots read as one unsigned integer
    # T, and T - 2 (T & H), since each negative slot was read 2^w too high.
    # H must cover len(p) slots, and every |p_k| < 2^{w-1}
    if fmt is None:
        t = int.from_bytes(b"".join(
            c.to_bytes(nbytes, "little", signed=True) for c in p), "little")
    else:
        t = int.from_bytes(struct.pack(fmt % len(p), *p), "little")
    return t - 2 * (t & H)


def _unpack(v: int, nbytes: int, fmt: str | None, count: int,
            H: int) -> tuple[int, ...]:
    # the inverse of _pack for count slots, H covering at least those:
    # v + H has the digits c_k + 2^{w-1}, in [0, 2^w) without carries when
    # every |c_k| < 2^{w-1}.  The xor takes 2^{w-1} back off every slot;
    # wide slots are read unsigned and lose it by one subtraction each
    if fmt is None:
        raw = (v + H).to_bytes(H.bit_length() // 8, "little")
        return tuple(map(operator.sub, map(
            int.from_bytes, struct.Struct("%ds" % nbytes * count)
            .unpack_from(raw), repeat("little")),
            repeat(1 << (8 * nbytes - 1))))
    raw = ((v + H) ^ H).to_bytes(H.bit_length() // 8, "little")
    return struct.unpack_from(fmt % count, raw)


def _kronecker_mul(a: Sequence[int],
                   b: Sequence[int]) -> tuple[tuple[int, ...], int]:
    # a b by signed Kronecker substitution: one integer product of the
    # packed operands is the packed product.  Every c_k is a sum of at most
    # min(m, n) terms a_i b_j, so B = min(m, n) ma mb bounds it, and with
    # both operands nonzero B is at least ma and mb, so slots of
    # |c_k| < 2^{w-1} also hold the operands.  Returns the product and B
    a = _trim(a)
    b = _trim(b)
    if a == (0,) or b == (0,):
        return (0,), 0
    m, n = len(a), len(b)
    out_len = m + n - 1
    ma = max(max(a), -min(a))
    mb = max(max(b), -min(b))
    bound = min(m, n) * ma * mb
    nbytes, fmt = _slot_codec(bound.bit_length() + 1)
    H = _top_bits(nbytes, out_len)
    return _unpack(_pack(a, nbytes, fmt, H) * _pack(b, nbytes, fmt, H),
                   nbytes, fmt, out_len, H), bound


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return _kronecker_mul(a, b)[0]


def _poly_divmod(num: Sequence[int], den: Sequence[int]):
    # schoolbook long division; denominator must be monic
    num = list(_trim(num))
    den = _trim(den)
    if den[-1] != 1:
        raise InternalCheckError("long division needs a monic denominator")
    dd = len(den) - 1
    q = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    return tuple(q), _trim(num)


def _substitute_power(f: Sequence[int], k: int) -> tuple[int, ...]:
    out = [0] * ((len(f) - 1) * k + 1)
    for i, c in enumerate(f):
        out[i * k] = c
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_poly(M: int) -> tuple[int, ...]:
    """Coefficients of Phi_M, ascending degree."""
    if M < 1:
        raise InternalCheckError(f"cyclotomic order {M} is not positive")
    if M == 1:
        return (-1, 1)
    fac = factorize(M)
    rad = 1
    for p, _ in fac:
        rad *= p
    if rad != M:
        return _substitute_power(cyclotomic_poly(rad), M // rad)
    p = fac[-1][0]
    if M == p:
        return (1,) * p
    m = M // p
    base = cyclotomic_poly(m)
    q, r = _poly_divmod(_substitute_power(base, p), base)
    if r != (0,):
        raise InternalCheckError(f"Phi_{m} does not divide Phi_{m}(x^{p})")
    return q


def _series_inverse(f: Sequence[int], prec: int) -> tuple[int, ...]:
    # Newton iteration for 1/f mod x^prec; needs f[0] == 1
    if f[0] != 1:
        raise InternalCheckError("series inverse needs constant term 1")
    g: tuple[int, ...] = (1,)
    cur = 1
    while cur < prec:
        cur = min(2 * cur, prec)
        fg = _poly_mul(tuple(f[:cur]), g)[:cur]
        e = [-c for c in fg]
        e[0] += 2
        g = _poly_mul(g, tuple(e))[:cur]
    return tuple(g[:prec])


class _Stage(Value):
    """Division by one monic divisor D of degree `degree`: its nonzero
    terms (exponent, coefficient), those of 1/rev(D) up to the longest
    quotient the stage meets, and 1 + ||inv||_1 ||D||_1, a bound on how much
    the stage can grow the largest coefficient.  A Value; the fields are
    not to be reassigned."""

    __slots__ = ("degree", "divisor", "inverse", "growth")

    @classmethod
    def of(cls, divisor: Sequence[int], inverse: Sequence[int],
           k: int) -> "_Stage":
        # D(x^k) from D, and its inverse series from that of D, as y = x^k
        div = tuple((u * k, c) for u, c in enumerate(divisor) if c)
        inv = tuple((i * k, c) for i, c in enumerate(inverse) if c)
        return cls((len(divisor) - 1) * k, div, inv, 1 + sum(
            abs(c) for _, c in inv) * sum(abs(c) for _, c in div))


def _cofactor(M: int) -> int:
    # r = rad(M)/P for the largest prime P of M
    r = 1
    for p, _ in factorize(M)[:-1]:
        r *= p
    return r


@lru_cache(maxsize=None)
def _reduction_plan(M: int) -> tuple[_Stage, ...]:
    # Phi_M divides D = Phi_r(x^{M/r}), r = _cofactor(M), and
    # deg D = phi(M) P/(P-1).  After the fold mod x^M - 1, stage 1
    # divides by D, so its quotient has at most M - deg D slots, and stage 2
    # by Phi_M, with at most phi(M)/(P-1).  For a prime power, r = 1 and
    # the fold is stage 1.  Phi_r and its inverse series are built in y, so
    # the setup is O(r) there and O(phi(M)/(P-1)) for Phi_M
    if M == 1:
        return ()
    P = factorize(M)[-1][0]
    r = _cofactor(M)
    n = euler_phi(M)
    stages = []
    if r > 1:
        k = M // r
        base = cyclotomic_poly(r)
        stages.append(_Stage.of(base, _series_inverse(
            tuple(reversed(base)), r - euler_phi(r)), k))
    phi = cyclotomic_poly(M)
    stages.append(_Stage.of(phi, _series_inverse(
        tuple(reversed(phi)), n // (P - 1)), 1))
    return tuple(stages)


def _divide(F: int, length: int, stage: _Stage, w: int) -> int:
    # F packs a polynomial f of `length` slots of w bits; returns the packed
    # remainder of f mod D.  Barrett: q_j = sum_i inv_i f_{m+j+i} for
    # j < length - m, where a shift of the packed high part by i slots,
    # rounded, drops the slots below i exactly.  Then R = F - Q D(2^w)
    m = stage.degree
    qlen = length - m
    if qlen <= 0:
        return F
    s = w * m
    high = (F + (1 << (s - 1))) >> s
    Q = 0
    for i, c in stage.inverse:
        if i >= qlen:
            break
        Q += c * ((high + (1 << (w * i - 1))) >> (w * i) if i else high)
    # Q D(2^w) in blocks of divisor terms less than qlen slots apart, so
    # each term is added into an integer of at most 2 qlen slots
    R = F
    base = 0
    acc = 0
    for u, c in stage.divisor:
        if u - base >= qlen:
            R -= acc << (w * base)
            base = u
            acc = 0
        acc += c * (Q << (w * (u - base)))
    R -= acc << (w * base)
    # R and the true remainder r(2^w) agree mod D(2^w) > (6/7) 2^{wm}, and
    # |r(2^w)| < 2^{wm}/7 since every slot bound is below 2^{w-3}; so
    # |R| < 2^{wm-1} holds exactly when R is r(2^w), whatever Q was
    if R.bit_length() >= s:
        raise InternalCheckError(
            f"quotient by a divisor of degree {m} left a high remainder")
    return R


def reduce_mod_cyclotomic(coeffs: Sequence[int], M: int, *,
                          _bound: int | None = None) -> tuple[int, ...]:
    """Reduce an integer polynomial of any degree mod Phi_M.

    Returns exactly phi(M) coefficients.  The input is folded mod x^M - 1,
    then divided by the stages of _reduction_plan(M) on one packed integer.
    Within this module, a caller that has proven a bound on every
    |coeffs[k]| passes it as _bound; otherwise the coefficients are
    measured.
    """
    bound = _bound
    n = euler_phi(M)
    c = _trim(coeffs)
    if len(c) > M:
        # each folded slot sums at most ceil(len / M) input slots
        if bound is not None:
            bound *= -(-len(c) // M)
        acc = list(c[:M])
        for j in range(M, len(c), M):
            chunk = c[j:j + M]
            acc[:len(chunk)] = map(operator.add, acc, chunk)
        c = _trim(acc)
    length = len(c)
    if length <= n:
        return c + (0,) * (n - length)
    stages = _reduction_plan(M)
    # every slot of the input, the remainders and D stays within bound;
    # a stage that finds the input shorter than its divisor does nothing
    if bound is None:
        bound = max(max(c), -min(c))
    left = length
    for st in stages:
        if left > st.degree:
            bound *= st.growth
            left = st.degree
    nbytes, fmt = _slot_codec(bound.bit_length() + 3)
    w = 8 * nbytes
    H = _top_bits(nbytes, length)
    F = _pack(c, nbytes, fmt, H)
    for st in stages:
        F = _divide(F, length, st, w)
        length = min(length, st.degree)
    # H covers the input's slots, so also the remainder's n
    return _unpack(F, nbytes, fmt, n, H)


# ------------------------------------------------------------------- values


class CycloValue:
    """An element of Z[zeta_order] in reduced power-basis coordinates.

    Construct through root / from_int / from_root_counts rather than directly.
    Rational integers are always stored at order 1, so ``v.order == 1`` is the
    reliable rationality test.  Equal values may still be stored at different
    orders (e.g. zeta_3 built at order 6); __eq__ and __hash__ account for it,
    and a rational integer equals the int it holds.  order and coeffs are
    not to be reassigned.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int, ...]):
        if order < 1 or len(coeffs) != euler_phi(order):
            raise InternalCheckError(
                f"{len(coeffs)} coefficients at order {order}")
        self.order = order
        self.coeffs = coeffs

    # --- predicates

    def is_zero(self) -> bool:
        return self.order == 1 and self.coeffs[0] == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def as_int(self) -> int:
        if self.order != 1:
            raise ValueError("value is not a rational integer")
        return self.coeffs[0]

    # --- automorphisms

    def galois(self, a: int) -> "CycloValue":
        """Apply the automorphism zeta -> zeta^a; a must be coprime to order."""
        M = self.order
        if M == 1:
            return self
        if math.gcd(a, M) != 1:
            raise InternalCheckError(f"{a} is not a unit mod {M}")
        vec = [0] * M
        for i, c in enumerate(self.coeffs):
            if c:
                vec[(i * a) % M] += c
        return _make(M, reduce_mod_cyclotomic(vec, M))

    def conjugate(self) -> "CycloValue":
        return self.galois(self.order - 1) if self.order > 1 else self

    def abs_squared(self) -> int | None:
        """v * conj(v) when that is a rational integer, else None."""
        z = self * self.conjugate()
        return z.coeffs[0] if z.order == 1 else None

    # --- ring operations

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == other.order:
            return _make(self.order, tuple(
                x + y for x, y in zip(self.coeffs, other.coeffs)))
        L = math.lcm(self.order, other.order)
        a = _lift_coeffs(self, L)
        b = _lift_coeffs(other, L)
        return _make(L, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return CycloValue(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1:
            c = self.coeffs[0]
            return _make(other.order, tuple(c * y for y in other.coeffs))
        if other.order == 1:
            c = other.coeffs[0]
            return _make(self.order, tuple(c * y for y in self.coeffs))
        L = math.lcm(self.order, other.order)
        a = _lift_coeffs(self, L)
        b = _lift_coeffs(other, L)
        prod, bound = _kronecker_mul(a, b)
        return _make(L, reduce_mod_cyclotomic(prod, L, _bound=bound))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = from_int(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # --- comparison; equal values can sit at different stored orders

    def __eq__(self, other):
        if isinstance(other, int):
            return self.order == 1 and self.coeffs[0] == other
        if not isinstance(other, CycloValue):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        L = math.lcm(self.order, other.order)
        return _lift_coeffs(self, L) == _lift_coeffs(other, L)

    def __hash__(self):
        # normalized trace to Q is invariant under re-expression, and for
        # rational integers it agrees with hash(int)
        tab = _trace_table(self.order)
        tr = sum(c * t for c, t in zip(self.coeffs, tab))
        return hash(Fraction(tr, len(self.coeffs)))

    def __repr__(self):
        return f"CycloValue(order={self.order}, coeffs={self.coeffs})"


def _coerce(x) -> "CycloValue":
    if isinstance(x, CycloValue):
        return x
    if isinstance(x, int):
        return CycloValue(1, (x,))
    return NotImplemented


def _make(order: int, reduced: Sequence[int]) -> CycloValue:
    if order > 1 and not any(reduced[1:]):
        return CycloValue(1, (reduced[0],))
    return CycloValue(order, tuple(reduced))


def _lift_coeffs(v: CycloValue, M2: int) -> tuple[int, ...]:
    # power-basis coefficients of v inside Q(zeta_M2)
    if v.order == M2:
        return v.coeffs
    k = M2 // v.order
    vec = [0] * ((len(v.coeffs) - 1) * k + 1)
    for i, c in enumerate(v.coeffs):
        if c:
            vec[i * k] = c
    return reduce_mod_cyclotomic(vec, M2)


@lru_cache(maxsize=None)
def _trace_table(M: int) -> tuple[int, ...]:
    # Tr_{Q(zeta_M)/Q}(zeta_M^i) for i < phi(M)
    n = euler_phi(M)
    out = []
    for i in range(n):
        d = M // math.gcd(i, M)
        out.append(moebius(d) * (n // euler_phi(d)))
    return tuple(out)


# ------------------------------------------------------------- constructors


def from_int(n: int) -> CycloValue:
    return CycloValue(1, (n,))


def root(M: int, k: int = 1) -> CycloValue:
    """zeta_M^k, reduced from a one-hot vector at its exact order
    M / gcd(M, k), where the exponent is a unit."""
    if M < 1:
        raise InternalCheckError(f"root order {M} is not positive")
    g = math.gcd(M, k)
    return _make(M // g, reduce_mod_cyclotomic(
        [0] * (k // g % (M // g)) + [1], M // g))


def from_root_counts(M: int, counts: Sequence[int]) -> CycloValue:
    """Sum of counts[e] * zeta_M^e over a sequence of length M.

    The order is shrunk by the gcd of the live exponents with M before
    reduction, so sums supported on a subring come back at small order.
    """
    if M < 1:
        raise InternalCheckError(f"root order {M} is not positive")
    if len(counts) != M:
        raise InternalCheckError(f"{len(counts)} root counts at order {M}")
    # every live exponent is a multiple of s exactly when every s-th entry
    # holds all the nonzero counts; the g-th entries are the vector at the
    # shrunk order
    live = M - counts.count(0)
    if not live:
        return CycloValue(1, (0,))
    g = 1
    for p, e in factorize(M):
        for _ in range(e):
            sub = counts[::g * p]
            if len(sub) - sub.count(0) < live:
                break
            g *= p
    M //= g
    counts = counts[::g]
    return _make(M, reduce_mod_cyclotomic(counts, M))


# ------------------------------------------------------------------ ratios


def _exact_log(r: int, q: int) -> int | None:
    if r < 1:
        return None
    m = 0
    while r > 1:
        if r % q:
            return None
        r //= q
        m += 1
    return m


def q_power_ratio(v: CycloValue, w: CycloValue, q: int) -> int | None:
    """The integer m with v == q^m * w, or None if no such m exists.

    Works in power-basis coordinates at a common order: v = q^m * w holds
    exactly when the coefficient vectors are proportional by q^m.  The
    first nonzero pair gives the ratio num/den in lowest terms; the whole
    check den a == num b is one comparison of the two vectors packed at a
    slot width that holds every den a_k - num b_k.
    """
    if q < 2:
        raise InternalCheckError(f"ratio base {q} is below 2")
    if v.is_zero() and w.is_zero():
        return 0
    if v.is_zero() or w.is_zero():
        return None
    L = math.lcm(v.order, w.order)
    a = _lift_coeffs(v, L)
    b = _lift_coeffs(w, L)
    # both vectors are nonzero; proportional ones share their first slot
    idx = next(compress(count(), a))
    x, y = a[idx], b[idx]
    if y == 0 or (x < 0) != (y < 0):
        return None
    g = math.gcd(x, y)
    num, den = abs(x) // g, abs(y) // g
    if den == 1:
        m = _exact_log(num, q)
    elif num == 1:
        k = _exact_log(den, q)
        m = -k if k is not None else None
    else:
        return None
    if m is None:
        return None
    ma = max(max(a), -min(a))
    mb = max(max(b), -min(b))
    nbytes, fmt = _slot_codec((den * ma + num * mb).bit_length() + 1)
    H = _top_bits(nbytes, len(a))
    if den * _pack(a, nbytes, fmt, H) == num * _pack(b, nbytes, fmt, H):
        return m
    return None
