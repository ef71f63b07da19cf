"""Exact coefficient arithmetic in Q(v), where v stands for q^(1/2).

A CoeffFn is kept in the canonical form  v^shift * num/den  with num, den
integer polynomials stored as ascending coefficient tuples whose constant
terms are nonzero, gcd(num, den) = 1, the integer contents coprime, and
den with positive leading coefficient.  Canonical forms are unique, so
equality and hashing are structural.

Everything downstream (wall functions, dilogarithm series, counting
oracles) stores its coefficients as CoeffFn values; no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm


class PoleError(ArithmeticError):
    """Evaluation of a coefficient at a point where it has a pole."""


# ---------------------------------------------------------------------------
# integer polynomials as ascending coefficient tuples, () is zero
# ---------------------------------------------------------------------------

def _ptrim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _pneg(a):
    return tuple(-x for x in a)


def _palt(a, k):
    """(-1)^k a(-v)."""
    return tuple(-x if (i + k) % 2 else x for i, x in enumerate(a))


def _pmul(a, b):
    if not a or not b:
        return ()
    if len(a) == 1:
        return _pscale(b, a[0])
    if len(b) == 1:
        return _pscale(a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ptrim(out)


def _pscale(a, c):
    if c == 0:
        return ()
    if c == 1:
        return a
    return tuple(x * c for x in a)


def _pcontent(a):
    return gcd(*a)


def _pprim(a):
    g = _pcontent(a)
    if g in (0, 1):
        return a
    return tuple(x // g for x in a)


def _pdiv_exact(a, b):
    """Exact division of integer polynomials (a = b * q assumed)."""
    if not a:
        return ()
    q = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    lb = b[-1]
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + len(b) - 1]
        if c % lb != 0:
            raise ArithmeticError("inexact polynomial division")
        q[i] = c // lb
        if q[i]:
            for j, y in enumerate(b):
                rem[i + j] -= q[i] * y
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return _ptrim(q)


def _prem_pseudo(a, b):
    """Pseudo-remainder of a by b (b nonzero)."""
    rem = _ptrim(a)
    lb, db = b[-1], len(b) - 1
    while len(rem) - 1 >= db:
        d = len(rem) - 1 - db
        lead = rem[-1]
        rem = [lb * x for x in rem]
        for j, y in enumerate(b):
            rem[d + j] -= lead * y
        rem = _ptrim(rem)
    return rem


_HEU_TRIES = 6
_HEU_XI_MIN = 1 << 20


def _pgcd(a, b):
    """(g, a / g, b / g): the primitive gcd of integer polynomials, with a
    positive leading coefficient, and the two cofactors.

    Heuristic gcd (Char, Geddes and Gonnet, "GCDHEU", 1989): evaluate the
    primitive inputs at an integer xi >= 2*min(|a|_oo, |b|_oo) + 2, take the
    integer gcd and read it back from its balanced base-xi digits.  If the
    primitive part h of that polynomial divides both inputs, h is their gcd:
    a further common factor k has its roots in |z| < 1 + min norm <= xi/2
    (Cauchy's bound), so |k(xi)| > xi/2, yet k(xi) must divide the content
    of the digit polynomial, which is at most xi/2.  Otherwise xi grows a
    few times, then the primitive PRS decides.
    """
    pa, pb = _pprim(a), _pprim(b)
    if len(pa) == 1 or len(pb) == 1:
        return (1,), a, b
    if pa and pb:
        # the floor keeps small spurious integer factors of the two values
        # below xi/2, where they read back as a constant, not a false factor
        xi = max(2 * min(max(map(abs, pa)), max(map(abs, pb))) + 2, _HEU_XI_MIN)
        for _ in range(_HEU_TRIES):
            h = _pprim(_digits(gcd(_pval(pa, xi), _pval(pb, xi)), xi))
            if h[-1] < 0:
                h = _pneg(h)
            if h == (1,):
                return h, a, b
            try:
                # the division check yields the cofactors of the primitive
                # parts; the contents restore those of a and b
                return (h, _pscale(_pdiv_exact(pa, h), _pcontent(a)),
                        _pscale(_pdiv_exact(pb, h), _pcontent(b)))
            except ArithmeticError:
                xi = xi * 73794 // 27011   # about 1 + sqrt 3, as in GCDHEU
    g = _pgcd_prs(a, b)
    return g, _pdiv_exact(a, g), _pdiv_exact(b, g)


def _pval(a, x):
    """The value a(x) by Horner's rule: an int at an int point, a Fraction at
    a Fraction point."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _digits(n, xi):
    """The polynomial whose value at xi is n, coefficients in (-xi/2, xi/2]."""
    out = []
    half = xi // 2
    while n:
        d = n % xi
        if d > half:
            d -= xi
        out.append(d)
        n = (n - d) // xi
    return tuple(out)


def _pgcd_prs(a, b):
    """Primitive gcd by the primitive pseudo-remainder sequence (the fallback
    of `_pgcd` and its reference in the tests)."""
    a, b = _pprim(a), _pprim(b)
    if not a:
        g = b
    elif not b:
        g = a
    else:
        while b:
            if len(a) < len(b):
                a, b = b, a
            r = _pprim(_prem_pseudo(a, b))
            a, b = b, r
        g = a
    if g and g[-1] < 0:
        g = _pneg(g)
    return g


# ---------------------------------------------------------------------------
# the coefficient field
# ---------------------------------------------------------------------------

class CoeffFn:
    """A rational function of v = q^(1/2) in canonical form."""

    __slots__ = ("shift", "num", "den", "_hash")

    def __init__(self, shift, num, den, _canonical=False):
        if not _canonical:
            shift, num, den = _canonicalize(shift, num, den)
        self.shift = shift
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(a):
        if a == 0:
            return ZERO
        if a == 1:
            return ONE
        return CoeffFn(0, (a,), (1,), _canonical=True)

    @staticmethod
    def from_fraction(a, b=1):
        f = Fraction(a, b)
        if f.denominator == 1:
            return CoeffFn.from_int(f.numerator)
        return CoeffFn(0, (f.numerator,), (f.denominator,), _canonical=True)

    @staticmethod
    def v_power(k):
        """The monomial v^k (k may be negative)."""
        if k == 0:
            return ONE
        return CoeffFn(k, (1,), (1,), _canonical=True)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.num

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not self.num:
            return other
        if not other.num:
            return self
        return sum_terms(((self.shift, self.num, self.den),
                          (other.shift, other.num, other.den)))

    def __neg__(self):
        if not self.num:
            return self
        return CoeffFn(self.shift, _pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.num or not other.num:
            return ZERO
        # cross-cancellation keeps both pairs coprime, so the product is
        # already in lowest terms and the final gcd pass can be skipped
        n1, d2 = self.num, other.den
        if len(n1) > 1 and len(d2) > 1:
            _, n1, d2 = _pgcd(n1, d2)
        n2, d1 = other.num, self.den
        if len(n2) > 1 and len(d1) > 1:
            _, n2, d1 = _pgcd(n2, d1)
        num, den = _content_and_sign(_pmul(n1, n2), _pmul(d1, d2))
        return CoeffFn(self.shift + other.shift, num, den, _canonical=True)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero coefficient")
        return CoeffFn(-self.shift, self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def mul_vpow(self, k):
        """Multiply by v^k (cheap: only the shift moves)."""
        if k == 0 or not self.num:
            return self
        return CoeffFn(self.shift + k, self.num, self.den, _canonical=True)

    def scale(self, a, b=1):
        return self * CoeffFn.from_fraction(a, b)

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CoeffFn):
            return NotImplemented
        return (self.shift == other.shift and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.shift, self.num, self.den))
        return self._hash

    # -- evaluation ------------------------------------------------------------

    def eval_at_v1(self, k=0):
        """Exact value at v = 1 of self / (v - 1/v)^k for an int k >= 0 (the
        classical limit; `torus._framed_limit` reads x^d with k = |d| - 1);
        PoleError at a pole.

        With self = v^shift num/den in lowest terms and v - 1/v =
        (v - 1)(v + 1)/v, the value is T_k / (den(1) 2^k), T_j the Taylor
        coefficients of num at v = 1, when den(1) != 0 and T_j = 0 for
        j < k.  It forms no product and no gcd."""
        if type(k) is not int or k < 0:
            raise ValueError("the power of v - 1/v must be an int >= 0: %r" % (k,))
        if not self.num:
            return Fraction(0)
        dv = _pval(self.den, 1)
        taylor = [sum(c * comb(i, j) for i, c in enumerate(self.num)) for j in range(k + 1)]
        if dv == 0 or any(taylor[:k]):
            raise PoleError("pole at v = 1")
        return Fraction(taylor[k], dv * 2 ** k)

    def eval_at_sqrt(self, q0):
        """Value at v = sqrt(q0) as a pair (a, b) meaning a + b*sqrt(q0)."""
        if not self.num:
            return (Fraction(0), Fraction(0))
        q0 = Fraction(q0)

        def _pair(poly):
            # value of poly(v) mod v^2 - q0, split as (even part, odd part)
            return _pval(poly[0::2], q0), _pval(poly[1::2], q0)

        num, den = self.num, self.den
        if self.shift >= 0:
            num = _pshift(num, self.shift)
        else:
            den = _pshift(den, -self.shift)
        na, nb = _pair(num)
        da, db = _pair(den)
        d2 = da * da - db * db * q0
        if d2 == 0:
            raise PoleError("pole at v = sqrt(%s)" % q0)
        return ((na * da - nb * db * q0) / d2, (nb * da - na * db) / d2)

    # -- formatting ---------------------------------------------------------

    def __repr__(self):
        return "CoeffFn(%s)" % self.to_string()

    def to_string(self):
        """Single fraction "num/den" with nonnegative v powers, variable v."""
        if not self.num:
            return "0"
        num, den = self.num, self.den
        if self.shift >= 0:
            num = _pshift(num, self.shift)
        else:
            den = _pshift(den, -self.shift)
        ns, ds = _poly_str(num), _poly_str(den)
        if ds == "1":
            return ns
        if len(num) > 1 or (num and num[-1] < 0):
            ns = "(%s)" % ns
        if len(den) > 1:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)


def _pshift(a, k):
    if k == 0 or not a:
        return a
    return (0,) * k + tuple(a)


def _poly_str(a):
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            t = str(abs(c))
        else:
            t = "v" if i == 1 else "v^%d" % i
            if abs(c) != 1:
                t = "%d*%s" % (abs(c), t)
        if not parts:
            parts.append(t if c > 0 else "-" + t)
        else:
            parts.append(("+ " if c > 0 else "- ") + t)
    return " ".join(parts)


def _canonicalize(shift, num, den):
    num, den = _ptrim(num), _ptrim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return 0, (), (1,)
    # strip powers of v
    i = 0
    while num[i] == 0:
        i += 1
    j = 0
    while den[j] == 0:
        j += 1
    shift += i - j
    num, den = num[i:], den[j:]
    # cancel polynomial gcd
    _, num, den = _pgcd(num, den)
    return (shift, *_content_and_sign(num, den))


def _content_and_sign(num, den):
    """num/den with the common integer content divided out and a positive
    leading denominator coefficient."""
    c = gcd(_pcontent(num), _pcontent(den))
    if c > 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    if den[-1] < 0:
        num, den = _pneg(num), _pneg(den)
    return num, den


ZERO = CoeffFn(0, (), (1,), _canonical=True)
ONE = CoeffFn(0, (1,), (1,), _canonical=True)


def sum_terms(terms):
    """The sum of raw terms (shift, num, den), each meaning v^shift num/den
    in no particular form (den nonzero), canonicalised once.

    Numerators over the same denominator add with no gcd, and a sum over
    one denominator is done there.  Denominators that agree up to an
    integer factor f then go over their primitive part p (positive leading
    coefficient) times the lcm of the factors, again with no gcd.  Only
    the distinct primitive denominators join pairwise over their gcd, with
    no canonical form in between.  `CoeffFn.__add__` is the sum of two terms.
    """
    by_den = {}
    for shift, num, den in terms:
        if num:
            acc = by_den.get(den)
            by_den[den] = (shift, num) if acc is None else _shift_add(*acc, shift, num)
    if len(by_den) == 1:
        (den, (shift, num)), = by_den.items()
        return CoeffFn(shift, num, den) if num else ZERO
    by_prim = {}
    for den, (shift, num) in by_den.items():
        f = _pcontent(den) if den[-1] > 0 else -_pcontent(den)
        prim = den if f == 1 else tuple(x // f for x in den)
        by_prim.setdefault(prim, []).append((f, den, shift, num))
    groups = []
    for prim, parts in by_prim.items():
        if len(parts) == 1:
            _, den, shift, num = parts[0]
        else:
            m = lcm(*(f for f, _, _, _ in parts))
            shift, num = parts[0][2], ()    # the empty sum
            for f, _, s, n in parts:
                shift, num = _shift_add(shift, num, s, _pscale(n, m // f))
            den = _pscale(prim, m)
        if num:
            groups.append((shift, num, den))
    if not groups:
        return ZERO
    (shift, num, den), *rest = groups
    for s, n, d in rest:
        _, c1, c2 = _pgcd(den, d)
        shift, num = _shift_add(shift, _pmul(num, c2), s, _pmul(n, c1))
        den = _pmul(den, c2)
    return CoeffFn(shift, num, den) if num else ZERO


def raw_product(c1, c2, k=0):
    """The raw term (shift, num, den) of v^k c1 c2: numerators and
    denominators multiplied with no gcd, for `sum_terms`."""
    return c1.shift + c2.shift + k, _pmul(c1.num, c2.num), _pmul(c1.den, c2.den)


def _shift_add(s1, a, s2, b):
    """v^s1 a + v^s2 b as (shift, polynomial)."""
    s = min(s1, s2)
    return s, _padd(_pshift(a, s1 - s), _pshift(b, s2 - s))


def subst_neg_v(c):
    """sigma: the coefficient c with v replaced by -v.

    A field automorphism, so num(-v) and den(-v) stay coprime with the same
    contents and nonzero constant terms.  Only the sign of the leading
    coefficient of den can flip, by (-1)^deg(den); both are multiplied by
    it, and the canonical form needs no gcd.
    """
    k = len(c.den) - 1
    return CoeffFn(c.shift, _palt(c.num, k + c.shift), _palt(c.den, k), _canonical=True)


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------

def q_power(k):
    """q^k as a CoeffFn (q = v^2)."""
    return CoeffFn.v_power(2 * k)


def gl_count(k):
    """Number of points of GL_k over F_q: prod_{i<k} (q^k - q^i); 1 for k = 0."""
    if k < 0:
        raise ValueError("GL count needs k >= 0: %r" % (k,))
    out = ONE
    for i in range(k):
        out = out * (q_power(k) - q_power(i))
    return out
