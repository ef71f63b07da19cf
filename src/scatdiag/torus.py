"""The truncated graded quantum torus, with its DT-twisted and classical forms.

An element is a finite map from dimension vectors d with 0 <= |d| <= D to
coefficients in Q(v).  The product twists by the skew form:

    quantum    x^d1 * x^d2 = v^{d1,d2} x^{d1+d2}
    dt         x^d1 * x^d2 = (-v)^{d1,d2} x^{d1+d2}
    classical  commutative product

The kernel forms only the quantum product and the commutative one.  The
DT-twisted torus is the quantum torus under the field automorphism
sigma: v -> -v, which sends v^w to (-v)^w, so a dt product, exp, log or
inverse is sigma of the quantum one taken on sigma of its arguments.

Lie elements have no constant term; group elements have constant term 1
and live in the completed algebra truncated at total degree D.  In the
quantum convention a Lie element is the plain series with the
1/(v - 1/v) normalization already multiplied into its coefficients; the
classical limit divides it back out before evaluating at v = 1.

Every convention computes in one carrier, the quantum torus (`to_carrier`,
`expose`).  A quantum element carries itself and a dt element is carried
by sigma.  A classical element is carried in the frame: the frame map
x^d -> (v - 1/v)^|d| x^d (`rescale`) is an automorphism of the quantum
torus, since the twist reads only the keys and total degrees add, and
the frame image of the lift of a classical lie coefficient c at x^d is
c (v - 1/v)^(|d|-1), a Laurent polynomial.  So the products, exps,
inverses and logs of carried classical elements keep integer
denominators and need no polynomial gcd.

The Euler operator E(x^d) = |d| x^d is a derivation in every convention.
Where the support of a commutes ({d1, d2} = 0: every classical element, and
one ray, such as a dilogarithm), E(exp a) = E(a) exp a, so exp and log take
one pass over degrees, one truncated product per degree:
|d| g_d = sum_{d1 != 0} |d1| a_d1 g_d2.  The group inverse does so in every
convention, from g h = 1.  Only exp and log of a noncommuting support sum powers.
"""

from __future__ import annotations

from math import comb, factorial

from .coeff import (CoeffFn, ONE, ZERO, PoleError, gl_count, raw_product, subst_neg_v,
                    sum_terms)
from .lattice import primitive, skew, total_degree

QUANTUM = "quantum"
CLASSICAL = "classical"
DT_TWIST = "dt"

CONVENTIONS = (QUANTUM, CLASSICAL, DT_TWIST)

LIE = "lie"
GROUP = "group"


class GradedElement:
    """Truncated element of the graded torus algebra.

    coeffs maps dimension-vector tuples to CoeffFn; the constant term is
    implicit (0 for lie flavor, 1 for group flavor) and never stored.
    """

    __slots__ = ("seed", "order", "convention", "flavor", "coeffs")

    def __init__(self, seed, order, convention, flavor, coeffs):
        if convention not in CONVENTIONS:
            raise ValueError("unknown convention: %r" % (convention,))
        if flavor not in (LIE, GROUP):
            raise ValueError("unknown flavor: %r" % (flavor,))
        if type(order) is not int or order < 0:
            raise ValueError("order must be a non-negative int: %r" % (order,))
        self.seed = seed
        self.order = order
        self.convention = convention
        self.flavor = flavor
        clean = {}
        for d, c in coeffs.items():
            if len(d) != seed.rank or any(x < 0 for x in d):
                raise ValueError("dimension vector outside N+ of rank %d: %r" % (seed.rank, d))
            if type(c) is not CoeffFn:
                raise ValueError("coefficient at %r is not a CoeffFn: %r" % (d, c))
            if any(d) and total_degree(d) <= order and not c.is_zero():
                clean[tuple(d)] = c
        self.coeffs = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(seed, order, convention):
        return GradedElement(seed, order, convention, LIE, {})

    @staticmethod
    def one(seed, order, convention):
        return GradedElement(seed, order, convention, GROUP, {})

    @staticmethod
    def monomial(seed, order, convention, d, coeff):
        return GradedElement(seed, order, convention, LIE, {_int_vector(d): coeff})

    # -- helpers ---------------------------------------------------------------

    def _require_same_context(self, other):
        if (self.seed, self.order, self.convention) != (other.seed, other.order, other.convention):
            raise ValueError("convention/seed/order mismatch")

    # -- linear structure --------------------------------------------------------

    def add(self, other):
        self._require_same_context(other)
        if self.flavor != other.flavor or self.flavor == GROUP:
            raise ValueError("can only add lie elements")
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            _acc(out, d, c)
        return GradedElement(self.seed, self.order, self.convention, LIE, out)

    def scale(self, a, b=1):
        c = CoeffFn.from_fraction(a, b)
        return GradedElement(self.seed, self.order, self.convention, self.flavor,
                             {d: x * c for d, x in self.coeffs.items()})

    def neg(self):
        return self.scale(-1)

    # -- products ------------------------------------------------------------------

    def mul(self, other):
        """Truncated twisted product (commutative in the classical convention)."""
        self._require_same_context(other)
        if self.convention == DT_TWIST:
            return sigma(sigma(self).mul(sigma(other)))
        out = _product(self.seed, self.order, _full(self), _full(other),
                       self.convention == QUANTUM)
        c0 = out.pop(_zero_key(self.seed), ZERO)
        if c0 == ONE:
            flavor = GROUP
        elif c0.is_zero():
            flavor = LIE
        else:
            raise ValueError("product has constant term %r" % c0)
        return GradedElement(self.seed, self.order, self.convention, flavor, out)

    # -- series ----------------------------------------------------------------------

    def _commutes(self):
        """Whether the stored monomials, and so the algebra they generate, commute."""
        keys = list(self.coeffs)
        return self.convention == CLASSICAL or all(
            skew(self.seed, d1, d2) == 0 for i, d1 in enumerate(keys) for d2 in keys[:i])

    def exp(self):
        """Group element exp(a), computed in the ambient associative algebra
        (the commutative algebra in the classical convention)."""
        if self.flavor != LIE:
            raise ValueError("exp needs a lie element")
        if not self._commutes():
            return _series(self, GROUP, lambda k: CoeffFn.from_fraction(1, factorial(k)))
        ea = {d: c.scale(total_degree(d)) for d, c in self.coeffs.items()}
        g = {_zero_key(self.seed): ONE}
        for t in range(1, self.order + 1):      # t g_t = (E(a) g)_t
            for d, c in _product(self.seed, self.order, ea, g, False, degree=t).items():
                g[d] = c.scale(1, t)
        return GradedElement(self.seed, self.order, self.convention, GROUP, g)

    def log(self):
        if self.flavor != GROUP:
            raise ValueError("log needs a group element")
        if not self._commutes():
            return _series(self, LIE, lambda k: CoeffFn.from_fraction((-1) ** (k - 1), k))
        a, ea = {}, {}      # ea: -E(a) so far, and t at the zero key
        for t in range(1, self.order + 1):      # t a_t = t g_t - (E(a) (g - 1))_t
            ea[_zero_key(self.seed)] = CoeffFn.from_int(t)
            for d, c in _product(self.seed, self.order, ea, self.coeffs, False, degree=t).items():
                a[d], ea[d] = c.scale(1, t), -c
        return GradedElement(self.seed, self.order, self.convention, LIE, a)

    def group_inverse(self):
        """h = g^-1 from g h = 1, a degree at a time: h_t = -((g - 1) h)_t."""
        if self.flavor != GROUP:
            raise ValueError("inverse needs a group element")
        if self.convention == DT_TWIST:
            return sigma(sigma(self).group_inverse())
        u = {d: -c for d, c in self.coeffs.items()}
        h = {_zero_key(self.seed): ONE}
        for t in range(1, self.order + 1):
            h.update(_product(self.seed, self.order, u, h, self.convention == QUANTUM, degree=t))
        return GradedElement(self.seed, self.order, self.convention, GROUP, h)

    # -- equality / serialization --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return (self.seed, self.order, self.convention, self.flavor) == \
            (other.seed, other.order, other.convention, other.flavor) and \
            self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.seed, self.order, self.convention, self.flavor,
                     frozenset(self.coeffs.items())))

    def __repr__(self):
        terms = ["%s x^%s" % (c.to_string(), list(d))
                 for d, c in sorted(self.coeffs.items())]
        head = "1" if self.flavor == GROUP else "0"
        return "<%s %s + %s>" % (self.convention, head, " + ".join(terms) or "0")

    def serialize(self):
        """Deterministic list of {dimvec, coeff} entries, sorted by key."""
        return [{"dimvec": list(d), "coeff": c.to_string()}
                for d, c in sorted(self.coeffs.items())]


# ---------------------------------------------------------------------------
# raw dict arithmetic; keys are dimension-vector tuples including the zero key
# ---------------------------------------------------------------------------

def _zero_key(seed):
    return (0,) * seed.rank


def _add_key(d1, d2):
    return tuple(a + b for a, b in zip(d1, d2))


def _acc(out, d, c):
    s = out.get(d)
    s = c if s is None else s + c
    if s.is_zero():
        out.pop(d, None)
    else:
        out[d] = s


def _full(elem):
    out = dict(elem.coeffs)
    if elem.flavor == GROUP:
        out[_zero_key(elem.seed)] = ONE
    return out


def _by_degree(a):
    out = {}
    for d, c in a.items():
        out.setdefault(total_degree(d), []).append((d, c))
    return out


def _product(seed, order, a, b, twisted, degree=None, keys=None):
    """The truncated product of two coefficient dicts (the zero key is
    allowed): the sum of v^w c1 c2 x^(d1+d2), with w = {d1, d2} when
    `twisted` (the quantum product) and w = 0 otherwise (the commutative
    one).  Each pair gives a raw term (`coeff.raw_product`).  Terms are
    paired by total degree, so with degree=t only the layer of total
    degree t is formed, and a pair whose key is not in a given set of keys
    is not formed.  The raw terms of each key are summed and canonicalised once."""
    terms = {}
    right = _by_degree(b)
    for i, left in _by_degree(a).items():
        for j in (degree - i,) if degree is not None else range(order - i + 1):
            for d2, c2 in right.get(j, ()):
                pairs = left if keys is None else \
                    [p for p in left if _add_key(p[0], d2) in keys]
                for d1, c1 in pairs:
                    w = skew(seed, d1, d2) if twisted else 0
                    terms.setdefault(_add_key(d1, d2), []).append(raw_product(c1, c2, w))
    return _sum_keys(terms)


def _series(elem, flavor, coef):
    """The `flavor` element sum_{k >= 1} coef(k) u^k, u the stored terms of
    elem, by its powers in the quantum torus (dt: sigma of the quantum one).
    The raw terms of every power are collected under their key and each key
    is summed and canonicalised once."""
    if elem.convention == DT_TWIST:
        return sigma(_series(sigma(elem), flavor, coef))
    terms, term, k = {}, elem.coeffs, 1
    while term:
        c = coef(k)
        for d, x in term.items():
            terms.setdefault(d, []).append(raw_product(x, c))
        term = _product(elem.seed, elem.order, term, elem.coeffs, True)
        k += 1
    return GradedElement(elem.seed, elem.order, elem.convention, flavor, _sum_keys(terms))


def _sum_keys(terms):
    """The nonzero sums of a dict from keys to lists of raw terms."""
    out = {}
    for d, ts in terms.items():
        c = sum_terms(ts)
        if not c.is_zero():
            out[d] = c
    return out


# ---------------------------------------------------------------------------
# dilogarithm wall elements
# ---------------------------------------------------------------------------

def dilog_group_element(seed, n, order, convention):
    """The wall-crossing group element attached to the primitive vector n.

    quantum:    sum_k q^{k^2/2} x^{kn} / [GL_k]_q
    dt:         sum_k (-q^{1/2})^{k^2} x^{kn} / [GL_k]_q, sigma of the quantum one
    classical:  exp(-Li_2(-x^n))

    For a vertex i pass n = e_i.  Supported on multiples of n up to the
    truncation order.
    """
    if convention == DT_TWIST:
        return sigma(dilog_group_element(seed, n, order, QUANTUM))
    if convention == CLASSICAL:
        return _classical_dilog_log(seed, n, order).exp()
    coeffs = {d: CoeffFn.v_power(k * k) / gl_count(k)
              for k, d in _dilog_keys(seed, n, order).items()}
    return GradedElement(seed, order, convention, GROUP, coeffs)


def dilog_carrier(seed, n, order, convention):
    """to_carrier of `dilog_group_element` with no detour: the quantum one for
    quantum and dt, exp of the framed lift of -Li_2(-x^n) for classical."""
    if convention == CLASSICAL:
        return _framed_lift(_classical_dilog_log(seed, n, order)).exp()
    return dilog_group_element(seed, n, order, QUANTUM if convention == DT_TWIST else convention)


def _classical_dilog_log(seed, n, order):
    """-Li_2(-x^n) = sum_k (-1)^(k-1) x^{kn} / k^2, the classical lie element."""
    return GradedElement(seed, order, CLASSICAL, LIE,
                         {d: CoeffFn.from_fraction((-1) ** (k - 1), k * k)
                          for k, d in _dilog_keys(seed, n, order).items()})


def _dilog_keys(seed, n, order):
    n = _int_vector(n)
    if len(n) != seed.rank or total_degree(n) < 1 or primitive(n) != n:
        raise ValueError("dilogarithm needs a primitive rank-%d vector: %r" % (seed.rank, n))
    if type(order) is not int or order < 0:
        raise ValueError("order must be a non-negative int: %r" % (order,))
    return {k: tuple(k * x for x in n) for k in range(1, order // total_degree(n) + 1)}


def _int_vector(d):
    d = tuple(d)
    if any(type(x) is not int for x in d):
        raise ValueError("dimension vector entries must be ints: %r" % (d,))
    return d


# ---------------------------------------------------------------------------
# sigma, the frame map and the carrier of each convention
# ---------------------------------------------------------------------------

_SIGMA = {QUANTUM: DT_TWIST, DT_TWIST: QUANTUM}


def sigma(elem):
    """The field automorphism v -> -v on every coefficient.  It sends the
    quantum twist v^w to the DT twist (-v)^w, so it carries the quantum
    torus onto the DT-twisted one and back: it swaps the two labels."""
    return GradedElement(elem.seed, elem.order, _SIGMA[elem.convention], elem.flavor,
                         {d: subst_neg_v(c) for d, c in elem.coeffs.items()})


def _eps_power(k):
    """(v - 1/v)^k = (v^2 - 1)^k / v^k for an int k >= 0, by the binomial
    theorem; in lowest terms, as the numerator's end coefficients are +-1."""
    num = [0] * (2 * k + 1)
    num[::2] = [(-1) ** (k - j) * comb(k, j) for j in range(k + 1)]
    return CoeffFn(-k, tuple(num), (1,), _canonical=True)


def rescale(elem):
    """The frame map x^d -> (v - 1/v)^|d| x^d of the quantum torus.

    The twist v^{d1,d2} reads only the keys and total degrees add, so it is
    an automorphism: it commutes with products, exp, log, the group inverse
    and factorization."""
    if elem.convention != QUANTUM:
        raise ValueError("rescale expects a quantum element")
    return GradedElement(elem.seed, elem.order, QUANTUM, elem.flavor,
                         {d: c * _eps_power(total_degree(d)) for d, c in elem.coeffs.items()})


def to_carrier(elem):
    """The quantum carrier of elem: itself, sigma of a dt element, or the
    frame image of the canonical lift of a classical one."""
    if elem.convention == CLASSICAL:
        return _framed_lift(elem)
    return sigma(elem) if elem.convention == DT_TWIST else elem


def expose(elem, convention):
    """The element of `convention` that the quantum carrier elem carries,
    the inverse of `to_carrier`."""
    if elem.convention != QUANTUM:
        raise ValueError("expose expects a quantum element")
    if convention == CLASSICAL:
        return _framed_limit(elem)
    return sigma(elem) if convention == DT_TWIST else elem


def _framed_lift(elem):
    """The frame image of the canonical lift c/(v - 1/v) of a classical lie
    coefficient c at x^d: c (v - 1/v)^(|d|-1), a Laurent polynomial; group
    elements lift through log/exp."""
    if elem.flavor == GROUP:
        return _framed_lift(elem.log()).exp()
    out = {d: c * _eps_power(total_degree(d) - 1) for d, c in elem.coeffs.items()}
    return GradedElement(elem.seed, elem.order, QUANTUM, LIE, out)


def _framed_limit(elem):
    """The classical limit in the frame, the inverse of `_framed_lift`: a lie
    coefficient a at x^d becomes (v - 1/v)^(1-|d|) a at v = 1.  Group
    elements go through log and exp; a pole at v = 1 raises PoleError with
    its key."""
    if elem.flavor == GROUP:
        return _framed_limit(elem.log()).exp()
    out = {}
    for d, c in elem.coeffs.items():
        try:
            out[d] = CoeffFn.from_fraction(c.eval_at_v1(total_degree(d) - 1))
        except PoleError:
            raise PoleError("pole at v = 1 at x^%s" % (list(d),)) from None
    return GradedElement(elem.seed, elem.order, CLASSICAL, LIE, out)
