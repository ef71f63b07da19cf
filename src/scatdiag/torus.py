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
"""

from __future__ import annotations

from math import factorial

from .coeff import (CoeffFn, ONE, ZERO, PoleError, gl_count, raw_product, subst_neg_v,
                    sum_terms)
from .lattice import skew, total_degree

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
        self.seed = seed
        self.order = order
        self.convention = convention
        self.flavor = flavor
        clean = {}
        for d, c in coeffs.items():
            if not any(x < 0 for x in d) and any(d) and total_degree(d) <= order:
                if not c.is_zero():
                    clean[tuple(d)] = c
            elif any(x < 0 for x in d):
                raise ValueError("dimension vector outside N+: %r" % (d,))
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
        return GradedElement(seed, order, convention, LIE, {tuple(d): coeff})

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

    def _power_series(self, flavor, coef):
        """The `flavor` element sum_{k >= 1} coef(k) u^k, u the stored terms."""
        if self.convention == DT_TWIST:
            return sigma(sigma(self)._power_series(flavor, coef))
        out = _series(self.seed, self.order, self.convention == QUANTUM,
                      self.coeffs, coef)
        return GradedElement(self.seed, self.order, self.convention, flavor, out)

    def exp(self):
        """Group element exp(a), computed in the ambient associative algebra
        (the commutative algebra in the classical convention)."""
        if self.flavor != LIE:
            raise ValueError("exp needs a lie element")
        return self._power_series(GROUP, _exp_coef)

    def log(self):
        if self.flavor != GROUP:
            raise ValueError("log needs a group element")
        return self._power_series(LIE, lambda k: CoeffFn.from_fraction((-1) ** (k - 1), k))

    def group_inverse(self):
        if self.flavor != GROUP:
            raise ValueError("inverse needs a group element")
        return self._power_series(GROUP, lambda k: CoeffFn.from_int((-1) ** k))

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


def _series(seed, order, twisted, u, coef):
    """The truncated power series sum_{k >= 1} coef(k) u^k of a dict u
    without constant term.  The raw terms of every power are collected
    under their key and each key is summed and canonicalised once."""
    terms = {}
    term, k = u, 1
    while term:
        c = coef(k)
        for d, x in term.items():
            terms.setdefault(d, []).append(raw_product(x, c))
        term = _product(seed, order, term, u, twisted)
        k += 1
    return _sum_keys(terms)


def _sum_keys(terms):
    """The nonzero sums of a dict from keys to lists of raw terms."""
    out = {}
    for d, ts in terms.items():
        c = sum_terms(ts)
        if not c.is_zero():
            out[d] = c
    return out


def _exp_coef(k):
    return CoeffFn.from_fraction(1, factorial(k))


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
    n = tuple(n)
    deg = total_degree(n)
    if deg < 1:
        raise ValueError("dilogarithm needs total degree >= 1: %r" % (n,))
    kn = {k: tuple(k * x for x in n) for k in range(1, order // deg + 1)}
    if convention == CLASSICAL:
        lie = {d: CoeffFn.from_fraction((-1) ** (k - 1), k * k) for k, d in kn.items()}
        coeffs = _series(seed, order, False, lie, _exp_coef)
    else:
        coeffs = {d: CoeffFn.v_power(k * k) / gl_count(k) for k, d in kn.items()}
    return GradedElement(seed, order, convention, GROUP, coeffs)


# ---------------------------------------------------------------------------
# sigma, the classical limit and the classical <-> quantum lift
# ---------------------------------------------------------------------------

_SIGMA = {QUANTUM: DT_TWIST, DT_TWIST: QUANTUM}


def sigma(elem):
    """The field automorphism v -> -v on every coefficient.  It sends the
    quantum twist v^w to the DT twist (-v)^w, so it carries the quantum
    torus onto the DT-twisted one and back: it swaps the two labels."""
    return GradedElement(elem.seed, elem.order, _SIGMA[elem.convention], elem.flavor,
                         {d: subst_neg_v(c) for d, c in elem.coeffs.items()})


def classical_map(elem):
    """Evaluate a quantum element at q^(1/2) = 1 (x-hat^d -> x^d).

    Group elements go through log and exp so the result is a genuine
    classical group element; a pole at v = 1 raises PoleError with its key.
    """
    if elem.convention != QUANTUM:
        raise ValueError("classical_map expects a quantum element")
    if elem.flavor == GROUP:
        lie = elem.log()
        return classical_map(lie).exp()
    fac = (CoeffFn.v_power(2) - ONE).mul_vpow(-1)  # v - 1/v
    out = {}
    for d, c in elem.coeffs.items():
        try:
            out[d] = CoeffFn.from_fraction((c * fac).eval_at_v1())
        except PoleError:
            raise PoleError("pole at v = 1 at x^%s" % (list(d),)) from None
    return GradedElement(elem.seed, elem.order, CLASSICAL, LIE, out)


def lift_classical(elem):
    """Canonical quantum lift: a classical lie coefficient c becomes
    c/(v - 1/v); group elements lift through log/exp."""
    if elem.convention != CLASSICAL:
        raise ValueError("lift expects a classical element")
    if elem.flavor == GROUP:
        return lift_classical(elem.log()).exp()
    fac = CoeffFn(1, (1,), (-1, 0, 1))    # 1/(v - 1/v) = v/(v^2 - 1)
    out = {d: c * fac for d, c in elem.coeffs.items()}
    return GradedElement(elem.seed, elem.order, QUANTUM, LIE, out)
