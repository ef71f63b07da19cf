import functools
from fractions import Fraction
from math import gcd

import pytest

import scatdiag.coeff as coeff
from scatdiag.coeff import (CoeffFn, ONE, ZERO, PoleError, gl_count, q_power,
                            subst_neg_v, sum_terms)
from scatdiag.lattice import a2_seed
from scatdiag.torus import LIE, QUANTUM, GradedElement
from conftest import random_coeff
from oracles import add_by_denominator_join, q_int, sum_by_powers

v = CoeffFn.v_power


def test_cancellation_to_canonical_form():
    # (v-1)/(v^2-1) -> 1/(v+1)
    f = CoeffFn(0, (-1, 1), (-1, 0, 1))
    assert f == CoeffFn(0, (1,), (1, 1))


def test_quantum_integer_cleared():
    # [2]_q = v + 1/v; multiplied by v gives v^2 + 1
    assert q_int(2).mul_vpow(1) == CoeffFn(0, (1, 0, 1), (1,))


def test_gl_counts():
    assert gl_count(0) == ONE
    assert gl_count(1) == q_power(1) - ONE
    assert gl_count(2) == (q_power(2) - ONE) * (q_power(2) - q_power(1))
    # integer point count at q = 2
    assert gl_count(2).eval_at_sqrt(2) == (Fraction(6), 0)


def test_eval_at_q():
    f = q_power(2) / gl_count(2)
    assert f.eval_at_sqrt(2) == (Fraction(2, 3), 0)
    assert ONE.eval_at_sqrt(7) == (1, 0)
    with pytest.raises(PoleError):
        (ONE / (q_power(1) - ONE)).eval_at_sqrt(1)
    # an odd power of v is the irrational part at q = 2
    assert v(3).eval_at_sqrt(2) == (0, 2)


def test_evaluators_stay_exact():
    # one Horner loop serves the integer gcd and the evaluators: at a
    # Fraction point it must return Fractions, never ints or floats
    assert coeff._pval((1, 2, 3), 10) == 321
    assert type(coeff._pval((1, 2, 3), 10)) is int
    for f in (ONE, v(1), v(-3), CoeffFn(1, (3, 0, 1), (2, 1)), CoeffFn(0, (1,), (1, 1))):
        assert type(f.eval_at_v1()) is Fraction
        assert all(type(x) is Fraction for x in f.eval_at_sqrt(2))
        assert all(type(x) is Fraction for x in f.eval_at_sqrt(Fraction(1, 3)))


def test_classical_limit():
    f = v(1) / CoeffFn(0, (1, 0, 1), (1,))   # v/(v^2+1)
    assert f.eval_at_v1() == Fraction(1, 2)
    assert (CoeffFn(0, (-1, 1), (-1, 1))).eval_at_v1() == 1
    with pytest.raises(PoleError):
        (ONE / (v(1) - ONE)).eval_at_v1()


def test_classical_limit_over_powers_of_v_minus_inverse_v(rng):
    # the Taylor reading against the value of the product, poles included:
    # the numerators vanish to orders 0..3 at v = 1, so every outcome occurs
    eps = v(1) - v(-1)
    for _ in range(300):
        c = random_coeff(rng)
        for _ in range(rng.randint(0, 3)):
            c = c * (v(1) - ONE)
        for k in range(4):
            want = c
            for _ in range(k):
                want = want / eps
            try:
                value = want.eval_at_v1()
            except PoleError:
                with pytest.raises(PoleError):
                    c.eval_at_v1(k)
                continue
            assert c.eval_at_v1(k) == value
    # a negative power, and a power that is not an int (True was read as 1,
    # and 1.5 reached range)
    for k in (-1, True, 1.5):
        with pytest.raises(ValueError, match="must be an int >= 0"):
            ONE.eval_at_v1(k)


def test_eval_at_sqrt_irrational_point():
    f = v(1) / (q_power(1) - ONE)
    assert f.eval_at_sqrt(2) == (Fraction(0), Fraction(1))
    g = (ONE + v(1)) / (ONE - v(1))
    # (1+s)/(1-s) = -(3+2s) at s = sqrt 2
    assert g.eval_at_sqrt(2) == (Fraction(-3), Fraction(-2))


def test_canonical_uniqueness_and_field_axioms(rng):
    for _ in range(1000):
        a, b, c = (random_coeff(rng) for _ in range(3))
        assert a - a == ZERO
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_eval_is_ring_homomorphism(rng):
    for _ in range(200):
        a, b = random_coeff(rng), random_coeff(rng)
        aa = a * a
        try:
            va, vb = a.eval_at_sqrt(4), b.eval_at_sqrt(4)
            assert (a + b).eval_at_sqrt(4) == (va[0] + vb[0], va[1] + vb[1])
            assert (a * b).eval_at_sqrt(4) == (va[0] * vb[0] + 4 * va[1] * vb[1],
                                               va[0] * vb[1] + va[1] * vb[0])
        except PoleError:
            continue


def test_classical_limit_is_multiplicative(rng):
    for _ in range(200):
        a, b = random_coeff(rng), random_coeff(rng)
        try:
            va, vb = a.eval_at_v1(), b.eval_at_v1()
        except PoleError:
            continue
        assert (a * b).eval_at_v1() == va * vb


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_subst_neg_v(rng):
    for _ in range(100):
        a, b = random_coeff(rng), random_coeff(rng)
        s = subst_neg_v(a)
        assert subst_neg_v(s) == a
        # canonical with no gcd: canonicalising again changes nothing
        assert CoeffFn(s.shift, s.num, s.den) == s
        # a field automorphism
        assert subst_neg_v(a * b) == s * subst_neg_v(b)
        assert subst_neg_v(a + b) == s + subst_neg_v(b)
    assert subst_neg_v(v(1)) == -v(1)
    assert subst_neg_v(ONE / (v(1) + ONE)) == ONE / (ONE - v(1))


def test_string_form():
    # q^2/[GL_2]_q = q/((q-1)(q^2-1)) after cancelling the common q
    f = q_power(2) / gl_count(2)
    assert f.to_string() == "(v^2)/(v^6 - v^4 - v^2 + 1)"
    assert f.eval_at_sqrt(2) == (Fraction(2, 3), 0)
    assert ZERO.to_string() == "0"
    assert v(-2).to_string() == "1/(v^2)"


def test_heuristic_gcd_matches_prs(rng, monkeypatch):
    """The heuristic `_pgcd` against the kept PRS gcd, its fallback; the
    cofactors it returns multiply back to the inputs."""
    def poly(deg, span=5):
        return coeff._ptrim([rng.randint(-span, span) for _ in range(deg + 1)])

    pairs = [((), ()), ((), (3, -6)), ((4,), ()), ((-2,), (0, 5)),
             ((-1, 0, 1), (0,) * 3 + (1,))]
    for _ in range(1500):
        g = coeff._pscale(poly(rng.randint(0, 4)), rng.choice((-3, -1, 1, 2)))
        a = coeff._pmul(g, poly(rng.randint(0, 6)))
        b = coeff._pmul(g, poly(rng.randint(0, 6), span=40))
        if rng.random() < 0.3:          # repeated factor
            a = coeff._pmul(a, g)
        if rng.random() < 0.1:          # a constant
            b = coeff._ptrim((rng.randint(-9, 9),))
        pairs.append((a, b))
    # retries of the heuristic: without the floor on xi the first
    # evaluation points are small and often give a false factor
    for xi_min in (coeff._HEU_XI_MIN, 0):
        monkeypatch.setattr(coeff, "_HEU_XI_MIN", xi_min)
        for a, b in pairs:
            g, ca, cb = coeff._pgcd(a, b)
            assert g == coeff._pgcd_prs(a, b), (a, b)
            assert coeff._pmul(g, ca) == a and coeff._pmul(g, cb) == b, (a, b)

    # the fallback alone gives the primitive gcd with positive leading
    # coefficient: planted non-monic linear factors with rational,
    # non-integer roots, cofactors with disjoint integer roots
    monkeypatch.setattr(coeff, "_HEU_TRIES", 0)
    for _ in range(200):
        g = (1,)
        for _ in range(rng.randint(0, 3)):
            c = rng.randint(2, 5)
            g = coeff._pmul(g, (rng.choice([d for d in range(-7, 8)
                                            if gcd(c, d) == 1]), c))
        roots = rng.sample(range(-6, 7), 4)
        a, b = g, g
        for r in roots[:2]:
            a = coeff._pmul(a, (-r, 1))
        for r in roots[2:]:
            b = coeff._pmul(b, (-r, 1))
        a = coeff._pscale(a, rng.choice((-6, -1, 1, 4)))
        b = coeff._pscale(b, rng.choice((-5, -2, 1, 3)))
        assert coeff._pgcd(a, b) == (g, coeff._pdiv_exact(a, g),
                                     coeff._pdiv_exact(b, g)), (a, b)
        assert coeff._pgcd_prs(a, b) == g, (a, b)


def test_add_matches_the_denominator_join(rng):
    """`+` is `sum_terms` of its two terms; the reference joins the two
    denominators itself.  Pairs over one denominator, over denominators
    that differ by an integer factor, over a denominator of 1, with a zero
    operand, and pairs that cancel to zero."""
    def poly():
        return tuple(rng.randint(-4, 4) for _ in range(3))

    def kind(a, b, total):
        if a.is_zero() or b.is_zero():
            return "zero operand"
        if total.is_zero():
            return "cancels"
        if a.den == b.den:
            return "equal"
        if (1,) in (a.den, b.den):
            return "one"
        return "integer factor" if coeff._pprim(a.den) == coeff._pprim(b.den) else "other"

    seen = set()
    for _ in range(400):
        x = random_coeff(rng)
        f = rng.choice((-6, -2, 3, 5))
        pairs = [(x, CoeffFn(rng.randint(-3, 3), poly(), x.den)),
                 (x, CoeffFn(x.shift, coeff._pscale(x.num, rng.choice((1, 7))),
                             coeff._pscale(x.den, f))),
                 (x, CoeffFn(rng.randint(-3, 3), poly(), (1,))),
                 (x, ZERO), (x, -x), (x, random_coeff(rng))]
        for a, b in pairs:
            for y, z in ((a, b), (b, a)):
                total = y + z
                assert total == add_by_denominator_join(y, z), (y, z)
                seen.add(kind(y, z, total))
    assert seen == {"zero operand", "cancels", "equal", "one", "integer factor", "other"}


def test_sum_terms_is_a_fold_of_add(rng, monkeypatch):
    """`sum_terms` on raw terms, each a random coefficient with a common
    factor and a power of v left in, equals the left fold of the
    reference sum (a fold of `+` would be `sum_terms` again)."""
    def raw(c):
        f = coeff._ptrim(tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 3))))
        k = rng.randint(0, 2)
        f = f or (1,)
        return (c.shift - k, coeff._pmul(f, coeff._pshift(c.num, k)),
                coeff._pmul(f, c.den))

    pool = [random_coeff(rng) for _ in range(4)]
    assert sum_terms([]) == ZERO
    assert sum_terms([(0, (), (1,)), (3, (), (2, 1))]) == ZERO
    for _ in range(300):
        n = rng.randint(1, 6)
        # shared denominators from a small pool, and sums that cancel
        cs = [rng.choice(pool) if rng.random() < 0.5 else random_coeff(rng)
              for _ in range(n)]
        if rng.random() < 0.3:
            cs += [-c for c in cs]
        rng.shuffle(cs)
        expected = functools.reduce(add_by_denominator_join, cs, ZERO)
        assert sum_terms([raw(c) for c in cs]) == expected
        assert sum_terms([(c.shift, c.num, c.den) for c in cs]) == expected
    for c in pool:
        assert sum_terms([raw(c)]) == c

    # raw denominators equal up to an integer factor, negative or with a
    # content above 1: numerators over one raw denominator add with no gcd,
    # so the gcds are the joins of distinct raw denominators and the one of
    # the canonical form
    def scaled(c):
        f = rng.choice((-6, -4, -3, -2, -1, 2, 3, 5))
        return c.shift, coeff._pscale(c.num, f), coeff._pscale(c.den, f)

    real, calls = coeff._pgcd, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    for _ in range(300):
        cs = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            cs += [-c for c in cs]
        rng.shuffle(cs)
        expected = functools.reduce(add_by_denominator_join, cs, ZERO)
        terms = [scaled(c) for c in cs]
        monkeypatch.setattr(coeff, "_pgcd", spy)
        del calls[:]
        assert sum_terms(terms) == expected
        monkeypatch.undo()
        assert len(calls) <= len({t[2] for t in terms})
    # a sum that cancels to zero over denominators -2 (v + 1) and 3 (v + 1)
    assert sum_terms([(0, (2,), (-2, -2)), (0, (3,), (3, 3))]) == ZERO
    assert sum_terms([(0, (1,), (4, 4)), (0, (1,), (-6, -6))]) == \
        CoeffFn(0, (1,), (12, 12))


INT_DENS = (-12, -8, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 9)
POLY_DENS = ((1, 1), (-2, 0, 2), (0, 3, -3), (1, 0, 1), (4, 2))


def _integer_terms(rng):
    """Raw terms over integer denominators, negative and not coprime, with
    numerators that may have zero end coefficients or be all zero; a third
    of the lists cancel to zero, term against term over other denominators."""
    terms = []
    for _ in range(rng.randint(1, 6)):
        num = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 5)))
        if rng.random() < 0.3:
            num = (0,) + num + (0,)
        terms.append((rng.randint(-3, 3), num, (rng.choice(INT_DENS),)))
    if rng.random() < 0.3:
        f = rng.choice((-2, 3))
        terms += [(s, tuple(-f * c for c in n), (f * d,)) for s, n, (d,) in terms]
    rng.shuffle(terms)
    return terms


def _is_canonical(c):
    """The canonical form over an integer denominator, read off directly."""
    if c.is_zero():
        return (c.shift, c.den) == (0, (1,))
    return (len(c.den) == 1 and c.den[0] > 0 and c.num[0] != 0 and c.num[-1] != 0
            and gcd(*c.num, *c.den) == 1)


def _integer_lane_mismatches(rng, trials):
    """The integer-denominator sums of `sum_terms` that differ from the
    per-power Fraction oracle or are not canonical."""
    bad = []
    for _ in range(trials):
        terms = _integer_terms(rng)
        total = sum_terms(iter(terms))
        powers = {total.shift + i: Fraction(c, total.den[0])
                  for i, c in enumerate(total.num) if c}
        if powers != sum_by_powers(terms) or not _is_canonical(total):
            bad.append(terms)
    return bad


def test_integer_denominators_sum_by_powers(rng, monkeypatch):
    """Sums over integer denominators only take the integer lane: they match
    the per-power oracle, come out canonical, and form no polynomial gcd
    and no `_canonicalize`."""
    assert sum_terms([(2, (0, 0), (3,))]) == ZERO
    assert sum_terms([(0, (2,), (4,)), (0, (-3,), (6,))]) == ZERO
    assert sum_terms([(1, (0, 4, 0, -6), (-8,))]) == CoeffFn(2, (-2, 0, 3), (4,))
    real, lanes, general = coeff._sum_over_integers, [], []

    def lane(by_den):
        lanes.append(by_den)
        return real(by_den)

    monkeypatch.setattr(coeff, "_sum_over_integers", lane)
    monkeypatch.setattr(coeff, "_pgcd", lambda *args: general.append(args))
    monkeypatch.setattr(coeff, "_canonicalize", lambda *args: general.append(args))
    assert _integer_lane_mismatches(rng, 600) == []
    assert (len(lanes), general) == (600, [])


def test_integer_lane_that_keeps_the_content_fails(rng, monkeypatch):
    # negative control: a lane that skips dividing out the common content
    monkeypatch.setattr(coeff, "gcd", lambda *args: 1)
    assert _integer_lane_mismatches(rng, 200) != []


def test_polynomial_denominators_take_the_general_path(rng, monkeypatch):
    """A polynomial denominator among integer ones sends the sum down the
    general path, which agrees with the fold of the reference sum."""
    real, lanes = coeff._sum_over_integers, []
    monkeypatch.setattr(coeff, "_sum_over_integers",
                        lambda by_den: lanes.append(by_den) or real(by_den))
    for _ in range(300):
        terms = _integer_terms(rng)
        terms.insert(rng.randint(0, len(terms)),
                     (rng.randint(-3, 3), tuple(rng.randint(-3, 3) for _ in range(3)),
                      rng.choice(POLY_DENS)))
        expected = functools.reduce(add_by_denominator_join,
                                    [CoeffFn(*t) for t in terms], ZERO)
        assert sum_terms(iter(terms)) == expected, terms
    assert lanes == []


@pytest.mark.parametrize("make", [
    lambda: CoeffFn.from_int(2.5),
    lambda: CoeffFn.from_int(True),
    lambda: CoeffFn.from_fraction(True),
    lambda: CoeffFn.from_fraction(0.5),
    lambda: CoeffFn.from_fraction(1, 2.5),
    lambda: CoeffFn.v_power(1.0),
    lambda: CoeffFn.v_power(True),
    lambda: GradedElement(a2_seed(), 3, QUANTUM, LIE, {(1, 0): 2}),
], ids=["from_int-float", "from_int-bool", "from_fraction-bool", "from_fraction-float",
        "from_fraction-float-den", "v_power-float", "v_power-bool", "element-int-coefficient"])
def test_inexact_scalars_are_refused(make):
    # reject, don't coerce: a float or bool never becomes a coefficient
    with pytest.raises(ValueError):
        make()


def test_pmul_constant_operand(rng):
    """The constant-operand path of `_pmul` against the double loop."""
    def double_loop(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return coeff._ptrim(out)

    for _ in range(200):
        b = coeff._ptrim(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))) or (1,)
        for k in (1, -1, rng.choice((-7, -2, 3, 12))):
            assert coeff._pmul((k,), b) == coeff._pmul(b, (k,)) == double_loop((k,), b)
            assert type(coeff._pmul((k,), b)) is tuple


def test_q_int_rejects_k_below_one():
    for k in (0, -2):
        with pytest.raises(ValueError):
            q_int(k)


def test_gl_count_rejects_negative_k():
    for k in (-1, -3):
        with pytest.raises(ValueError):
            gl_count(k)


def test_gl_count_closed_form_is_the_product_of_its_field_factors():
    # q^(k(k-1)/2) prod (q^i - 1), built canonical, against prod_{i<k} (q^k - q^i)
    for k in range(13):
        field = ONE
        for i in range(k):
            field = field * (q_power(k) - q_power(i))
        count = gl_count(k)
        assert (count.shift, count.num, count.den) == (field.shift, field.num, field.den)
