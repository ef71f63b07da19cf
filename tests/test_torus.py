from math import factorial

import pytest

import scatdiag.coeff as coeff
from scatdiag import torus
from scatdiag.chambers import dt_series, enumerate_green_to_red
from scatdiag.coeff import CoeffFn, ONE, PoleError, gl_count, q_power, subst_neg_v
from scatdiag.lattice import a2_seed, a3_seed, kronecker_seed, markov_seed
from scatdiag.torus import (CLASSICAL, CONVENTIONS, DT_TWIST, GROUP, LIE, QUANTUM,
                            GradedElement, dilog_carrier, dilog_group_element, expose,
                            rescale, sigma, to_carrier)
from conftest import random_coeff, random_lie
from oracles import (bracket, dilog_lie_element, dt_product, power_series_per_power,
                     product_per_term, rescale_power, standard_classical_map,
                     standard_lift_classical)

v = CoeffFn.v_power


def test_mul_twists():
    a2 = a2_seed()
    x01 = GradedElement.monomial(a2, 6, QUANTUM, (0, 1), ONE)
    x10 = GradedElement.monomial(a2, 6, QUANTUM, (1, 0), ONE)
    assert x01.mul(x10).coeffs == {(1, 1): v(-1)}
    assert x10.mul(x01).coeffs == {(1, 1): v(1)}
    c01 = GradedElement.monomial(a2, 6, CLASSICAL, (0, 1), ONE)
    c10 = GradedElement.monomial(a2, 6, CLASSICAL, (1, 0), ONE)
    assert c01.mul(c10).coeffs == {(1, 1): ONE}
    assert c01.mul(c10) == c10.mul(c01)
    d10 = GradedElement.monomial(a2, 6, DT_TWIST, (1, 0), ONE)
    d01 = GradedElement.monomial(a2, 6, DT_TWIST, (0, 1), ONE)
    assert d10.mul(d01).coeffs == {(1, 1): -v(1)}


def test_mul_requires_same_context():
    a = GradedElement.monomial(a2_seed(), 6, QUANTUM, (1, 0), ONE)
    b = GradedElement.monomial(a2_seed(), 6, CLASSICAL, (1, 0), ONE)
    with pytest.raises(ValueError):
        a.mul(b)


def test_bracket_examples():
    a2 = a2_seed()
    c10 = GradedElement.monomial(a2, 6, CLASSICAL, (1, 0), ONE)
    c01 = GradedElement.monomial(a2, 6, CLASSICAL, (0, 1), ONE)
    assert bracket(c10, c01).coeffs == {(1, 1): ONE}
    c20 = GradedElement.monomial(a2, 6, CLASSICAL, (2, 0), ONE)
    assert bracket(c10, c20).coeffs == {}
    mk = markov_seed()
    m111 = GradedElement.monomial(mk, 6, CLASSICAL, (1, 1, 1), ONE)
    m100 = GradedElement.monomial(mk, 6, CLASSICAL, (1, 0, 0), ONE)
    assert bracket(m111, m100).coeffs == {}


def test_bracket_vanishes_on_zero_pairing_all_conventions(rng):
    # skew-symmetric Lie algebra: {d1,d2} = 0 kills the bracket exactly
    mk = markov_seed()
    for conv in (QUANTUM, CLASSICAL, DT_TWIST):
        x = GradedElement.monomial(mk, 8, conv, (1, 1, 1), ONE)
        y = GradedElement.monomial(mk, 8, conv, (2, 1, 0), ONE)
        assert bracket(x, y).coeffs == {}


def test_bracket_antisymmetry_and_jacobi(rng):
    a2 = a2_seed()
    for conv in (QUANTUM, CLASSICAL, DT_TWIST):
        for _ in range(30):
            a = random_lie(rng, a2, conv, 6)
            b = random_lie(rng, a2, conv, 6)
            c = random_lie(rng, a2, conv, 6)
            assert bracket(a, b).add(bracket(b, a)).coeffs == {}
            jac = bracket(a, bracket(b, c)).add(bracket(b, bracket(c, a))) \
                .add(bracket(c, bracket(a, b)))
            assert jac.coeffs == {}


def test_bracket_is_the_commutator_of_the_product(rng):
    # ties the per-term brackets to the product: [a, b] = ab - ba in the
    # quantum and dt conventions, and the Poisson bracket is the classical
    # limit of the commutator of the quantum lifts
    for seed, order in ((a2_seed(), 6), (a3_seed(), 5)):
        for conv in (QUANTUM, DT_TWIST):
            for _ in range(10):
                a = random_lie(rng, seed, conv, order)
                b = random_lie(rng, seed, conv, order)
                assert bracket(a, b) == a.mul(b).add(b.mul(a).neg())
        for _ in range(10):
            a = random_lie(rng, seed, CLASSICAL, order)
            b = random_lie(rng, seed, CLASSICAL, order)
            la, lb = standard_lift_classical(a), standard_lift_classical(b)
            assert standard_classical_map(la.mul(lb).add(lb.mul(la).neg())) == bracket(a, b)


def test_mul_associativity(rng):
    a2 = a2_seed()
    for conv in (QUANTUM, CLASSICAL, DT_TWIST):
        for _ in range(25):
            elems = []
            for _ in range(3):
                x = random_lie(rng, a2, conv, 5)
                elems.append(x.exp() if rng.random() < 0.5 else x)
            a, b, c = elems
            assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_exp_log_roundtrip(rng):
    a2 = a2_seed()
    for conv in (QUANTUM, CLASSICAL, DT_TWIST):
        for _ in range(25):
            a = random_lie(rng, a2, conv, 6)
            g = a.exp()
            assert g.log() == a
            assert g.mul(g.group_inverse()) == GradedElement.one(a2, 6, conv)
    assert GradedElement.zero(a2, 6, QUANTUM).exp() == \
        GradedElement.one(a2, 6, QUANTUM)


def test_classical_scalar_exp():
    e = GradedElement.monomial(a2_seed(), 2, CLASSICAL, (1, 0), ONE).exp()
    assert e.coeffs == {(1, 0): ONE, (2, 0): CoeffFn.from_fraction(1, 2)}


def test_dilog_coefficients():
    a2 = a2_seed()
    g = dilog_group_element(a2, (1, 0), 6, QUANTUM)
    assert g.coeffs[(1, 0)] == v(1) / (q_power(1) - ONE)
    assert g.coeffs[(2, 0)] == q_power(2) / gl_count(2)
    gc = dilog_group_element(a2, (1, 0), 6, CLASSICAL)
    assert gc.coeffs[(1, 0)] == ONE
    assert gc.coeffs[(2, 0)] == CoeffFn.from_fraction(1, 4)
    gd = dilog_group_element(a2, (1, 0), 6, DT_TWIST)
    assert gd.coeffs[(1, 0)] == -v(1) / (q_power(1) - ONE)


def test_dilog_closed_form_equals_exp_of_series():
    # the quantum dilogarithm identity, checked to order 8
    a2 = a2_seed()
    for conv in (QUANTUM, CLASSICAL, DT_TWIST):
        assert dilog_lie_element(a2, (1, 0), 8, conv).exp() == \
            dilog_group_element(a2, (1, 0), 8, conv)


def test_dt_is_quantum_at_minus_v():
    a2 = a2_seed()
    q = dilog_group_element(a2, (1, 0), 8, QUANTUM)
    d = dilog_group_element(a2, (1, 0), 8, DT_TWIST)
    assert {k: subst_neg_v(c) for k, c in q.coeffs.items()} == d.coeffs
    assert sigma(q) == d and sigma(d) == q


def test_classical_map_of_dilog():
    a2 = a2_seed()
    for order in (4, 6):
        q = dilog_group_element(a2, (1, 0), order, QUANTUM)
        assert standard_classical_map(q) == dilog_group_element(a2, (1, 0), order, CLASSICAL)
    one = GradedElement.one(a2, 6, QUANTUM)
    assert standard_classical_map(one) == GradedElement.one(a2, 6, CLASSICAL)


def test_classical_map_pole_error():
    a2 = a2_seed()
    bad = GradedElement(a2, 4, QUANTUM, LIE,
                        {(1, 0): ONE / (v(1) - ONE) / (v(1) - ONE)})
    with pytest.raises(PoleError):
        standard_classical_map(bad)


def test_lift_roundtrip(rng):
    a2 = a2_seed()
    for _ in range(20):
        a = random_lie(rng, a2, CLASSICAL, 6)
        assert standard_classical_map(standard_lift_classical(a)) == a
        g = a.exp()
        assert standard_classical_map(standard_lift_classical(g)) == g


def test_serialization_deterministic():
    g = dilog_group_element(a2_seed(), (1, 0), 4, QUANTUM)
    s1 = g.serialize()
    s2 = dilog_group_element(a2_seed(), (1, 0), 4, QUANTUM).serialize()
    assert s1 == s2
    assert s1[0] == {"dimvec": [1, 0], "coeff": "(v)/(v^2 - 1)"}


# ---------------------------------------------------------------------------
# the product kernel against the per-term product
# ---------------------------------------------------------------------------

def random_element(rng, seed, conv, order, flavor, nterms=3):
    """Coefficients from `random_coeff`: non-cyclotomic denominators and
    mixed shifts."""
    coeffs = {}
    for _ in range(nterms):
        d = tuple(rng.randint(0, 2) for _ in range(seed.rank))
        if any(d) and sum(d) <= order:
            coeffs[d] = random_coeff(rng, size=rng.randint(1, 3))
    return GradedElement(seed, order, conv, flavor, coeffs)


@pytest.mark.parametrize("conv", (QUANTUM, CLASSICAL))
def test_product_kernel_matches_per_term_oracle(rng, monkeypatch, conv):
    twisted = conv == QUANTUM
    for seed, order in ((a2_seed(), 5), (a3_seed(), 4)):
        for _ in range(4):
            a, b = (random_element(rng, seed, conv, order, LIE) for _ in range(2))
            g, h = (random_element(rng, seed, conv, order, GROUP) for _ in range(2))
            # a product with the inverse cancels every output key but the
            # constant one
            g_inv = g.group_inverse()
            assert g.mul(g_inv) == GradedElement.one(seed, order, conv)
            for x, y in ((a, b), (g, h), (g, a), (a, a), (g, g_inv)):
                fx, fy = torus._full(x), torus._full(y)
                for degree in (None,) + tuple(range(order + 1)):
                    assert torus._product(seed, order, fx, fy, twisted, degree) == \
                        product_per_term(seed, order, fx, fy, twisted, degree)

            def results():
                return [a.mul(b), g.mul(h), g.mul(a), a.exp(), g.log(),
                        g.group_inverse(), g.mul(g_inv)]

            fast = results()
            monkeypatch.setattr(torus, "_product", product_per_term)
            assert results() == fast
            monkeypatch.undo()


def test_dt_operations_match_the_per_term_oracle(rng):
    # a dt product is sigma of the quantum one; the oracle twists each pair
    # of terms by (-v)^w itself
    for seed, order in ((a2_seed(), 5), (a3_seed(), 4), (markov_seed(), 4)):
        for _ in range(10):
            a, b = (random_element(rng, seed, DT_TWIST, order, LIE) for _ in range(2))
            g, h = (random_element(rng, seed, DT_TWIST, order, GROUP) for _ in range(2))
            assert sigma(sigma(g)) == g
            for x, y in ((a, b), (g, h), (g, a), (a, g)):
                assert torus._full(x.mul(y)) == \
                    dt_product(seed, order, torus._full(x), torus._full(y))


SERIES_COEFS = {"exp": lambda k: CoeffFn.from_fraction(1, factorial(k)),
                "log": lambda k: CoeffFn.from_fraction((-1) ** (k - 1), k),
                "group_inverse": lambda k: CoeffFn.from_int((-1) ** k)}


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_series_match_the_per_power_oracle(rng, conv):
    # exp, log and the group inverse sum the raw terms of each key once; the
    # oracle adds one canonical coefficient per power, and in the dt
    # convention twists each pair of terms by (-v)^w itself.  A product of
    # two dilogarithms brings the cyclotomic denominators, equal up to an
    # integer factor, that the series of a DT product meets.
    seeds = ((a2_seed(), 5), (a3_seed(), 4), (markov_seed(), 4), (kronecker_seed(), 4))
    for seed, order in seeds:
        units = [tuple(int(i == j) for j in range(seed.rank)) for i in (0, seed.rank - 1)]
        dilogs = dilog_group_element(seed, units[0], order, conv).mul(
            dilog_group_element(seed, units[1], order, conv))
        for i in range(11):
            a = random_element(rng, seed, conv, order, LIE)
            g = dilogs if i == 0 else random_element(rng, seed, conv, order, GROUP)
            for x, op in ((a, "exp"), (g, "log"), (g, "group_inverse")):
                assert getattr(x, op)().coeffs == \
                    power_series_per_power(seed, order, conv, x.coeffs, SERIES_COEFS[op])


def _support_element(rng, seed, order, conv, flavor, keys, keep):
    """A random element with support in the given keys: nonzero
    `random_coeff` coefficients, each key kept with probability `keep`."""
    coeffs = {}
    for d in keys:
        while rng.random() < keep and d not in coeffs:
            c = random_coeff(rng, size=2)
            if not c.is_zero():
                coeffs[d] = c
    return GradedElement(seed, order, conv, flavor, coeffs)


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_one_pass_series_match_the_per_power_oracle(rng, monkeypatch, conv):
    # exp and log of a commuting support, and every group inverse, take one
    # pass over degrees; exp and log of a quantum or dt support that does not
    # commute keep the sum of powers, `_series`
    real, routed = torus._series, []
    monkeypatch.setattr(torus, "_series", lambda *args: routed.append(args) or real(*args))
    a2, a3, mk = a2_seed(), a3_seed(), markov_seed()

    def ray(n, order):
        return [tuple(k * x for x in n) for k in range(1, order // sum(n) + 1)]

    pair = [(i + j, 0, j) for i in range(6) for j in range(6) if 0 < i + 2 * j <= 5]
    commuting = [(a2, 6, ray((1, 0), 6)), (a3, 5, ray((1, 1, 0), 5)),
                 (mk, 5, ray((1, 1, 1), 5)), (a3, 5, pair)]
    # e1 and e2 do not commute in A2 and A3: {e1, e2} = 1
    mixed = [(seed, order, [tuple(int(i == j) for j in range(seed.rank)) for i in (0, 1)]
              + [tuple(rng.randint(0, 2) for _ in range(seed.rank)) for _ in range(3)])
             for seed, order in ((a2, 5), (a3, 4)) for _ in range(3)]
    for cases, keep, one_pass in ((commuting, 0.8, True), (mixed, 1, conv == CLASSICAL)):
        for seed, order, keys in cases:
            keys = [d for d in keys if 0 < sum(d) <= order]
            for _ in range(2):
                a, g = (_support_element(rng, seed, order, conv, flavor, keys, keep)
                        for flavor in (LIE, GROUP))
                for x, op in ((a, "exp"), (g, "log"), (g, "group_inverse")):
                    del routed[:]
                    assert getattr(x, op)().coeffs == \
                        power_series_per_power(seed, order, conv, x.coeffs, SERIES_COEFS[op])
                    assert not routed if one_pass or op == "group_inverse" else routed
        if cases is commuting:      # one ray in the closed form, too
            g = dilog_group_element(a3, (1, 1, 0), 5, conv)
            for op in ("log", "group_inverse"):
                assert getattr(g, op)().coeffs == \
                    power_series_per_power(a3, 5, conv, g.coeffs, SERIES_COEFS[op])
            assert not routed


def test_dense_classical_exp_takes_one_product_per_degree(monkeypatch):
    g = dt_series(a3_seed(), (1, 2, 3), 5, CLASSICAL)
    lie = g.log()
    real, calls = torus._product, []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(torus, "_product", spy)
    assert lie.exp() == g
    assert len(calls) <= g.order


def test_product_canonicalises_once_per_output_key(monkeypatch, rng):
    real, calls = coeff._canonicalize, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(coeff, "_canonicalize", spy)
    seed, order = a3_seed(), 4
    for conv in (QUANTUM, CLASSICAL):
        for _ in range(3):
            a, b = (torus._full(random_element(rng, seed, conv, order, GROUP, nterms=5))
                    for _ in range(2))
            del calls[:]
            out = torus._product(seed, order, a, b, conv == QUANTUM)
            assert len(calls) <= len(out)
    # the whole classical DT series of A3 along one maximal green sequence:
    # 1,574 canonicalisations when every term was canonicalised, 622 when
    # every series summed its powers, 381 before sums over integer
    # denominators took their own lane, none now
    del calls[:]
    dt_series(a3_seed(), (1, 2, 3), 5, CLASSICAL)
    assert calls == []


def test_series_gcd_count(monkeypatch):
    """The classical DT series of A2 at order 8 along both maximal green
    sequences: 6,518 polynomial gcds when each power of a series added a
    canonical coefficient and every raw denominator joined over a gcd,
    1,796 when each key is summed once over its primitive denominators,
    1,054 when the series of a commuting support take one pass over degrees,
    none since sums over integer denominators take no gcd."""
    real, calls = coeff._pgcd, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(coeff, "_pgcd", spy)
    seqs = enumerate_green_to_red(a2_seed(), 4)
    assert seqs == [(1, 2), (2, 1, 2)]
    for seq in seqs:
        dt_series(a2_seed(), seq, 8, CLASSICAL)
    assert calls == []


def test_malformed_inputs_raise_value_error():
    # ValueError, not an assert that `python -O` strips: an unknown
    # convention or flavor, a key of the wrong rank, a negative, bool or
    # non-int order, and a dilogarithm or monomial vector of the wrong rank,
    # with a bool or non-int entry, or not primitive
    a2 = a2_seed()
    bad = [(GradedElement, a2, 4, "foo", LIE, {}),
           (GradedElement, a2, 4, QUANTUM, "foo", {}),
           (GradedElement, a2, 4, QUANTUM, LIE, {(1, 0, 0): ONE}),
           (GradedElement, a2, 4, QUANTUM, GROUP, {(1,): ONE}),
           (dilog_group_element, a2, (1, 0, 0), 4, QUANTUM),
           (dilog_group_element, a2, (1,), 4, CLASSICAL),
           (dilog_group_element, a2, (2, 2), 4, QUANTUM),
           (dilog_group_element, a2, (1.0, 0), 4, CLASSICAL),
           (GradedElement.monomial, a2, 4, QUANTUM, (1.0, 0), ONE),
           (GradedElement.monomial, a2, 4, CLASSICAL, (True, 0), ONE)]
    bad += [(GradedElement, a2, order, QUANTUM, LIE, {}) for order in (-1, True, 2.0)]
    for conv in CONVENTIONS:
        bad.append((dilog_group_element, a2, (True, False), 4, conv))
        bad += [(build, a2, (1, 0), order, conv) for order in (-1, True, 2.5, 2.0)
                for build in (dilog_group_element, dilog_carrier)]
    for make, *args in bad:
        with pytest.raises(ValueError):
            make(*args)


def test_dilog_of_the_zero_vector_raises_value_error():
    for conv in CONVENTIONS:
        with pytest.raises(ValueError):
            dilog_group_element(a2_seed(), (0, 0), 4, conv)


CARRIER_RAYS = [(a2_seed(), ((1, 0), (0, 1), (1, 1), (1, 3))),
                (a3_seed(), ((1, 0, 0), (0, 1, 1), (1, 1, 1), (1, 2, 1))),
                (markov_seed(), ((0, 0, 1), (1, 1, 0), (2, 1, 1))),
                (kronecker_seed(2), ((1, 0), (1, 1), (2, 1), (3, 2)))]


@pytest.mark.parametrize("seed, rays", CARRIER_RAYS, ids=["a2", "a3", "markov", "kronecker2"])
def test_dilog_carrier_is_the_carrier_of_the_dilogarithm(seed, rays):
    # orders 1 to 6 include orders below |n|, where the dilogarithm is 1
    for n in rays:
        for order in range(1, 7):
            for conv in CONVENTIONS:
                assert dilog_carrier(seed, n, order, conv) == \
                    to_carrier(dilog_group_element(seed, n, order, conv)), (n, order, conv)


@pytest.mark.parametrize("n, order", [
    ((1, 0, 0), 4), ((1,), 4), ((2, 2), 4), ((0, 0), 4), ((1, -1), 4), ((-1, 0), 4),
    ((1.0, 0), 4), ((True, False), 4), ((1, 0), -1), ((1, 0), True), ((1, 0), 2.5),
    ((1, 0), 2.0)])
def test_dilog_carrier_refuses_what_the_dilogarithm_refuses(n, order):
    for conv in (*CONVENTIONS, "foo"):
        refusals = []
        for build in (dilog_group_element, dilog_carrier):
            with pytest.raises(ValueError) as info:
                build(a2_seed(), n, order, conv)
            refusals.append((info.type, str(info.value)))
        assert refusals[0] == refusals[1], (conv, refusals)
    with pytest.raises(ValueError, match="unknown convention"):
        dilog_carrier(a2_seed(), (1, 0), 4, "foo")


def _dilog(convention=QUANTUM):
    return dilog_group_element(a2_seed(), (1, 0), 3, convention)


@pytest.mark.parametrize("call, match", [
    (lambda: _dilog().add(_dilog()), "can only add lie elements"),
    (lambda: _dilog().exp(), "exp needs a lie element"),
    (lambda: _dilog().log().log(), "log needs a group element"),
    (lambda: _dilog().log().group_inverse(), "inverse needs a group element"),
    # the standard-frame pair, and the frame map with a power, are test oracles
    (lambda: standard_classical_map(_dilog(CLASSICAL)), "expects a quantum element"),
    (lambda: standard_lift_classical(_dilog()), "expects a classical element"),
    (lambda: rescale(_dilog(CLASSICAL)), "expects a quantum element"),
    (lambda: rescale(_dilog(DT_TWIST)), "expects a quantum element"),
    (lambda: rescale_power(_dilog(), 1.0), "needs an int power"),
    (lambda: rescale_power(_dilog(), True), "needs an int power"),
    # a classical or a dt element is no carrier: sigma of a dt element
    # would be read as one
    (lambda: expose(_dilog(CLASSICAL), CLASSICAL), "expects a quantum element"),
    (lambda: expose(_dilog(DT_TWIST), DT_TWIST), "expects a quantum element"),
])
def test_graded_element_refuses_the_wrong_flavor_or_convention(call, match):
    with pytest.raises(ValueError, match=match):
        call()
