"""The classical path in the frame x^d -> (v - 1/v)^|d| x^d.

Classical elements are carried by the frame images of their canonical
quantum lifts.  The standard-frame limit and lift of the test oracles, where
every lifted coefficient keeps its denominator in v - 1/v, are the
reference for the classical limit and the lift through the frame, for the
carrier round trip and for the classical DT series.
"""

import random

import pytest

from scatdiag import coeff, torus
from scatdiag.chambers import crossing_data, dt_series, find_green_to_red
from scatdiag.coeff import CoeffFn, ONE, PoleError
from scatdiag.lattice import a2_seed, a3_seed, kronecker_seed, markov_seed, primitive
from scatdiag.torus import (CLASSICAL, LIE, QUANTUM, GradedElement, dilog_group_element,
                            expose, rescale, to_carrier)
from conftest import random_lie, random_skew_seed
from oracles import rescale_power, standard_classical_map, standard_lift_classical

FRAME_CASES = [
    (a2_seed(), 8), (a3_seed(), 5), (kronecker_seed(2), 6), (markov_seed(), 4),
    *((random_skew_seed(random.Random(i), 3), 4) for i in (1, 2, 3))]
FRAME_IDS = ["a2-8", "a3-5", "kronecker2-6", "markov-4", "random1-4", "random2-4",
             "random3-4"]


def _ray(rng, seed):
    """A random primitive vector with entries in 0..2."""
    while True:
        d = tuple(rng.randint(0, 2) for _ in range(seed.rank))
        if any(d):
            return primitive(d)


def _sequence(rng, seed, length=4):
    """A random mutation sequence with no immediate repeat."""
    seq = []
    while len(seq) < length:
        k = rng.randint(1, seed.rank)
        if seq[-1:] != [k]:
            seq.append(k)
    return tuple(seq)


def _standard_dt_series(seed, sequence, order):
    """The classical DT series: the product of the standard lifts of the
    crossed dilogarithms, read off by the standard classical limit."""
    result = GradedElement.one(seed, order, QUANTUM)
    for n, eps in crossing_data(seed, sequence):
        value = standard_lift_classical(dilog_group_element(seed, n, order, CLASSICAL))
        result = result.mul(value if eps > 0 else value.group_inverse())
    return standard_classical_map(result)


def _frame_mismatches(seed, order, rng):
    """The comparisons with the standard frame that fail, by name."""
    classical = []
    for _ in range(2):
        lie = random_lie(rng, seed, CLASSICAL, order, nterms=5)
        classical += [lie, lie.exp()]
    classical.append(dilog_group_element(seed, _ray(rng, seed), order, CLASSICAL))
    # quantum elements with a classical limit: products of quantum
    # dilogarithms and standard lifts, and their logs
    quantum = [dilog_group_element(seed, _ray(rng, seed), order, QUANTUM)
               .mul(standard_lift_classical(c)).mul(
                   dilog_group_element(seed, _ray(rng, seed), order, QUANTUM))
               for c in classical if c.flavor == torus.GROUP]
    quantum += [g.log() for g in quantum]
    sequence = _sequence(rng, seed)
    checks = {
        "limit": all(expose(rescale(x), CLASSICAL) == standard_classical_map(x)
                     for x in quantum),
        "lift": all(rescale_power(to_carrier(c), -1) == standard_lift_classical(c)
                    for c in classical),
        "carrier": all(to_carrier(c) == rescale(standard_lift_classical(c))
                       for c in classical),
        "round trip": all(expose(to_carrier(c), CLASSICAL) == c for c in classical),
        "dt_series": dt_series(seed, sequence, order, CLASSICAL)
        == _standard_dt_series(seed, sequence, order),
    }
    return sorted(name for name, ok in checks.items() if not ok)


@pytest.mark.parametrize("seed, order", FRAME_CASES, ids=FRAME_IDS)
def test_classical_path_matches_the_standard_frame(seed, order):
    rng = random.Random(10 * order + seed.rank)
    assert _frame_mismatches(seed, order, rng) == []


def _lift_one_degree_too_high(elem):
    """A wrong framed lift: c at x^d becomes c (v - 1/v)^|d|."""
    if elem.flavor == torus.GROUP:
        return _lift_one_degree_too_high(elem.log()).exp()
    return GradedElement(elem.seed, elem.order, QUANTUM, LIE,
                         {d: c * torus._eps_power(sum(d)) for d, c in elem.coeffs.items()})


@pytest.mark.parametrize("seed, order", FRAME_CASES[:2], ids=FRAME_IDS[:2])
def test_a_lift_off_by_one_degree_fails(seed, order, monkeypatch):
    # negative control: the lift into the frame must be c (v - 1/v)^(|d|-1)
    monkeypatch.setattr(torus, "_framed_lift", _lift_one_degree_too_high)
    rng = random.Random(10 * order + seed.rank)
    assert _frame_mismatches(seed, order, rng) == ["carrier", "dt_series", "lift", "round trip"]


@pytest.mark.parametrize("seed, order", FRAME_CASES, ids=FRAME_IDS)
def test_rescale_is_an_automorphism(seed, order):
    rng = random.Random(order)
    lie = random_lie(rng, seed, QUANTUM, order, nterms=5)
    a = dilog_group_element(seed, _ray(rng, seed), order, QUANTUM).mul(lie.exp())
    b = dilog_group_element(seed, _ray(rng, seed), order, QUANTUM)
    assert rescale(a.mul(b)) == rescale(a).mul(rescale(b))
    assert rescale(lie.exp()) == rescale(lie).exp()
    assert rescale(a.log()) == rescale(a).log()
    assert rescale(a.group_inverse()) == rescale(a).group_inverse()
    assert rescale(a) == rescale_power(a, 1)
    assert rescale_power(rescale(a), -1) == a
    assert rescale_power(rescale(lie), -1) == lie


def test_eps_power_is_the_product_of_copies_of_v_minus_inverse_v():
    # CoeffFn equality compares canonical forms, so the closed form, built
    # without canonicalising, must already be in lowest terms
    eps, product = CoeffFn.v_power(1) - CoeffFn.v_power(-1), ONE
    for k in range(13):
        assert torus._eps_power(k) == product
        product = product * eps


def test_a_pole_is_named_by_the_same_key_on_both_paths():
    # the log of the group element also has no classical limit at (1, 0)
    seed = a2_seed()
    pole = ONE / (CoeffFn.v_power(1) - ONE) / (CoeffFn.v_power(1) - ONE)
    bad = GradedElement(seed, 4, QUANTUM, LIE, {(0, 1): ONE, (1, 0): pole, (1, 1): pole})
    for x in (bad, bad.exp()):
        messages = []
        for limit in (standard_classical_map, lambda y: expose(rescale(y), CLASSICAL)):
            with pytest.raises(PoleError) as info:
                limit(x)
            messages.append(str(info.value))
        assert messages == ["pole at v = 1 at x^[1, 0]"] * 2


def test_classical_dt_series_gcd_count(monkeypatch):
    # one A3 classical DT series at order 5: with the classical elements
    # carried by their standard lifts, 327 polynomial gcds had both
    # primitive operands non-constant and so ran GCDHEU; in the frame, none
    real, heuristic = coeff._pgcd, []

    def spy(a, b):
        if len(coeff._pprim(a)) > 1 and len(coeff._pprim(b)) > 1:
            heuristic.append((a, b))
        return real(a, b)

    seq = find_green_to_red(a3_seed(), 7)
    assert seq == (1, 2, 3)
    monkeypatch.setattr(coeff, "_pgcd", spy)
    dt_series(a3_seed(), seq, 5, CLASSICAL)
    assert len(heuristic) <= 327 // 5
