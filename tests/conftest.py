import random
from fractions import Fraction

import pytest

from scatdiag.coeff import CoeffFn
from scatdiag.lattice import Seed, primitive
from scatdiag.torus import LIE, GradedElement


@pytest.fixture
def rng():
    return random.Random(20240)


def random_skew_seed(rng, n, bound=3):
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = rng.randint(-bound, bound)
            b[j][i] = -b[i][j]
    return Seed(tuple(map(tuple, b)))


def random_coeff(rng, size=4):
    while True:
        den = tuple(rng.randint(-4, 4) for _ in range(3))
        if any(den):
            break
    return CoeffFn(rng.randint(-3, 3),
                   tuple(rng.randint(-4, 4) for _ in range(size)), den)


def random_lie(rng, seed, conv, order, nterms=4, maxdeg=2):
    coeffs = {}
    for _ in range(nterms):
        d = tuple(rng.randint(0, maxdeg) for _ in range(seed.rank))
        if not any(d) or sum(d) > order:
            continue
        coeffs[d] = CoeffFn.from_fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return GradedElement(seed, order, conv, LIE, coeffs)


def random_initial_data(rng, seed, order, conv):
    """Initial data on up to two random rays (possibly none)."""
    eta = {}
    for _ in range(2):
        ray = tuple(rng.randint(0, 2) for _ in range(seed.rank))
        if not any(ray) or sum(ray) > order:
            continue
        ray = primitive(ray)
        lie = {}
        for k in range(1, order // sum(ray) + 1):
            if rng.random() < 0.7:
                lie[tuple(k * x for x in ray)] = \
                    CoeffFn.from_fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lie = {d: c for d, c in lie.items() if not c.is_zero()}
        if lie:
            eta[ray] = GradedElement(seed, order, conv, LIE, lie).exp()
    return eta


def random_rational_point(rng, n, span=9, den=4):
    return tuple(Fraction(rng.randint(-span, span), rng.randint(1, den))
                 for _ in range(n))
