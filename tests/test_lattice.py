import itertools
import json
import random
from fractions import Fraction

import pytest

from scatdiag.chambers import chamber_from_sequence
from scatdiag.lattice import (Seed, a2_seed, a3_seed, covector_to_new_basis,
                              dedupe_primitive, face_enumerate, markov_seed,
                              mutate_seed, p_star, pair, primitive,
                              rational_primitive, skew)
from scatdiag.qp import SeedWithPotential
from scatdiag.reps import (is_semistable, iq_wall_series_brute, semistable_transport_check,
                           simple_rep)
from scatdiag.scattering import (cluster_sd, factorize, mutate_sd_check, path_ordered_product,
                                 quantum_cluster_sd)
from conftest import random_skew_seed, random_rational_point
from oracles import (cone_generators, cone_interior_point, in_cone, mat_rank,
                     mutate_by_change, nullspace, reduce_ray_generators, t_k)

F = Fraction


def test_seed_validation():
    with pytest.raises(ValueError):
        Seed(((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Seed(((1, 0), (0, 1)))
    s = Seed.from_json(json.dumps({"rank": 2, "B": [[0, 1], [-1, 0]]}))
    assert s == a2_seed()


def test_skew_examples():
    assert skew(a2_seed(), (1, 0), (0, 1)) == 1
    assert skew(a2_seed(), (1, 1), (1, 1)) == 0
    assert skew(markov_seed(), (1, 0, 0), (0, 1, 0)) == 2


def test_skew_antisymmetry(rng):
    s = random_skew_seed(rng, 3)
    for _ in range(50):
        d1 = tuple(rng.randint(-4, 4) for _ in range(3))
        d2 = tuple(rng.randint(-4, 4) for _ in range(3))
        assert skew(s, d1, d2) == -skew(s, d2, d1)


def test_p_star_examples():
    assert p_star(a2_seed(), (1, 0)) == (0, 1)
    zero = Seed(((0, 0), (0, 0)))
    assert p_star(zero, (3, 5)) == (0, 0)
    assert p_star(markov_seed(), (1, 1, 1)) == (0, 0, 0)


def test_p_star_linearity(rng):
    s = random_skew_seed(rng, 3)
    for _ in range(50):
        d1 = tuple(rng.randint(-4, 4) for _ in range(3))
        d2 = tuple(rng.randint(-4, 4) for _ in range(3))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        comb = tuple(a * x + b * y for x, y in zip(d1, d2))
        want = tuple(a * x + b * y for x, y in zip(p_star(s, d1), p_star(s, d2)))
        assert p_star(s, comb) == want


def test_mutate_seed_a2():
    s, ch = mutate_seed(a2_seed(), 1, 1)
    assert ch == ((-1, 1), (0, 1))          # s'_1 = -s_1, s'_2 = s_1 + s_2
    s, ch = mutate_seed(a2_seed(), 1, -1)
    assert ch == ((-1, 0), (0, 1))          # s''_1 = -s_1, s''_2 = s_2


def test_mutate_seed_rejects_a_vertex_or_sign_that_is_not_an_int():
    # True and 1.0 compare equal to 1, but neither is a vertex or a sign
    for k, sign in ((True, 1), (1, True), (1, 1.0), (2, -1.0), (1.0, 1)):
        with pytest.raises(ValueError):
            mutate_seed(a3_seed(), k, sign)
    with pytest.raises(ValueError):
        chamber_from_sequence(a3_seed(), (True,))
    sd = cluster_sd(a2_seed(), 3)
    sd_mut = cluster_sd(mutate_seed(a2_seed(), 1, 1)[0], 3)
    with pytest.raises(ValueError):
        mutate_sd_check(sd, True, 1, sd_mut)


def _covector_call(name, m):
    """A call of the entry point `name` with the covector m on A2."""
    sd, sp = quantum_cluster_sd(a2_seed(), 3), SeedWithPotential.make(a2_seed())
    calls = {
        "phi": lambda: sd.phi(m),
        "factorize": lambda: factorize(sd.group_element(), m),
        "is_semistable": lambda: is_semistable(simple_rep(sp, 2, 1), m),
        "semistable_transport_check": lambda: semistable_transport_check(sp, 1, m),
        "iq_wall_series_brute": lambda: iq_wall_series_brute(sp, m, [(1, 1)], 2),
        "path_ordered_product": lambda: path_ordered_product(sd, m, (F(-1, 2), F(-5, 4))),
    }
    return calls[name]


@pytest.mark.parametrize("name", ["phi", "factorize", "is_semistable",
                                  "semistable_transport_check", "iq_wall_series_brute",
                                  "path_ordered_product"])
@pytest.mark.parametrize("m", [(1.0, -2.0), (True, True), (1.5, F(1, 4))],
                         ids=["float", "bool", "float-and-fraction"])
def test_a_covector_entry_that_is_not_an_int_or_a_fraction_is_refused(name, m):
    # a float covector was read by its float signs, and True as 1
    with pytest.raises(ValueError, match="must be ints or Fractions"):
        _covector_call(name, m)()


def test_mutate_seed_roundtrip(rng):
    for _ in range(100):
        n = rng.randint(2, 4)
        s = random_skew_seed(rng, n, bound=4)
        k = rng.randint(1, n)
        sp, cp = mutate_seed(s, k, 1)
        sm, cm = mutate_seed(sp, k, -1)
        assert sm == s
        # Fomin-Zelevinsky matrix mutation, the same for both signs
        kk = k - 1
        b = s.b
        fz = tuple(tuple(-b[i][j] if kk in (i, j) else b[i][j] + (
            abs(b[i][kk]) * b[kk][j] + b[i][kk] * abs(b[kk][j])) // 2
            for j in range(n)) for i in range(n))
        assert sp.b == mutate_seed(s, k, -1)[0].b == fz
        comp = tuple(tuple(sum(cp[i][t] * cm[t][j] for t in range(n))
                           for j in range(n)) for i in range(n))
        assert comp == tuple(tuple(1 if i == j else 0 for j in range(n))
                             for i in range(n))


# 250 seeded random seeds of rank 1-5, each mutated at every vertex and sign
_CHANGE_RNG = random.Random(3)
CHANGE_SEEDS = [random_skew_seed(_CHANGE_RNG, _CHANGE_RNG.randint(1, 5)) for _ in range(250)]


def _mismatches(mutated_b):
    """The (B, k, sign) at which mutated_b differs from change^T B change."""
    return [(s.b, k, sign) for s in CHANGE_SEEDS for k in range(1, s.rank + 1)
            for sign in (1, -1) if mutated_b(s, k, sign) != mutate_by_change(s, k, sign)[0]]


def test_mutate_seed_closed_form_is_the_change_of_basis():
    assert {s.rank for s in CHANGE_SEEDS} == {1, 2, 3, 4, 5}
    assert _mismatches(lambda s, k, sign: mutate_seed(s, k, sign)[0].b) == []
    assert all(mutate_seed(s, k, sign)[1] == mutate_by_change(s, k, sign)[1]
               for s in CHANGE_SEEDS for k in range(1, s.rank + 1) for sign in (1, -1))


def test_closed_form_without_the_sign_change_at_k_fails_the_change_of_basis():
    # negative control: row and column k kept instead of negated
    def unsigned(s, k, sign):
        b, kk = s.b, k - 1
        return tuple(tuple(b[i][j] if kk in (i, j) else b[i][j] + (
            abs(b[i][kk]) * b[kk][j] + b[i][kk] * abs(b[kk][j])) // 2
            for j in range(s.rank)) for i in range(s.rank))

    bad = _mismatches(unsigned)
    # it differs exactly where row k of B is not zero
    assert bad == [(s.b, k, sign) for s in CHANGE_SEEDS for k in range(1, s.rank + 1)
                   for sign in (1, -1) if any(s.b[k - 1])]
    assert bad


def test_t_k_examples():
    assert t_k(a2_seed(), 1, -1, (F(1), F(0))) == (1, 1)
    assert t_k(a2_seed(), 1, -1, (F(-1), F(0))) == (-1, 0)
    # fixes the hyperplane pointwise
    assert t_k(a2_seed(), 1, -1, (F(0), F(7))) == (0, 7)
    assert t_k(a2_seed(), 1, 1, (F(0), F(-7))) == (0, -7)


def test_t_k_inverse_through_mutated_seed(rng):
    # T_k^+ at mu_k^-(s) undoes T_k^- at s (the piecewise branches compose
    # to the identity once the half-spaces are read in the new basis); an
    # integer covector comes back as int entries
    seeds = [a2_seed(), markov_seed()] + [random_skew_seed(rng, 3) for _ in range(5)]
    for s in seeds:
        n = s.rank
        for i in range(60):
            if i % 2:
                m = random_rational_point(rng, n, span=5, den=3)
            else:
                m = tuple(rng.randint(-6, 6) for _ in range(n))
            k = rng.randint(1, n)
            sp, ch = mutate_seed(s, k, -1)
            spi, chi = mutate_seed(sp, k, 1)
            assert spi == s
            mid = covector_to_new_basis(ch, t_k(s, k, -1, m))
            back = covector_to_new_basis(chi, t_k(sp, k, 1, mid))
            assert back == m
            if i % 2 == 0:
                assert all(type(x) is int for x in back)


def test_t_k_keeps_integer_covectors_integer(rng):
    # the transform multiplies by the integer entries of B, so an integer
    # covector stays integer and equals the value over Fraction
    for s in [a2_seed(), markov_seed()] + [random_skew_seed(rng, 3) for _ in range(5)]:
        n = s.rank
        for _ in range(40):
            m = tuple(rng.randint(-6, 6) for _ in range(n))
            k = rng.randint(1, n)
            for sign in (1, -1):
                out = t_k(s, k, sign, m)
                assert all(type(x) is int for x in out)
                mk = F(m[k - 1])
                moved = mk > 0 if sign == -1 else mk < 0
                assert out == tuple(F(x) - sign * F(b) * mk * moved
                                    for x, b in zip(m, s.b[k - 1]))


def test_face_enumerate_counts():
    assert len(face_enumerate([(1, 0), (0, 1)], 2)) == 9
    assert len(face_enumerate([(1, 0), (0, 1), (1, 1)], 2)) == 13
    assert len(face_enumerate([(1, 0)], 2)) == 3
    assert len(face_enumerate([], 2)) == 1
    # proportional normals are deduplicated
    assert len(face_enumerate([(1, 0), (2, 0)], 2)) == 3


def test_face_witnesses_and_partition(rng):
    support = [(1, 0), (0, 1), (1, 1), (1, 2)]
    faces = face_enumerate(support, 2)
    for f in faces:
        for n, s in zip(f.normals, f.signs):
            w = pair(f.witness, n)
            assert (w > 0) == (s > 0) and (w < 0) == (s < 0)
    for _ in range(300):
        m = random_rational_point(rng, 2)
        hits = [f for f in faces
                if f.signs == tuple(1 if pair(m, n) > 0 else
                                    (-1 if pair(m, n) < 0 else 0)
                                    for n in f.normals)]
        assert len(hits) == 1


def test_face_enumerate_rank3(rng):
    support = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
               (1, 0, 1), (1, 1, 1), (2, 1, 0)]
    faces = face_enumerate(support, 3)
    for f in faces:
        for n, s in zip(f.normals, f.signs):
            w = pair(f.witness, n)
            assert (w > 0) == (s > 0) and (w < 0) == (s < 0)
    for _ in range(200):
        m = random_rational_point(rng, 3)
        hits = sum(1 for f in faces
                   if f.signs == tuple(1 if pair(m, n) > 0 else
                                       (-1 if pair(m, n) < 0 else 0)
                                       for n in f.normals))
        assert hits == 1


def test_cone_interior_point():
    w = cone_interior_point((1, 1), ((1, 0), (0, 1)), 2)
    assert w is not None and w[0] > 0 and w[1] > 0
    # proportional normals with opposite requested signs are infeasible
    assert cone_interior_point((1, -1), ((1, 0), (2, 0)), 2) is None
    # a rank-3 chamber of the markov support at low order
    support = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
    w = cone_interior_point((1, 1, -1, 1, 1, 1), tuple(support), 3)
    assert w is not None
    for n, s in zip(support, (1, 1, -1, 1, 1, 1)):
        val = pair(w, n)
        assert (val > 0) == (s > 0) and (val < 0) == (s < 0)


def test_face_enumerate_rank4_uses_simplex():
    fs = face_enumerate([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                         (0, 0, 0, 1)], 4)
    assert len(fs) == 81
    for f in fs:
        for n, s in zip(f.normals, f.signs):
            w = pair(f.witness, n)
            assert (w > 0) == (s > 0) and (w < 0) == (s < 0)


def test_cone_generators():
    rays, lin = cone_generators([], [(1, 0), (0, 1)], 2)
    assert rays == ((0, 1), (1, 0)) and lin == ()
    rays, lin = cone_generators([(1, 0)], [(0, 1)], 2)
    assert rays == ((0, 1),) and lin == ()
    rays, lin = cone_generators([(1, 0)], [], 2)
    assert rays == () and lin == ((0, 1),)
    rays, lin = cone_generators([], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0)) and lin == ()


def test_reduce_ray_generators():
    rays = [(1, 0), (1, 1), (0, 1), (2, 1)]
    assert reduce_ray_generators(rays, ()) == ((0, 1), (1, 0))
    assert in_cone((1, 1), [(1, 0), (0, 1)], ())
    assert not in_cone((-1, 0), [(1, 0), (0, 1)], ())
    assert in_cone((-1, 5), [(0, 1)], [(1, 0)])


def _signs(m, normals):
    return tuple((pair(m, n) > 0) - (pair(m, n) < 0) for n in normals)


def _random_arrangement(rng, dim):
    """Normals with entries in {-1, 0, 1}, so that many meet along common
    rays; some proportional, some not spanning."""
    normals = [tuple(rng.randint(-1, 1) for _ in range(dim))
               for _ in range(rng.randint(1, 7 if dim < 4 else 5))]
    if rng.random() < 0.3:
        normals.append(tuple(rng.choice((-2, -1, 2)) * x for x in normals[0]))
    if rng.random() < 0.3:      # all normals in the hyperplane x_last = 0
        normals = [n[:-1] + (0,) for n in normals]
    return normals


def _check_cone(zeros, weaks, dim):
    """cone_generators against the oracle: its rays satisfy the constraints
    and are extreme, and it holds every feasible kernel ray of a subset of
    the constraints."""
    rays, lin = cone_generators(zeros, weaks, dim)
    for r in rays + lin:
        assert all(pair(r, z) == 0 for z in zeros)
        assert all(pair(r, w) >= 0 for w in weaks)
    assert all(pair(l, w) == 0 for l in lin for w in weaks)
    assert len(lin) == len(nullspace(list(zeros) + list(weaks), dim))
    assert reduce_ray_generators(rays, lin) == rays
    for k in range(dim):
        for sub in itertools.combinations(weaks, k):
            kernel = nullspace(list(zeros) + list(sub), dim)
            if len(kernel) != len(lin) + 1:
                continue
            for b in kernel:
                for t in (b, tuple(-x for x in b)):
                    if all(pair(t, w) >= 0 for w in weaks):
                        assert in_cone(rational_primitive(t), rays, lin)
    return rays, lin


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_arrangement_against_reference(rng, dim):
    for _ in range(12 if dim < 4 else 6):
        support = _random_arrangement(rng, dim)
        faces = face_enumerate(support, dim)
        normals = faces[0].normals
        assert normals == dedupe_primitive(support)
        assert len({f.signs for f in faces}) == len(faces)
        # the open faces partition space: Euler characteristic (-1)^dim
        assert sum((-1) ** f.dim for f in faces) == (-1) ** dim
        for f in faces:
            assert _signs(f.witness, normals) == f.signs
            assert f.lineality == faces[0].lineality
            zeros = [n for n, s in zip(normals, f.signs) if s == 0]
            assert f.dim == dim - mat_rank(zeros)
            assert cone_interior_point(f.signs, normals, dim) is not None
            # the face's rays span the closed face, as cone_generators finds it
            weaks = [tuple(s * x for x in n) for n, s in zip(normals, f.signs) if s]
            rays, lin = _check_cone(zeros, weaks, dim)
            assert len(f.rays) == len(rays)
            assert all(in_cone(r, rays, lin) for r in f.rays)
            assert all(in_cone(r, f.rays, f.lineality) for r in rays)
        for _ in range(40):
            m = tuple(rng.randint(-2, 2) for _ in range(dim))
            assert sum(f.signs == _signs(m, normals) for f in faces) == 1
        # a sign vector that is not a face has no interior point
        seen = {f.signs for f in faces}
        for signs in itertools.islice(itertools.product((1, 0, -1), repeat=len(normals)), 200):
            if signs not in seen:
                assert cone_interior_point(signs, normals, dim) is None


def test_primitive_and_dedupe():
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((0, 0)) == (0, 0)
    assert dedupe_primitive([(2, 0), (1, 0), (3, 3)]) == ((1, 0), (1, 1))


@pytest.mark.parametrize("call, match", [
    (lambda: Seed(((0, 1),)), "B must be square"),
    (lambda: Seed(((0, 1, 0), (-1, 0, 0))), "B must be square"),
    (lambda: Seed.from_json({"rank": 3, "B": [[0, 1], [-1, 0]]}), "rank field disagrees"),
])
def test_seed_refuses_malformed_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
