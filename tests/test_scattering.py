import random
from fractions import Fraction

import pytest

from scatdiag.coeff import CoeffFn, ONE, q_power, subst_neg_v
from scatdiag import scattering
from scatdiag.lattice import (Seed, a2_seed, a3_seed, covector_to_new_basis,
                              kronecker_seed, markov_seed, mutate_seed, pair,
                              primitive, rational_primitive, t_k)
from scatdiag.torus import (CLASSICAL, DT_TWIST, LIE, QUANTUM, GradedElement,
                            classical_map, dilog_group_element)
from scatdiag.scattering import (DegenerateSegmentError, ScatDiagram,
                                 _factor, central_difference, cluster_sd,
                                 complete_from_initial, dt_in_sd,
                                 endpoint_product, expose, factorize,
                                 mutate_sd_check, path_ordered_product,
                                 psi_extract,
                                 quantum_cluster_sd, to_carrier)
from conftest import random_lie, random_rational_point, random_skew_seed
from oracles import nullspace

F = Fraction
v = CoeffFn.v_power

BUILDERS = {QUANTUM: quantum_cluster_sd, CLASSICAL: cluster_sd,
            DT_TWIST: dt_in_sd}


def e1():
    return v(1) / (q_power(1) - ONE)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def test_factorize_classical_example():
    # g = exp(a x^{s1} + b x^{s2}), m = (1,0): the middle is exp(b x^{s2})
    a2 = a2_seed()
    lie = GradedElement(a2, 3, CLASSICAL, LIE,
                        {(1, 0): CoeffFn.from_int(2),
                         (0, 1): CoeffFn.from_fraction(1, 3)})
    g = lie.exp()
    lo, z, p = factorize(g, (F(1), F(0)))
    want_mid = GradedElement(a2, 3, CLASSICAL, LIE,
                             {(0, 1): CoeffFn.from_fraction(1, 3)}).exp()
    assert z == want_mid
    assert all(d[0] > 0 for d in p.coeffs)
    assert lo.coeffs == {}
    # m = 0 gives the whole element in the middle
    lo, z, p = factorize(g, (F(0), F(0)))
    assert z == g and lo.coeffs == {} and p.coeffs == {}


def test_factorize_generic_m_trivial_middle():
    a2 = a2_seed()
    sd = quantum_cluster_sd(a2, 5)
    lo, z, p = factorize(sd.group_element(), (F(3), F(1)))
    assert z.coeffs == {}


def test_factorize_remultiplies_and_signs(rng):
    for conv in (QUANTUM, CLASSICAL, DT_TWIST):
        for n in (2, 3):
            seed = random_skew_seed(rng, n)
            g = random_lie(rng, seed, conv, 5).exp()
            m = random_rational_point(rng, n, span=5, den=3)
            lo, z, p = factorize(g, m)
            back = to_carrier(lo).mul(to_carrier(z)).mul(to_carrier(p))
            assert expose(back, conv) == g
            from scatdiag.lattice import pair
            assert all(pair(m, d) < 0 for d in lo.coeffs)
            assert all(pair(m, d) == 0 for d in z.coeffs)
            assert all(pair(m, d) > 0 for d in p.coeffs)


def test_factor_forms_two_products_per_degree(monkeypatch):
    # each degree t of the split needs layer t of L*Z and of L*Z*P, nothing
    # more: the splitter keeps no log of the middle factor
    carrier = quantum_cluster_sd(a3_seed(), 5).carrier
    real, degrees = scattering._product, []

    def spy(*args, **kwargs):
        degrees.append(kwargs.get("degree"))
        return real(*args, **kwargs)

    monkeypatch.setattr(scattering, "_product", spy)
    _factor(carrier, (3, -2, 1))
    assert degrees == [t for t in range(1, 6) for _ in range(2)]


# ---------------------------------------------------------------------------
# completion: the A2 picture at low order, by hand
# ---------------------------------------------------------------------------

def test_a2_quantum_completion_order2():
    sd = quantum_cluster_sd(a2_seed(), 2)
    g = sd.group_element()
    assert g.coeffs[(1, 0)] == e1()
    assert g.coeffs[(0, 1)] == e1()
    assert g.coeffs[(1, 1)] == v(1) * e1() * e1()


def test_a2_wall_functions():
    a2 = a2_seed()
    sd = quantum_cluster_sd(a2, 6)
    # outgoing side of the (1,1) wall carries the dilogarithm series
    assert sd.phi((F(1), F(-1))) == dilog_group_element(a2, (1, 1), 6, QUANTUM)
    # incoming side (at p*(1,1)) is the identity
    assert sd.phi((F(-1), F(1))).coeffs == {}
    # initial hyperplanes carry their dilogarithms on both rays
    assert sd.phi((F(0), F(1))) == dilog_group_element(a2, (1, 0), 6, QUANTUM)
    assert sd.phi((F(0), F(-1))) == dilog_group_element(a2, (1, 0), 6, QUANTUM)
    # phi(0) is the defining element
    assert sd.phi((F(0), F(0))) == sd.group_element()


def test_a2_classical_and_dt_walls():
    a2 = a2_seed()
    sdc = cluster_sd(a2, 6)
    assert sdc.phi((F(1), F(-1))) == dilog_group_element(a2, (1, 1), 6, CLASSICAL)
    sdd = dt_in_sd(a2, 6)
    assert sdd.phi((F(1), F(-1))) == dilog_group_element(a2, (1, 1), 6, DT_TWIST)


def test_e_map_compatibility():
    # classical_map(quantum cluster diagram) = classical cluster diagram
    a2 = a2_seed()
    q = quantum_cluster_sd(a2, 6).group_element()
    c = cluster_sd(a2, 6).group_element()
    assert classical_map(q) == c


def test_dt_equals_quantum_at_minus_v():
    a2 = a2_seed()
    gq = quantum_cluster_sd(a2, 6).group_element()
    gd = dt_in_sd(a2, 6).group_element()
    assert {d: subst_neg_v(c) for d, c in gq.coeffs.items()} == gd.coeffs


def test_diagram_needs_a_quantum_carrier():
    # a ValueError, not an assert that `python -O` strips
    a2 = a2_seed()
    for conv, build in BUILDERS.items():
        sd = build(a2, 4)
        assert sd.carrier.convention == QUANTUM
        if conv != QUANTUM:
            with pytest.raises(ValueError, match="a diagram is carried in the quantum torus"):
                ScatDiagram(a2, 4, conv, sd.group_element())


def test_diagram_carrier_matches_its_seed_and_order():
    # the wall candidates and the middle-factor key sets are read from the
    # carrier, so a carrier of another seed or order must be refused
    a2_carrier = quantum_cluster_sd(a2_seed(), 6).carrier
    for seed, order in ((a3_seed(), 3), (a3_seed(), 6), (a2_seed(), 4)):
        with pytest.raises(ValueError, match="at its seed and order"):
            ScatDiagram(seed, order, QUANTUM, a2_carrier)
    assert ScatDiagram(a2_seed(), 6, QUANTUM, a2_carrier).wall_normals() == \
        quantum_cluster_sd(a2_seed(), 6).wall_normals()


def test_rank1_single_wall():
    from scatdiag.lattice import Seed
    seed = Seed(((0,),))
    sd = quantum_cluster_sd(seed, 5)
    assert sd.group_element() == dilog_group_element(seed, (1,), 5, QUANTUM)
    mc = sd.minimal_complex()
    assert len(mc.chambers()) == 2 and len(mc.walls()) == 1


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_psi_extract_cluster_data():
    a2 = a2_seed()
    sd = quantum_cluster_sd(a2, 6)
    eta = psi_extract(sd)
    assert eta == {(1, 0): dilog_group_element(a2, (1, 0), 6, QUANTUM),
                   (0, 1): dilog_group_element(a2, (0, 1), 6, QUANTUM)}


@pytest.mark.parametrize("conv", [QUANTUM, CLASSICAL, DT_TWIST])
@pytest.mark.parametrize("seed,order", [(a3_seed(), 5), (markov_seed(), 4),
                                        (kronecker_seed(3), 5)],
                         ids=["a3", "markov", "kronecker3"])
def test_psi_extract_cluster_diagrams(seed, order, conv):
    # psi inverts completion on the cluster diagrams, B with a kernel included
    eta = {n: dilog_group_element(seed, n, order, conv)
           for n in scattering._unit_rays(seed)}
    assert psi_extract(BUILDERS[conv](seed, order)) == eta


def test_psi_extract_identity_and_central():
    a2 = a2_seed()
    assert psi_extract(GradedElement.one(a2, 6, QUANTUM)) == {}
    # supported on the ray through (1,1): the middle factor at p*(1,1) is g
    g = GradedElement(a2, 6, QUANTUM, LIE, {(1, 1): ONE}).exp()
    eta = psi_extract(g)
    assert eta == {(1, 1): g}
    # a Lie element is no diagram: 0 + x must not be read as 1 + x
    with pytest.raises(ValueError):
        psi_extract(GradedElement(a2, 4, QUANTUM, LIE, {(1, 0): ONE}))


def test_single_ray_completion_is_itself():
    a2 = a2_seed()
    eta = {(1, 0): dilog_group_element(a2, (1, 0), 6, QUANTUM)}
    sd = complete_from_initial(eta, a2, 6, QUANTUM)
    assert sd.group_element() == eta[(1, 0)]
    # all-identity data gives the identity
    assert complete_from_initial({}, a2, 6, QUANTUM).group_element() == \
        GradedElement.one(a2, 6, QUANTUM)


def test_psi_roundtrip_random(rng):
    for trial in range(24):
        n = rng.choice([2, 2, 3])
        seed = random_skew_seed(rng, n)
        conv = rng.choice([QUANTUM, CLASSICAL, DT_TWIST])
        order = 6
        eta = {}
        for _ in range(2):
            ray = tuple(rng.randint(0, 2) for _ in range(n))
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
        if not eta:
            continue
        sd = complete_from_initial(eta, seed, order, conv)
        assert psi_extract(sd) == eta


# ---------------------------------------------------------------------------
# minimal complex
# ---------------------------------------------------------------------------

def test_a2_minimal_complex():
    sd = quantum_cluster_sd(a2_seed(), 6)
    mc = sd.minimal_complex()
    assert len(mc.chambers()) == 5
    walls = mc.walls()
    assert len(walls) == 5
    ray_dirs = sorted(w.rays[0] for w in walls)
    assert ray_dirs == [(-1, 0), (0, -1), (0, 1), (1, -1), (1, 0)]
    assert all(len(w.rays) == 1 and not w.lineality for w in walls)


def test_wall_plane_basis_is_the_rational_kernel(rng):
    # the integer basis of n-perp, read off the lineality of one cut, is the
    # one Gaussian elimination finds, made primitive: the same witnesses
    for _ in range(500):
        r = rng.randint(2, 5)
        n = primitive(tuple(rng.randint(-4, 4) for _ in range(r)))
        if any(n):
            assert list(scattering._WallPlane(n, ()).basis) == \
                [rational_primitive(b) for b in nullspace([n], r)]


def test_walls_when_the_other_candidates_cut_one_line():
    # A2 + A1 with walls only on the A2 side: every candidate plane n-perp
    # contains the line of (0, 0, 1), and the other candidates cut it only
    # along that line, into two half-planes
    seed = Seed(((0, 1, 0), (-1, 0, 0), (0, 0, 0)))
    for conv in (QUANTUM, CLASSICAL):
        for order in (3, 4, 5):
            eta = {n: dilog_group_element(seed, n, order, conv)
                   for n in ((1, 0, 0), (0, 1, 0))}
            sd = complete_from_initial(eta, seed, order, conv)
            assert sd.wall_normals() == ((0, 1, 0), (1, 0, 0), (1, 1, 0))
    mc = sd.minimal_complex()
    assert len(mc.chambers()) == 5 and len(mc.walls()) == 5
    assert all(c.lineality == ((0, 0, 1),) for c in mc.cells)


A3 = Seed(((0, 1, 0), (-1, 0, 1), (0, -1, 0)))
A4 = Seed(((0, 1, 0, 0), (-1, 0, 1, 0), (0, -1, 0, 1), (0, 0, -1, 0)))
D4 = Seed(((0, 1, 0, 0), (-1, 0, -1, -1), (0, 1, 0, 0), (0, 1, 0, 0)))
CYCLE3 = Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0)))


def test_a4_walls_are_the_positive_roots():
    # the candidates of degree <= 2 are the 4 simple and 6 pair sums; only
    # the 7 positive roots carry walls
    sd = quantum_cluster_sd(A4, 2)
    assert len(sd.candidate_normals()) == 10
    assert sd.wall_normals() == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1),
                                 (0, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 0),
                                 (1, 1, 0, 0))


WALL_CASES = [
    (Seed(((0,),)), QUANTUM, 4),
    (a2_seed(), QUANTUM, 5),
    (a2_seed(), CLASSICAL, 4),
    (A3, QUANTUM, 3),
    (markov_seed(), QUANTUM, 3),
    (Seed(((0, 1, 0), (-1, 0, 0), (0, 0, 0))), QUANTUM, 4),
    (CYCLE3, CLASSICAL, 3),
    (A4, QUANTUM, 2),
    # walls above the lowest degree, whose planes later walls may cut
    (A3, QUANTUM, 4),
    (CYCLE3, QUANTUM, 4),
    (Seed(((0, 1, 1), (-1, 0, 1), (-1, -1, 0))), CLASSICAL, 4),
    (D4, QUANTUM, 2),
]


@pytest.mark.parametrize("case", range(len(WALL_CASES)))
def test_wall_normals_match_the_full_arrangement(case):
    # reference route: n is a wall exactly when some face of the full
    # candidate arrangement whose only zero sign is at n has a nontrivial
    # middle factor (there it is supported on the ray of n alone)
    from scatdiag.lattice import face_enumerate
    seed, conv, order = WALL_CASES[case]
    sd = BUILDERS[conv](seed, order)
    candidates = sd.candidate_normals()
    walls = set()
    for face in face_enumerate(candidates, seed.rank):
        zeros = [n for n, s in zip(face.normals, face.signs) if s == 0]
        if len(zeros) == 1 and sd.phi(face.witness).coeffs:
            walls.add(zeros[0])
    assert sd.wall_normals() == tuple(n for n in candidates if n in walls)


@pytest.mark.parametrize("seed, conv", [(A3, QUANTUM), (CYCLE3, QUANTUM),
                                        (A3, CLASSICAL)],
                         ids=["a3", "3-cycle", "a3-classical"])
def test_wall_witnesses_avoid_every_other_candidate(seed, conv, monkeypatch):
    # each ray test sits inside one face of the full candidate arrangement,
    # so the middle factor there lives on the ray of n: the wall test reads
    # it whole, with no filter on the ray
    from scatdiag.lattice import pair
    sd = BUILDERS[conv](seed, 4)
    candidates = sd.candidate_normals()
    calls = []
    phi = ScatDiagram.phi

    def spy(self, m):
        # the ray under test is the one candidate that m pairs to zero
        n, = (d for d in candidates if pair(m, d) == 0)
        calls.append((m, n))
        return phi(self, m)
    monkeypatch.setattr(ScatDiagram, "phi", spy)
    sd.wall_normals()
    monkeypatch.undo()
    assert calls
    for m, n in calls:
        assert pair(m, n) == 0
        assert all(pair(m, d) != 0 for d in candidates if d != n)
        assert all(primitive(d) == n for d in sd.phi(m).coeffs)


def test_a_wall_confirmed_on_a_retest(monkeypatch):
    # x^(1,2) and x^(2,1) scatter into the ray of (1,1) at degree 6 only, on
    # one side of the line that (1,2) and (2,1) cut out of (1,1)-perp; the
    # first test of (1,1) comes before they are confirmed and misses it
    from scatdiag.lattice import pair
    a2 = a2_seed()
    eta = {n: GradedElement(a2, 6, QUANTUM, LIE, {n: ONE}).exp()
           for n in ((1, 2), (2, 1))}
    sd = complete_from_initial(eta, a2, 6, QUANTUM)
    assert sd.phi((F(-1), F(1))).coeffs == {}
    assert (3, 3) in sd.phi((F(1), F(-1))).coeffs
    candidates = sd.candidate_normals()
    results = []
    phi = ScatDiagram.phi

    def spy(self, m):
        n, = (d for d in candidates if pair(m, d) == 0)
        value = phi(self, m)
        results.append((n, bool(value.coeffs)))
        return value
    monkeypatch.setattr(ScatDiagram, "phi", spy)
    assert sd.wall_normals() == ((1, 1), (1, 2), (2, 1))
    assert [r for n, r in results if n == (1, 1)] == [False, True]


@pytest.mark.parametrize("order, cap", [(5, 350), (6, 500)])
def test_wall_detection_factorization_count(order, cap, monkeypatch):
    from scatdiag import scattering
    sd = quantum_cluster_sd(A3, order)
    runs = []
    run = scattering._FactorizationState.run

    def counted(self, g):
        runs.append(self.m)
        return run(self, g)
    monkeypatch.setattr(scattering._FactorizationState, "run", counted)
    assert sd.wall_normals() == ((0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0),
                                 (1, 1, 0), (1, 1, 1))
    assert len(runs) <= cap


@pytest.mark.parametrize("seed, conv, order",
                         [(markov_seed(), QUANTUM, 3), (A3, CLASSICAL, 4)],
                         ids=["markov-quantum-3", "a3-classical-4"])
def test_full_dimensional_faces_are_identity(seed, conv, order):
    # the complex gives these faces the identity without factoring; the
    # public phi must agree at every witness
    sd = BUILDERS[conv](seed, order)
    mc = sd.minimal_complex()
    full = [f for f in mc.faces if 0 not in f.signs]
    assert full
    for f in full:
        assert sd.phi(f.witness).coeffs == {}
        assert mc.locate(f.witness).function is None


def _down_set(sd, m):
    """The zero key and the support-closure keys below a closure key on m-perp."""
    from scatdiag.lattice import pair
    on_perp = [s for s in sd._support_closure() if pair(m, s) == 0]
    return {(0,) * sd.seed.rank} | {
        d for d in sd._support_closure()
        if any(all(a <= b for a, b in zip(d, s)) for s in on_perp)}


@pytest.mark.parametrize("conv", [QUANTUM, CLASSICAL, DT_TWIST])
@pytest.mark.parametrize("seed, order",
                         [(a2_seed(), 6), (A3, 4), (kronecker_seed(), 5),
                          (markov_seed(), 3)],
                         ids=["a2", "a3", "kronecker", "markov"])
def test_middle_factor_matches_the_unrestricted_factorization(seed, order, conv):
    # the wall function factors modulo the monomials outside the down-set
    # of the closure keys on m-perp; the full factorization is its oracle
    from scatdiag.lattice import pair
    rng = random.Random(17)
    sd = BUILDERS[conv](seed, order)
    rank = seed.rank
    points = [f.witness for f in sd.minimal_complex().faces if 0 in f.signs]
    points.append((F(0),) * rank)
    for _ in range(4):
        points.append(random_rational_point(rng, rank))
    for n in sd.wall_normals():
        m = random_rational_point(rng, rank)
        points.append(tuple(x - F(pair(m, n), pair(n, n)) * y for x, y in zip(m, n)))
    control = False
    for m in points:
        want = _factor(sd.carrier, m)[1]
        assert sd._middle(m).coeffs == want
        keys = _down_set(sd, m)
        assert _factor(sd.carrier, m, keys)[1] == want
        # negative control: drop one key below a key of the middle factor,
        # so the set is no down-set, until the value changes once
        below = [d for d in keys if any(d) and d not in want and
                 any(all(a <= b for a, b in zip(d, s)) for s in want)]
        control = control or any(_factor(sd.carrier, m, keys - {d})[1] != want
                                 for d in below)
    assert control


def test_minimal_complex_partition(rng):
    sd = quantum_cluster_sd(a2_seed(), 6)
    mc = sd.minimal_complex()
    for _ in range(150):
        m = random_rational_point(rng, 2)
        cell = mc.locate(m)
        val = sd.phi(m)
        if cell.function is None:
            assert val.coeffs == {}
        else:
            assert val == cell.function


def test_identity_diagram_complex():
    sd = ScatDiagram.from_group_element(GradedElement.one(a2_seed(), 4, QUANTUM))
    mc = sd.minimal_complex()
    assert len(mc.cells) == 1 and mc.cells[0].dim == 2


def test_project_face_functor(rng):
    # composition law on incident triples of the A2 arrangement: moving a
    # face value to f1 and then to f2 equals moving it to f2 directly
    from scatdiag.lattice import face_enumerate
    a2 = a2_seed()
    g = random_lie(rng, a2, QUANTUM, 5).exp()
    faces = face_enumerate([(1, 0), (0, 1), (1, 1)], 2)
    zero_face = next(f for f in faces if all(s == 0 for s in f.signs))
    g0 = factorize(g, zero_face.witness)[1]
    count = 0
    for f1 in faces:
        if not zero_face.is_face_of(f1):
            continue
        for f2 in faces:
            if not f1.is_face_of(f2):
                continue
            via = factorize(factorize(g0, f1.witness)[1], f2.witness)[1]
            assert via == factorize(g0, f2.witness)[1]
            count += 1
    assert count > 5


# ---------------------------------------------------------------------------
# path-ordered products
# ---------------------------------------------------------------------------

def test_path_product_c_plus_to_c_minus():
    for conv, build in BUILDERS.items():
        sd = build(a2_seed(), 6)
        p = path_ordered_product(sd, (F(2), F(1)), (F(-1), F(-2)))
        assert p == sd.group_element()
        assert endpoint_product(sd, (F(2), F(1)), (F(-1), F(-2))) == p


def test_path_product_trivial_and_errors():
    sd = quantum_cluster_sd(a2_seed(), 6)
    assert path_ordered_product(sd, (F(2), F(1)), (F(2), F(1))).coeffs == {}
    with pytest.raises(ValueError):
        path_ordered_product(sd, (F(0), F(1)), (F(1), F(1)))
    with pytest.raises(DegenerateSegmentError):
        path_ordered_product(sd, (F(2), F(1)), (F(-2), F(-1)))


def test_covector_of_wrong_length_rejected():
    sd = quantum_cluster_sd(a2_seed(), 4)
    for m in ((F(1),), (F(1), F(0), F(5))):
        with pytest.raises(ValueError):
            sd.phi(m)
        with pytest.raises(ValueError):
            factorize(sd.group_element(), m)


def test_endpoint_independence(rng):
    for conv, build in BUILDERS.items():
        sd = build(a2_seed(), 6)
        done = 0
        while done < 8:
            a = random_rational_point(rng, 2, span=9, den=3)
            b = random_rational_point(rng, 2, span=9, den=3)
            try:
                p = path_ordered_product(sd, a, b)
            except (ValueError, DegenerateSegmentError):
                continue
            assert p == endpoint_product(sd, a, b)
            done += 1


# ---------------------------------------------------------------------------
# mutation and centrality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("conv", [QUANTUM, CLASSICAL, DT_TWIST])
def test_mutation_check_a2(conv):
    sd = BUILDERS[conv](a2_seed(), 5)
    for k in (1, 2):
        for sign in (1, -1):
            seed2, _ = mutate_seed(a2_seed(), k, sign)
            sd2 = BUILDERS[conv](seed2, 5)
            report = mutate_sd_check(sd, k, sign, sd2)
            assert report.passed and report.checked, report.failures[:2]


@pytest.mark.parametrize("seed", [a2_seed(), a3_seed(), markov_seed()],
                         ids=["a2", "a3", "markov"])
def test_pulled_back_normals_pair_as_their_images(seed, rng):
    # on each half-space of s_k-perp, pair(m, n) = pair(image(m), n')
    rank = seed.rank
    normals = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(6)]
    for k in range(1, rank + 1):
        for sign in (1, -1):
            _, change = mutate_seed(seed, k, sign)
            pulled = scattering._pulled_back(seed, k, sign, change, normals)
            for s, side in ((0, sign), (sign, -sign)):
                done = 0
                while done < 8:
                    m = random_rational_point(rng, rank)
                    if m[k - 1] * side <= 0:
                        continue
                    image = covector_to_new_basis(change, t_k(seed, k, sign, m))
                    assert [pair(m, n) for n in pulled[s]] == \
                        [pair(image, n) for n in normals], (k, sign, s, m)
                    done += 1


@pytest.mark.parametrize("seed,order", [(a2_seed(), 6), (a3_seed(), 5),
                                        (kronecker_seed(), 6), (markov_seed(), 4)],
                         ids=["a2", "a3", "kronecker", "markov"])
def test_mutation_check_rejects_a_corrupted_diagram(seed, order):
    # the mutated diagram times exp(x^(1,...,1)) fails at every (k, sign),
    # each failure naming a face witness and a key where the sides differ
    sd = quantum_cluster_sd(seed, order)
    kinds = {"equal-side", "transported-side", "wall", "wall-mutated"}
    for k in range(1, seed.rank + 1):
        for sign in (1, -1):
            seed2, _ = mutate_seed(seed, k, sign)
            g = quantum_cluster_sd(seed2, order).group_element()
            bump = GradedElement.monomial(seed2, order, QUANTUM, (1,) * seed.rank, ONE)
            report = mutate_sd_check(sd, k, sign,
                                     ScatDiagram.from_group_element(g.mul(bump.exp())))
            assert not report.passed and report.failures, (k, sign)
            for kind, m, key in report.failures:
                assert kind in kinds and len(m) == len(key) == seed.rank, (k, sign)


def test_mutation_check_compares_each_wall_with_the_dilogarithm():
    # x^(order * s_k) is central at the truncation order, so exp of it
    # changes the wall function on s_k-perp and nothing else
    order = 4

    def bumped(sd, k):
        d = tuple(order if i == k - 1 else 0 for i in range(2))
        bump = GradedElement.monomial(sd.seed, order, QUANTUM, d, ONE).exp()
        return ScatDiagram.from_group_element(sd.group_element().mul(bump))

    sd = quantum_cluster_sd(a2_seed(), order)
    for k in (1, 2):
        for sign in (1, -1):
            sd2 = quantum_cluster_sd(mutate_seed(a2_seed(), k, sign)[0], order)
            for (a, b), kind in (((bumped(sd, k), sd2), "wall"),
                                 ((sd, bumped(sd2, k)), "wall-mutated")):
                report = mutate_sd_check(a, k, sign, b)
                assert {f[0] for f in report.failures} == {kind}, (k, sign)


def test_mutation_check_rejects_wrong_seed():
    sd = quantum_cluster_sd(a2_seed(), 4)
    with pytest.raises(ValueError):
        mutate_sd_check(sd, 1, 1, sd)


def test_central_difference():
    a2 = a2_seed()
    sd1 = quantum_cluster_sd(a2, 6)
    rep = central_difference(sd1, quantum_cluster_sd(a2, 6))
    assert rep.central and rep.element.coeffs == {}
    pert = GradedElement(a2, 6, QUANTUM, LIE, {(1, 2): ONE}).exp()
    sd3 = ScatDiagram.from_group_element(sd1.group_element().mul(pert))
    rep = central_difference(sd1, sd3)
    assert not rep.central and rep.witness[0] == (1, 2)


def test_central_difference_markov_center():
    mk = markov_seed()
    sd = quantum_cluster_sd(mk, 4)
    c = GradedElement(mk, 4, QUANTUM, LIE, {(1, 1, 1): ONE}).exp()
    sd2 = ScatDiagram.from_group_element(sd.group_element().mul(c))
    rep = central_difference(sd, sd2)
    assert rep.central and rep.element.coeffs == {(1, 1, 1): ONE}


def test_mutation_invariance_of_central_comparison():
    # the comparison survives mutation: central (here: trivial, since A2 and
    # A3 have trivial ker p*) before iff central after rebuilding both
    # diagrams from the mutated seed
    from scatdiag.lattice import a3_seed
    for seed in (a2_seed(), a3_seed()):
        sd1 = quantum_cluster_sd(seed, 4)
        sd2 = quantum_cluster_sd(seed, 4)
        assert central_difference(sd1, sd2).central
        for k in range(1, seed.rank + 1):
            s2, _ = mutate_seed(seed, k, -1)
            m1 = quantum_cluster_sd(s2, 4)
            m2 = quantum_cluster_sd(s2, 4)
            assert central_difference(m1, m2).central
