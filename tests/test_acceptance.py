"""Acceptance suite: one test per criterion, exact (tolerance-zero) checks.

Each test prints a single PASS line with its timing; stated wall-clock
budgets are asserted.  Run with `pytest -s tests/test_acceptance.py` to see
the per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest

from scatdiag.lattice import (Seed, a2_seed, a3_seed, apply_change_to_dimvec,
                              kronecker_seed, markov_seed, pair)
from scatdiag.torus import (CLASSICAL, DT_TWIST, LIE, QUANTUM, GradedElement,
                            dilog_group_element)
from scatdiag.scattering import (DegenerateSegmentError, ScatDiagram,
                                 central_difference, cluster_sd,
                                 complete_from_initial, dt_in_sd,
                                 endpoint_product, mutation_suite,
                                 path_ordered_product, psi_extract,
                                 quantum_cluster_sd)
from scatdiag.qp import Potential, SeedWithPotential, is_k_mutable, mutate_qp, quiver_from_seed
from scatdiag.chambers import (dt_series, enumerate_chambers,
                               enumerate_green_to_red, find_green_to_red, pentagon_suite)
from scatdiag.reps import (_dimension_vectors, at_prime, enumerate_reps, iq_wall_series,
                           reflect, semistable_transport_check, simple_rep)
from conftest import random_initial_data, random_skew_seed
from oracles import hom_dimension, is_isomorphic, lifted_cluster_sd, rebase_rep

F = Fraction

SEEDS = {"a2": a2_seed(), "a3": a3_seed(), "kronecker": kronecker_seed(),
         "markov": markov_seed()}


def _report(name, elapsed, extra=""):
    print("ACCEPTANCE %-28s PASS  (%.1fs)%s" % (name, elapsed, extra))


def _chamber_point(rng, sd, span=40):
    normals = sd.wall_normals()
    while True:
        m = tuple(F(rng.randint(-span, span), rng.randint(1, 3))
                  for _ in range(sd.seed.rank))
        if all(pair(m, n) != 0 for n in normals):
            return m


def test_criterion_01_psi_roundtrip():
    rng = random.Random(101)
    t0 = time.time()
    done = 0
    while done < 50:
        n = rng.choice([2, 2, 3])
        seed = random_skew_seed(rng, n)
        conv = rng.choice([QUANTUM, CLASSICAL, DT_TWIST])
        eta = random_initial_data(rng, seed, 8, conv)
        if not eta:
            continue
        sd = complete_from_initial(eta, seed, 8, conv)
        assert psi_extract(sd) == eta
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0, "psi roundtrip exceeded 30 s: %.1fs" % elapsed
    _report("1 psi-roundtrip (50x D=8)", elapsed)


def test_criterion_02_consistency():
    rng = random.Random(102)
    t0 = time.time()
    total = 0
    for name, seed in SEEDS.items():
        sd = quantum_cluster_sd(seed, 6)
        done = 0
        while done < 20:
            a = _chamber_point(rng, sd)
            b = _chamber_point(rng, sd)
            try:
                p = path_ordered_product(sd, a, b)
            except (ValueError, DegenerateSegmentError):
                continue
            assert p == endpoint_product(sd, a, b), (name, a, b)
            done += 1
            total += 1
    _report("2 consistency (4 seeds x20)", time.time() - t0,
            "  %d endpoint pairs" % total)


def test_criterion_03_a2_structure():
    t0 = time.time()
    sdq = quantum_cluster_sd(a2_seed(), 8)
    mc = sdq.minimal_complex()
    assert len(mc.chambers()) == 5
    assert len(mc.walls()) == 5
    assert sdq.phi((F(1), F(-1))) == \
        dilog_group_element(a2_seed(), (1, 1), 8, QUANTUM)
    sdc = cluster_sd(a2_seed(), 8)
    assert sdc.phi((F(1), F(-1))) == \
        dilog_group_element(a2_seed(), (1, 1), 8, CLASSICAL)
    _report("3 A2 structure (D=8)", time.time() - t0)


def test_criterion_04_pentagon():
    t0 = time.time()
    report, seqs = pentagon_suite(a2_seed(), 4, 10, CLASSICAL, False)
    assert sorted(len(s) for s in seqs) == [2, 3]
    assert report.passed and report.checked == 1, report.failures
    sd = cluster_sd(a2_seed(), 10)
    assert dt_series(a2_seed(), seqs[0], 10, CLASSICAL) == sd.phi((F(0), F(0)))
    elapsed = time.time() - t0
    assert elapsed < 10.0, "pentagon exceeded 10 s: %.1fs" % elapsed
    _report("4 pentagon / dt_series (I_10)", elapsed)


A4 = Seed(((0, 1, 0, 0), (-1, 0, 1, 0), (0, -1, 0, 1), (0, 0, -1, 0)))


@pytest.mark.parametrize("seed, order", [(a3_seed(), 5), (A4, 4)], ids=["a3-5", "a4-4"])
def test_criterion_04_classical_dt_series_is_phi0(seed, order):
    # two routes through the frame: the product of the framed lifts of the
    # crossed dilogarithms, and the factorization at 0 of the frame image of
    # the quantum diagram's carrier
    t0 = time.time()
    seq = find_green_to_red(seed, 2 * seed.rank)
    assert seq is not None
    zero = (F(0),) * seed.rank
    assert dt_series(seed, seq, order, CLASSICAL) == cluster_sd(seed, order).phi(zero)
    _report("4 dt_series = phi(0) (rank %d)" % seed.rank, time.time() - t0)


def test_criterion_05_mutation_theorem():
    t0 = time.time()
    for name, seed in SEEDS.items():
        reports = mutation_suite(seed, 6, QUANTUM, False)
        assert len(reports) == 2 * seed.rank, name
        for (k, sign), report in reports.items():
            assert report.passed, (name, k, sign, report.failures[:2])
    elapsed = time.time() - t0
    assert elapsed < 120.0, "mutation checks exceeded 2 min: %.1fs" % elapsed
    _report("5 mutation theorem (D=6)", elapsed)


def test_criterion_06_chamber_counts():
    t0 = time.time()
    assert len(enumerate_chambers(a2_seed(), 5)) == 5
    assert len(enumerate_chambers(a3_seed(), 9)) == 14
    k2 = enumerate_chambers(kronecker_seed(), 6)
    keys = [n.key() for n in k2]
    assert len(keys) == len(set(keys))
    for node in enumerate_chambers(markov_seed(), 6):
        for r in node.generators:
            assert sum(r) >= 0, (node.sequence, r)
    _report("6 chamber counts", time.time() - t0)


def test_criterion_07_green_to_red():
    t0 = time.time()
    lengths = sorted(len(s) for s in enumerate_green_to_red(a2_seed(), 4))
    assert lengths == [2, 3]
    assert find_green_to_red(a3_seed(), 7) is not None
    assert find_green_to_red(markov_seed(), 8) is None
    elapsed = time.time() - t0
    assert elapsed < 60.0, "green-to-red exceeded 1 min: %.1fs" % elapsed
    _report("7 green-to-red search", elapsed)


def test_criterion_08_qp_involution():
    rng = random.Random(108)
    t0 = time.time()
    done = 0
    while done < 100:
        n = rng.randint(2, 4)
        seed = random_skew_seed(rng, n, bound=3)
        quiver = quiver_from_seed(seed)
        k = rng.randint(1, n)
        if not is_k_mutable(quiver, Potential.zero(), k):
            continue
        q1, w1 = mutate_qp(quiver, Potential.zero(), k)
        q2, w2 = mutate_qp(q1, w1, k)
        assert q2.arrow_count_multiset() == quiver.arrow_count_multiset()
        done += 1
    # exact potential restoration on the 3-cycle family
    from scatdiag.qp import Quiver
    cyc = Quiver(3, (("a", 1, 2), ("b", 2, 3), ("c", 3, 1)))
    w = Potential.make(cyc, {("a", "b", "c"): 1})
    q1, w1 = mutate_qp(cyc, w, 2)
    q2, w2 = mutate_qp(q1, w1, 2)
    assert q2.arrow_count_multiset() == cyc.arrow_count_multiset()

    def vertex_form(quiver, pot):
        out = {}
        for word, c in pot.terms:
            path = tuple(quiver.arrow(a)[1] for a in word)
            key = min(path[i:] + path[:i] for i in range(len(path)))
            out[key] = out.get(key, F(0)) + c
        return out

    assert vertex_form(q2, w2) == vertex_form(cyc, w)
    _report("8 QP involution (100x)", time.time() - t0)


def test_criterion_09_reflection_suite():
    t0 = time.time()
    cases = [SeedWithPotential.make(a2_seed()),
             SeedWithPotential.make(Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0))),
                                    {("a1_2_1", "a2_3_1", "a3_1_1"): 1})]
    for sp in cases:
        n = sp.seed.rank
        for k in range(1, n + 1):
            sk = simple_rep(sp, 2, k)
            # Thm 4.10(ii): the functor kills the simple at k
            out, _, _ = reflect(sk, k, 1)
            assert not any(out.dims)
            out, _, _ = reflect(sk, k, -1)
            assert not any(out.dims)
            # (iv)+(v) on every rep of total dim <= 3 over F_2
            for dims in _dimension_vectors(n, 3):
                for r in enumerate_reps(sp, dims, 2):
                    if hom_dimension(sk, r) == 0:
                        fwd, _, ch = reflect(r, k, 1)
                        assert apply_change_to_dimvec(ch, fwd.dims) == r.dims
                        back, _, _ = reflect(fwd, k, -1)
                        assert is_isomorphic(rebase_rep(back, sp), r)
            # Prop 4.13 transport, both side choices of m
            m = tuple(F(3) if j == k - 1 else F(-1) for j in range(n))
            rep = semistable_transport_check(sp, k, m, max_total_dim=3, p=2)
            assert rep.passed and rep.checked
            m2 = tuple(-x for x in m)
            rep = semistable_transport_check(sp, k, m2, max_total_dim=3, p=2)
            assert rep.passed
            # no nonzero d of total <= 3 has m(d) = 0 for the m above, so
            # every verdict there is False; +-(e_k - e_{k+1}) vanishes on
            # some, so semistable verdicts are compared too
            m3 = tuple(F((j == k - 1) - (j == k % n)) for j in range(n))
            for m in (m3, tuple(-x for x in m3)):
                rep = semistable_transport_check(sp, k, m, max_total_dim=3, p=2)
                assert rep.passed and rep.checked
    elapsed = time.time() - t0
    assert elapsed < 300.0, "reflection suite exceeded 5 min: %.1fs" % elapsed
    _report("9 reflection functors (F_2)", elapsed)


def test_criterion_10_counting_oracle():
    t0 = time.time()
    seed = kronecker_seed()
    sp = SeedWithPotential.make(seed)
    m = (F(1), F(-1))
    wall = quantum_cluster_sd(seed, 6).phi(m)
    series = iq_wall_series(sp, m, 6)
    assert series == wall
    for p in (2, 3, 5):
        got = at_prime(series, p)
        for k in (1, 2, 3):
            d = (k, k)
            assert got.coeffs[d].eval_at_sqrt(p) == \
                wall.coeffs[d].eval_at_sqrt(p), (p, k)
    # the single-simple wall reproduces the dilogarithm coefficients
    a2 = SeedWithPotential.make(a2_seed())
    want = dilog_group_element(a2_seed(), (1, 0), 3, QUANTUM)
    for p in (2, 3, 5):
        got = at_prime(iq_wall_series(a2, (F(0), F(1)), 3), p)
        for k in (1, 2, 3):
            assert got.coeffs[(k, 0)].eval_at_sqrt(p) == \
                want.coeffs[(k, 0)].eval_at_sqrt(p)
    elapsed = time.time() - t0
    assert elapsed < 600.0, "counting oracle exceeded 10 min: %.1fs" % elapsed
    _report("10 counting oracle (p=2,3,5)", elapsed)


def test_criterion_11_dt_twist():
    t0 = time.time()
    for seed in (a2_seed(), a3_seed()):
        mc_dt = dt_in_sd(seed, 6).minimal_complex()
        # the classical side completed on its own: cluster_sd is a view
        # of the quantum carrier that dt_in_sd views too
        mc_cl = lifted_cluster_sd(seed, 6).minimal_complex()
        assert mc_dt.normals == mc_cl.normals
        chambers_dt = {frozenset(c.rays) for c in mc_dt.chambers()}
        chambers_cl = {frozenset(c.rays) for c in mc_cl.chambers()}
        assert chambers_dt == chambers_cl
        walls_dt = {(c.normal, c.rays, c.lineality) for c in mc_dt.walls()}
        walls_cl = {(c.normal, c.rays, c.lineality) for c in mc_cl.walls()}
        assert walls_dt == walls_cl
        # full poset: cells with their member faces coincide
        cells_dt = {(c.dim, frozenset(c.faces)) for c in mc_dt.cells}
        cells_cl = {(c.dim, frozenset(c.faces)) for c in mc_cl.cells}
        assert cells_dt == cells_cl
    # twisted dt series along a green-to-red sequence equals twisted phi(0)
    for seed, depth in ((a2_seed(), 4), (a3_seed(), 5)):
        seq = find_green_to_red(seed, depth)
        sd = dt_in_sd(seed, 6)
        zero = tuple(F(0) for _ in range(seed.rank))
        assert dt_series(seed, seq, 6, DT_TWIST) == sd.phi(zero)
    _report("11 dt-twist machinery (D=6)", time.time() - t0)


def test_criterion_12_centrality_tooling():
    t0 = time.time()
    # pairs known equal: the diagram of the twisted dt series vs dt_in_sd
    for seed, depth in ((a2_seed(), 4), (a3_seed(), 5)):
        seq = find_green_to_red(seed, depth)
        sd1 = dt_in_sd(seed, 6)
        sd2 = ScatDiagram.from_group_element(dt_series(seed, seq, 6, DT_TWIST))
        rep, quotient = central_difference(sd1, sd2)
        assert rep.passed and quotient.coeffs == {}
    # negative control: a deliberately perturbed diagram
    sd1 = dt_in_sd(a2_seed(), 6)
    from scatdiag.coeff import ONE
    pert = GradedElement(a2_seed(), 6, DT_TWIST, LIE, {(2, 1): ONE}).exp()
    sd_bad = ScatDiagram.from_group_element(sd1.group_element().mul(pert))
    rep, quotient = central_difference(sd1, sd_bad)
    assert not rep.passed and quotient is None and rep.failures[0][2] == (2, 1)
    _report("12 centrality tooling", time.time() - t0)
