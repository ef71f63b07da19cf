import itertools
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from scatdiag import qp, reps
from scatdiag.coeff import CoeffFn, gl_count
from scatdiag.lattice import (Seed, a2_seed, a3_seed, apply_change_to_dimvec,
                              kronecker_seed)
from scatdiag.qp import ReductionError, SeedWithPotential
from scatdiag.torus import QUANTUM, dilog_group_element
from scatdiag.scattering import quantum_cluster_sd
from scatdiag.reps import (BudgetExceeded, _dimension_vectors, _loses_nothing,
                           _semistable_test, all_subspaces, at_prime, check_relations,
                           enumerate_reps, euler_form, iq_wall_series, iq_wall_series_brute,
                           is_semistable, make_rep, mat_mul, reflect,
                           semistable_transport_check, simple_rep, total_counting_element)
from oracles import (enumerate_reps_per_tuple, hom_dimension, is_isomorphic,
                     is_semistable_by_subreps, is_stable, rebase_rep)

F = Fraction
REFLECT_GOLDEN = Path(__file__).parent / "golden" / "reflect_f2.json"


def a2sp():
    return SeedWithPotential.make(a2_seed())


def cycsp():
    seed = Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0)))
    return SeedWithPotential.make(seed, {("a1_2_1", "a2_3_1", "a3_1_1"): 1})


def test_enumerate_counts():
    assert len(enumerate_reps(a2sp(), (1, 1), 2)) == 2
    assert len(enumerate_reps(a2sp(), (0, 0), 2)) == 1
    assert len(enumerate_reps(cycsp(), (1, 1, 1), 2)) == 4
    with pytest.raises(BudgetExceeded):
        enumerate_reps(a2sp(), (3, 3), 5, budget=10)


def test_relations_enforced():
    with pytest.raises(ValueError):
        make_rep(cycsp(), 2, (1, 1, 1),
                 {"a1_2_1": ((1,),), "a2_3_1": ((1,),), "a3_1_1": ((1,),)})


def test_make_rep_checks_its_input():
    # each bad input was accepted: zip in the matrix operations truncated the
    # 1 x 2 matrix, and the entry 2 gave a Rep unequal to the same module
    # written with 0
    sp = SeedWithPotential.make(a3_seed())
    good = {"a1_2_1": ((1,),), "a2_3_1": ((0,),)}
    assert make_rep(sp, 2, (1, 1, 1), good).mats == \
        tuple(good[name] for name, _, _ in sp.quiver.arrows)
    for mats in [{"a1_2_1": ((1,),)}, dict(good, a9_9_9=((1,),)),
                 dict(good, a1_2_1=((1, 0),)), dict(good, a1_2_1=((1,), (0,))),
                 dict(good, a2_3_1=((2,),)), dict(good, a2_3_1=((-1,),)),
                 dict(good, a2_3_1=((True,),)), dict(good, a2_3_1=((1.0,),)),
                 dict(good, a2_3_1=[[0]]), dict(good, a2_3_1=()), list(good.items())]:
        with pytest.raises(ValueError):
            make_rep(sp, 2, (1, 1, 1), mats)
    with pytest.raises(ValueError, match="3 non-negative integers"):
        make_rep(sp, 2, (True, 1, 1), good)
    # a matrix with no rows is (), one with no columns has empty rows
    assert make_rep(sp, 2, (1, 1, 0), {"a1_2_1": ((1,),), "a2_3_1": ()}).dims == (1, 1, 0)
    assert make_rep(sp, 3, (0, 1, 1), {"a1_2_1": ((),), "a2_3_1": ((2,),)}).dims == (0, 1, 1)


def test_simple_rep_needs_a_vertex():
    # 0 and 4 gave the zero rep on A3, and True gave S_1
    sp = SeedWithPotential.make(a3_seed())
    for i in (0, 4, -1, True, 1.0):
        with pytest.raises(ValueError, match="i must be a vertex 1..3"):
            simple_rep(sp, 2, i)
    assert simple_rep(sp, 2, 3).dims == (0, 0, 1)


@pytest.mark.parametrize("p, max_total", [(2, 5), (3, 4)])
def test_enumeration_matches_per_tuple_oracle(p, max_total):
    # the same list in the same order as checking every tuple on its own,
    # on A2, A3, Kronecker and the 3-cycle without and with potential
    cycle = Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0)))
    cases = [SeedWithPotential.make(seed)
             for seed in (a2_seed(), a3_seed(), kronecker_seed(), cycle)] + [cycsp()]
    kept = dropped = 0
    for sp in cases:
        for dims in _dimension_vectors(sp.seed.rank, max_total):
            exponent = sum(dims[s - 1] * dims[t - 1] for _, s, t in sp.quiver.arrows)
            if p ** exponent > 5000:
                continue
            got = enumerate_reps(sp, dims, p)
            assert got == enumerate_reps_per_tuple(sp, dims, p), (sp.potential, dims)
            kept += len(got)
            dropped += p ** exponent - len(got)
    assert kept > 3000 and dropped > 500


def test_nilpotency_enforced():
    # a 3-cycle with zero potential would accept invertible cycles were it
    # not for the nilpotency requirement
    seed = Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0)))
    sp = SeedWithPotential.make(seed)
    with pytest.raises(ValueError):
        make_rep(sp, 2, (1, 1, 1),
                 {"a1_2_1": ((1,),), "a2_3_1": ((1,),), "a3_1_1": ((1,),)})


def test_acyclic_enumeration_skips_nilpotency(monkeypatch):
    # on a quiver without an oriented cycle every representation is
    # nilpotent: the enumeration is the same when every quiver is taken for
    # cyclic and the nilpotency powers run for every tuple
    cases = [(SeedWithPotential.make(kronecker_seed()), ((1, 1), (2, 1), (1, 2), (2, 2))),
             (SeedWithPotential.make(a3_seed()), ((1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 2)))]
    skipped = {(i, dims, p): enumerate_reps(sp, dims, p)
               for i, (sp, dim_list) in enumerate(cases) for dims in dim_list for p in (2, 3)}
    monkeypatch.setattr(qp.Quiver, "has_oriented_cycle", lambda self: True)
    for i, (sp, dim_list) in enumerate(cases):
        for dims in dim_list:
            for p in (2, 3):
                assert enumerate_reps(sp, dims, p) == skipped[i, dims, p]
    monkeypatch.undo()
    # negative control: the 3-cycle with zero potential still rejects the
    # tuple whose cycle acts invertibly
    sp = SeedWithPotential.make(Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0))))
    ones = {"a1_2_1": ((1,),), "a2_3_1": ((1,),), "a3_1_1": ((1,),)}
    reps = enumerate_reps(sp, (1, 1, 1), 2)
    assert len(reps) == 7
    assert tuple(ones[name] for name, _, _ in sp.quiver.arrows) not in [r.mats for r in reps]


def test_rep_matrix_looks_up_an_arrow_by_name():
    # the 3-cycle lists its arrows a1_2_1, a3_1_1, a2_3_1: not by name
    sp = cycsp()
    rep = make_rep(sp, 2, (1, 1, 1), {"a1_2_1": ((1,),), "a2_3_1": ((0,),), "a3_1_1": ((0,),)})
    assert [name for name, _, _ in sp.quiver.arrows] == ["a1_2_1", "a3_1_1", "a2_3_1"]
    assert rep.mats == (((1,),), ((0,),), ((0,),))
    assert rep.matrix("a1_2_1") == ((1,),) and rep.matrix("a2_3_1") == ((0,),)
    with pytest.raises(KeyError):
        rep.matrix("a9_9_9")


def test_nilpotency_index_n_accepted():
    # linear A3 with every arrow 1: the operator A on F_2^3 has A^2 != 0 and
    # A^3 = 0, so the early stop must not reject it before the n-th power
    sp = SeedWithPotential.make(a3_seed())
    rep = make_rep(sp, 2, (1, 1, 1), {"a1_2_1": ((1,),), "a2_3_1": ((1,),)})
    assert mat_mul(rep.matrix("a2_3_1"), rep.matrix("a1_2_1"), 2) == ((1,),)
    check_relations(rep)


def test_relation_test_only_where_a_tuple_can_fail(monkeypatch):
    # the Kronecker quiver has no relations and no oriented cycle: the brute
    # count checks no tuple (the per-tuple check ran 6,570 times at F_3)
    calls = []
    real = reps._relation_test

    def spy(sp, dims, p):
        test = real(sp, dims, p)
        return test and (lambda mats: calls.append(mats) or test(mats))

    monkeypatch.setattr(reps, "_relation_test", spy)
    k2 = SeedWithPotential.make(kronecker_seed())
    iq_wall_series_brute(k2, (F(1), F(-1)), [(1, 1), (2, 2)], 3)
    assert calls == []
    # positive control: each of the 3-cycle's 8 tuples at (1, 1, 1) is checked
    assert len(enumerate_reps(cycsp(), (1, 1, 1), 2)) == 4
    assert len(calls) == 8


def test_semistability_examples():
    sp = a2sp()
    s1 = simple_rep(sp, 2, 1)
    assert is_semistable(s1, (F(0), F(3)))
    nz = make_rep(sp, 2, (1, 1), {"a1_2_1": ((1,),)})
    zz = make_rep(sp, 2, (1, 1), {"a1_2_1": ((0,),)})
    m = (F(1), F(-1))
    assert is_semistable(nz, m) and is_stable(nz, m)
    assert not is_semistable(zz, m)
    # m(V) != 0 is never semistable
    assert not is_semistable(s1, m)


def test_semistability_matches_subrep_enumeration(rng):
    # the destabilizing-dimension search against enumerating every
    # subrepresentation, on random m with m(dims) = 0
    cases = [(SeedWithPotential.make(kronecker_seed()), d, p)
             for d in [(1, 1), (2, 1), (1, 2), (2, 2)] for p in (2, 3)]
    cases += [(sp, d, 2) for sp in (SeedWithPotential.make(a3_seed()), cycsp())
              for d in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]]
    verdicts = Counter()
    for sp, dims, p in cases:
        reps = enumerate_reps(sp, dims, p)
        for rep in rng.sample(reps, min(len(reps), 80)):
            for _ in range(4):
                r = [rng.randint(-3, 3) for _ in dims]
                w = sum(x * d for x, d in zip(r, dims))
                m = tuple(x * sum(dims) - w for x in r)
                for strict in (False, True):
                    got = is_semistable(rep, m, strict)
                    assert got == is_semistable_by_subreps(rep, m, strict), (rep, m, strict)
                    verdicts[strict, got] += 1
    assert sum(verdicts.values()) > 3000 and min(verdicts.values()) > 200


def _covectors_vanishing_on(dims):
    """The covectors r |dims| - (r . dims) (1, ..., 1) for r in {-1, 0, 1}^n:
    each vanishes on dims."""
    total = sum(dims)
    out = set()
    for r in itertools.product((-1, 0, 1), repeat=len(dims)):
        w = sum(x * d for x, d in zip(r, dims))
        out.add(tuple(x * total - w for x in r))
    return sorted(out)


def test_semistable_test_matches_subrep_enumeration_everywhere():
    # one predicate per (dims, m, strict), over every representation of
    # dimension vector dims, against enumerating every subrepresentation
    k2 = SeedWithPotential.make(kronecker_seed())
    cases = [(k2, d, p) for d in [(1, 1), (2, 1), (1, 2), (2, 2)] for p in (2, 3)]
    cases += [(sp, d, 2) for sp in (SeedWithPotential.make(a3_seed()), cycsp())
              for d in itertools.product(range(3), range(2), range(2)) if any(d)]
    verdicts = Counter()
    for sp, dims, p in cases:
        # and one covector that does not vanish on dims
        off = tuple(int(i == dims.index(max(dims))) for i in range(len(dims)))
        tests = {(m, strict): _semistable_test(sp, dims, m, p, strict)
                 for m in _covectors_vanishing_on(dims) + [off] for strict in (False, True)}
        for rep in enumerate_reps(sp, dims, p):
            for (m, strict), test in tests.items():
                got = test(rep)
                assert got == is_semistable_by_subreps(rep, m, strict), (rep, m, strict)
                verdicts[m == off, strict, got] += 1
    assert verdicts[True, False, True] == verdicts[True, True, True] == 0
    assert min(verdicts[False, strict, got] for strict in (False, True)
               for got in (False, True)) > 1000


def test_brute_mat_vec_count(monkeypatch):
    # each arrow matrix is mapped once per distinct basis vector: 327 calls
    # here, where searching the subspace tuples per representation made 71,526
    calls = Counter()
    real = reps.mat_vec

    def spy(*args):
        calls["mat_vec"] += 1
        return real(*args)

    monkeypatch.setattr(reps, "mat_vec", spy)
    k2 = SeedWithPotential.make(kronecker_seed())
    iq_wall_series_brute(k2, (F(1), F(-1)), [(1, 1), (2, 2)], 3)
    assert 0 < calls["mat_vec"] <= 5000


def test_enumeration_reads_each_derivative_once(monkeypatch):
    calls = Counter()
    real = reps.cyclic_derivative

    def spy(quiver, potential, name):
        calls[name] += 1
        return real(quiver, potential, name)

    monkeypatch.setattr(reps, "cyclic_derivative", spy)
    sp = cycsp()
    for dims in [(1, 1, 1), (2, 1, 1)]:
        calls.clear()
        assert enumerate_reps(sp, dims, 2)
        assert calls == Counter({name: 1 for name, _, _ in sp.quiver.arrows})


def test_potential_coefficient_not_defined_mod_p():
    seed = Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0)))
    sp = SeedWithPotential.make(seed, {("a1_2_1", "a2_3_1", "a3_1_1"): F(1, 2)})
    zeros = {"a1_2_1": ((0,),), "a2_3_1": ((0,),), "a3_1_1": ((0,),)}
    for call in (lambda: enumerate_reps(sp, (1, 1, 1), 2),
                 lambda: make_rep(sp, 2, (1, 1, 1), zeros)):
        with pytest.raises(ValueError, match="not defined mod p"):
            call()
    assert len(enumerate_reps(sp, (1, 1, 1), 3)) == len(enumerate_reps(cycsp(), (1, 1, 1), 3))


@pytest.mark.parametrize("p", [4, 1, 0, -3, 9, 2.0, F(3)])
def test_non_prime_p_rejected(p):
    # arithmetic mod 4 is not F_4: the brute count at (1,1) read 5/3
    k2 = SeedWithPotential.make(kronecker_seed())
    m = (F(1), F(-1))
    calls = [lambda: enumerate_reps(k2, (1, 1), p),
             lambda: simple_rep(k2, p, 1),
             lambda: make_rep(k2, p, (1, 0), {"a1_2_1": (), "a1_2_2": ()}),
             lambda: iq_wall_series_brute(k2, m, [(1, 1)], p),
             lambda: semistable_transport_check(a2sp(), 1, m, p=p),
             # at p = 1 this raised PoleError, and at every other p here
             # it evaluated the series
             lambda: at_prime(total_counting_element(k2, 2), p)]
    for call in calls:
        with pytest.raises(ValueError, match="p must be a prime"):
            call()


def test_non_mutable_qp_raises_reduction_error():
    # the 3-cycle with zero potential is not mutable at 2: reflection and
    # transport refuse it with qp.ReductionError, a ValueError, where they
    # raised a RuntimeError
    sp = SeedWithPotential.make(Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0))))
    calls = [lambda: reflect(simple_rep(sp, 2, 1), 2, 1),
             lambda: reflect(simple_rep(sp, 2, 2), 2, -1),
             lambda: semistable_transport_check(sp, 2, (F(1), F(1), F(-2)))]
    for call in calls:
        with pytest.raises(ReductionError, match="not mutable at 2"):
            call()
    assert issubclass(ReductionError, ValueError)


def test_transport_rejects_a_vertex_out_of_range():
    # k = 3 on a rank-2 seed said "m must not vanish on s_k"
    k2 = SeedWithPotential.make(kronecker_seed())
    for k in (0, 3, -1, 1.0, True):
        with pytest.raises(ValueError, match="k must be a vertex 1..2"):
            semistable_transport_check(k2, k, (F(1), F(-1)))


def test_enumeration_rejects_bad_dimension_vectors():
    # a negative entry raised inside itertools, a float one a TypeError, and
    # (True, 1) passed as (1, 1)
    k2 = SeedWithPotential.make(kronecker_seed())
    for dims in [(-1, 1), (1.0, 1), (1, 1, 0), (1,), (True, 1)]:
        with pytest.raises(ValueError, match="2 non-negative integers"):
            enumerate_reps(k2, dims, 2)
        with pytest.raises(ValueError, match="2 non-negative integers"):
            iq_wall_series_brute(k2, (F(1), F(-1)), [(1, 1), dims], 2)


def test_brute_needs_a_dimension_vector():
    # max() of an empty sequence escaped
    k2 = SeedWithPotential.make(kronecker_seed())
    with pytest.raises(ValueError, match="no dimension vectors"):
        iq_wall_series_brute(k2, (F(1), F(-1)), [], 2)


def test_all_subspaces_lattice():
    # sum over k of the Gaussian binomials [n choose k]_p
    for (p, n), total in {(2, 2): 5, (2, 4): 67, (3, 2): 6, (2, 0): 1}.items():
        groups = all_subspaces(p, n)
        assert len(groups) == n + 1 and sum(len(g) for g in groups) == total
        for k, group in enumerate(groups):
            for basis, pts in group:
                assert len(basis) == k and len(pts) == p ** k and set(basis) <= pts
                assert all(tuple((x + y) % p for x, y in zip(u, v)) in pts
                           for u in pts for v in pts)
    groups = all_subspaces(2, 2)
    assert all_subspaces(2, 2) is groups
    with pytest.raises(TypeError):
        groups[1] = ()
    with pytest.raises(AttributeError):
        groups[1][0][1].add((1, 1))
    assert sum(len(g) for g in all_subspaces(2, 2)) == 5


def test_covector_length_checked():
    k2 = SeedWithPotential.make(kronecker_seed())
    rep = make_rep(k2, 2, (1, 1), {"a1_2_1": ((1,),), "a1_2_2": ((0,),)})
    message = "covector has 1 entries, the seed rank is 2"
    for call in (lambda: is_semistable(rep, (1,)), lambda: is_stable(rep, (1,)),
                 lambda: iq_wall_series_brute(k2, (1,), [(1, 1)], 2)):
        with pytest.raises(ValueError, match=message):
            call()
    with pytest.raises(ValueError, match="covector has 3 entries, the seed rank is 2"):
        iq_wall_series_brute(k2, (1, -1, 5), [(1, 1)], 2)
    with pytest.raises(ValueError, match="covector has 2 entries, the seed rank is 3"):
        semistable_transport_check(SeedWithPotential.make(a3_seed()), 1, (3, -1))


def test_hom_dimension_rejects_mismatched_reps():
    with pytest.raises(ValueError, match="F_2 and F_3"):
        hom_dimension(simple_rep(a2sp(), 2, 1), simple_rep(a2sp(), 3, 1))
    with pytest.raises(ValueError, match="different quivers"):
        hom_dimension(simple_rep(a2sp(), 2, 1),
                      simple_rep(SeedWithPotential.make(kronecker_seed()), 2, 1))


def test_reflect_kills_simple():
    out, sp2, _ = reflect(simple_rep(a2sp(), 2, 1), 1, 1)
    assert out.dims == (0, 0)


def test_reflect_preserves_lattice_class():
    sp = a2sp()
    nz = make_rep(sp, 2, (1, 1), {"a1_2_1": ((1,),)})
    out, sp2, change = reflect(nz, 1, 1)
    assert apply_change_to_dimvec(change, out.dims) == (1, 1)
    # [S_i] for i != k is preserved
    s2 = simple_rep(sp, 2, 2)
    o2, _, ch2 = reflect(s2, 1, 1)
    assert apply_change_to_dimvec(ch2, o2.dims) == (0, 1)


def test_reflect_keeps_reversed_arrows_away_from_k():
    # after F_1^-, the reversed arrow a1_2_1* does not touch vertex 3, so
    # F_3^+ carries it over unchanged
    sp = SeedWithPotential.make(a3_seed())
    rep = make_rep(sp, 2, (1, 1, 1), {"a1_2_1": ((1,),), "a2_3_1": ((1,),)})
    once, _, _ = reflect(rep, 1, -1)
    assert once.dims == (0, 1, 1)
    twice, _, _ = reflect(once, 3, 1)
    assert twice.dims == (0, 1, 0)
    assert twice.matrix("a1_2_1*") == once.matrix("a1_2_1*")


def test_reflect_output_satisfies_relations():
    sp = cycsp()
    for r in enumerate_reps(sp, (1, 1, 1), 2):
        for k in (1, 2, 3):
            for sign in (1, -1):
                out, _, _ = reflect(r, k, sign)   # make_rep re-checks


def reflect_golden_text():
    """Every representation over F_2 of total dimension 1 to 3 of A3 (zero
    potential) and of the 3-cycle with potential, reflected at every vertex
    with both signs: one JSON line per input with its images' dimensions and
    matrices.  To regenerate after an intended change, write this text to
    tests/golden/reflect_f2.json."""
    def named(rep):
        return {name: m for (name, _, _), m in zip(rep.sp.quiver.arrows, rep.mats)}

    lines = []
    for name, sp in (("a3", SeedWithPotential.make(a3_seed())), ("cycle", cycsp())):
        for dims in itertools.product(range(4), repeat=3):
            if not 1 <= sum(dims) <= 3:
                continue
            for rep in enumerate_reps(sp, dims, 2):
                images = {}
                for k in (1, 2, 3):
                    for sign in (1, -1):
                        out, _, _ = reflect(rep, k, sign)
                        images["%d%s" % (k, "+-"[sign < 0])] = [out.dims, named(out)]
                lines.append(json.dumps([name, rep.dims, named(rep), images],
                                        sort_keys=True))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_reflect_matches_golden():
    text = reflect_golden_text()
    assert len(json.loads(text)) * 6 == 474
    assert text == REFLECT_GOLDEN.read_text()


def test_inverse_equivalences(rng):
    sp = a2sp()
    sk = simple_rep(sp, 2, 1)
    checked = 0
    for dims in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 0), (0, 2)]:
        for r in enumerate_reps(sp, dims, 2):
            if hom_dimension(sk, r) != 0:      # outside A_{k,+}
                continue
            fwd, spp, _ = reflect(r, 1, 1)
            back, _, _ = reflect(fwd, 1, -1)
            assert back.dims == r.dims
            assert is_isomorphic(rebase_rep(back, sp), r)
            checked += 1
    assert checked >= 6


def test_adjointness_on_small_pairs():
    sp = a2sp()
    reps11 = enumerate_reps(sp, (1, 1), 2)
    reps10 = enumerate_reps(sp, (1, 0), 2)
    for V in reps11 + reps10:
        Vp, sp2, _ = reflect(V, 1, 1)
        for wd in [(1, 1), (1, 0), (0, 1)]:
            for W in enumerate_reps(sp2, wd, 2):
                Wm, _, _ = reflect(W, 1, -1)
                assert hom_dimension(V, rebase_rep(Wm, sp)) == \
                    hom_dimension(Vp, W)


def test_transport_a2_and_cycle():
    rep = semistable_transport_check(a2sp(), 1, (F(1), F(-1)),
                                     max_total_dim=3, p=2)
    assert rep.passed and rep.checked >= 7
    rep = semistable_transport_check(cycsp(), 2, (F(-1), F(2), F(-1)),
                                     max_total_dim=3, p=2)
    assert rep.passed and rep.checked >= 15


def test_transport_check_fails_on_a_wrong_image_covector(monkeypatch):
    # negative control: with the image covector negated, each verdict that
    # then differs is a ("transport", dims, matrices, verdicts) failure
    # whose matrices are a representation's, in the order of the arrows
    cases = [(cycsp(), k, tuple(F((j == k % 3) - (j == k - 1)) for j in range(3)), 3, 21)
             for k in (1, 2, 3)]
    cases += [(SeedWithPotential.make(a3_seed()), 2, m, 1, 15)
              for m in ((F(-1), F(2), F(-1)), (F(1), F(-2), F(1)))]
    for sp, k, m, _, _ in cases:
        assert semistable_transport_check(sp, k, m).passed
    real = reps.covector_to_new_basis
    monkeypatch.setattr(reps, "covector_to_new_basis",
                        lambda change, m: tuple(-x for x in real(change, m)))
    for sp, k, m, count, checked in cases:
        report = semistable_transport_check(sp, k, m)
        assert not report.passed and len(report.failures) == count, (k, m)
        assert report.checked == checked
        for kind, dims, mats, verdicts in report.failures:
            assert kind == "transport" and verdicts[0] != verdicts[1]
            assert mats in [r.mats for r in enumerate_reps(sp, dims, 2)]


def test_reflection_domain_matches_hom_dimension():
    # ker beta (sign +) and the rank of alpha (sign -) against solving for
    # Hom(S_k, V) and Hom(V, S_k), on every rep that the benchmark's
    # transport job enumerates
    verdicts = Counter()
    for sp in (SeedWithPotential.make(a3_seed()), cycsp()):
        for dims in _dimension_vectors(3, 4):
            try:
                reps_of_dims = enumerate_reps(sp, dims, 2)
            except BudgetExceeded:
                continue
            for k in (1, 2, 3):
                sk = simple_rep(sp, 2, k)
                for rep in reps_of_dims:
                    for sign in (1, -1):
                        hom = hom_dimension(sk, rep) if sign > 0 else hom_dimension(rep, sk)
                        got = _loses_nothing(rep, k, sign)
                        assert got == (hom == 0), (rep, k, sign)
                        verdicts[sign, got] += 1
    assert min(verdicts.values()) > 100


def test_transport_job_counts(monkeypatch):
    # the benchmark's transport job: 1,878 Hom solves (2,156 kernel_basis
    # calls), 9,602 mat_mul and 2,748 cyclic_derivative calls before one
    # prepared reflector per check and one relation test per dimension
    # vector; 1,745, 1,826 and 1,538 after, pinned to within 10 %
    calls = Counter()

    def spy(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in ("kernel_basis", "mat_mul", "cyclic_derivative"):
        monkeypatch.setattr(reps, name, spy(name, getattr(reps, name)))
    for sp in (SeedWithPotential.make(a3_seed()), cycsp()):
        for k in (1, 2, 3):
            for sign in (1, -1):
                m = tuple(F(sign * (3 if j == k - 1 else -1)) for j in range(3))
                report = semistable_transport_check(sp, k, m, max_total_dim=4, p=2)
                assert report.passed and report.checked and not report.skipped
    assert not hasattr(reps, "hom_dimension")
    assert calls["kernel_basis"] <= 1919
    assert calls["mat_mul"] <= 2008
    assert calls["cyclic_derivative"] <= 1691


def test_transport_checks_its_budget(monkeypatch):
    # 0 and -1 passed having checked nothing, and 2.5 raised TypeError
    for bad in (0, -1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="max_total_dim must be a positive int"):
            semistable_transport_check(a2sp(), 1, (F(1), F(-1)), max_total_dim=bad)
    # the dimension vectors whose enumeration exceeds the budget are listed
    full = semistable_transport_check(a2sp(), 1, (F(1), F(-1)), max_total_dim=3)
    assert full.skipped == []
    real = reps.enumerate_reps
    monkeypatch.setattr(reps, "enumerate_reps",
                        lambda sp, dims, p: real(sp, dims, p, budget=3))
    report = semistable_transport_check(a2sp(), 1, (F(1), F(-1)), max_total_dim=3)
    assert report.skipped == [(1, 2), (2, 1)]
    assert report.passed and 0 < report.checked < full.checked


def test_transport_needs_nonvanishing_m():
    with pytest.raises(ValueError):
        semistable_transport_check(a2sp(), 1, (F(0), F(1)))


def test_euler_form_and_gl_order():
    sp = kroneckersp = SeedWithPotential.make(kronecker_seed())
    assert euler_form(sp.quiver, (1, 1), (1, 1)) == 0
    assert euler_form(a2sp().quiver, (1, 0), (0, 1)) == -1
    assert gl_count(2).eval_at_sqrt(2) == (6, 0)
    assert gl_count(0).eval_at_sqrt(3) == (1, 0)


def test_si_wall_reproduces_dilog_series():
    sp = a2sp()
    want = dilog_group_element(a2_seed(), (1, 0), 4, QUANTUM)
    for p in (2, 3, 5):
        got = at_prime(iq_wall_series(sp, (F(0), F(1)), 4), p)
        assert all(d[1] == 0 for d in got.coeffs)
        for k in range(1, 5):
            assert got.coeffs[(k, 0)].eval_at_sqrt(p) == \
                want.coeffs[(k, 0)].eval_at_sqrt(p)


def test_no_semistables_off_walls():
    # m in an open chamber adjacent to C+: series = 1
    sp = a2sp()
    got = at_prime(iq_wall_series(sp, (F(2), F(1)), 4), 2)
    assert got.coeffs == {}


def test_brute_matches_factorization():
    sp = SeedWithPotential.make(kronecker_seed())
    m = (F(1), F(-1))
    for p in (2, 3):
        got = at_prime(iq_wall_series(sp, m, 4), p)
        brute = iq_wall_series_brute(sp, m, [(1, 1), (2, 2)], p)
        for d in [(1, 1), (2, 2)]:
            assert got.coeffs.get(d) == brute.coeffs.get(d)
    assert {tuple(row["dimvec"]): row["coeff"] for row in brute.serialize()} == \
        {(1, 1): "2", (2, 2): "21/8"}


def test_kronecker_wall_oracle():
    # the headline check: counting series = quantum cluster wall at q = p
    seed = kronecker_seed()
    sp = SeedWithPotential.make(seed)
    m = (F(1), F(-1))
    wall = quantum_cluster_sd(seed, 6).phi(m)
    assert iq_wall_series(sp, m, 6) == wall
    for p in (2, 3, 5):
        got = at_prime(iq_wall_series(sp, m, 6), p)
        for k in range(1, 4):
            d = (k, k)
            gv = got.coeffs.get(d)
            wv = wall.coeffs.get(d)
            assert gv is not None and wv is not None
            assert gv.eval_at_sqrt(p) == wv.eval_at_sqrt(p)


def test_counting_requires_zero_potential():
    with pytest.raises(ValueError):
        iq_wall_series(cycsp(), (F(1), F(0), F(-1)), 3)


def test_counting_element_is_the_cluster_group_element():
    # the stability side's total element equals the cluster one over Q(v)
    for seed, order in ((a2_seed(), 5), (a3_seed(), 5), (kronecker_seed(), 8),
                        (Seed(((0, 3), (-3, 0))), 6)):
        sp = SeedWithPotential.make(seed)
        assert total_counting_element(sp, order) == \
            quantum_cluster_sd(seed, order).group_element()


def test_counting_refuses_oriented_cycles():
    # q^{a(d)} counts every matrix tuple, but only nilpotent ones are
    # representations: on the 3-cycle the counting element would give 2 at
    # x^(1,1,1), m = (1, 0, -1), where the semistable points give 1
    sp = SeedWithPotential.make(Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0))))
    assert sp.quiver.has_oriented_cycle()
    with pytest.raises(ValueError, match="oriented cycle"):
        total_counting_element(sp, 3)
    with pytest.raises(ValueError, match="oriented cycle"):
        iq_wall_series(sp, (F(1), F(0), F(-1)), 3)
    brute = iq_wall_series_brute(sp, (F(1), F(0), F(-1)), [(1, 1, 1)], 2)
    assert brute.coeffs[(1, 1, 1)] == CoeffFn.from_int(1)
    for b in (a2_seed().b, a3_seed().b, kronecker_seed().b, ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))):
        assert not SeedWithPotential.make(Seed(b)).quiver.has_oriented_cycle()


def test_transport_check_mutates_once_per_call(monkeypatch):
    # one DWZ mutation per check, however many reps it reflects, and one on
    # every mutate_sp call: nothing is cached
    calls = []
    real = qp._k_mutation

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qp, "_k_mutation", spy)
    for _ in range(2):
        rep = semistable_transport_check(cycsp(), 2, (F(-1), F(2), F(-1)),
                                         max_total_dim=3, p=2)
        assert rep.checked >= 15
    assert len(calls) == 2
    for _ in range(2):
        qp.mutate_sp(a2sp(), 1, 1)
    assert len(calls) == 4
    # a non-mutable input is tried, and refused, on every call
    bad = SeedWithPotential.make(Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0))))
    for _ in range(2):
        with pytest.raises(ReductionError):
            qp.mutate_sp(bad, 2, -1)
    assert len(calls) == 6
