from fractions import Fraction

import pytest

from scatdiag.lattice import Seed, a2_seed, markov_seed, mutate_seed
from scatdiag.qp import (Potential, Quiver, ReductionError, SeedWithPotential,
                         cyclic_derivative, is_k_mutable, mutate_qp,
                         mutate_sp, nondegenerate_to_depth, normalize_cycle,
                         quiver_from_seed, reduce_qp, tilde_mutate)
from conftest import random_skew_seed

F = Fraction

THREE_CYCLE = Quiver(3, (("a", 1, 2), ("b", 2, 3), ("c", 3, 1)))


def w_abc(cap=12):
    return Potential.make(THREE_CYCLE, {("a", "b", "c"): 1}, cap)


MARKOV_POTENTIAL = {("a1_2_1", "a2_3_1", "a3_1_1"): 1,
                    ("a1_2_2", "a2_3_2", "a3_1_2"): 1}


def markov_sp():
    return SeedWithPotential.make(markov_seed(), MARKOV_POTENTIAL)


def vertex_form(quiver, pot):
    """Potential as cyclic vertex sequences (names forgotten)."""
    out = {}
    for word, c in pot.terms:
        path = tuple(quiver.arrow(a)[1] for a in word)
        key = min(path[i:] + path[:i] for i in range(len(path)))
        out[key] = out.get(key, F(0)) + c
    return out


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(2, (("l", 1, 1),))
    with pytest.raises(ValueError):
        Quiver(2, (("a", 1, 2), ("a", 2, 1)))
    q = quiver_from_seed(markov_seed())
    assert len(q.arrows) == 6 and q.is_2_acyclic()
    assert q.b_matrix() == markov_seed().b


def test_potential_normalization():
    w = Potential.make(THREE_CYCLE, {("b", "c", "a"): 1})
    assert w == w_abc()
    assert normalize_cycle(("c", "a", "b")) == ("a", "b", "c")
    with pytest.raises(ValueError):
        Potential.make(THREE_CYCLE, {("a", "b"): 1})   # not a cycle
    with pytest.raises(ValueError):
        Potential.make(THREE_CYCLE, {("a",): 1})


def test_cyclic_derivative_examples():
    assert cyclic_derivative(THREE_CYCLE, w_abc(), "a") == {("b", "c"): F(1)}
    assert cyclic_derivative(THREE_CYCLE, Potential.zero(), "a") == {}
    w2 = Potential.make(THREE_CYCLE, {("a", "b", "c") * 2: 1}, cap=8)
    assert cyclic_derivative(THREE_CYCLE, w2, "a") == \
        {("b", "c", "a", "b", "c"): F(2)}


def test_derivative_commutes_with_rotation():
    w1 = Potential.make(THREE_CYCLE, {("a", "b", "c"): 1})
    w2 = Potential.make(THREE_CYCLE, {("c", "a", "b"): 1})
    for arrow in "abc":
        assert cyclic_derivative(THREE_CYCLE, w1, arrow) == \
            cyclic_derivative(THREE_CYCLE, w2, arrow)


def _jacobian(sp):
    """One relation per arrow: its cyclic derivative of the potential."""
    return {a: cyclic_derivative(sp.quiver, sp.potential, a)
            for a, _, _ in sp.quiver.arrows}


def test_jacobian_relations():
    sp = SeedWithPotential.make(a2_seed())
    assert all(not rel for rel in _jacobian(sp).values())
    seed3 = Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0)))
    sp3 = SeedWithPotential.make(seed3, {("a1_2_1", "a2_3_1", "a3_1_1"): 1})
    rels = _jacobian(sp3)
    assert rels["a1_2_1"] == {("a2_3_1", "a3_1_1"): F(1)}
    # markov cubic: six quadratic relations
    mrels = _jacobian(markov_sp())
    assert len(mrels) == 6
    assert all(len(path) == 2 for rel in mrels.values() for path in rel)


def test_tilde_mutate_a2_trivial():
    q = quiver_from_seed(a2_seed())
    tq, tw = tilde_mutate(q, Potential.zero(), 1)
    assert tw.is_zero()
    assert tq.arrow_count_multiset() == {(2, 1): 1}


def test_tilde_mutate_three_cycle():
    tq, tw = tilde_mutate(THREE_CYCLE, w_abc(), 2)
    assert sorted(a[0] for a in tq.arrows) == ["[ba]", "a*", "b*", "c"]
    words = {w for w, _ in tw.terms}
    assert words == {normalize_cycle(("[ba]", "c")),
                     normalize_cycle(("b*", "a*", "[ba]"))}


def test_tilde_mutate_markov_composites():
    sp = markov_sp()
    tq, tw = tilde_mutate(sp.quiver, sp.potential, 1)
    composites = [a for a in tq.arrows if a[0].startswith("[")]
    assert len(composites) == 4


def eliminated(quiver, reduced):
    """The names of the arrows that the reduction removed."""
    return {a[0] for a in quiver.arrows} - {a[0] for a in reduced.arrows}


def test_reduce_three_cycle():
    tq, tw = tilde_mutate(THREE_CYCLE, w_abc(), 2)
    rq, rw = reduce_qp(tq, tw)
    assert rw.is_zero()
    assert rq.arrow_count_multiset() == {(2, 1): 1, (3, 2): 1}
    assert eliminated(tq, rq) == {"[ba]", "c"}


def test_reduce_pure_cubic_is_noop():
    rq, rw = reduce_qp(THREE_CYCLE, w_abc())
    assert rq == THREE_CYCLE and rw == w_abc()


def test_reduce_pure_two_cycle():
    q = Quiver(2, (("u", 1, 2), ("v", 2, 1)))
    w = Potential.make(q, {("u", "v"): 1})
    rq, rw = reduce_qp(q, w)
    assert rw.is_zero() and not rq.arrows


def test_reduce_mixed_quadratic_coupling():
    # u couples to two arrows: the substitution mixes them and one pair
    # splits off
    q = Quiver(2, (("u", 1, 2), ("v", 2, 1), ("w", 2, 1)))
    pot = Potential.make(q, {("u", "v"): 1, ("u", "w"): 1})
    rq, rw = reduce_qp(q, pot)
    assert rw.is_zero()
    elim = eliminated(q, rq)
    assert len(elim) == 2 and "u" in elim
    assert len(rq.arrows) == 1


def test_reduce_singular_quadratic_part():
    # w = (u+u')(v+v'): the quadratic form has rank one, so a single pair
    # splits off and the other 2-cycle survives with zero potential
    q = Quiver(2, (("u", 1, 2), ("u2", 1, 2), ("v", 2, 1), ("v2", 2, 1)))
    pot = Potential.make(q, {("u", "v"): 1, ("u", "v2"): 1,
                             ("u2", "v"): 1, ("u2", "v2"): 1})
    rq, rw = reduce_qp(q, pot)
    assert rw.is_zero()
    assert len(eliminated(q, rq)) == 2
    assert len(rq.arrows) == 2 and not rq.is_2_acyclic()


def test_reduce_cubic_tail_is_kept():
    # w = u v + u' P with P cubic: the pair (u, v) splits off and the cubic
    # part survives untouched
    q = Quiver(3, (("u", 1, 2), ("v", 2, 1), ("a", 1, 3), ("b", 3, 2),
                   ("c", 2, 1)))
    pot = Potential.make(q, {("u", "v"): 1, ("a", "b", "c"): 1})
    rq, rw = reduce_qp(q, pot)
    assert eliminated(q, rq) == {"u", "v"}
    assert rw == Potential.make(rq, {("a", "b", "c"): 1})


def test_mutable_examples():
    assert is_k_mutable(THREE_CYCLE, w_abc(), 2)
    q = quiver_from_seed(a2_seed())
    assert is_k_mutable(q, Potential.zero(), 1)
    # zero potential on an oriented 3-cycle is not mutable (2-cycles survive)
    assert not is_k_mutable(THREE_CYCLE, Potential.zero(), 2)


def test_involution_three_cycle_exact_potential():
    rq1, rw1 = mutate_qp(THREE_CYCLE, w_abc(), 2)
    rq2, rw2 = mutate_qp(rq1, rw1, 2)
    assert rq2.arrow_count_multiset() == THREE_CYCLE.arrow_count_multiset()
    assert vertex_form(rq2, rw2) == vertex_form(THREE_CYCLE, w_abc())


def test_involution_random_mutable(rng):
    done = 0
    while done < 100:
        n = rng.randint(2, 4)
        seed = random_skew_seed(rng, n, bound=3)
        q = quiver_from_seed(seed)
        k = rng.randint(1, n)
        if not is_k_mutable(q, Potential.zero(), k):
            continue
        rq1, rw1 = mutate_qp(q, Potential.zero(), k)
        rq2, rw2 = mutate_qp(rq1, rw1, k)
        assert rq2.arrow_count_multiset() == q.arrow_count_multiset()
        done += 1


def test_mutated_quiver_is_2_acyclic_when_mutable(rng):
    sp = markov_sp()
    for k in (1, 2, 3):
        assert is_k_mutable(sp.quiver, sp.potential, k)
        rq, rw = mutate_qp(sp.quiver, sp.potential, k)
        assert rq.is_2_acyclic()
        mu_k = quiver_from_seed(mutate_seed(sp.seed, k, -1)[0])
        assert rq.arrow_count_multiset() == mu_k.arrow_count_multiset()


def test_tilde_never_consults_sign_and_sp_mutation():
    sp = SeedWithPotential.make(a2_seed())
    plus, chp = mutate_sp(sp, 1, 1)
    minus, chm = mutate_sp(sp, 1, -1)
    # both signs share the quiver, potential and pairing matrix; the two
    # bases differ, which the change matrices record
    assert plus.quiver.arrow_count_multiset() == minus.quiver.arrow_count_multiset()
    assert plus.potential == minus.potential
    assert plus.seed == minus.seed
    assert chp != chm
    # mu_k^+ then mu_k^- restores the seed
    back, _ = mutate_sp(plus, 1, -1)
    assert back.seed == sp.seed


def test_markov_sp_mutation_matches_seed():
    sp = markov_sp()
    sp2, change = mutate_sp(sp, 1, -1)
    assert sp2.quiver.is_2_acyclic()
    assert sp2.quiver.b_matrix() == sp2.seed.b
    # mu_k(B_Markov) = -B_Markov at every k
    assert sp2.seed.b == tuple(tuple(-x for x in row) for row in markov_seed().b)


def test_markov_nondegenerate_to_depth2():
    sp = markov_sp()
    assert nondegenerate_to_depth(sp.quiver, sp.potential, 2)


def test_mutate_sp_requires_mutability():
    seed3 = Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0)))
    sp = SeedWithPotential.make(seed3)   # zero potential on a 3-cycle
    with pytest.raises(ReductionError):
        mutate_sp(sp, 2, -1)


def test_sp_json_roundtrip():
    sp = markov_sp()
    back = SeedWithPotential.from_json(sp.to_json())
    assert back == sp
