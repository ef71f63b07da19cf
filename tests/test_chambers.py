import json
from fractions import Fraction
from pathlib import Path

import pytest

from scatdiag.lattice import Seed, a2_seed, a3_seed, kronecker_seed, markov_seed
from scatdiag.torus import CLASSICAL, DT_TWIST, QUANTUM
from scatdiag.chambers import (chamber_from_sequence, crossing_data,
                               dt_series, enumerate_chambers,
                               enumerate_green_to_red, find_green_to_red)
from scatdiag.qp import SeedWithPotential, nondegenerate_to_depth
from scatdiag.scattering import cluster_sd, dt_in_sd, quantum_cluster_sd

F = Fraction

CHAMBER_GOLDEN = Path(__file__).parent / "golden" / "chambers.json"

D4 = Seed(((0, 1, 0, 0), (-1, 0, -1, -1), (0, 1, 0, 0), (0, 1, 0, 0)))

GOLDEN_SEEDS = (
    ("a2", a2_seed()),
    ("kronecker2", kronecker_seed()),
    ("kronecker3", kronecker_seed(3)),
    ("a3", a3_seed()),
    ("markov", markov_seed()),
    ("cycle3", Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0)))),
    ("acyclic3", Seed(((0, 1, 1), (-1, 0, 1), (-1, -1, 0)))),
    ("a4", Seed(((0, 1, 0, 0), (-1, 0, 1, 0), (0, -1, 0, 1), (0, 0, -1, 0)))),
    ("d4", D4),
)


def test_root_chamber():
    node = chamber_from_sequence(a2_seed(), ())
    assert node.generators == ((1, 0), (0, 1))
    assert node.cvectors == ((1, 0), (0, 1))


def test_adjacent_chamber():
    node = chamber_from_sequence(a2_seed(), (1,))
    assert node.key() == frozenset({(-1, 0), (0, 1)})


def _sequences(rank, max_length):
    """Every mutation sequence without immediate backtracking, shortest
    first."""
    layer = [()]
    while layer:
        yield from layer
        if len(layer[0]) == max_length:
            return
        layer = [seq + (k,) for seq in layer for k in range(1, rank + 1)
                 if not seq or seq[-1] != k]


def chamber_golden_text():
    """Generators and c-vectors of every sequence without immediate
    backtracking (length at most 5 at rank 3 or less, 4 at rank 4) from nine
    seeds, then each rank-2 and rank-3 seed's green-to-red sequences to
    depth 7 with their crossing data: one JSON line each.  To regenerate
    after an intended change, write this text to tests/golden/chambers.json."""
    lines = []
    for name, seed in GOLDEN_SEEDS:
        for seq in _sequences(seed.rank, 5 if seed.rank <= 3 else 4):
            node = chamber_from_sequence(seed, seq)
            lines.append(json.dumps([name, seq, node.generators, node.cvectors]))
        if seed.rank <= 3:
            for seq in enumerate_green_to_red(seed, 7):
                lines.append(json.dumps([name, "green-to-red", seq,
                                         crossing_data(seed, seq)]))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_chambers_match_golden():
    text = chamber_golden_text()
    assert sum(row[1] != "green-to-red" for row in json.loads(text)) == 731
    assert text == CHAMBER_GOLDEN.read_text()


def test_cvectors_are_dual_to_gvectors():
    # c_i . g_j = delta_ij: the c-vectors are the inward facet normals
    nodes = 0
    for seed, depth in ((a3_seed(), 9), (markov_seed(), 6),
                        (kronecker_seed(3), 6), (D4, 4)):
        for node in enumerate_chambers(seed, depth):
            for i, c in enumerate(node.cvectors):
                for j, g in enumerate(node.generators):
                    assert sum(a * b for a, b in zip(c, g)) == (i == j), \
                        (seed.b, node.sequence, i, j)
            nodes += 1
    assert nodes == 255


def test_chamber_counts():
    assert len(enumerate_chambers(a2_seed(), 5)) == 5
    assert len(enumerate_chambers(a3_seed(), 9)) == 14


def test_kronecker_chambers_all_distinct():
    nodes = enumerate_chambers(kronecker_seed(), 6)
    keys = [n.key() for n in nodes]
    assert len(keys) == len(set(keys))
    assert len(keys) == 13   # 1 + 2 per depth: the tree never closes


def test_chambers_match_minimal_complex():
    # the five A2 chambers agree with the merged cells of the diagram
    sd = quantum_cluster_sd(a2_seed(), 6)
    mc = sd.minimal_complex()
    fan = {frozenset(c.rays) for c in mc.chambers()}
    tree = {frozenset(n.generators) for n in enumerate_chambers(a2_seed(), 5)}
    assert fan == tree


def test_cvector_sign_coherence():
    for seed, depth in ((a2_seed(), 6), (a3_seed(), 6), (kronecker_seed(), 6),
                        (markov_seed(), 5)):
        for node in enumerate_chambers(seed, depth):
            for c in node.cvectors:
                assert all(x >= 0 for x in c) or all(x <= 0 for x in c), \
                    (seed.b, node.sequence, c)


def test_adjacent_chambers_share_facet():
    seed = a3_seed()
    for seq in [(1,), (1, 2), (2, 3, 1)]:
        parent = chamber_from_sequence(seed, seq[:-1])
        child = chamber_from_sequence(seed, seq)
        shared = set(parent.generators) & set(child.generators)
        assert len(shared) == seed.rank - 1


def test_green_to_red_a2():
    seqs = enumerate_green_to_red(a2_seed(), 4)
    lengths = sorted(len(s) for s in seqs)
    assert lengths == [2, 3]
    assert find_green_to_red(a2_seed(), 5) == (1, 2)


def test_green_to_red_a3_and_acyclic_sink_order():
    seq = find_green_to_red(a3_seed(), 7)
    assert seq is not None
    # sink-ordered mutation of an acyclic quiver reaches C^-
    node = chamber_from_sequence(a3_seed(), (1, 2, 3))
    from scatdiag.chambers import negative_chamber_key
    assert node.key() == negative_chamber_key(a3_seed())


def test_markov_has_no_green_to_red_to_depth8():
    assert find_green_to_red(markov_seed(), 8) is None


def test_unrestricted_mode_also_finds():
    assert find_green_to_red(a2_seed(), 5, green_restricted=False) is not None


def test_markov_chambers_stay_in_closed_half_space():
    n0 = (1, 1, 1)
    for node in enumerate_chambers(markov_seed(), 6):
        for r in node.generators:
            assert sum(a * b for a, b in zip(r, n0)) >= 0, (node.sequence, r)


def test_crossing_data_green():
    # the short green-to-red route crosses the two initial walls; the long
    # one picks up the scattering ray in between (the pentagon)
    assert crossing_data(a2_seed(), (1, 2)) == [((1, 0), 1), ((0, 1), 1)]
    assert crossing_data(a2_seed(), (2, 1, 2)) == \
        [((0, 1), 1), ((1, 1), 1), ((1, 0), 1)]


def test_dt_series_pentagon_and_phi0():
    seed = a2_seed()
    builders = {QUANTUM: quantum_cluster_sd, CLASSICAL: cluster_sd,
                DT_TWIST: dt_in_sd}
    for conv, build in builders.items():
        s1 = dt_series(seed, (1, 2), 6, conv)
        s2 = dt_series(seed, (2, 1, 2), 6, conv)
        assert s1 == s2
        assert s1 == build(seed, 6).phi((F(0), F(0)))


def test_dt_series_rank1():
    from scatdiag.lattice import Seed
    from scatdiag.torus import dilog_group_element
    seed = Seed(((0,),))
    assert dt_series(seed, (1,), 6, QUANTUM) == \
        dilog_group_element(seed, (1,), 6, QUANTUM)


def test_dt_series_through_red_crossings():
    # unrestricted sequences may cross a wall from red to green, which
    # contributes the inverse of its dilogarithm
    seed = a3_seed()
    seqs = enumerate_green_to_red(seed, 6, green_restricted=False)
    red = [s for s in seqs if any(eps < 0 for _, eps in crossing_data(seed, s))]
    assert len(seqs) == 13 and len(red) == 4 and (1, 2, 1, 3, 1) in red
    for conv in (QUANTUM, CLASSICAL, DT_TWIST):
        want = dt_series(seed, seqs[0], 4, conv)
        for s in red:
            assert dt_series(seed, s, 4, conv) == want, (conv, s)


def test_dt_series_a3_sequence_independent():
    seqs = enumerate_green_to_red(a3_seed(), 7)
    assert len(seqs) >= 2
    values = {dt_series(a3_seed(), s, 5, QUANTUM) for s in seqs[:4]}
    assert len(values) == 1


def _nondegenerate_a2(depth):
    sp = SeedWithPotential.make(a2_seed())
    return nondegenerate_to_depth(sp.quiver, sp.potential, depth)


@pytest.mark.parametrize("search", [
    lambda depth: enumerate_chambers(a2_seed(), depth),
    lambda depth: find_green_to_red(a2_seed(), depth),
    lambda depth: enumerate_green_to_red(a2_seed(), depth),
    _nondegenerate_a2], ids=["chambers", "find-g2r", "enumerate-g2r", "nondegenerate"])
@pytest.mark.parametrize("depth", [-1, 1.5, 2.0, True, "2", None])
def test_a_bad_depth_is_refused(search, depth):
    # a depth that is no non-negative int was read as another depth (True as
    # 1, a negative one as 0) or recursed without end
    with pytest.raises(ValueError, match="depth"):
        search(depth)
