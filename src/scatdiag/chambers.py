"""Cluster chambers, green-to-red search and refined DT series.

A chamber node is the cone of a seed reached by a mutation sequence from
the root: its generators are the g-vectors and its inward facet normals
the c-vectors, both in root-seed coordinates.  Each mutation is one exact
integer step of the tropical recurrence from the parent node, so a walk
over the mutation tree costs one step per node.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .lattice import Seed, check_depth, mutate_seed
from .torus import GradedElement, dilog_group_element, expose, to_carrier
from .scattering import Report, corrupted, _first_difference


@dataclass(frozen=True)
class ChamberNode:
    """A cluster chamber reached by a mutation sequence from the root."""

    seed: Seed          # the root seed mutated along the sequence
    sequence: tuple     # vertices, 1-based
    generators: tuple   # g-vectors aligned with vertices, root coordinates
    cvectors: tuple     # primitive inward facet normals aligned with vertices

    def key(self):
        return frozenset(self.generators)

    def crossing(self, k):
        """(c_k made positive, +1 if it was green, -1 if it was red)."""
        c = self.cvectors[k - 1]
        if all(x >= 0 for x in c):
            return c, 1
        if all(x <= 0 for x in c):
            return tuple(-x for x in c), -1
        raise AssertionError("c-vector is not sign-coherent: %r" % (c,))

    def mutate(self, k):
        """The chamber across the facet c_k^perp, one tropical step away.

        With eps the sign of c_k and b this seed's matrix: c'_k = -c_k,
        c'_j = c_j + [-eps b_kj]_+ c_k and g'_j = g_j for j != k, and
        g'_k = -g_k + sum_i [eps b_ik]_+ g_i.  This is exact.  The chambers
        share the facet c_k^perp.  c-vectors are sign-coherent (Gross,
        Hacking, Keel and Kontsevich, "Canonical bases for cluster
        algebras", 2018), so the piecewise-linear mutation is linear on this
        step with the sign eps, and the recurrence is its tropical form
        (Nakanishi and Zelevinsky, "On tropical dualities in cluster
        algebras", 2012).  It keeps c_i . g_j = delta_ij, the duality that
        inverting the generator matrix used to enforce, so every vector
        stays primitive and integer.
        """
        seed = mutate_seed(self.seed, k, -1)[0]     # also checks the vertex
        eps, kk = self.crossing(k)[1], k - 1
        b, c, g = self.seed.b, self.cvectors, self.generators
        cvecs = tuple(tuple(x + max(-eps * b[kk][j], 0) * y for x, y in zip(c[j], c[kk]))
                      if j != kk else tuple(-x for x in c[kk]) for j in range(len(c)))
        gk = tuple(sum(max(eps * b[i][kk], 0) * gi[t] for i, gi in enumerate(g)) - x
                   for t, x in enumerate(g[kk]))
        return ChamberNode(seed, self.sequence + (k,), g[:kk] + (gk,) + g[k:], cvecs)


def chamber_from_sequence(seed, sequence):
    """The chamber reached from C^+ by mutating at each vertex in turn."""
    n = seed.rank
    unit = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    node = ChamberNode(seed, (), unit, unit)
    for k in sequence:
        node = node.mutate(k)
    return node


def enumerate_chambers(seed, max_depth):
    """Breadth-first walk of the mutation tree, deduplicating chambers by
    their generator sets; immediate backtracking is skipped."""
    check_depth(max_depth)
    root = chamber_from_sequence(seed, ())
    seen = {root.key(): root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        if len(node.sequence) >= max_depth:
            continue
        for k in range(1, seed.rank + 1):
            if node.sequence[-1:] != (k,):
                child = node.mutate(k)
                if child.key() not in seen:
                    seen[child.key()] = child
                    queue.append(child)
    return list(seen.values())


def negative_chamber_key(seed):
    n = seed.rank
    return frozenset(tuple(-1 if j == i else 0 for j in range(n)) for i in range(n))


def _green_to_red(seed, max_depth, green_restricted):
    """Green-to-red sequences up to the depth, in breadth-first order.

    The restricted mode mutates only at green vertices (positive c-vector);
    the unrestricted mode searches every sequence.
    """
    check_depth(max_depth)
    target = negative_chamber_key(seed)
    queue = deque([chamber_from_sequence(seed, ())])
    while queue:
        node = queue.popleft()
        if node.key() == target:
            yield node.sequence
        elif len(node.sequence) < max_depth:
            for k in range(1, seed.rank + 1):
                if node.sequence[-1:] != (k,) and \
                        (not green_restricted or node.crossing(k)[1] > 0):
                    queue.append(node.mutate(k))


def find_green_to_red(seed, max_depth, green_restricted=True):
    """Shortest mutation sequence whose terminal chamber is C^-, or None."""
    return next(_green_to_red(seed, max_depth, green_restricted), None)


def enumerate_green_to_red(seed, max_depth, green_restricted=True):
    """Every green-to-red sequence up to the depth, in breadth-first order."""
    return list(_green_to_red(seed, max_depth, green_restricted))


def crossing_data(seed, sequence):
    """Per mutation step: (primitive positive facet normal, +1 for a green
    crossing, -1 for a red one)."""
    nodes = [chamber_from_sequence(seed, ())]
    for k in sequence:
        nodes.append(nodes[-1].mutate(k))
    return [node.crossing(k) for node, k in zip(nodes, sequence)]


def dt_series(seed, sequence, order, convention):
    """Ordered product of the dilogarithm wall functions crossed on the way
    from C^+ to C^-; equals phi(0) of the completed diagram."""
    result = None
    for n0, eps in crossing_data(seed, sequence):
        value = to_carrier(dilog_group_element(seed, n0, order, convention))
        if eps < 0:
            value = value.group_inverse()
        result = value if result is None else result.mul(value)
    if result is None:
        result = to_carrier(GradedElement.one(seed, order, convention))
    return expose(result, convention)


def pentagon_suite(seed, depth, order, convention, corrupt):
    """A Report that every green-to-red sequence up to the depth gives the
    DT series of the first, a failure naming both sequences, and the
    sequences; fewer than two do not pass.  `corrupt` corrupts the last."""
    seqs = enumerate_green_to_red(seed, depth)
    series = [dt_series(seed, s, order, convention) for s in seqs]
    if corrupt and len(seqs) > 1:
        series[-1] = corrupted(series[-1])
    failures = []
    for s, x in zip(seqs[1:], series[1:]):
        diff = _first_difference(series[0].coeffs, x.coeffs)
        if diff is not None:
            failures.append(("series", (seqs[0], s), *diff))
    return Report(len(seqs) > 1 and not failures, len(seqs[1:]), [], failures), seqs
