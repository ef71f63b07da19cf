"""Seeds, the skew form, dual-space geometry and exact cone combinatorics.

A seed is a basis of a rank-n lattice together with the matrix B of the
skew-symmetric form in that basis, B[i][j] = {s_i, s_j}.  Dimension
vectors are integer tuples in the seed basis; covectors are rational
tuples in the dual basis, so m(d) = sum(m_i d_i).  All geometry is exact:
wall membership is decided by sign tests, and cones and the faces of a
hyperplane arrangement are built by double description, as integer extreme
rays modulo a lineality basis, with no linear programming and no Gaussian
elimination: a face's dimension is carried through the cuts that build the
face, and the integer basis of a hyperplane is the lineality that cutting
all space by its normal leaves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


@dataclass(frozen=True)
class Seed:
    """A lattice basis with its skew-symmetric pairing matrix."""

    b: tuple

    def __post_init__(self):
        try:
            b = tuple(tuple(row) for row in self.b)
        except TypeError:
            raise ValueError("B must be a matrix, got %r" % (self.b,)) from None
        # int() would accept 1.5 and True; the pairing must be exact
        if any(type(x) is not int for row in b for x in row):
            raise ValueError("B entries must be integers, got %r" % (self.b,))
        object.__setattr__(self, "b", b)
        n = len(b)
        if n == 0:
            raise ValueError("B must have rank >= 1, got an empty matrix")
        if any(len(row) != n for row in self.b):
            raise ValueError("B must be square")
        for i in range(n):
            if self.b[i][i] != 0:
                raise ValueError("B must have zero diagonal")
            for j in range(n):
                if self.b[i][j] != -self.b[j][i]:
                    raise ValueError("B must be skew-symmetric")

    @property
    def rank(self):
        return len(self.b)

    @staticmethod
    def from_json(text):
        data = json.loads(text) if isinstance(text, str) else text
        if "B" not in data:
            raise ValueError("seed JSON has no \"B\" matrix")
        seed = Seed(data["B"])
        rank = data.get("rank", seed.rank)
        if type(rank) is not int:
            raise ValueError("seed rank must be an integer, got %r" % (rank,))
        if rank != seed.rank:
            raise ValueError("rank field disagrees with B")
        return seed

    def to_json(self):
        return {"rank": self.rank, "B": [list(r) for r in self.b]}


def a2_seed():
    return Seed(((0, 1), (-1, 0)))


def a3_seed():
    return Seed(((0, 1, 0), (-1, 0, 1), (0, -1, 0)))


def kronecker_seed(m=2):
    return Seed(((0, m), (-m, 0)))


def markov_seed():
    return Seed(((0, 2, -2), (-2, 0, 2), (2, -2, 0)))


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

def skew(seed, d1, d2):
    """The pairing {d1, d2} = d1^T B d2."""
    b = seed.b
    total = 0
    for i, x in enumerate(d1):
        if x:
            row = b[i]
            total += x * sum(row[j] * y for j, y in enumerate(d2) if y)
    return total


def p_star(seed, n):
    """The covector {n, .}; its i-th dual coordinate is {n, s_i}."""
    b = seed.b
    return tuple(sum(n[j] * b[j][i] for j in range(len(n))) for i in range(len(n)))


def pair(m, d):
    """Evaluate a covector on a dimension vector."""
    return sum(mi * di for mi, di in zip(m, d))


def check_covector(m, rank):
    """Reject a covector whose length is not the seed rank, or with an entry
    that is not exact: an int or a Fraction (a bool or a float is neither)."""
    if len(m) != rank:
        raise ValueError("covector has %d entries, the seed rank is %d" % (len(m), rank))
    if any(isinstance(x, bool) or not isinstance(x, (int, Fraction)) for x in m):
        raise ValueError("covector entries must be ints or Fractions: %r" % (tuple(m),))


def check_depth(depth):
    """Reject a search depth that is not a non-negative int (a bool is none)."""
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 0:
        raise ValueError("depth must be a non-negative integer, got %r" % (depth,))


def total_degree(d):
    return sum(d)


def primitive(vec):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def rational_primitive(vec):
    """Clear denominators and divide by the content; direction is kept."""
    vec = [Fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in vec))
    return primitive(tuple(x.numerator * (den // x.denominator) for x in vec))


# ---------------------------------------------------------------------------
# seed mutation
# ---------------------------------------------------------------------------

def mutate_seed(seed, k, sign):
    """Mutate the basis at vertex k (1-based) with the given sign.

    Returns (new_seed, change) where `change` expresses the new basis in
    the old one: column j of change is s'_j written in old coordinates.
    """
    n = seed.rank
    # True == 1 and 1.0 == 1, but neither is an int vertex or sign
    if type(k) is not int or not 1 <= k <= n:
        raise ValueError("vertex out of range")
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    kk, b = k - 1, seed.b
    # s'_k = -s_k and s'_j = s_j + [-sign b_jk]_+ s_k: the identity but for row k
    row_k = tuple(-1 if j == kk else max(-sign * b[j][kk], 0) for j in range(n))
    change = tuple(row_k if i == kk else tuple(int(i == j) for j in range(n)) for i in range(n))
    # B' = change^T B change in closed form, the same for either sign
    # (Fomin-Zelevinsky, math/0602259)
    newb = tuple(tuple(-b[i][j] if kk in (i, j) else b[i][j] + (
        abs(b[i][kk]) * b[kk][j] + b[i][kk] * abs(b[kk][j])) // 2
        for j in range(n)) for i in range(n))
    return Seed(newb), change


def apply_change_to_dimvec(change, d):
    """Old-basis coordinates of a vector given in the new basis."""
    n = len(change)
    return tuple(sum(change[i][j] * d[j] for j in range(n)) for i in range(n))


def covector_to_new_basis(change, m):
    """Dual coordinates of a covector with respect to the new basis."""
    n = len(change)
    return tuple(sum(change[i][j] * m[i] for i in range(n)) for j in range(n))


# ---------------------------------------------------------------------------
# cones and arrangement faces by double description
# ---------------------------------------------------------------------------
#
# A cone is kept as cone(rays) + span(lineality): primitive integer extreme
# rays, taken modulo an integer lineality basis (Motzkin's double
# description; Fukuda and Prodon, "Double description method revisited",
# 1996).  Cutting it by one more hyperplane needs only sign tests.

def _unit_basis(dim):
    return tuple(tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim))


def _cut(rays, lin, n, cut):
    """Cut cone(rays) + span(lin) by the hyperplane of n.

    `cut` lists the normals of the hyperplanes that already bound the cone.
    Returns (lineality, closed, live): `closed[s]` are the extreme rays of
    the cone's intersection with s*n >= 0 (s = 1, -1) or with n = 0 (s = 0),
    modulo the returned lineality basis, and `live` the signs s whose open
    piece (where the sign of n is s) meets the relative interior.
    """
    k = next((i for i, l in enumerate(lin) if pair(n, l)), None)
    if k is not None:
        # n cuts the lineality: project onto n-perp along lin[k]
        lead = lin[k] if pair(n, lin[k]) > 0 else tuple(-x for x in lin[k])
        a = pair(n, lead)

        def onto(v):
            return primitive(tuple(a * x - pair(n, v) * y for x, y in zip(v, lead)))
        rays = tuple(onto(r) for r in rays)
        lin = tuple(onto(l) for i, l in enumerate(lin) if i != k)
        back = tuple(-x for x in lead)
        return lin, {1: rays + (lead,), 0: rays, -1: rays + (back,)}, (1, 0, -1)
    side = {1: [], 0: [], -1: []}
    for r in rays:
        v = pair(n, r)
        side[(v > 0) - (v < 0)].append(r)
    pos, zero, neg = side[1], side[0], side[-1]
    if pos and neg:
        # new rays join adjacent (+, -) pairs: two extreme rays are adjacent
        # when no third one is tight on every bounding hyperplane that both
        # are tight on (hyperplanes not yet cut do not bound the cone)
        tight = {r: sum(1 << i for i, c in enumerate(cut) if not pair(c, r)) for r in rays}
        for p in pos:
            for q in neg:
                common = tight[p] & tight[q]
                if not any(tight[r] & common == common for r in rays if r != p and r != q):
                    zero.append(primitive(tuple(pair(n, p) * y - pair(n, q) * x
                                                for x, y in zip(p, q))))
    live = tuple(s for s, ok in ((1, pos), (0, bool(pos) == bool(neg)), (-1, neg)) if ok)
    return lin, {1: tuple(pos + zero), 0: tuple(zero), -1: tuple(neg + zero)}, live


def _ray_sum(rays, dim):
    """A point of the relative interior of cone(rays) + span(lineality)."""
    return tuple(sum(r[i] for r in rays) for i in range(dim))


@dataclass(frozen=True)
class SignedFace:
    """A face of a central arrangement: its sign vector over the normals, an
    interior witness, its dimension, and its extreme rays modulo the
    arrangement's lineality basis."""

    normals: tuple
    signs: tuple
    witness: tuple
    dim: int
    rays: tuple
    lineality: tuple


def dedupe_primitive(vectors):
    out, seen = [], set()
    for v in vectors:
        p = primitive(v)
        if p not in seen and any(p):
            seen.add(p)
            out.append(p)
    return tuple(out)


def face_enumerate(support, dim):
    """All faces of the hyperplane arrangement of the supplied normals.

    Normals are deduplicated to primitive vectors first.  The arrangement is
    built one hyperplane at a time: a normal that cuts the lineality splits
    every face in three; otherwise a face splits in three when its rays take
    both signs on the normal and keeps its rays when they do not.  Only the
    zero piece of a face split in three loses a dimension.  An empty support
    yields the single all-space face.
    """
    normals = dedupe_primitive(support)
    lin = _unit_basis(dim)
    faces = [((), (), dim)]
    for k, n in enumerate(normals):
        split = []
        for signs, rays, d in faces:
            new_lin, pieces, live = _cut(rays, lin, n, normals[:k])
            split.extend((signs + (s,), pieces[s], d - (s == 0 and len(live) == 3))
                         for s in live)
        lin, faces = new_lin, split
    lin = tuple(sorted(lin))
    return [SignedFace(normals, signs, _ray_sum(rays, dim), d, rays, lin)
            for signs, rays, d in faces]

