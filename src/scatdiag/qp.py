"""Quivers with potential: cyclic calculus and DWZ mutation with reduction.

Potentials are linear combinations of cyclic words with rational
coefficients, each word stored in travel order (the target of one arrow
is the source of the next) and normalized to its lexicographically least
rotation.  Potentials are polynomial with a hard degree cap; a reduction
that does not stabilize below the cap is reported, not silently truncated.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction

from .lattice import Seed, mutate_seed

DEFAULT_CAP = 12

_JSON_TYPES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _typed(value, what, *types):
    """value, checked at the JSON boundary to have one of the given types
    (a bool is no integer), else a one-line ValueError naming what it is."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError("%s must be %s, got %r"
                         % (what, " or ".join(_JSON_TYPES[t] for t in types), value))
    return value


class ReductionError(ValueError):
    """Trivial-part splitting failed (non-invertible quadratic part or the
    degree cap was exceeded before the substitutions stabilized)."""


@dataclass(frozen=True)
class Quiver:
    nvertices: int
    arrows: tuple  # of (name, source, target), vertices 1-based

    def __post_init__(self):
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        for name, s, t in self.arrows:
            if not (1 <= s <= self.nvertices and 1 <= t <= self.nvertices):
                raise ValueError("arrow endpoint out of range")
            if s == t:
                raise ValueError("loops are not allowed")

    def arrow(self, name):
        for a in self.arrows:
            if a[0] == name:
                return a
        raise KeyError(name)

    def arrows_into(self, k):
        return [a for a in self.arrows if a[2] == k]

    def arrows_out_of(self, k):
        return [a for a in self.arrows if a[1] == k]

    def is_2_acyclic(self):
        pairs = {(s, t) for _, s, t in self.arrows}
        return not any((t, s) in pairs for s, t in pairs)

    def has_oriented_cycle(self):
        """Peel off the vertices no arrow from the rest enters; a cycle never peels."""
        left = set(range(1, self.nvertices + 1))
        while left - (entered := {t for _, s, t in self.arrows if s in left}):
            left = entered
        return bool(left)

    def b_matrix(self):
        n = self.nvertices
        b = [[0] * n for _ in range(n)]
        for _, s, t in self.arrows:
            b[s - 1][t - 1] += 1
            b[t - 1][s - 1] -= 1
        return tuple(tuple(row) for row in b)

    def arrow_count_multiset(self):
        counts = {}
        for _, s, t in self.arrows:
            counts[(s, t)] = counts.get((s, t), 0) + 1
        return counts

    def to_json(self):
        return {"vertices": self.nvertices,
                "arrows": [{"name": a[0], "source": a[1], "target": a[2]}
                           for a in self.arrows]}

    @staticmethod
    def from_json(data):
        data = _typed(json.loads(data) if isinstance(data, str) else data,
                      "a quiver", dict)
        try:
            nvertices = _typed(data["vertices"], "quiver vertices", int)
            arrows = []
            for a in _typed(data["arrows"], "quiver arrows", list):
                a = _typed(a, "an arrow", dict)
                arrows.append((_typed(a["name"], "an arrow name", str),
                               _typed(a["source"], "an arrow source", int),
                               _typed(a["target"], "an arrow target", int)))
        except KeyError as exc:
            raise ValueError("quiver JSON lacks the key %s" % exc) from None
        return Quiver(nvertices, tuple(arrows))


def quiver_from_seed(seed):
    """The 2-acyclic quiver with adjacency B(s)_{ij} = {s_i, s_j}."""
    arrows = []
    n = seed.rank
    for i in range(n):
        for j in range(n):
            m = seed.b[i][j]
            if i < j and m > 0:
                arrows.extend(("a%d_%d_%d" % (i + 1, j + 1, t), i + 1, j + 1)
                              for t in range(1, m + 1))
            elif i < j and m < 0:
                arrows.extend(("a%d_%d_%d" % (j + 1, i + 1, t), j + 1, i + 1)
                              for t in range(1, -m + 1))
    return Quiver(n, tuple(arrows))


# ---------------------------------------------------------------------------
# cyclic words
# ---------------------------------------------------------------------------

def normalize_cycle(word):
    rotations = [word[i:] + word[:i] for i in range(len(word))]
    return min(rotations)


def _check_cycle(quiver, word):
    names = {a[0] for a in quiver.arrows}
    for name in word:
        if name not in names:
            raise ValueError("potential word %r names no arrow of the quiver: %r"
                             % (word, name))
    for i, name in enumerate(word):
        _, s, t = quiver.arrow(name)
        _, s2, _ = quiver.arrow(word[(i + 1) % len(word)])
        if t != s2:
            raise ValueError("not a cyclic path: %r" % (word,))


@dataclass(frozen=True)
class Potential:
    """Normalized linear combination of cyclic words of length >= 2."""

    terms: tuple        # of (word tuple, Fraction), sorted
    cap: int = DEFAULT_CAP

    @staticmethod
    def make(quiver, terms, cap=DEFAULT_CAP):
        acc = {}
        for word, coeff in (terms.items() if isinstance(terms, dict) else terms):
            word = normalize_cycle(tuple(word))
            if len(word) < 2:
                raise ValueError("potential words have length >= 2")
            if len(word) > cap:
                raise ValueError("potential word above the degree cap")
            _check_cycle(quiver, word)
            c = acc.get(word, Fraction(0)) + Fraction(coeff)
            if c:
                acc[word] = c
            else:
                acc.pop(word, None)
        return Potential(tuple(sorted(acc.items())), cap)

    @staticmethod
    def zero():
        return Potential(())

    def is_zero(self):
        return not self.terms

    def to_json(self):
        return [{"word": list(w), "coeff": "%s" % c} for w, c in self.terms]

    @staticmethod
    def from_json(quiver, data, cap=DEFAULT_CAP):
        terms = []
        try:
            for e in _typed(data, "a potential", list):
                e = _typed(e, "a potential term", dict)
                word = _typed(e["word"], "a potential word", list)
                coeff = _typed(e["coeff"], "a potential coefficient", int, str)
                terms.append((tuple(_typed(a, "a word letter", str) for a in word),
                              Fraction(coeff)))
        except KeyError as exc:
            raise ValueError("potential JSON term lacks the key %s" % exc) from None
        except ZeroDivisionError:
            raise ValueError("potential coefficient %r divides by zero" % coeff) from None
        return Potential.make(quiver, terms, cap)


def cyclic_derivative(quiver, potential, name):
    """d/d(name): every occurrence contributes the path read from the next
    letter around the cycle; returned as a dict path -> coefficient."""
    out = {}
    for word, coeff in potential.terms:
        for i, a in enumerate(word):
            if a == name:
                path = word[i + 1:] + word[:i]
                c = out.get(path, Fraction(0)) + coeff
                if c:
                    out[path] = c
                else:
                    out.pop(path, None)
    return out


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------

def composite_name(alpha, beta):
    return "[%s%s]" % (beta, alpha)


def reversed_name(alpha):
    return alpha + "*"


def tilde_mutate(quiver, potential, k):
    """The intermediate QP: composite arrows, reversed arrows at k, and the
    substituted potential plus the cubic correction terms."""
    if not quiver.is_2_acyclic():
        raise ValueError("tilde mutation needs a 2-acyclic quiver")
    incoming = quiver.arrows_into(k)
    outgoing = quiver.arrows_out_of(k)
    arrows = []
    for name, s, t in quiver.arrows:
        if t == k:
            arrows.append((reversed_name(name), k, s))
        elif s == k:
            arrows.append((reversed_name(name), t, k))
        else:
            arrows.append((name, s, t))
    for aname, ai, _ in incoming:
        for bname, _, bj in outgoing:
            arrows.append((composite_name(aname, bname), ai, bj))
    new_quiver = Quiver(quiver.nvertices, tuple(arrows))

    new_terms = {}
    for word, coeff in potential.terms:
        # rotate so the basepoint is not k (no wrap-around pair through k)
        rot = None
        for i in range(len(word)):
            cand = word[i:] + word[:i]
            if quiver.arrow(cand[0])[1] != k:
                rot = cand
                break
        assert rot is not None
        out = []
        i = 0
        while i < len(rot):
            name = rot[i]
            _, s, t = quiver.arrow(name)
            if t == k:
                nxt = rot[i + 1]
                out.append(composite_name(name, nxt))
                i += 2
            elif s == k:
                raise AssertionError("unpaired arrow out of k")
            else:
                out.append(name)
                i += 1
        word2 = normalize_cycle(tuple(out))
        new_terms[word2] = new_terms.get(word2, Fraction(0)) + coeff
    for aname, _, _ in incoming:
        for bname, _, _ in outgoing:
            # cycle  [ba] a* b*  based at the target of b, in travel order
            word = normalize_cycle((reversed_name(bname), reversed_name(aname),
                                    composite_name(aname, bname)))
            new_terms[word] = new_terms.get(word, Fraction(0)) + 1
    return new_quiver, Potential.make(new_quiver, new_terms, potential.cap)


def _substitute(quiver, potential, name, replacement):
    """Replace an arrow by (arrow + correction paths) inside the potential.

    replacement maps paths (tuples, possibly containing the arrow itself at
    higher length) to coefficients; the arrow itself must appear with
    coefficient 1 in replacement for this to be a right equivalence.
    """
    out = {}
    for word, coeff in potential.terms:
        # expand every occurrence multiplicatively
        expansions = [((), Fraction(1))]
        for a in word:
            new = []
            if a == name:
                for path, c in replacement.items():
                    for prefix, pc in expansions:
                        new.append((prefix + path, pc * c))
            else:
                new = [(prefix + (a,), pc) for prefix, pc in expansions]
            expansions = new
        for path, pc in expansions:
            if len(path) > potential.cap:
                raise ReductionError("degree cap exceeded during reduction")
            w = normalize_cycle(path)
            c = out.get(w, Fraction(0)) + coeff * pc
            if c:
                out[w] = c
            else:
                out.pop(w, None)
    return Potential.make(quiver, out, potential.cap)


def reduce_qp(quiver, potential):
    """The reduced part (reduced_quiver, reduced_potential): what is left
    when the trivial part, the invertible 2-cycle terms, is split off.

    Iteratively eliminates invertible 2-cycle terms by the substitution
    v -> v - (1/c) (d_u w - c v), which only ever rewrites arrows that are
    themselves being deleted, so the induced module transport keeps the
    retained arrow actions unchanged.
    """
    pot = potential
    eliminated = []
    rounds = 0
    while True:
        rounds += 1
        if rounds > 40 + 4 * len(quiver.arrows):
            raise ReductionError("reduction did not stabilize below the cap")
        quad = [(w, c) for w, c in pot.terms
                if len(w) == 2 and w[0] not in eliminated and w[1] not in eliminated]
        if not quad:
            break
        (u, vv), c = quad[0]
        # d_u pot = c*v + rest;  substitute v -> v - rest/c
        du = cyclic_derivative(quiver, pot, u)
        rest = {p: q for p, q in du.items() if p != (vv,)}
        if du.get((vv,), Fraction(0)) == 0:
            raise ReductionError("non-invertible quadratic part at %r" % ((u, vv),))
        cc = du[(vv,)]
        repl = {(vv,): Fraction(1)}
        for path, q in rest.items():
            repl[path] = -q / cc
        pot = _substitute(quiver, pot, vv, repl)
        # after the substitution u appears exactly in the quadratic term
        du2 = cyclic_derivative(quiver, pot, u)
        if set(du2) != {(vv,)}:
            continue  # another pass needed (u met other eliminated arrows)
        pot = Potential.make(quiver,
                             [(w, q) for w, q in pot.terms
                              if u not in w and vv not in w], potential.cap)
        eliminated.extend([u, vv])
    leftover = [w for w, _ in pot.terms if len(w) == 2]
    if leftover:
        raise ReductionError("2-cycle terms remain unreduced: %r" % leftover)
    keep = [a for a in quiver.arrows if a[0] not in eliminated]
    # arrows of deleted 2-cycles must leave the quiver even when the
    # potential never coupled them; that case is a non-mutable input and is
    # caught by the is_k_mutable comparison downstream.
    red_quiver = Quiver(quiver.nvertices, tuple(keep))
    red_pot = Potential.make(red_quiver, pot.terms, potential.cap)
    return red_quiver, red_pot


def mutate_qp(quiver, potential, k):
    """DWZ mutation: the reduced part of the tilde mutation."""
    tq, tw = tilde_mutate(quiver, potential, k)
    return reduce_qp(tq, tw)


def _k_mutation(quiver, potential, k):
    """The DWZ mutation at k, or None when the input is not k-mutable."""
    try:
        rq, rw = mutate_qp(quiver, potential, k)
    except ReductionError:
        return None
    # the 2-acyclic mutation of the quiver alone: the mutated exchange matrix
    mu_k = quiver_from_seed(mutate_seed(Seed(quiver.b_matrix()), k, -1)[0])
    if rq.arrow_count_multiset() != mu_k.arrow_count_multiset():
        return None
    return rq, rw


def is_k_mutable(quiver, potential, k):
    """Whether the reduced quiver of the tilde mutation equals mu_k(quiver)."""
    return _k_mutation(quiver, potential, k) is not None


def nondegenerate_to_depth(quiver, potential, depth):
    """Check k-mutability along every mutation sequence of length <= depth."""
    if depth == 0:
        return True
    for k in range(1, quiver.nvertices + 1):
        mutated = _k_mutation(quiver, potential, k)
        if mutated is None or not nondegenerate_to_depth(*mutated, depth - 1):
            return False
    return True


# ---------------------------------------------------------------------------
# seeds with potential
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedWithPotential:
    seed: Seed
    quiver: Quiver
    potential: Potential

    def __post_init__(self):
        if self.quiver.b_matrix() != self.seed.b:
            raise ValueError("quiver does not match the seed pairing matrix")

    @staticmethod
    def make(seed, potential_terms=(), cap=DEFAULT_CAP):
        quiver = quiver_from_seed(seed)
        return SeedWithPotential(seed, quiver, Potential.make(quiver, potential_terms, cap))

    def to_json(self):
        return {"seed": self.seed.to_json(), "quiver": self.quiver.to_json(),
                "potential": self.potential.to_json(), "cap": self.potential.cap}

    @staticmethod
    def from_json(data):
        data = _typed(json.loads(data) if isinstance(data, str) else data,
                      "a seed with potential", dict)
        missing = [key for key in ("seed", "quiver", "potential") if key not in data]
        if missing:
            raise ValueError("seed-with-potential JSON lacks %s" % ", ".join(missing))
        seed = Seed.from_json(_typed(data["seed"], "the seed", dict))
        quiver = Quiver.from_json(data["quiver"])
        cap = _typed(data.get("cap", DEFAULT_CAP), "cap", int)
        pot = Potential.from_json(quiver, data["potential"], cap)
        return SeedWithPotential(seed, quiver, pot)


# reps.reflect mutates once per representation; a ReductionError is not cached
@functools.lru_cache(maxsize=256)
def mutate_sp(sp, k, sign):
    """Mutate the seed with the chosen sign and the potential by DWZ."""
    mutated = _k_mutation(sp.quiver, sp.potential, k)
    if mutated is None:
        raise ReductionError("seed with potential is not mutable at %d" % k)
    new_seed, change = mutate_seed(sp.seed, k, sign)
    return SeedWithPotential(new_seed, *mutated), change
