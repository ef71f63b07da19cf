"""Finite-field representation oracle for the stability side.

Representations of the Jacobian algebra over a prime field are enumerated
as raw matrix tuples, against one relation test per dimension vector that
reads the relations mod p once and decides each relation from the matrices
of only the arrows it reads, memoised on them.  King semistability is
decided by searching only the subspaces of destabilizing dimension vectors,
listed once per dimension vector, against a bitmask per arrow matrix of the
subspace tuples it preserves.  Reflection functors follow the
kernel/cokernel construction, with the mutation, the derivative terms and
the mutated relation tests prepared once per (SP, k, sign); the derivative
terms are read off `qp.cyclic_derivative`, and a QP that is not mutable at
k raises `qp.ReductionError`, a ValueError.
The wall-function counting series is the Harder-Narasimhan factor of the
total counting element, built over Q(v) with q = v^2 like the rest of the
package (so no point enumeration is needed at large dimensions); a prime
enters only in `at_prime`, which evaluates a series at v = sqrt(p).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .coeff import ONE, CoeffFn, gl_count, q_power
from .lattice import check_covector, covector_to_new_basis, pair, rational_primitive
from .qp import SeedWithPotential, composite_name, cyclic_derivative, mutate_sp
from .torus import GROUP, QUANTUM, GradedElement
from .scattering import Report, ScatDiagram


class BudgetExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# F_p linear algebra (matrices are tuples of row tuples)
# ---------------------------------------------------------------------------

# Miller-Rabin with the first thirteen primes as bases decides primality
# exactly below this bound, the least strong pseudoprime to all of them
# (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin for 2 <= p < _MR_BOUND."""
    if any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1     # 2^s exactly divides p - 1
    for a in _MR_BASES:
        x = pow(a, (p - 1) >> s, p)
        # a witnesses that p is composite unless x = 1 or one of
        # x, x^2, ..., x^(2^(s-1)) is p - 1
        if x != 1 and all(pow(x, 1 << i, p) != p - 1 for i in range(s)):
            return False
    return True


def _check_prime(p):
    """Reject a p that is not a prime below _MR_BOUND: arithmetic mod a
    composite p is not that of a field."""
    if not isinstance(p, int) or not 2 <= p < _MR_BOUND or not _is_prime(p):
        raise ValueError("p must be a prime below %d, got %r" % (_MR_BOUND, p))


def mat_mul(a, b, p, shape=None):
    """Product over F_p; pass shape=(rows, cols) when a factor may be empty
    (the tuple encoding cannot represent 0 x n shapes unambiguously)."""
    if shape is not None:
        rows, cols = shape
        if rows == 0 or cols == 0 or not b or not a:
            return zero_mat(rows, cols)
    if not a or not b:
        return tuple(() for _ in a)
    cols = len(b[0])
    return tuple(tuple(sum(ra[t] * b[t][j] for t in range(len(b))) % p
                       for j in range(cols)) for ra in a)


def mat_vec(a, v, p):
    return tuple(sum(ra[j] * v[j] for j in range(len(v))) % p for ra in a)


def zero_mat(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def rref_p(rows, p):
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat and mat[0] else 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def kernel_basis(mat, ncols, p):
    """Basis of {v : mat v = 0} over F_p."""
    red, pivots = rref_p(mat, p) if mat else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-red[r][f]) % p
        out.append(tuple(v))
    return out


@functools.cache
def all_subspaces(p, n):
    """Every subspace of F_p^n, as (echelon basis rows, frozenset of points),
    grouped by dimension: entry k holds the k-dimensional ones.  The value
    is built once per (p, n) and is immutable."""
    out = []
    for k in range(n + 1):
        group = []
        for pivots in itertools.combinations(range(n), k):
            slots = []
            for r in range(k):
                for c in range(n):
                    if c > pivots[r] and c not in pivots:
                        slots.append((r, c))
            for values in itertools.product(range(p), repeat=len(slots)):
                rows = [[0] * n for _ in range(k)]
                for r in range(k):
                    rows[r][pivots[r]] = 1
                for (r, c), val in zip(slots, values):
                    rows[r][c] = val
                basis = tuple(tuple(r) for r in rows)
                pts = set()
                for coefs in itertools.product(range(p), repeat=k):
                    v = tuple(sum(coefs[i] * basis[i][j] for i in range(k)) % p
                              for j in range(n))
                    pts.add(v)
                group.append((basis, frozenset(pts)))
        out.append(tuple(group))
    return tuple(out)


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rep:
    sp: SeedWithPotential
    p: int
    dims: tuple
    mats: tuple   # one matrix per arrow, in the order of sp.quiver.arrows

    def matrix(self, name):
        for (a, _, _), m in zip(self.sp.quiver.arrows, self.mats):
            if a == name:
                return m
        raise KeyError(name)


def _check_vertex(i, n, what):
    if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= n:
        raise ValueError("%s must be a vertex 1..%d, got %r" % (what, n, i))


def _check_dims(sp, dims):
    """dims as a tuple; ValueError unless it holds one non-negative int (not
    a bool) per vertex of sp."""
    dims = tuple(dims)
    if len(dims) != sp.seed.rank or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in dims):
        raise ValueError("a dimension vector needs %d non-negative integers, got %r"
                         % (sp.seed.rank, dims))
    return dims


def make_rep(sp, p, dims, mats):
    """The representation of sp over F_p given by `mats`: a dict from each
    arrow name, and no other, to its dims[target] x dims[source] matrix, a
    tuple of row tuples of ints 0..p-1 (`()` for a matrix with no rows).
    ValueError for any other input, and unless the matrices satisfy the
    Jacobian relations and act nilpotently."""
    _check_prime(p)
    dims = _check_dims(sp, dims)
    arrows = sp.quiver.arrows
    if not isinstance(mats, dict) or set(mats) != {name for name, _, _ in arrows}:
        raise ValueError("a matrix is needed for each of the arrows %s and no other, got %r"
                         % (", ".join(name for name, _, _ in arrows), mats))
    for name, s, t in arrows:
        m, rows, cols = mats[name], dims[t - 1], dims[s - 1]
        if not (isinstance(m, tuple) and len(m) == rows
                and all(isinstance(row, tuple) and len(row) == cols
                        and all(type(x) is int and 0 <= x < p for x in row) for row in m)):
            raise ValueError("arrow %s needs a %d x %d tuple of row tuples with entries "
                             "0..%d, got %r" % (name, rows, cols, p - 1, m))
    rep = Rep(sp, p, dims, tuple(mats[name] for name, _, _ in arrows))
    check_relations(rep)
    return rep


def check_relations(rep):
    """Raise ValueError unless rep satisfies the Jacobian relations and the
    path ideal acts nilpotently."""
    test = _relation_test(rep.sp, rep.dims, rep.p)
    failure = test and test(rep.mats)
    if failure:
        raise ValueError(failure)


def _terms(deriv, where, p):
    """A potential derivative as (path, coefficient mod p) pairs, each path
    as the (position, target's index) of its arrows in travel order, read
    from `where` (arrow name -> that pair)."""
    out = []
    for path, coeff in deriv.items():
        c = Fraction(coeff)
        if c.denominator % p == 0:
            raise ValueError("potential coefficient not defined mod p")
        out.append((tuple(where[a] for a in path),
                    (c.numerator * pow(c.denominator, p - 2, p)) % p))
    return out


def _positions(quiver):
    """Arrow name -> (its position in quiver.arrows, its target's index)."""
    return {name: (i, t - 1) for i, (name, _, t) in enumerate(quiver.arrows)}


def _path_sum(mats, dims, terms, rows, cols, p):
    """The rows x cols matrix of a potential derivative given as `_terms`
    pairs, for the matrices `mats` in the order of quiver.arrows: each
    path's matrix M_{a_r} ... M_{a_1}, multiplied out from M_{a_1}, weighted
    by its coefficient."""
    total = [[0] * cols for _ in range(rows)]
    for path, c in terms:
        (first, _), *rest = path
        m = mats[first]
        for i, t in rest:
            m = mat_mul(mats[i], m, p, shape=(dims[t], cols))
        for acc, row in zip(total, m):
            for j, x in enumerate(row):
                acc[j] += c * x
    return tuple(tuple(x % p for x in acc) for acc in total)


def _relation_test(sp, dims, p):
    """The Jacobian relations of sp over F_p at dimension vector dims, and
    nilpotency, as a predicate on matrix tuples in the order of
    sp.quiver.arrows: why a tuple breaks them, or None.  In place of the
    predicate, None when no tuple can break them: every relation's block is
    empty, and the quiver has no oriented cycle or dims is 0.

    The relations are read mod p once.  Each is decided from the matrices
    of only the arrows on its paths, and the verdict is memoised on those
    matrices for as long as the predicate lives."""
    quiver = sp.quiver
    where = _positions(quiver)
    relations = []
    for name, s, t in quiver.arrows:
        terms = _terms(cyclic_derivative(quiver, sp.potential, name), where, p)
        rows, cols = dims[s - 1], dims[t - 1]
        if terms and rows and cols:
            reads = sorted({i for path, _ in terms for i, _ in path})
            relations.append((name, terms, rows, cols, reads, {}))
    # the size of the total arrow operator, when its nilpotency is tested:
    # every representation of a quiver without an oriented cycle is nilpotent
    n = sum(dims) if quiver.has_oriented_cycle() else 0
    if not relations and not n:
        return None
    offs = list(itertools.accumulate(dims, initial=0))
    blocks = [(offs[t - 1], offs[s - 1]) for _, s, t in quiver.arrows]

    def failure(mats):
        for name, terms, rows, cols, reads, memo in relations:
            key = tuple(mats[i] for i in reads)
            if key not in memo:
                memo[key] = any(map(any, _path_sum(mats, dims, terms, rows, cols, p)))
            if memo[key]:
                return "Jacobian relation fails at %s" % name
        if n:
            # nilpotency of the total arrow operator
            big = [[0] * n for _ in range(n)]
            for m, (row0, col0) in zip(mats, blocks):
                for i, row in enumerate(m):
                    big[row0 + i][col0:col0 + len(row)] = row
            power = big = tuple(tuple(r) for r in big)
            for _ in range(n):    # A^k = 0 gives A^n = 0 for every n >= k
                if not any(map(any, power)):
                    break
                power = mat_mul(big, power, p)
            else:
                return "path ideal does not act nilpotently"
        return None

    return failure


def simple_rep(sp, p, i):
    _check_vertex(i, sp.seed.rank, "i")
    dims = tuple(1 if j == i - 1 else 0 for j in range(sp.seed.rank))
    mats = {a[0]: zero_mat(dims[a[2] - 1], dims[a[1] - 1]) for a in sp.quiver.arrows}
    return make_rep(sp, p, dims, mats)


def enumerate_reps(sp, dims, p, budget=300000):
    """All matrix tuples of dimension vector dims over F_p that satisfy the
    relations, in the order of itertools.product over the arrows' matrices."""
    _check_prime(p)
    dims = _check_dims(sp, dims)
    arrows = sp.quiver.arrows
    shapes = [(dims[t - 1], dims[s - 1]) for _, s, t in arrows]
    total = 1
    for r, c in shapes:
        total *= p ** (r * c)
    if total > budget:
        raise BudgetExceeded("%d matrix tuples exceed the budget" % total)
    spaces = [[tuple(flat[i * c:(i + 1) * c] for i in range(r))
               for flat in itertools.product(range(p), repeat=r * c)] for r, c in shapes]
    test = _relation_test(sp, dims, p)
    return [Rep(sp, p, dims, mats) for mats in itertools.product(*spaces)
            if test is None or test(mats) is None]


# ---------------------------------------------------------------------------
# King stability
# ---------------------------------------------------------------------------

def _destabilizing(dims, m, strict):
    """The proper nonzero dimension vectors e <= dims with m(e) > 0 (>= 0
    when strict): those of the subrepresentations that break (semi)stability."""
    return tuple(e for e in itertools.product(*(range(d + 1) for d in dims))
                 if any(e) and e != dims and (pair(m, e) >= 0 if strict else pair(m, e) > 0))


def _semistable_test(sp, dims, m, p, strict):
    """King (semi)stability at m of the representations of sp over F_p of
    dimension vector dims, as a predicate rep -> bool.

    For each destabilizing e the tuples of subspaces of dimension e_i at
    each vertex i are listed once.  Each arrow's matrix is turned once into
    the bitmask of the tuples whose source subspace it maps into the target
    one; the memo keys on the arrow's ends, so parallel arrows share it, and
    it lives as long as the predicate.  A rep has a subrepresentation of
    dimension e exactly when the masks of its arrows share a bit."""
    check_covector(m, sp.seed.rank)
    m = rational_primitive(m)    # a positive multiple: integer sums, same signs
    if pair(m, dims) != 0:
        return lambda rep: False
    spaces = [tuple(itertools.product(*(all_subspaces(p, d)[k] for d, k in zip(dims, e))))
              for e in _destabilizing(dims, m, strict)]
    full = [(1 << len(group)) - 1 for group in spaces]
    # the basis vectors at each vertex of the listed subspaces
    vectors = [{v for group in spaces for combo in group for v in combo[i][0]}
               for i in range(len(dims))]
    ends = [(s - 1, t - 1) for _, s, t in sp.quiver.arrows]
    masks = {}    # (source, target, matrix) -> one mask per e

    def arrow_masks(s, t, mat):
        key = (s, t, mat)
        if key not in masks:
            image = {v: mat_vec(mat, v, p) for v in vectors[s]}
            masks[key] = [sum(1 << j for j, combo in enumerate(group)
                              if all(image[v] in combo[t][1] for v in combo[s][0]))
                          for group in spaces]
        return masks[key]

    def test(rep):
        per_arrow = [arrow_masks(s, t, mat) for (s, t), mat in zip(ends, rep.mats)]
        for i, common in enumerate(full):
            for mask in per_arrow:
                common &= mask[i]
            if common:
                return False
        return True

    return test


def is_semistable(rep, m, strict=False):
    """King (semi)stability: m(V) = 0 and m(W) <= 0 (< 0) for proper
    nonzero subrepresentations W.  Only the subspaces of the dimension
    vectors with m(W) > 0 (>= 0) are searched."""
    return _semistable_test(rep.sp, rep.dims, m, rep.p, strict)(rep)


# ---------------------------------------------------------------------------
# generalized reflection functors
# ---------------------------------------------------------------------------

def reflect(rep, k, sign):
    """F_k^+ (sign +) or F_k^- (sign -): transport to the mutated SP by the
    mutation of representations (Derksen-Weyman-Zelevinsky 2008).

    alpha: M_in -> V_k and beta: V_k -> M_out stack the arrows into and out
    of k, and gamma: M_out -> M_in holds the potential's derivatives by the
    pairs beta alpha.  Both signs build a space W at k with maps
    into_k: M_out -> W and out_of_k: W -> M_in such that
    out_of_k into_k = gamma.  F_k^+ takes W = coker beta, into_k the
    projection, and solves for out_of_k; F_k^- takes W = ker alpha,
    out_of_k the inclusion, and solves for into_k.  A solution exists since
    the Jacobian relations at the arrows through k give gamma beta = 0 and
    alpha gamma = 0, and it is unique since the projection is onto and the
    inclusion one-to-one.  Each beta* then acts by its block of into_k, each
    alpha* by its block of out_of_k, each composite [beta alpha] by
    beta alpha, and every other arrow as before.

    A QP that is not mutable at k raises qp.ReductionError, a ValueError.
    """
    apply, sp2, change = _reflector(rep.sp, k, sign, rep.p)
    return apply(rep), sp2, change


def _reflector(sp, k, sign, p):
    """`reflect` at (k, sign) for the representations of sp over F_p, as
    (rep -> image, mutated SP, basis change).  What does not depend on the
    representation is prepared once: the mutation, the terms mod p of
    gamma's pair derivatives, and the mutated potential's relation test at
    each image dimension vector."""
    sp2, change = mutate_sp(sp, k, sign)
    quiver = sp.quiver
    incoming = quiver.arrows_into(k)
    outgoing = quiver.arrows_out_of(k)
    where = _positions(quiver)
    # d/d(b a) is the part of d/da whose paths start with b, b dropped
    derivs = [cyclic_derivative(quiver, sp.potential, a).items() for a, _, _ in incoming]
    gamma_terms = [[_terms({path[1:]: c for path, c in deriv if path[0] == b}, where, p)
                    for b, _, _ in outgoing] for deriv in derivs]
    comp_map = {composite_name(a, b): (where[a][0], where[b][0])
                for a, _, _ in incoming for b, _, _ in outgoing}
    relation_tests = {}    # image dims -> relation test of sp2

    def apply(rep):
        dims, mats = rep.dims, rep.mats
        in_off, din = {}, 0
        for name, s, _ in incoming:
            in_off[name], din = din, din + dims[s - 1]
        out_off, dout = {}, 0
        for name, _, t in outgoing:
            out_off[name], dout = dout, dout + dims[t - 1]
        dk = dims[k - 1]
        alpha = _hcat([mats[where[a][0]] for a, _, _ in incoming], dk)
        beta = sum((mats[where[b][0]] for b, _, _ in outgoing), ())
        gamma = ()
        for (_, s, _), row_terms in zip(incoming, gamma_terms):
            gamma += _hcat([_path_sum(mats, dims, terms, dims[s - 1], dims[t - 1], p)
                            for (_, _, t), terms in zip(outgoing, row_terms)], dims[s - 1])
        if sign == 1:
            into_k = tuple(kernel_basis(_transpose(beta, dk), dout, p))
            out_of_k = _transpose(_solve(_transpose(into_k, dout), _transpose(gamma, dout),
                                         len(into_k), din, p), din)
        else:
            kb = kernel_basis(alpha, din, p)
            out_of_k = _transpose(kb, din)
            into_k = _solve(out_of_k, gamma, len(kb), dout, p)
        new_dims = dims[:k - 1] + (len(into_k),) + dims[k:]
        new_mats = []    # in the order of sp2.quiver.arrows
        for name, s, t in sp2.quiver.arrows:
            base = name[:-1] if name.endswith("*") else None
            if name in comp_map:
                a, b = comp_map[name]
                new_mats.append(mat_mul(mats[b], mats[a], p,
                                        shape=(new_dims[t - 1], new_dims[s - 1])))
            elif base in out_off:    # beta*: j -> k
                o = out_off[base]
                new_mats.append(tuple(row[o:o + dims[s - 1]] for row in into_k))
            elif base in in_off:     # alpha*: k -> i
                new_mats.append(out_of_k[in_off[base]:in_off[base] + dims[t - 1]])
            else:
                new_mats.append(mats[where[name][0]])
        new_mats = tuple(new_mats)
        if new_dims not in relation_tests:
            relation_tests[new_dims] = _relation_test(sp2, new_dims, p)
        test = relation_tests[new_dims]
        failure = test and test(new_mats)
        if failure:
            raise ValueError(failure)
        return Rep(sp2, p, new_dims, new_mats)

    return apply, sp2, change


def _loses_nothing(rep, k, sign):
    """Whether rep lies in the subcategory on which F_k^sign loses nothing:
    Hom(S_k, V) = ker beta is 0 for sign +, and Hom(V, S_k), dual to
    coker alpha, is 0 for sign -, where beta stacks the arrows out of k and
    alpha the arrows into k.  Either way the map has rank dim V_k."""
    dk = rep.dims[k - 1]
    arrows = zip(rep.sp.quiver.arrows, rep.mats)
    if sign > 0:
        mat = sum((m for (_, s, _), m in arrows if s == k), ())
    else:
        mat = _hcat([m for (_, _, t), m in arrows if t == k], dk)
    return len(rref_p(mat, rep.p)[1]) == dk


def _hcat(mats, rows):
    """Matrices with `rows` rows each, side by side."""
    return tuple(sum((m[i] for m in mats), ()) for i in range(rows))


def _transpose(m, cols):
    return tuple(tuple(row[j] for row in m) for j in range(cols))


def _solve(a, b, n, r, p):
    """An n x r matrix x with a x = b over F_p, free unknowns set to 0;
    ValueError when there is none."""
    red, pivots = rref_p([ra + rb for ra, rb in zip(a, b)], p)
    if pivots and pivots[-1] >= n:
        raise ValueError("a x = b has no solution")
    x = [(0,) * r] * n
    for row, c in zip(red, pivots):
        x[c] = row[n:]
    return tuple(x)


# ---------------------------------------------------------------------------
# semistability transport and the counting series
# ---------------------------------------------------------------------------

def semistable_transport_check(sp, k, m, max_total_dim=3, p=2):
    """Semistability of V at m matches semistability of the reflected module.

    The functor F_k^+ kills copies of S_k (and F_k^- dually), so the
    equivalence quantifies over the subcategory where nothing is lost:
    Hom(S_k, V) = 0 when m(s_k) > 0, Hom(V, S_k) = 0 when m(s_k) < 0, read
    off the ranks of beta and alpha.  A semistable V lies there
    automatically.  Every dimension vector of total 1..max_total_dim is
    checked, except those whose enumeration exceeds its budget: the Report
    lists them as skipped.  A failure is (kind, dims, the representation's
    matrices, its verdict and its reflection's).
    """
    check_covector(m, sp.seed.rank)
    n = sp.seed.rank
    _check_vertex(k, n, "k")
    _check_prime(p)
    if (isinstance(max_total_dim, bool) or not isinstance(max_total_dim, int)
            or max_total_dim < 1):
        raise ValueError("max_total_dim must be a positive int, got %r" % (max_total_dim,))
    ek = tuple(1 if j == k - 1 else 0 for j in range(n))
    if pair(m, ek) == 0:
        raise ValueError("m must not vanish on s_k")
    sign = 1 if pair(m, ek) > 0 else -1
    reflector, sp2, change = _reflector(sp, k, sign, p)
    m2 = covector_to_new_basis(change, m)
    failures, skipped = [], []
    checked = 0
    image_tests = {}    # reflected dims -> semistability test at m2
    for dims in _dimension_vectors(n, max_total_dim):
        try:
            reps = enumerate_reps(sp, dims, p)
        except BudgetExceeded:
            skipped.append(dims)
            continue
        test = _semistable_test(sp, dims, m, p, False)
        for rep in reps:
            if not _loses_nothing(rep, k, sign):
                continue
            refl = reflector(rep)
            if refl.dims not in image_tests:
                image_tests[refl.dims] = _semistable_test(sp2, refl.dims, m2, p, False)
            checked += 1
            verdicts = (test(rep), image_tests[refl.dims](refl))
            if verdicts[0] != verdicts[1]:
                failures.append(("transport", dims, rep.mats, verdicts))
    return Report(not failures, checked, skipped, failures)


def _dimension_vectors(n, max_total):
    for total in range(1, max_total + 1):
        for cuts in itertools.combinations(range(total + n - 1), n - 1):
            prev = -1
            dims = []
            for c in cuts + (total + n - 1,):
                dims.append(c - prev - 1)
                prev = c
            yield tuple(dims)


def euler_form(quiver, d, e):
    """<d, e> = sum d_i e_i - sum_{arrows a} d_{s(a)} e_{t(a)}."""
    out = sum(x * y for x, y in zip(d, e))
    for _, s, t in quiver.arrows:
        out -= d[s - 1] * e[t - 1]
    return out


def _groupoid_coefficient(quiver, dims, count):
    """v^{<d,d>} count / |GL_d(F_q)|: the groupoid weight of `count` (a
    CoeffFn) points of Rep_d."""
    gl = prod(map(gl_count, dims), start=ONE)
    return (count / gl).mul_vpow(euler_form(quiver, dims, dims))


def total_counting_element(sp, order):
    """sum_d v^{<d,d>} q^{a(d)} / |GL_d(F_q)| x^d over Q(v), a(d) = sum over
    arrows of d_s d_t.  With no oriented cycle (so a zero potential) the
    q^{a(d)} points of Rep_d are all representations."""
    quiver = sp.quiver
    if quiver.has_oriented_cycle():
        raise ValueError("counting series needs a quiver without oriented cycles")
    coeffs = {}
    for dims in _dimension_vectors(sp.seed.rank, order):
        a = sum(dims[s - 1] * dims[t - 1] for _, s, t in quiver.arrows)
        coeffs[dims] = _groupoid_coefficient(quiver, dims, q_power(a))
    return GradedElement(sp.seed, order, QUANTUM, GROUP, coeffs)


def at_prime(series, p):
    """The series at q = p, for a prime p: each coefficient in its
    canonical a + b v form at v = sqrt(p)."""
    _check_prime(p)
    out = {}
    for d, c in series.coeffs.items():
        a, b = c.eval_at_sqrt(p)
        out[d] = CoeffFn.from_fraction(a) + CoeffFn.from_fraction(b).mul_vpow(1)
    return GradedElement(series.seed, series.order, series.convention, series.flavor, out)


def iq_wall_series(sp, m, order):
    """The integrated semistable series at the stability m over Q(v): the
    middle factor of the total counting element, its wall function at m."""
    return ScatDiagram.from_group_element(total_counting_element(sp, order)).phi(m)


def iq_wall_series_brute(sp, m, dims_list, p):
    """Same series at q = p from raw enumeration of semistable points (small dims)."""
    check_covector(m, sp.seed.rank)
    _check_prime(p)
    if not dims_list:
        raise ValueError("no dimension vectors to count")
    coeffs = {}
    for dims in dims_list:
        reps = enumerate_reps(sp, dims, p)
        test = _semistable_test(sp, tuple(dims), m, p, False)
        count = sum(1 for r in reps if test(r))
        if count:
            coeffs[tuple(dims)] = _groupoid_coefficient(sp.quiver, dims, CoeffFn.from_int(count))
    order = max(sum(d) for d in dims_list)
    return at_prime(GradedElement(sp.seed, order, QUANTUM, GROUP, coeffs), p)
