"""Seeds, the skew form, dual-space geometry and exact cone combinatorics.

A seed is a basis of a rank-n lattice together with the matrix B of the
skew-symmetric form in that basis, B[i][j] = {s_i, s_j}.  Dimension
vectors are integer tuples in the seed basis; covectors are rational
tuples in the dual basis, so m(d) = sum(m_i d_i).  All geometry is done
with exact rationals: wall membership is decided by exact sign tests and
cone feasibility by exact linear programming.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


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
        if seed.rank != data.get("rank", seed.rank):
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
    den = 1
    for x in vec:
        den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    return primitive(tuple(int(Fraction(x) * den) for x in vec))


# ---------------------------------------------------------------------------
# seed mutation and the piecewise transforms T_k
# ---------------------------------------------------------------------------

def mutate_seed(seed, k, sign):
    """Mutate the basis at vertex k (1-based) with the given sign.

    Returns (new_seed, change) where `change` expresses the new basis in
    the old one: column j of change is s'_j written in old coordinates.
    """
    n = seed.rank
    if not 1 <= k <= n:
        raise ValueError("vertex out of range")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    kk = k - 1
    cols = []
    for j in range(n):
        if j == kk:
            col = [0] * n
            col[kk] = -1
        else:
            col = [0] * n
            col[j] = 1
            coef = -seed.b[j][kk] if sign == 1 else seed.b[j][kk]
            col[kk] = max(coef, 0)
        cols.append(col)
    change = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    newb = tuple(
        tuple(skew(seed, _col(change, i), _col(change, j)) for j in range(n))
        for i in range(n)
    )
    return Seed(newb), change


def _col(mat, j):
    return tuple(row[j] for row in mat)


def apply_change_to_dimvec(change, d):
    """Old-basis coordinates of a vector given in the new basis."""
    n = len(change)
    return tuple(sum(change[i][j] * d[j] for j in range(n)) for i in range(n))


def covector_to_new_basis(change, m):
    """Dual coordinates of a covector with respect to the new basis."""
    n = len(change)
    return tuple(sum(change[i][j] * m[i] for i in range(n)) for j in range(n))


def t_k(seed, k, sign, m):
    """The piecewise-linear transform T_k^sign on covectors.

    T_k^- applies m -> m + p*(s_k) m(s_k) on the half-space m(s_k) > 0 and
    is the identity on m(s_k) < 0; T_k^+ is the inverse piecewise map.
    The hyperplane s_k^perp is fixed pointwise either way.
    """
    kk = k - 1
    mk = m[kk]
    row = seed.b[kk]
    if sign == -1:
        if mk > 0:
            return tuple(mi + Fraction(row[i]) * mk for i, mi in enumerate(m))
        return tuple(m)
    if sign == 1:
        if mk < 0:
            return tuple(mi - Fraction(row[i]) * mk for i, mi in enumerate(m))
        return tuple(m)
    raise ValueError("sign must be +1 or -1")


# ---------------------------------------------------------------------------
# exact rational linear algebra
# ---------------------------------------------------------------------------

def rref(rows):
    """Reduced row echelon form over Fraction; returns (rows, pivot columns)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def nullspace(rows, ncols):
    """Basis of {x : rows * x = 0} over the rationals."""
    if not rows:
        return [tuple(Fraction(1) if i == j else Fraction(0) for i in range(ncols))
                for j in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append(tuple(vec))
    return basis


def mat_rank(rows):
    if not rows:
        return 0
    return len(rref(rows)[0])


def mat_inverse(rows):
    """Exact inverse of a square rational matrix; None if singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in rows[i]] +
           [Fraction(1) if j == i else Fraction(0) for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(red[i][n:]) for i in range(n))


# ---------------------------------------------------------------------------
# exact strict feasibility (Fourier-Motzkin for rank <= 3, simplex beyond)
# ---------------------------------------------------------------------------

def strict_feasible(zeros, stricts, dim):
    """Exact rational point m with m.z = 0 for z in zeros and m.s > 0 for
    s in stricts, or None if the system is infeasible."""
    basis = nullspace(zeros, dim) if zeros else \
        [tuple(Fraction(1) if i == j else Fraction(0) for i in range(dim)) for j in range(dim)]
    if not basis:
        return tuple(Fraction(0) for _ in range(dim)) if not stricts else None
    reduced = []
    for s in stricts:
        reduced.append(tuple(pair(b, s) for b in basis))
    if not reduced:
        y = tuple(Fraction(0) for _ in basis)
    else:
        r = len(basis)
        if r <= 3:
            y = _fm_strict(reduced, r)
        else:
            y = _simplex_strict(reduced, r)
        if y is None:
            return None
    out = [Fraction(0)] * dim
    for coef, b in zip(y, basis):
        for i in range(dim):
            out[i] += coef * b[i]
    return tuple(out)


def _norm_row(row):
    g = 0
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in row]
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _fm_strict(rows, r):
    """Fourier-Motzkin witness for {y : row . y > 0 for all rows}."""
    system = {_norm_row(row) for row in rows}
    if any(not any(row) for row in system):
        return None
    eliminated = []
    for var in range(r - 1):
        pos, neg, rest = [], [], set()
        for row in system:
            if row[var] > 0:
                pos.append(row)
            elif row[var] < 0:
                neg.append(row)
            else:
                rest.add(row)
        for p, q in itertools.product(pos, neg):
            comb = tuple(p[var] * q[i] - q[var] * p[i] for i in range(r))
            comb = _norm_row(tuple(Fraction(x) for x in comb))
            if not any(comb):
                return None
            rest.add(comb)
        eliminated.append((pos, neg))
        system = rest
        if any(not any(row) for row in system):
            return None
    # only the last variable remains
    last = r - 1
    lo_open = any(row[last] > 0 for row in system)
    hi_open = any(row[last] < 0 for row in system)
    if lo_open and hi_open:
        return None
    y = [Fraction(0)] * r
    if lo_open:
        y[last] = Fraction(1)
    elif hi_open:
        y[last] = Fraction(-1)
    # back-substitute the eliminated variables in reverse order
    for var in range(r - 2, -1, -1):
        pos, neg = eliminated[var]
        lo = None
        for row in pos:  # row[var] y_var > -rest
            bound = -sum(row[i] * y[i] for i in range(var + 1, r)) / Fraction(row[var])
            lo = bound if lo is None else max(lo, bound)
        hi = None
        for row in neg:
            bound = -sum(row[i] * y[i] for i in range(var + 1, r)) / Fraction(row[var])
            hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            y[var] = Fraction(0)
        elif lo is None:
            y[var] = hi - 1
        elif hi is None:
            y[var] = lo + 1
        else:
            if lo >= hi:
                return None
            y[var] = (lo + hi) / 2
    return tuple(y)


def _simplex_strict(rows, r):
    """Exact phase-1 simplex witness for {y : row . y > 0}.

    Maximizes t subject to row . y >= t, -1 <= y_i <= 1, t <= 1; the strict
    system is feasible iff the optimum is positive.
    """
    cons = []
    for row in rows:
        cons.append(([Fraction(x) for x in row] + [Fraction(-1)], Fraction(0)))
    for i in range(r):
        e = [Fraction(0)] * (r + 1)
        e[i] = Fraction(1)
        cons.append((list(e), Fraction(1)))       # y_i + 1 >= 0 -> -y_i <= 1
        e2 = [Fraction(0)] * (r + 1)
        e2[i] = Fraction(-1)
        cons.append((e2, Fraction(1)))
    e3 = [Fraction(0)] * (r + 1)
    e3[r] = Fraction(-1)
    cons.append((e3, Fraction(1)))                # t <= 1
    # maximize t == minimize -t ; variables free -> split y = u - w
    nvar = r + 1
    ncols = 2 * nvar + len(cons)
    tab = []
    for idx, (a, rhs) in enumerate(cons):
        # a . x + rhs >= 0  ->  -a . x + slack = rhs
        row = [Fraction(0)] * (ncols + 1)
        for j in range(nvar):
            row[j] = -a[j]
            row[nvar + j] = a[j]
        row[2 * nvar + idx] = Fraction(1)
        row[-1] = rhs
        if rhs < 0:
            row = [-x for x in row]
        tab.append(row)
    cost = [Fraction(0)] * (ncols + 1)
    cost[r] = Fraction(-1)
    cost[nvar + r] = Fraction(1)
    basis = [2 * nvar + i for i in range(len(cons))]
    # ensure basic feasibility: all rhs >= 0 holds by the sign flip above,
    # but flipped rows lose their slack identity; run a standard phase-1.
    y = _simplex_solve(tab, basis, cost, ncols)
    if y is None:
        return None
    yy = [y[j] - y[nvar + j] for j in range(r)]
    t = y[r] - y[nvar + r]
    if t <= 0:
        return None
    return tuple(yy)


def _simplex_solve(tab, basis, cost, ncols):
    """Tiny exact simplex: minimize cost.x, tab rows are equalities with
    nonnegative rhs; returns the full variable vector or None."""
    m = len(tab)
    art = []
    for i in range(m):
        if tab[i][basis[i]] != 1 or any(tab[k][basis[i]] != 0 for k in range(m) if k != i):
            art.append(i)
    if art:
        width = ncols + len(art) + 1
        for i in range(m):
            extra = [Fraction(0)] * len(art)
            tab[i] = tab[i][:ncols] + extra + [tab[i][ncols]]
        for pos, i in enumerate(art):
            tab[i][ncols + pos] = Fraction(1)
            basis[i] = ncols + pos
        phase_cost = [Fraction(0)] * (ncols + len(art) + 1)
        for pos in range(len(art)):
            phase_cost[ncols + pos] = Fraction(1)
        if _simplex_iterate(tab, basis, phase_cost, ncols + len(art)) is None:
            return None
        if any(tab[i][-1] != 0 and basis[i] >= ncols for i in range(m)):
            return None
        cost = cost[:ncols] + [Fraction(0)] * len(art) + [cost[-1] if len(cost) > ncols else Fraction(0)]
        total = ncols + len(art)
    else:
        cost = cost + [Fraction(0)]
        total = ncols
    if _simplex_iterate(tab, basis, cost, total, forbid=ncols) is None:
        return None
    out = [Fraction(0)] * total
    for i, b in enumerate(basis):
        out[b] = tab[i][-1]
    return out


def _simplex_iterate(tab, basis, cost, total, forbid=None):
    m = len(tab)
    limit = 10000
    while limit:
        limit -= 1
        red = list(cost[:total])
        for i, b in enumerate(basis):
            if cost[b] != 0:
                f = cost[b]
                for j in range(total):
                    red[j] -= f * tab[i][j]
        enter = None
        for j in range(total):
            if forbid is not None and j >= forbid:
                continue
            if red[j] < 0:
                enter = j
                break
        if enter is None:
            return True
        leave, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return None  # unbounded
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        basis[leave] = enter
    raise RuntimeError("simplex did not terminate")


def _nonneg_solve(cols, target):
    """Exact feasibility of sum lambda_i cols_i = target with lambda >= 0."""
    mrows = len(target)
    ncols = len(cols)
    tab = []
    basis = []
    for r in range(mrows):
        row = [Fraction(cols[j][r]) for j in range(ncols)]
        rhs = Fraction(target[r])
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        row += [Fraction(1) if i == r else Fraction(0) for i in range(mrows)]
        row.append(rhs)
        tab.append(row)
        basis.append(ncols + r)
    cost = [Fraction(0)] * ncols + [Fraction(1)] * mrows + [Fraction(0)]
    total = ncols + mrows
    guard = 5000
    while guard:
        guard -= 1
        red = list(cost[:total])
        for i, b in enumerate(basis):
            if cost[b] != 0:
                f = cost[b]
                for j in range(total):
                    red[j] -= f * tab[i][j]
        enter = next((j for j in range(ncols) if red[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(mrows):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return False
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(mrows):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        basis[leave] = enter
    value = sum(tab[i][-1] for i in range(mrows) if basis[i] >= ncols)
    return value == 0


def in_cone(vec, rays, lineality):
    """Whether vec lies in cone(rays) + span(lineality), exactly."""
    cols = [tuple(r) for r in rays]
    for l in lineality:
        cols.append(tuple(l))
        cols.append(tuple(-x for x in l))
    if not cols:
        return not any(vec)
    return _nonneg_solve(cols, tuple(vec))


def reduce_ray_generators(rays, lineality):
    """Drop rays lying in the cone of the remaining generators."""
    rays = sorted(set(rays))
    keep = []
    for i, r in enumerate(rays):
        others = rays[:i] + rays[i + 1:]
        if not in_cone(r, others, lineality):
            keep.append(r)
    return tuple(keep)


# ---------------------------------------------------------------------------
# hyperplane arrangement faces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedFace:
    """A feasible sign vector over a support set, with an interior witness."""

    normals: tuple
    signs: tuple
    witness: tuple
    ambient: int

    @property
    def dim(self):
        zeros = [n for n, s in zip(self.normals, self.signs) if s == 0]
        if not zeros:
            return self.ambient
        return self.ambient - mat_rank(zeros)

    def is_face_of(self, other):
        """The refinement order: self lies in the closure of other."""
        if self.normals != other.normals:
            raise ValueError("faces of different arrangements")
        for a, b in zip(self.signs, other.signs):
            if a != 0 and a != b:
                return False
        return True


def dedupe_primitive(vectors):
    out, seen = [], set()
    for v in vectors:
        p = primitive(v)
        if p not in seen and any(p):
            seen.add(p)
            out.append(p)
    return tuple(out)


def cone_interior_point(signs, normals, dim):
    """Exact witness for the open sign region, or None when infeasible."""
    zeros = [n for n, s in zip(normals, signs) if s == 0]
    stricts = [n if s > 0 else tuple(-x for x in n)
               for n, s in zip(normals, signs) if s != 0]
    return strict_feasible(zeros, stricts, dim)


def face_enumerate(support, dim):
    """All faces of the hyperplane arrangement of the supplied normals.

    Normals are deduplicated to primitive vectors first.  Returns a list of
    SignedFace covering all feasible sign vectors; an empty support yields
    the single all-space face.
    """
    normals = dedupe_primitive(support)
    faces = [((), tuple(Fraction(0) for _ in range(dim)))]
    for idx, n in enumerate(normals):
        new_faces = []
        for signs, witness in faces:
            w = pair(witness, n)
            inherited = 1 if w > 0 else (-1 if w < 0 else 0)
            new_faces.append((signs + (inherited,), witness))
            for s in (1, 0, -1):
                if s == inherited:
                    continue
                cand = cone_interior_point(signs + (s,), normals[: idx + 1], dim)
                if cand is not None:
                    new_faces.append((signs + (s,), cand))
        faces = new_faces
    return [SignedFace(normals, signs, witness, dim) for signs, witness in faces]


# ---------------------------------------------------------------------------
# extreme rays (used to export cones of the minimal complex)
# ---------------------------------------------------------------------------

def cone_generators(zeros, weaks, dim):
    """Generators of {m : m.z = 0, m.w >= 0}: (extreme rays, lineality basis).

    All output vectors are primitive integer tuples, deterministically
    ordered.  Correct for the low ranks this package works at.
    """
    basis = nullspace(zeros, dim) if zeros else \
        [tuple(Fraction(1) if i == j else Fraction(0) for i in range(dim)) for j in range(dim)]
    if not basis:
        return (), ()
    rows = [tuple(pair(b, w) for b in basis) for w in weaks]
    rows = [r for r in {_norm_row(tuple(Fraction(x) for x in r)) for r in rows} if any(r)]
    r = len(basis)
    lin = nullspace(rows, r) if rows else \
        [tuple(Fraction(1) if i == j else Fraction(0) for i in range(r)) for j in range(r)]
    rays = []
    if rows and len(lin) < r:
        # quotient by the lineality space: an extreme ray is the kernel line
        # of a corank-one subset of active constraints, taken inside lin-perp
        sub_size = r - 1 - len(lin)
        lin_rows = [tuple(Fraction(x) for x in l) for l in lin]
        for sub in itertools.combinations(range(len(rows)), max(sub_size, 0)):
            eqs = [tuple(Fraction(x) for x in rows[i]) for i in sub] + lin_rows
            ker = nullspace(eqs, r)
            if len(ker) != 1:
                continue
            for cand in (ker[0], tuple(-x for x in ker[0])):
                values = [pair(cand, row) for row in rows]
                if all(x >= 0 for x in values) and any(x > 0 for x in values):
                    rays.append(cand)
    out_rays = set()
    for y in rays:
        vec = [Fraction(0)] * dim
        for coef, b in zip(y, basis):
            for i in range(dim):
                vec[i] += coef * b[i]
        if any(vec):
            out_rays.add(rational_primitive(vec))
    out_lin = set()
    for y in lin:
        vec = [Fraction(0)] * dim
        for coef, b in zip(y, basis):
            for i in range(dim):
                vec[i] += coef * b[i]
        if any(vec):
            out_lin.add(rational_primitive(vec))
    return tuple(sorted(out_rays)), tuple(sorted(out_lin))
