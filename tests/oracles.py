"""Independent references that the tests check the package against.

Each one is slow and direct: Gaussian elimination over Fraction, cone
membership by Caratheodory's theorem, cones cut out one constraint at a
time, brute-force isomorphism of representations, King semistability by
enumerating every subrepresentation, the sum of two coefficients by its
own denominator join, the truncated product that canonicalises after
every term (with the DT twist (-v)^w and the Lie brackets written out per
term), the power series that adds one canonical coefficient per power,
and the log of the dilogarithm written down directly.  None of them runs
in the package.
tests/test_no_dead_code.py checks that every function here is called by
some test.
"""

import itertools
from fractions import Fraction

from scatdiag import coeff, torus
from scatdiag.coeff import CoeffFn
from scatdiag.lattice import _cut, _ray_sum, _unit_basis, pair, skew, total_degree
from scatdiag.reps import all_subspaces, is_semistable, make_rep, mat_mul, mat_vec, rref_p
from scatdiag.torus import CLASSICAL, DT_TWIST, LIE, QUANTUM, GradedElement


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


# ---------------------------------------------------------------------------
# cones: membership by Caratheodory, generators one constraint at a time
# ---------------------------------------------------------------------------

def in_cone(vec, rays, lineality):
    """Whether vec lies in cone(rays) + span(lineality), exactly.

    By Caratheodory's theorem vec is then a nonnegative combination of a
    linearly independent subset of the generators (lineality vectors taken
    with both signs); each subset's system is solved exactly.
    """
    gens = [tuple(r) for r in rays]
    gens += [tuple(s * x for x in l) for l in lineality for s in (1, -1)]
    for k in range(len(vec) + 1):
        for sub in itertools.combinations(gens, k):
            if k and mat_rank(sub) < k:
                continue
            red, pivots = rref([[g[i] for g in sub] + [vec[i]] for i in range(len(vec))])
            if k not in pivots and all(row[k] >= 0 for row in red):
                return True
    return False


def reduce_ray_generators(rays, lineality):
    """Drop rays lying in the cone of the remaining generators."""
    rays = sorted(set(rays))
    return tuple(r for i, r in enumerate(rays)
                 if not in_cone(r, rays[:i] + rays[i + 1:], lineality))


def _follow(constraints, dim, closed):
    """Rays and lineality of the cone cut out by (normal, sign) constraints,
    closed (sign 1 means n >= 0) or open (n > 0); None when the open cone is
    empty."""
    rays, lin = (), _unit_basis(dim)
    for k, (n, s) in enumerate(constraints):
        lin, pieces, live = _cut(rays, lin, n, [c for c, _ in constraints[:k]])
        if not closed and s not in live:
            return None
        rays = pieces[s]
    return rays, lin


def cone_interior_point(signs, normals, dim):
    """Exact witness for the open sign region, or None when it is empty."""
    cone = _follow(list(zip(normals, signs)), dim, closed=False)
    return None if cone is None else _ray_sum(cone[0], dim)


def cone_generators(zeros, weaks, dim):
    """Generators of {m : m.z = 0, m.w >= 0}: (extreme rays, lineality basis),
    primitive integer tuples in sorted order."""
    rays, lin = _follow([(z, 0) for z in zeros] + [(w, 1) for w in weaks], dim,
                        closed=True)
    return tuple(sorted(rays)), tuple(sorted(lin))


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def rebase_rep(rep, sp_to):
    """Move a representation to another SP with the same adjacency, matching
    arrows by (source, target) in sorted-name order."""
    groups_from = {}
    for name, s, t in rep.sp.quiver.arrows:
        groups_from.setdefault((s, t), []).append(name)
    groups_to = {}
    for name, s, t in sp_to.quiver.arrows:
        groups_to.setdefault((s, t), []).append(name)
    if {k: len(v) for k, v in groups_from.items()} != \
            {k: len(v) for k, v in groups_to.items()}:
        raise ValueError("quivers have different adjacency")
    arrow_map = {}
    for key in groups_from:
        for a, b in zip(sorted(groups_from[key]), sorted(groups_to[key])):
            arrow_map[a] = b
    mats = {arrow_map[name]: m for name, m in rep.mats}
    return make_rep(sp_to, rep.p, rep.dims, mats)


def is_isomorphic(rep1, rep2):
    """Brute isomorphism test at desk scale."""
    if rep1.dims != rep2.dims:
        return False
    p = rep1.p
    quiver = rep1.sp.quiver
    per_vertex = [list(itertools.product(range(p), repeat=d * d)) for d in rep1.dims]
    for combo in itertools.product(*per_vertex):
        fs = []
        ok = True
        for d, flat in zip(rep1.dims, combo):
            f = tuple(tuple(flat[i * d:(i + 1) * d]) for i in range(d))
            if len(rref_p(f, p)[1]) < d:
                ok = False
                break
            fs.append(f)
        if not ok:
            continue
        good = True
        for name, s, t in quiver.arrows:
            lhs = mat_mul(fs[t - 1], rep1.matrix(name), p)
            rhs = mat_mul(rep2.matrix(name), fs[s - 1], p)
            if lhs != rhs:
                good = False
                break
        if good:
            return True
    return False


def _subreps(rep):
    """Every subrepresentation of rep, as (dimension vector, one subspace
    (basis, points) per vertex)."""
    p = rep.p
    per_vertex = [list(itertools.chain.from_iterable(all_subspaces(p, d)))
                  for d in rep.dims]
    out = []
    for combo in itertools.product(*per_vertex):
        ok = True
        for name, s, t in rep.sp.quiver.arrows:
            m = rep.matrix(name)
            basis = combo[s - 1][0]
            target = combo[t - 1][1]
            for v in basis:
                if mat_vec(m, v, p) not in target:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append((tuple(len(c[0]) for c in combo), combo))
    return out


def is_stable(rep, m):
    return is_semistable(rep, m, strict=True)


def is_semistable_by_subreps(rep, m, strict=False):
    """King (semi)stability by enumerating every subrepresentation and then
    comparing m on its dimension vector."""
    if pair(m, rep.dims) != 0:
        return False
    for dims, _ in _subreps(rep):
        if not any(dims) or dims == rep.dims:
            continue
        w = pair(m, dims)
        if strict and w >= 0:
            return False
        if not strict and w > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# the dilogarithm's log, written down directly
# ---------------------------------------------------------------------------

def q_int(k):
    """The balanced quantum integer [k]_q = v^(k-1) + v^(k-3) + ... + v^(1-k)."""
    if k < 1:
        raise ValueError("quantum integer needs k >= 1: %r" % (k,))
    return CoeffFn(-(k - 1), (1, 0) * (k - 1) + (1,), (1,))


def dilog_lie_element(seed, n, order, convention):
    """log of the dilogarithm group element, term by term."""
    n = tuple(n)
    coeffs = {}
    for k in range(1, order // total_degree(n) + 1):
        key = tuple(k * x for x in n)
        if convention == CLASSICAL:
            coeffs[key] = CoeffFn.from_fraction((-1) ** (k - 1), k * k)
        elif convention == QUANTUM:
            # (-1)^(k-1) xhat^{kn} / (k [k]_q), xhat = x / (v - 1/v)
            coeffs[key] = (CoeffFn.from_fraction((-1) ** (k - 1), k) / q_int(k)) \
                / (CoeffFn.v_power(1) - CoeffFn.v_power(-1))
        else:
            # the quantum series at v -> -v: -x^{kn} / (k (q^{k/2} - q^{-k/2}))
            coeffs[key] = CoeffFn.from_fraction(-1, k) / (CoeffFn.v_power(k) - CoeffFn.v_power(-k))
    return GradedElement(seed, order, convention, LIE, coeffs)


# ---------------------------------------------------------------------------
# the sum of two coefficients by its own denominator join
# ---------------------------------------------------------------------------

def add_by_denominator_join(x, y):
    """x + y over the common denominator of the two, built case by case:
    a shared denominator, a denominator of 1 on either side, and otherwise
    the product of the two divided by their gcd."""
    if not x.num:
        return y
    if not y.num:
        return x
    s = min(x.shift, y.shift)
    a = coeff._pshift(x.num, x.shift - s)
    b = coeff._pshift(y.num, y.shift - s)
    if x.den == y.den:
        return CoeffFn(s, coeff._padd(a, b), x.den)
    if x.den == (1,):
        return CoeffFn(s, coeff._padd(coeff._pmul(a, y.den), b), y.den)
    if y.den == (1,):
        return CoeffFn(s, coeff._padd(a, coeff._pmul(b, x.den)), x.den)
    _, d1, d2 = coeff._pgcd(x.den, y.den)
    return CoeffFn(s, coeff._padd(coeff._pmul(a, d2), coeff._pmul(b, d1)),
                   coeff._pmul(x.den, d2))


# ---------------------------------------------------------------------------
# the truncated product, one canonical coefficient per term
# ---------------------------------------------------------------------------

def _quantum_mul(c1, c2, w):
    return (c1 * c2).mul_vpow(w)


def _dt_mul(c1, c2, w):
    c = _quantum_mul(c1, c2, w)
    return -c if w % 2 else c


def _poisson(c1, c2, w):
    return (c1 * c2).scale(w) if w else None


def _commutator(c1, c2, w):
    return c1 * c2 * (CoeffFn.v_power(w) - CoeffFn.v_power(-w)) if w else None


def _dt_commutator(c1, c2, w):
    c = _commutator(c1, c2, w)
    return -c if w % 2 else c


def _per_term(seed, order, a, b, twist, degree=None):
    """The truncated product of two coefficient dicts: each pair of terms
    gives the canonical coefficient twist(c1, c2, {d1, d2}) (None for a
    vanishing term; a twist of None multiplies), added into its output key
    at once."""
    out = {}
    right = torus._by_degree(b)
    for i, left in torus._by_degree(a).items():
        for j in (degree - i,) if degree is not None else range(order - i + 1):
            for d2, c2 in right.get(j, ()):
                for d1, c1 in left:
                    if twist is None:
                        c = c1 * c2
                    else:
                        c = twist(c1, c2, skew(seed, d1, d2))
                        if c is None:
                            continue
                    torus._acc(out, torus._add_key(d1, d2), c)
    return out


def product_per_term(seed, order, a, b, twisted, degree=None):
    """`torus._product` term by term: the quantum twist on canonical
    coefficients when `twisted`, the commutative product otherwise."""
    return _per_term(seed, order, a, b, _quantum_mul if twisted else None, degree)


def dt_product(seed, order, a, b):
    """The DT-twisted truncated product of two coefficient dicts, (-v)^w
    on each pair of terms."""
    return _per_term(seed, order, a, b, _dt_mul)


def power_series_per_power(seed, order, convention, u, coef):
    """sum_{k >= 1} coef(k) u^k, term by term: each power's coefficients
    times coef(k), canonical, added into the sum at once, and the next power
    by the per-term product of the convention ((-v)^w on each pair of terms
    in the DT-twisted one)."""
    twist = {QUANTUM: _quantum_mul, CLASSICAL: None, DT_TWIST: _dt_mul}[convention]
    out, term, k = {}, u, 1
    while term:
        c = coef(k)
        for d, x in term.items():
            torus._acc(out, d, x * c)
        term = _per_term(seed, order, term, u, twist)
        k += 1
    return out


def bracket(a, b):
    """The Lie bracket of two lie elements, term by term: the Poisson rule
    {d1, d2} x^(d1+d2) classically, and t^w - t^-w times x^(d1+d2), w =
    {d1, d2}, with t = v (quantum) or t = -v (dt)."""
    twist = {CLASSICAL: _poisson, QUANTUM: _commutator, DT_TWIST: _dt_commutator}
    return GradedElement(a.seed, a.order, a.convention, LIE,
                         _per_term(a.seed, a.order, a.coeffs, b.coeffs, twist[a.convention]))
