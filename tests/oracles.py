"""Independent references that the tests check the package against.

Each one is slow and direct: Gaussian elimination over Fraction, cone
membership by Caratheodory's theorem, cones cut out one constraint at a
time, brute-force isomorphism of representations, King semistability by
enumerating every subrepresentation, the representations of a dimension
vector by checking every matrix tuple on its own, Hom spaces by solving the
intertwiner equations, the sum of two coefficients by its
own denominator join, the truncated product that canonicalises after
every term (with the DT twist (-v)^w and the Lie brackets written out per
term), the power series that adds one canonical coefficient per power,
the log of the dilogarithm written down directly, the cells of the minimal
complex by comparing every pair of faces, the cell of a covector by pairing
it with every wall normal, the piecewise-linear transform T_k applied to a
point, completion states that each factor the whole support, the
classical cluster diagram completed from its own lifted initial data, and
the classical limit and lift in the standard frame, where every lifted
coefficient keeps its denominator in v - 1/v.  None of them runs in the
package.
tests/test_no_dead_code.py checks that every function here is called by
some test.
"""

import functools
import itertools
from fractions import Fraction

from scatdiag import coeff, scattering, torus
from scatdiag.coeff import CoeffFn
from scatdiag.lattice import _cut, _ray_sum, _unit_basis, p_star, pair, skew, total_degree
from scatdiag.qp import cyclic_derivative
from scatdiag.reps import (Rep, all_subspaces, is_semistable, kernel_basis, make_rep, mat_mul,
                           mat_vec, rref_p)
from scatdiag.torus import (CLASSICAL, DT_TWIST, GROUP, LIE, QUANTUM, GradedElement,
                            dilog_group_element)


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
# the cells of the minimal complex, over all pairs of faces
# ---------------------------------------------------------------------------

def is_face_of(a, b):
    """The refinement order: face a lies in the closure of face b."""
    if a.normals != b.normals:
        raise ValueError("faces of different arrangements")
    return all(s == 0 or s == t for s, t in zip(a.signs, b.signs))


def cells_by_all_pairs(faces, values):
    """The cells as lists of face indices: faces i != j of equal value join
    when face i lies in the closure of face j, for every ordered pair.  The
    cells come in the order of their first members."""
    parent = list(range(len(faces)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(faces)):
        for j in range(len(faces)):
            if i != j and values[i] == values[j] and is_face_of(faces[i], faces[j]):
                parent[find(i)] = find(j)
    cells = {}
    for i in range(len(faces)):
        cells.setdefault(find(i), []).append(i)
    return list(cells.values())


def locate(mc, m):
    """The cell of the minimal complex mc whose relative interior holds the
    covector m: the cell of the signs of m on every wall normal."""
    return mc.cell(tuple((pair(m, n) > 0) - (pair(m, n) < 0) for n in mc.normals))


# ---------------------------------------------------------------------------
# the piecewise-linear transform of a mutation, point by point
# ---------------------------------------------------------------------------

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
            return tuple(mi + row[i] * mk for i, mi in enumerate(m))
        return tuple(m)
    if sign == 1:
        if mk < 0:
            return tuple(mi - row[i] * mk for i, mi in enumerate(m))
        return tuple(m)
    raise ValueError("sign must be +1 or -1")


# ---------------------------------------------------------------------------
# the classical cluster diagram, completed on its own
# ---------------------------------------------------------------------------

def lifted_cluster_sd(seed, order):
    """The classical cluster diagram completed from the classical dilogarithms
    at the unit vectors, carried by the frame images of their quantum lifts:
    it shares no completion with the quantum diagram that `cluster_sd` views."""
    eta = {n: dilog_group_element(seed, n, order, CLASSICAL) for n in _unit_basis(seed.rank)}
    return scattering.complete_from_initial(eta, seed, order, CLASSICAL)


# ---------------------------------------------------------------------------
# the classical limit and the canonical lift in the standard frame
# ---------------------------------------------------------------------------

_EPS = (CoeffFn.v_power(2) - CoeffFn.from_int(1)).mul_vpow(-1)     # v - 1/v


def standard_classical_map(elem):
    """A quantum element at q^(1/2) = 1: each lie coefficient times v - 1/v,
    evaluated at v = 1; group elements through log and exp.  A pole at
    v = 1 raises PoleError with its key."""
    if elem.convention != QUANTUM:
        raise ValueError("classical_map expects a quantum element")
    if elem.flavor == GROUP:
        return standard_classical_map(elem.log()).exp()
    out = {}
    for d, c in elem.coeffs.items():
        try:
            out[d] = CoeffFn.from_fraction((c * _EPS).eval_at_v1())
        except coeff.PoleError:
            raise coeff.PoleError("pole at v = 1 at x^%s" % (list(d),)) from None
    return GradedElement(elem.seed, elem.order, CLASSICAL, LIE, out)


def rescale_power(elem, k):
    """The frame map x^d -> (v - 1/v)^(k|d|) x^d for an int k of either sign,
    by k|d| products with v - 1/v or with its inverse: the reference for
    `torus.rescale` (k = 1) and its inverse (k = -1)."""
    if elem.convention != QUANTUM:
        raise ValueError("rescale expects a quantum element")
    if type(k) is not int:
        raise ValueError("rescale needs an int power: %r" % (k,))
    step = _EPS if k > 0 else _EPS.inverse()
    out = {}
    for d, c in elem.coeffs.items():
        for _ in range(abs(k) * total_degree(d)):
            c = c * step
        out[d] = c
    return GradedElement(elem.seed, elem.order, QUANTUM, elem.flavor, out)


def standard_lift_classical(elem):
    """The canonical quantum lift: a classical lie coefficient c becomes
    c/(v - 1/v); group elements lift through log and exp."""
    if elem.convention != CLASSICAL:
        raise ValueError("lift expects a classical element")
    if elem.flavor == GROUP:
        return standard_lift_classical(elem.log()).exp()
    return GradedElement(elem.seed, elem.order, QUANTUM, LIE,
                         {d: c / _EPS for d, c in elem.coeffs.items()})


# ---------------------------------------------------------------------------
# completion states that factor the whole support
# ---------------------------------------------------------------------------

def full_ray_states(seed, order, rays, support):
    """`scattering._ray_states` with no down-set: the state at p*(n) for each
    ray n, shared by the rays whose p*(n) takes the same signs on the
    support, factors the whole support."""
    support = sorted(support)
    by_sign, out = {}, {}
    for n in rays:
        m = p_star(seed, n)
        sig = tuple((pair(m, d) > 0) - (pair(m, d) < 0) for d in support)
        if sig not in by_sign:
            by_sign[sig] = scattering._FactorizationState(seed, order, m)
        out[n] = by_sign[sig]
    return out


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
    mats = {arrow_map[name]: m for (name, _, _), m in zip(rep.sp.quiver.arrows, rep.mats)}
    return make_rep(sp_to, rep.p, rep.dims, mats)


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def relation_failure(rep):
    """Why rep breaks the Jacobian relations or the nilpotency of the path
    ideal, or None: every path of every cyclic derivative multiplied out
    from an identity matrix, and the total arrow operator raised to the
    total dimension."""
    p, dims, quiver = rep.p, rep.dims, rep.sp.quiver
    for name, s, t in quiver.arrows:
        total = [[0] * dims[t - 1] for _ in range(dims[s - 1])]
        for path, c in cyclic_derivative(quiver, rep.sp.potential, name).items():
            c = Fraction(c)
            c = c.numerator * pow(c.denominator, -1, p)
            m = _identity(dims[t - 1])
            for a in path:
                m = mat_mul(rep.matrix(a), m, p, shape=(dims[quiver.arrow(a)[2] - 1], dims[t - 1]))
            for acc, row in zip(total, m):
                for j, x in enumerate(row):
                    acc[j] += c * x
        if any(x % p for row in total for x in row):
            return "Jacobian relation fails at %s" % name
    n = sum(dims)
    offs = list(itertools.accumulate(dims, initial=0))
    big = [[0] * n for _ in range(n)]
    for name, s, t in quiver.arrows:
        for i, row in enumerate(rep.matrix(name)):
            for j, x in enumerate(row):
                big[offs[t - 1] + i][offs[s - 1] + j] = x
    power = _identity(n)
    for _ in range(n):
        power = mat_mul(big, power, p, shape=(n, n))
    if any(map(any, power)):
        return "path ideal does not act nilpotently"
    return None


def enumerate_reps_per_tuple(sp, dims, p):
    """Every matrix tuple of dimension vector dims over F_p, in the order of
    itertools.product over the arrows' entries, that `relation_failure`
    accepts."""
    shapes = [(dims[t - 1], dims[s - 1]) for _, s, t in sp.quiver.arrows]
    out = []
    for combo in itertools.product(*(itertools.product(range(p), repeat=r * c)
                                     for r, c in shapes)):
        mats = tuple(tuple(tuple(flat[i * c:(i + 1) * c]) for i in range(r))
                     for (r, c), flat in zip(shapes, combo))
        rep = Rep(sp, p, tuple(dims), mats)
        if relation_failure(rep) is None:
            out.append(rep)
    return out


def hom_dimension(rep1, rep2):
    """dim Hom(V, W) by solving the intertwiner system over F_p."""
    if rep1.p != rep2.p:
        raise ValueError("representations over F_%d and F_%d" % (rep1.p, rep2.p))
    if rep1.sp.quiver != rep2.sp.quiver:
        raise ValueError("representations of different quivers")
    p = rep1.p
    quiver = rep1.sp.quiver
    nvars = sum(a * b for a, b in zip(rep1.dims, rep2.dims))
    var_off = []
    acc = 0
    for a, b in zip(rep1.dims, rep2.dims):
        var_off.append(acc)
        acc += a * b
    rows = []
    for name, s, t in quiver.arrows:
        m1 = rep1.matrix(name)
        m2 = rep2.matrix(name)
        # f_t m1 = m2 f_s ; unknowns f_i as (rep2.dims[i] x rep1.dims[i])
        for i in range(rep2.dims[t - 1]):
            for j in range(rep1.dims[s - 1]):
                row = [0] * nvars
                # (f_t m1)_{ij} = sum_u f_t[i][u] m1[u][j]
                for u in range(rep1.dims[t - 1]):
                    row[var_off[t - 1] + i * rep1.dims[t - 1] + u] += m1[u][j]
                # (m2 f_s)_{ij} = sum_u m2[i][u] f_s[u][j]
                for u in range(rep2.dims[s - 1]):
                    row[var_off[s - 1] + u * rep1.dims[s - 1] + j] -= m2[i][u]
                row = [x % p for x in row]
                if any(row):
                    rows.append(tuple(row))
    return len(kernel_basis(rows, nvars, p)) if nvars else 0


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


@functools.lru_cache(maxsize=1)
def _subrep_dims(rep):
    """The dimension vectors of rep's subrepresentations.  The last rep's
    are kept, since a differential test asks about one rep at many m."""
    return frozenset(dims for dims, _ in _subreps(rep))


def is_semistable_by_subreps(rep, m, strict=False):
    """King (semi)stability by enumerating every subrepresentation and then
    comparing m on its dimension vector."""
    if pair(m, rep.dims) != 0:
        return False
    for dims in _subrep_dims(rep):
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
