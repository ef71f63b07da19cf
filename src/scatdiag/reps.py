"""Finite-field representation oracle for the stability side.

Representations of the Jacobian algebra over a prime field are enumerated
as raw matrix tuples; groupoid counts divide by the automorphisms of the
underlying graded vector space.  King semistability is brute-forced over
subrepresentations, reflection functors follow the kernel/cokernel
construction, and the wall-function counting series is produced by the
Harder-Narasimhan factorization of the total counting element inside the
quantum torus (so no point enumeration is needed at large dimensions).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .coeff import CoeffFn
from .lattice import pair
from .qp import SeedWithPotential, cyclic_derivative, mutate_sp, ReductionError
from .torus import GROUP, QUANTUM, GradedElement
from .scattering import phi_element


class BudgetExceeded(RuntimeError):
    pass


class UnsupportedReduction(RuntimeError):
    """reflect() met a trivial-part substitution outside the linear case."""


# ---------------------------------------------------------------------------
# F_p linear algebra (matrices are tuples of row tuples)
# ---------------------------------------------------------------------------

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


def identity_mat(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_add(a, b, p):
    return tuple(tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, c, p):
    return tuple(tuple((x * c) % p for x in ra) for ra in a)


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


def gl_order(n, p):
    out = 1
    for i in range(n):
        out *= p ** n - p ** i
    return out


def all_subspaces(p, n):
    """Every subspace of F_p^n, as (echelon basis rows, frozenset of points)."""
    out = []
    for k in range(n + 1):
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
                out.append((basis, frozenset(pts)))
    return out


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rep:
    sp: SeedWithPotential
    p: int
    dims: tuple
    mats: tuple   # of (arrow name, matrix) sorted by name

    def matrix(self, name):
        for a, m in self.mats:
            if a == name:
                return m
        raise KeyError(name)

    def total_dim(self):
        return sum(self.dims)


def make_rep(sp, p, dims, mats):
    rep = Rep(sp, p, tuple(dims), tuple(sorted(mats.items())))
    check_relations(rep)
    return rep


def path_matrix(rep, path):
    """Travel-order path (a_1, ..., a_r) acts by M_{a_r} ... M_{a_1}."""
    quiver = rep.sp.quiver
    _, s0, _ = quiver.arrow(path[0])
    out = identity_mat(rep.dims[s0 - 1])
    for name in path:
        _, _, t = quiver.arrow(name)
        out = mat_mul(rep.matrix(name), out, rep.p,
                      shape=(rep.dims[t - 1], rep.dims[s0 - 1]))
    return out


def check_relations(rep, strict=True):
    """Jacobian relations and nilpotency of the path ideal."""
    sp, p = rep.sp, rep.p
    for name, s, t in sp.quiver.arrows:
        deriv = cyclic_derivative(sp.quiver, sp.potential, name)
        if not deriv:
            continue
        total = zero_mat(rep.dims[s - 1], rep.dims[t - 1])
        for path, coeff in deriv.items():
            c = Fraction(coeff)
            if c.denominator % p == 0:
                raise ValueError("potential coefficient not defined mod p")
            cm = (c.numerator * pow(c.denominator, p - 2, p)) % p
            total = mat_add(total, mat_scale(path_matrix(rep, path), cm, p), p)
        if any(any(row) for row in total):
            if strict:
                raise ValueError("Jacobian relation fails at %s" % name)
            return False
    # nilpotency of the total arrow operator
    n = rep.total_dim()
    if n:
        offs = [0]
        for d in rep.dims:
            offs.append(offs[-1] + d)
        big = [[0] * n for _ in range(n)]
        for name, s, t in sp.quiver.arrows:
            m = rep.matrix(name)
            for i in range(rep.dims[t - 1]):
                for j in range(rep.dims[s - 1]):
                    big[offs[t - 1] + i][offs[s - 1] + j] = m[i][j]
        power = identity_mat(n)
        big = tuple(tuple(r) for r in big)
        for _ in range(n):
            power = mat_mul(big, power, rep.p)
        if any(any(row) for row in power):
            if strict:
                raise ValueError("path ideal does not act nilpotently")
            return False
    return True


def simple_rep(sp, p, i):
    dims = tuple(1 if j == i - 1 else 0 for j in range(sp.seed.rank))
    mats = {a[0]: zero_mat(dims[a[2] - 1], dims[a[1] - 1]) for a in sp.quiver.arrows}
    return make_rep(sp, p, dims, mats)


def enumerate_reps(sp, dims, p, budget=300000):
    """All matrix tuples satisfying the relations, plus the exact groupoid
    count  #points / |prod GL_{d_i}(F_p)|."""
    dims = tuple(dims)
    quiver = sp.quiver
    shapes = [(a[0], dims[a[2] - 1], dims[a[1] - 1]) for a in quiver.arrows]
    total = 1
    for _, r, c in shapes:
        total *= p ** (r * c)
    if total > budget:
        raise BudgetExceeded("%d matrix tuples exceed the budget" % total)
    out = []
    spaces = [list(itertools.product(range(p), repeat=r * c)) for _, r, c in shapes]
    for combo in itertools.product(*spaces):
        mats = {}
        for (name, r, c), flat in zip(shapes, combo):
            mats[name] = tuple(tuple(flat[i * c:(i + 1) * c]) for i in range(r))
        rep = Rep(sp, p, dims, tuple(sorted(mats.items())))
        if check_relations(rep, strict=False):
            out.append(rep)
    denom = 1
    for d in dims:
        denom *= gl_order(d, p)
    return out, Fraction(len(out), denom)


# ---------------------------------------------------------------------------
# subrepresentations and King stability
# ---------------------------------------------------------------------------

def _subreps(rep):
    sp, p = rep.sp, rep.p
    per_vertex = [all_subspaces(p, d) for d in rep.dims]
    quiver = sp.quiver
    out = []
    for combo in itertools.product(*per_vertex):
        ok = True
        for name, s, t in quiver.arrows:
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


def is_semistable(rep, m, strict=False):
    """King (semi)stability: m(V) = 0 and m(W) <= 0 (< 0) for proper
    nonzero subrepresentations W."""
    mv = pair(m, rep.dims)
    if mv != 0:
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


def is_stable(rep, m):
    return is_semistable(rep, m, strict=True)


# ---------------------------------------------------------------------------
# generalized reflection functors
# ---------------------------------------------------------------------------

def reflect(rep, k, sign, cap=None):
    """F_k^+ (sign +) or F_k^- (sign -): transport to the mutated SP.

    Only the reduction case whose substitutions never touch retained arrows
    is implemented; anything else raises UnsupportedReduction.
    """
    sp, p = rep.sp, rep.p
    quiver = sp.quiver
    try:
        sp2, change = mutate_sp(sp, k, sign, cap)
    except ReductionError as exc:
        raise UnsupportedReduction(str(exc)) from exc
    incoming = quiver.arrows_into(k)
    outgoing = quiver.arrows_out_of(k)
    from .qp import composite_name
    comp_map = {composite_name(an, bn): (an, bn)
                for an, _, _ in incoming for bn, _, _ in outgoing}
    din = sum(rep.dims[a[1] - 1] for a in incoming)
    dout = sum(rep.dims[a[2] - 1] for a in outgoing)
    dk = rep.dims[k - 1]
    in_off, acc = {}, 0
    for name, s, _ in incoming:
        in_off[name] = acc
        acc += rep.dims[s - 1]
    out_off, acc = {}, 0
    for name, _, t in outgoing:
        out_off[name] = acc
        acc += rep.dims[t - 1]
    # alpha_k: M_in -> V_k, beta_k: V_k -> M_out, gamma_k: M_out -> M_in
    alpha = [[0] * din for _ in range(dk)]
    for name, s, _ in incoming:
        m = rep.matrix(name)
        for i in range(dk):
            for j in range(rep.dims[s - 1]):
                alpha[i][in_off[name] + j] = m[i][j]
    beta = [[0] * dk for _ in range(dout)]
    for name, _, t in outgoing:
        m = rep.matrix(name)
        for i in range(rep.dims[t - 1]):
            for j in range(dk):
                beta[out_off[name] + i][j] = m[i][j]
    gamma = [[0] * dout for _ in range(din)]
    for aname, s, _ in incoming:
        for bname, _, t in outgoing:
            deriv = _pair_derivative(quiver, sp.potential, aname, bname)
            if not deriv:
                continue
            block = zero_mat(rep.dims[s - 1], rep.dims[t - 1])
            for path, coeff in deriv.items():
                c = Fraction(coeff)
                cm = (c.numerator * pow(c.denominator, p - 2, p)) % p
                block = mat_add(block, mat_scale(path_matrix(rep, path), cm, p), p)
            for i in range(rep.dims[s - 1]):
                for j in range(rep.dims[t - 1]):
                    gamma[in_off[aname] + i][out_off[bname] + j] = block[i][j]
    alpha = tuple(tuple(r) for r in alpha)
    beta = tuple(tuple(r) for r in beta)
    gamma = tuple(tuple(r) for r in gamma)

    new_dims = list(rep.dims)
    new_mats = {}
    if sign == 1:
        # M'_k = coker(beta_k)
        proj = tuple(kernel_basis(tuple(zip(*beta)), dout, p))   # M_out -> coker
        newdk = len(proj)
        new_dims[k - 1] = newdk
        # phi_k: coker -> M_in with phi_k q_k = gamma_k: solve on lifts
        lift = _solve_right_inverse(proj, p)          # coker -> M_out section
        phi = mat_mul(gamma, lift, p, shape=(din, newdk))
        for name, s, t in sp2.quiver.arrows:
            base = name[:-1] if name.endswith("*") else None
            if name in comp_map:
                an, bn = comp_map[name]
                new_mats[name] = mat_mul(rep.matrix(bn), rep.matrix(an), p,
                                         shape=(new_dims[t - 1], new_dims[s - 1]))
            elif base is not None and any(a[0] == base for a in outgoing):
                # beta*: j -> k acts by q_k iota_beta
                j = quiver.arrow(base)[2]
                ib = [list(r) for r in zero_mat(dout, rep.dims[j - 1])]
                for i in range(rep.dims[j - 1]):
                    ib[out_off[base] + i][i] = 1
                new_mats[name] = mat_mul(proj, tuple(tuple(r) for r in ib), p,
                                         shape=(newdk, rep.dims[j - 1]))
            elif base is not None:
                # alpha*: k -> i acts by pi_alpha phi_k
                i_v = quiver.arrow(base)[1]
                pa = tuple(tuple(1 if c == in_off[base] + rr else 0 for c in range(din))
                           for rr in range(rep.dims[i_v - 1]))
                new_mats[name] = mat_mul(pa, phi, p,
                                         shape=(rep.dims[i_v - 1], newdk))
            else:
                new_mats[name] = rep.matrix(name)
    else:
        # M0_k = ker(alpha_k)
        kb = kernel_basis(alpha, din, p)
        newdk = len(kb)
        new_dims[k - 1] = newdk
        incl = tuple(tuple(kb[j][i] for j in range(newdk)) for i in range(din))
        # psi_k: M_out -> ker with incl psi = gamma
        psi = _solve_through_kernel(incl, gamma, p, din, dout, newdk)
        for name, s, t in sp2.quiver.arrows:
            base = name[:-1] if name.endswith("*") else None
            if name in comp_map:
                an, bn = comp_map[name]
                new_mats[name] = mat_mul(rep.matrix(bn), rep.matrix(an), p,
                                         shape=(new_dims[t - 1], new_dims[s - 1]))
            elif base is not None and any(a[0] == base for a in incoming):
                # alpha*: k -> i acts by pi_alpha r_k
                i_v = quiver.arrow(base)[1]
                pa = tuple(tuple(1 if c == in_off[base] + rr else 0 for c in range(din))
                           for rr in range(rep.dims[i_v - 1]))
                new_mats[name] = mat_mul(pa, incl, p,
                                         shape=(rep.dims[i_v - 1], newdk))
            elif base is not None:
                # beta*: j -> k acts by psi_k iota_beta
                j = quiver.arrow(base)[2]
                ib = [[0] * rep.dims[j - 1] for _ in range(dout)]
                for i in range(rep.dims[j - 1]):
                    ib[out_off[base] + i][i] = 1
                new_mats[name] = mat_mul(psi, tuple(tuple(r) for r in ib), p,
                                         shape=(newdk, rep.dims[j - 1]))
            else:
                new_mats[name] = rep.matrix(name)
    return make_rep(sp2, p, tuple(new_dims), new_mats), sp2, change


def _pair_derivative(quiver, potential, aname, bname):
    """d/d(beta alpha): paths read from after beta around to before alpha."""
    out = {}
    for word, coeff in potential.terms:
        L = len(word)
        for i in range(L):
            if word[i] == aname and word[(i + 1) % L] == bname:
                path = tuple(word[(i + 1 + j) % L] for j in range(1, L - 1))
                c = out.get(path, Fraction(0)) + coeff
                if c:
                    out[path] = c
                else:
                    out.pop(path, None)
    return out


def _solve_right_inverse(proj, p):
    """A section s with proj s = id (proj has full row rank)."""
    rows = len(proj)
    cols = len(proj[0]) if proj else 0
    aug = [list(proj[i]) + [1 if j == i else 0 for j in range(rows)]
           for i in range(rows)]
    red, pivots = rref_p([tuple(r) for r in aug], p)
    sec = [[0] * rows for _ in range(cols)]
    for r, c in enumerate(pivots):
        if c < cols:
            for j in range(rows):
                sec[c][j] = red[r][cols + j]
    return tuple(tuple(r) for r in sec)


def _solve_through_kernel(incl, gamma, p, din, dout, newdk):
    """psi with incl psi = gamma (im gamma inside im incl)."""
    # solve column by column
    cols = []
    for j in range(dout):
        rhs = tuple(gamma[i][j] for i in range(din))
        aug = [tuple(incl[i][t] for t in range(newdk)) + (rhs[i],) for i in range(din)]
        red, pivots = rref_p(aug, p)
        sol = [0] * newdk
        for r, c in enumerate(pivots):
            if c == newdk:
                raise ValueError("gamma does not factor through the kernel")
            sol[c] = red[r][newdk]
        cols.append(sol)
    return tuple(tuple(cols[j][i] for j in range(dout)) for i in range(newdk))


def rebase_rep(rep, sp_to, arrow_map=None):
    """Move a representation to another SP with the same adjacency, matching
    arrows by (source, target) in sorted-name order unless a map is given."""
    if arrow_map is None:
        arrow_map = {}
        groups_from = {}
        for name, s, t in rep.sp.quiver.arrows:
            groups_from.setdefault((s, t), []).append(name)
        groups_to = {}
        for name, s, t in sp_to.quiver.arrows:
            groups_to.setdefault((s, t), []).append(name)
        if {k: len(v) for k, v in groups_from.items()} != \
                {k: len(v) for k, v in groups_to.items()}:
            raise ValueError("quivers have different adjacency")
        for key in groups_from:
            for a, b in zip(sorted(groups_from[key]), sorted(groups_to[key])):
                arrow_map[a] = b
    mats = {arrow_map[name]: m for name, m in rep.mats}
    return make_rep(sp_to, rep.p, rep.dims, mats)


def dimension_lattice_vector(rep, change=None):
    """[V] in the root lattice: sum d_i s_i, optionally through a change."""
    if change is None:
        return tuple(rep.dims)
    n = len(rep.dims)
    return tuple(sum(change[i][j] * rep.dims[j] for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# hom spaces and isomorphism
# ---------------------------------------------------------------------------

def hom_dimension(rep1, rep2):
    """dim Hom(V, W) by solving the intertwiner system over F_p."""
    assert rep1.p == rep2.p
    p = rep1.p
    quiver = rep1.sp.quiver
    offs1, acc = [], 0
    for d in rep1.dims:
        offs1.append(acc)
        acc += d
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


# ---------------------------------------------------------------------------
# semistability transport and the counting series
# ---------------------------------------------------------------------------

@dataclass
class TransportReport:
    passed: bool
    checked: int
    failures: list


def semistable_transport_check(sp, k, m, max_total_dim=3, p=2, budget=300000):
    """Semistability of V at m matches semistability of the reflected module.

    The functor F_k^+ kills copies of S_k (and F_k^- dually), so the
    equivalence quantifies over the subcategory where nothing is lost:
    Hom(S_k, V) = 0 when m(s_k) > 0, Hom(V, S_k) = 0 when m(s_k) < 0.  A
    semistable V lies there automatically.
    """
    ek = tuple(1 if j == k - 1 else 0 for j in range(sp.seed.rank))
    if pair(m, ek) == 0:
        raise ValueError("m must not vanish on s_k")
    sign = 1 if pair(m, ek) > 0 else -1
    n = sp.seed.rank
    failures = []
    checked = 0
    sk = simple_rep(sp, p, k)
    for dims in _dimension_vectors(n, max_total_dim):
        try:
            reps, _ = enumerate_reps(sp, dims, p, budget)
        except BudgetExceeded:
            continue
        for rep in reps:
            if sign > 0 and hom_dimension(sk, rep) != 0:
                continue
            if sign < 0 and hom_dimension(rep, sk) != 0:
                continue
            refl, sp2, change = reflect(rep, k, sign)
            m2 = tuple(sum(change[i][j] * Fraction(m[i]) for i in range(n))
                       for j in range(n))
            s1 = is_semistable(rep, m)
            s2 = is_semistable(refl, m2)
            checked += 1
            if s1 != s2:
                failures.append((dims, rep.mats))
    return TransportReport(not failures, checked, failures)


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


def total_counting_element(sp, order, p):
    """sum_d q^{<d,d>/2} (#Rep_d / |GL_d|) x^d for the zero potential."""
    if not sp.potential.is_zero():
        raise ValueError("counting series needs a zero potential")
    quiver = sp.quiver
    n = sp.seed.rank
    coeffs = {}
    for dims in _dimension_vectors(n, order):
        npoints = 1
        for _, s, t in quiver.arrows:
            npoints *= p ** (dims[s - 1] * dims[t - 1])
        denom = 1
        for d in dims:
            denom *= gl_order(d, p)
        c = CoeffFn.from_fraction(npoints, denom)
        coeffs[dims] = c.mul_vpow(euler_form(quiver, dims, dims))
    return GradedElement(sp.seed, order, QUANTUM, GROUP, coeffs)


def _reduce_at_sqrt(coeffs, p):
    """Normalize coefficients mod v^2 - p to the canonical a + b v form."""
    out = {}
    for d, c in coeffs.items():
        a, b = c.eval_at_sqrt(p)
        out[d] = CoeffFn.from_fraction(a) + CoeffFn.from_fraction(b).mul_vpow(1)
    return out


def iq_wall_series(sp, m, order, p):
    """The integrated semistable series at the stability m, evaluated at
    q = p: the middle factor of the total counting element."""
    z = phi_element(total_counting_element(sp, order, p), m)
    return GradedElement(sp.seed, order, QUANTUM, GROUP, _reduce_at_sqrt(z.coeffs, p))


def iq_wall_series_brute(sp, m, dims_list, p, budget=300000):
    """Same series from raw enumeration of semistable points (small dims)."""
    coeffs = {}
    for dims in dims_list:
        reps, _ = enumerate_reps(sp, dims, p, budget)
        count = sum(1 for r in reps if is_semistable(r, m))
        if count == 0:
            continue
        denom = 1
        for d in dims:
            denom *= gl_order(d, p)
        c = CoeffFn.from_fraction(count, denom)
        coeffs[tuple(dims)] = c.mul_vpow(euler_form(sp.quiver, dims, dims))
    order = max(sum(d) for d in dims_list)
    return GradedElement(sp.seed, order, QUANTUM, GROUP, _reduce_at_sqrt(coeffs, p))
