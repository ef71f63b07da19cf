"""Consistent scattering diagrams as single group elements.

A diagram is stored as the group element g it corresponds to; walls and
chambers are derived views.  Everything runs in one carrier, the quantum
torus: quantum elements are their own carriers, dt elements are carried by
sigma (v -> -v) and exposed by it again, and classical elements are carried
by their canonical quantum lift and exposed through the classical limit.
Factorization keeps supports and sigma is a field automorphism, so the
noncommutative group structure (and hence the scattering corrections) is
computed exactly in every convention.

Sign conventions.  Factorization splits g = g_minus * g_zero * g_plus
with supports on m < 0, m = 0, m > 0; the wall function phi(m) is the
middle factor; initial data reads the ray part of phi at p*(n); path
ordered products compose crossings left to right along the path, a
crossing from the positive to the negative side of a wall contributing
the wall function itself and the reverse crossing its inverse.  These
choices reproduce the dilogarithm wall function on the outgoing A2 ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import CoeffFn, ONE, ZERO
from .lattice import (check_covector, dedupe_primitive, face_enumerate, mutate_seed,
                      p_star, pair, primitive, rational_primitive, t_k, total_degree,
                      apply_change_to_dimvec, covector_to_new_basis, _cut, _unit_basis)
from .torus import (CLASSICAL, DT_TWIST, GROUP, LIE, QUANTUM, GradedElement,
                    classical_map, dilog_group_element, lift_classical, sigma,
                    _acc, _by_degree, _full, _product, _zero_key)


class DegenerateSegmentError(ValueError):
    """A straight path hits a codimension >= 2 cell; perturb the endpoints."""


# ---------------------------------------------------------------------------
# carrier plumbing: every convention computes in the quantum torus
# ---------------------------------------------------------------------------

def to_carrier(elem):
    if elem.convention == CLASSICAL:
        return lift_classical(elem)
    return sigma(elem) if elem.convention == DT_TWIST else elem


def expose(elem, convention):
    if convention == CLASSICAL:
        return classical_map(elem)
    return sigma(elem) if convention == DT_TWIST else elem


# ---------------------------------------------------------------------------
# incremental factorization  g = minus * zero * plus
# ---------------------------------------------------------------------------

class _FactorizationState:
    """Degree-by-degree factorization g = L * Z * P at a covector m, with L,
    Z and P supported on m < 0, m = 0 and m > 0 and LZ caching L * Z.  Layer
    t of g is L_t + Z_t + P_t plus `products(t)` of the settled layers.  It
    keeps no log of Z: its two readers, completion and `psi_extract`, take it.
    With a down-set `keys` of N^r it factors modulo the ideal the monomials
    outside span: factorization keeps supports, so entries on `keys` agree."""

    __slots__ = ("seed", "order", "m", "keys", "L", "Z", "P", "LZ")

    def __init__(self, seed, order, m, keys=None):
        self.seed = seed
        self.order = order
        self.m = rational_primitive(m)   # a positive multiple: same signs
        self.keys = keys
        zero = _zero_key(seed)
        self.L = {zero: ONE}
        self.Z = {zero: ONE}
        self.P = {zero: ONE}
        self.LZ = {zero: ONE}

    def products(self, t):
        """Layer t of L * Z and of L * Z * P, formed from the settled layers."""
        lz_t = _product(self.seed, self.order, self.L, self.Z, True,
                        degree=t, keys=self.keys)
        r_t = _product(self.seed, self.order, self.LZ, self.P, True,
                       degree=t, keys=self.keys)
        for d, c in lz_t.items():
            _acc(r_t, d, c)
        return lz_t, r_t

    def finish_layer(self, g_t, products):
        """Assign the layer-t factor entries from the final layer-t entries
        g_t of g and the layer's `products`; return the new Z entries."""
        lz_t, r_t = products
        new_l, new_z = {}, {}
        for d in set(g_t).union(r_t):
            delta = g_t.get(d, ZERO) - r_t.get(d, ZERO)
            if delta.is_zero():
                continue
            s = pair(self.m, d)
            if s > 0:
                self.P[d] = delta
            elif s < 0:
                self.L[d] = delta
                new_l[d] = delta
            else:
                self.Z[d] = delta
                new_z[d] = delta
        # close the minus*zero cache at layer t
        for part in (lz_t, new_l, new_z):
            for d, c in part.items():
                _acc(self.LZ, d, c)
        return new_z

    def run(self, g):
        g = g if self.keys is None else {d: g[d] for d in self.keys if d in g}
        layers = _by_degree(g)
        for t in range(1, self.order + 1):
            self.finish_layer(dict(layers.get(t, ())), self.products(t))


def _factor(carrier, m, keys=None):
    """Factor a carrier group element at the covector m: the coefficient
    dicts of minus, zero and plus (zero key stripped), modulo the monomials
    outside the down-set `keys` when it is given."""
    seed = carrier.seed
    check_covector(m, seed.rank)
    order = carrier.order if keys is None else max(map(total_degree, keys))
    state = _FactorizationState(seed, order, m, keys)
    state.run(_full(carrier))
    zero = _zero_key(seed)
    for part in (state.L, state.Z, state.P):
        del part[zero]
    return state.L, state.Z, state.P


def _group(carrier, coeffs):
    return GradedElement(carrier.seed, carrier.order, QUANTUM, GROUP, coeffs)


def factorize(g, m):
    """Unique factorization g = minus * zero * plus by the sign of m."""
    if g.flavor != GROUP:
        raise ValueError("factorize needs a group element")
    carrier = to_carrier(g)
    return tuple(expose(_group(carrier, part), g.convention)
                 for part in _factor(carrier, m))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def _semigroup_closure(generators, order, rank):
    """All nonzero sums of the generators with total degree <= order."""
    sums = {(0,) * rank}
    for gvec in generators:
        frontier = list(sums)
        for base in frontier:
            cur = base
            while True:
                cur = tuple(a + b for a, b in zip(cur, gvec))
                if total_degree(cur) > order:
                    break
                if cur in sums:
                    continue
                sums.add(cur)
        # closing under one generator at a time covers all combinations
        # because addition is commutative
    sums.discard((0,) * rank)
    return sums


def _ray_targets(eta, seed, order, convention):
    """Log of the carrier lift of each initial-data entry, keyed by ray."""
    targets = {}
    for n, g in eta.items():
        n = tuple(n)
        if primitive(n) != n:
            raise ValueError("initial data keys must be primitive: %r" % (n,))
        if g.convention != convention or g.seed != seed:
            raise ValueError("initial data entry in the wrong context")
        for d in g.coeffs:
            if primitive(d) != n:
                raise ValueError("entry at %r not supported on its ray" % (n,))
        lie = to_carrier(g).log()
        if lie.coeffs:
            targets[n] = dict(lie.coeffs)
    return targets


def _ray_states(seed, order, rays, support):
    """The factorization state at p*(n) for each ray n; rays whose p*(n)
    takes the same signs on the support share one state."""
    support = sorted(support)
    by_sign, out = {}, {}
    for n in rays:
        m = p_star(seed, n)
        sig = tuple((pair(m, d) > 0) - (pair(m, d) < 0) for d in support)
        if sig not in by_sign:
            by_sign[sig] = _FactorizationState(seed, order, m)
        out[n] = by_sign[sig]
    return out


def psi_extract(g):
    """The initial data of the consistent diagram of g: for each primitive n,
    the ray component of the middle factor at p*(n), as a group element."""
    sd = g if isinstance(g, ScatDiagram) else ScatDiagram.from_group_element(g)
    carrier = sd.carrier
    seed, order = carrier.seed, carrier.order
    support = _semigroup_closure(set(carrier.coeffs), order, seed.rank)
    rays = sorted({primitive(d) for d in support})
    ray_state = _ray_states(seed, order, rays, support)
    full = _full(carrier)
    logs = {}
    for state in dict.fromkeys(ray_state.values()):
        state.run(full)
        logs[state] = _group(carrier, state.Z).log().coeffs
    out = {}
    for n, state in ray_state.items():
        lie = {d: c for d, c in logs[state].items() if primitive(d) == n}
        if lie:
            elem = GradedElement(seed, order, QUANTUM, LIE, lie).exp()
            out[n] = expose(elem, sd.convention)
    return out


def _log_correction(seed, order, upow, t):
    """Layer t of log Z - (Z - 1): sum_{p >= 2} (-1)^(p-1)/p [(Z - 1)^p]_t,
    from upow[p-1], the settled layers of (Z - 1)^p, which gain layer t."""
    corr = {}
    upow.append({})     # (Z - 1)^(t+1) starts in degree t + 1
    for p in range(2, t + 1):
        new = _product(seed, order, upow[p - 2], upow[0], True, degree=t)
        upow[p - 1].update(new)
        inv = CoeffFn.from_fraction((-1) ** (p - 1), p)
        for d, c in new.items():
            _acc(corr, d, c * inv)
    return corr


def complete_from_initial(eta, seed, order, convention):
    """The unique consistent diagram with the given initial data, solved
    degree by degree (each degree is a direct linear solve)."""
    targets = _ray_targets(eta, seed, order, convention)
    support = _semigroup_closure(set(targets), order, seed.rank)
    for n, tau in targets.items():
        support.update(tau)
    rays = sorted({primitive(d) for d in support})
    g = {}
    ray_state = _ray_states(seed, order, rays, support)
    # per state, the settled layers of (Z - 1)^p for p = 1, 2, ...
    powers = {state: [{}] for state in ray_state.values()}
    for t in range(1, order + 1):
        products = {state: state.products(t) for state in powers}
        corr = {state: _log_correction(seed, order, upow, t)
                for state, upow in powers.items()}
        g_t = {}
        for n in rays:
            k, rest = divmod(t, total_degree(n))
            kn = tuple(k * x for x in n)
            if rest or kn not in support:
                continue
            state = ray_state[n]
            # [log Z]_t = Z_t + corr_t must equal the target, and on the ray
            # g_t = Z_t + [L * Z * P of settled layers]_t: solve for g_t
            val = (targets.get(n, {}).get(kn, ZERO) - corr[state].get(kn, ZERO)
                   + products[state][1].get(kn, ZERO))
            if not val.is_zero():
                g_t[kn] = val
        g.update(g_t)
        for state, upow in powers.items():
            upow[0].update(state.finish_layer(g_t, products[state]))
    return ScatDiagram(seed, order, convention, GradedElement(seed, order, QUANTUM, GROUP, g))


# ---------------------------------------------------------------------------
# wall detection on one candidate hyperplane
# ---------------------------------------------------------------------------

def _ray_top(order, n):
    """The last degree at which the ray of n has a term."""
    return order // total_degree(n) * total_degree(n)


class _WallPlane:
    """The hyperplane n-perp of one candidate, in an integer basis of it,
    with the witnesses already tested on it."""

    def __init__(self, n, candidates):
        self.n = n
        self.rank = len(n)
        # cutting all space by n leaves an integer basis of n-perp as lineality
        self.basis = _cut((), _unit_basis(self.rank), n, ())[0]
        self.lines = {}         # other candidate -> its line in the basis
        for d in candidates:
            if d != n:
                c = primitive(tuple(pair(b, d) for b in self.basis))
                self.lines[d] = max(c, tuple(-x for x in c))   # c, -c: one line
        self.tested = []
        self.cut = None

    def _witness(self, face):
        # the face spans the plane, so each line vanishes at finitely many k
        gens = face.rays + face.lineality
        k = 1
        while True:
            x = tuple(sum(k ** i * g[j] for i, g in enumerate(gens))
                      for j in range(self.rank - 1))
            if all(pair(x, c) for c in self.lines.values()):
                return x
            k += 1

    def retest(self, sd, walls):
        """Test the open faces that the confirmed walls cut out of n-perp
        and that hold no tested witness; True when one carries a wall."""
        top = _ray_top(sd.order, self.n)
        cut = sorted({self.lines[w] for w in walls
                      if w != self.n and total_degree(w) < top})
        if cut == self.cut:
            return False
        self.cut = cut
        for face in face_enumerate(cut, self.rank - 1):
            # a tested witness pairs nonzero with every line
            if 0 in face.signs or any(
                    all((pair(x, c) > 0) == (s > 0)
                        for c, s in zip(face.normals, face.signs))
                    for x in self.tested):
                continue
            x = self._witness(face)
            self.tested.append(x)
            m = tuple(sum(w * b[i] for w, b in zip(x, self.basis))
                      for i in range(self.rank))
            # m is off every other candidate, so the whole middle factor
            # there is the ray-of-n part R_n(m)
            if sd.phi(m).coeffs:
                return True
        return False


# ---------------------------------------------------------------------------
# the diagram object and its minimal cone complex
# ---------------------------------------------------------------------------

@dataclass
class Cell:
    """One cell of the minimal complex: a union of arrangement faces on
    which the diagram function is constant."""

    dim: int
    faces: tuple            # member SignedFace sign vectors
    function: object        # exposed GradedElement, or None for the identity
    rays: tuple
    lineality: tuple
    normal: tuple = None    # primitive wall normal for codimension-one cells


class MinimalComplex:
    def __init__(self, rank, normals, faces, cells, face_cell):
        self.rank = rank
        self.normals = normals
        self.faces = faces
        self.cells = cells
        self._face_cell = face_cell

    def chambers(self):
        return [c for c in self.cells if c.dim == self.rank]

    def walls(self):
        return [c for c in self.cells if c.dim == self.rank - 1
                and c.function is not None]

    def locate(self, m):
        """The unique cell whose relative interior contains m."""
        sig = tuple(1 if pair(m, n) > 0 else (-1 if pair(m, n) < 0 else 0)
                    for n in self.normals)
        return self.cells[self._face_cell[sig]]


class ScatDiagram:
    """A consistent scattering diagram, stored as its group element."""

    def __init__(self, seed, order, convention, carrier):
        if (carrier.convention, carrier.seed, carrier.order) != (QUANTUM, seed, order):
            raise ValueError("a diagram is carried in the quantum torus at its seed and order")
        self.seed = seed
        self.order = order
        self.convention = convention
        self.carrier = carrier
        self._complex = None
        self._exposed = None
        self._wall_normals = None
        self._support_normals = None
        self._closure = None
        self._keys = {}         # S(m) -> its down-set with the zero key

    @staticmethod
    def from_group_element(g):
        if g.flavor != GROUP:
            raise ValueError("a diagram needs a group element")
        return ScatDiagram(g.seed, g.order, g.convention, to_carrier(g))

    def group_element(self):
        if self._exposed is None:
            self._exposed = expose(self.carrier, self.convention)
        return self._exposed

    def phi(self, m):
        return expose(self._middle(m), self.convention)

    def _middle(self, m):
        """The middle factor at m in the carrier.  Its keys lie in S(m), the
        closure keys on m-perp, so it is factored modulo the monomials outside
        the down-set of S(m)."""
        on_perp = tuple(s for s in self._support_closure() if pair(m, s) == 0)
        if on_perp not in self._keys:
            self._keys[on_perp] = frozenset((_zero_key(self.seed), *(
                d for d in self._support_closure()
                if any(all(a <= b for a, b in zip(d, s)) for s in on_perp))))
        return _group(self.carrier, _factor(self.carrier, m, self._keys[on_perp])[1])

    def support_normals(self):
        if self._support_normals is None:
            self._support_normals = dedupe_primitive(sorted(self.carrier.log().coeffs))
        return self._support_normals

    def _support_closure(self):
        """The support's closure: it holds each key of each factor at each m."""
        if self._closure is None:
            self._closure = tuple(sorted(_semigroup_closure(
                set(self.carrier.coeffs), self.order, self.seed.rank)))
        return self._closure

    def candidate_normals(self):
        """Primitive directions of the support closure; every wall normal
        is among them."""
        return tuple(sorted({primitive(d) for d in self._support_closure()}))

    def wall_normals(self):
        """Normals whose hyperplane carries a nontrivial wall somewhere.

        Candidates come from the support closure.  Write |n| for the total
        degree, R_n(m) for the ray-of-n part of the middle factor at m on
        n-perp (exposed in the diagram's convention), and D_n for
        (order // |n|)*|n|, the last degree at which R_n has a term.  The
        walls W are found as a fixpoint: candidates are taken by increasing
        (|n|, n); n-perp (in an integer basis of it) is cut only by the
        confirmed walls w != n with |w| < D_n, and R_n is tested at one
        witness per open face, the face's rays and lineality vectors summed
        with coefficients 1, k, k^2, ... for the least k >= 1 that puts it
        off every other candidate's line.  A candidate keeps the witnesses
        it has tested; when W grows, only the open faces holding none of
        them are tested (faces only split).  Passes repeat until one
        confirms nothing.

        Exactness.  R_n is constant on each open face of the arrangement
        the other candidates cut out of n-perp, and every witness lies in
        one, so a positive test is one the all-candidates sweep makes too:
        W holds walls only.  Conversely, order by order (Kontsevich-
        Soibelman; Gross-Hacking-Keel-Kontsevich, App. C), the degree-s
        part of R_n changes only across w-perp for a wall w with a term of
        degree below s: around a joint of n-perp and w-perp, consistency
        modulo degree > s changes it only by brackets of lower-degree terms
        of the walls through the joint, and terms of degree s are central
        there.  Suppose a wall were missed, and let s be the smallest degree
        at which some missed wall n has R_n(m) nonzero, m generic on n-perp.
        Every wall w with a term of degree below s is then confirmed, and
        |w| <= that degree < s <= D_n, so w cuts the final arrangement of n.
        Hence R_n agrees in degrees <= s on the whole face of m.  That face
        holds a tested witness (faces only split, and the last pass tested
        every face without one), where R_n was trivial: a contradiction.
        The test needs no ray filter: every key of the middle factor at a
        witness m lies in the support closure and pairs zero with m, and m
        pairs nonzero with every candidate but n, so the whole middle factor
        (exposed) lies on the ray of n and is R_n(m).  So `phi` factors modulo
        the monomials outside the box below (D_n/|n|)*n (see `_FactorizationState`).
        """
        if self._wall_normals is None:
            candidates = self.candidate_normals()
            planes = [_WallPlane(n, candidates)
                      for n in sorted(candidates, key=lambda n: (total_degree(n), n))]
            walls = set()
            grew = True
            while grew:
                grew = False
                for plane in planes:
                    if plane.n not in walls and plane.retest(self, walls):
                        walls.add(plane.n)
                        grew = True
            self._wall_normals = tuple(n for n in candidates if n in walls)
        return self._wall_normals

    def minimal_complex(self):
        if self._complex is not None:
            return self._complex
        rank = self.seed.rank
        normals = self.wall_normals()
        faces = face_enumerate(normals, rank)
        values = []
        for f in faces:
            # a face of full dimension meets no wall: its value is the identity
            z = self.phi(f.witness).coeffs if 0 in f.signs else {}
            values.append(tuple(sorted(z.items())))
        parent = list(range(len(faces)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(len(faces)):
            for j in range(len(faces)):
                if i != j and values[i] == values[j] and faces[i].is_face_of(faces[j]):
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[ri] = rj
        groups = {}
        for i in range(len(faces)):
            groups.setdefault(find(i), []).append(i)
        cells = []
        face_cell = {}
        lineality = faces[0].lineality
        for members in groups.values():
            dims = [faces[i].dim for i in members]
            top = members[dims.index(max(dims))]
            func = None
            if values[top]:
                func = GradedElement(self.seed, self.order,
                                     self.convention, GROUP, dict(values[top]))
            normal = None
            if max(dims) == rank - 1:
                f = faces[top]
                zn = [n for n, s in zip(f.normals, f.signs) if s == 0]
                normal = primitive(zn[0]) if zn else None
            idx = len(cells)
            cells.append(Cell(max(dims), tuple(faces[i].signs for i in members),
                              func, (), lineality, normal))
            for i in members:
                face_cell[faces[i].signs] = idx
        mc = MinimalComplex(rank, normals, faces, cells, face_cell)
        # a ray of a member face generates its cell when the ray's own face,
        # one dimension above the lineality, is a cell by itself
        edge = len(lineality) + 1
        for cell, members in zip(cells, groups.values()):
            cell.rays = tuple(sorted({r for i in members for r in faces[i].rays
                                      if mc.locate(r).dim == edge}))
        self._complex = mc
        return mc


# ---------------------------------------------------------------------------
# standard diagrams
# ---------------------------------------------------------------------------

def _unit_rays(seed):
    n = seed.rank
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


def cluster_sd(seed, order):
    eta = {n: dilog_group_element(seed, n, order, CLASSICAL)
           for n in _unit_rays(seed)}
    return complete_from_initial(eta, seed, order, CLASSICAL)


def quantum_cluster_sd(seed, order):
    eta = {n: dilog_group_element(seed, n, order, QUANTUM)
           for n in _unit_rays(seed)}
    return complete_from_initial(eta, seed, order, QUANTUM)


def dt_in_sd(seed, order):
    eta = {n: dilog_group_element(seed, n, order, DT_TWIST)
           for n in _unit_rays(seed)}
    return complete_from_initial(eta, seed, order, DT_TWIST)


# ---------------------------------------------------------------------------
# path-ordered products
# ---------------------------------------------------------------------------

def path_ordered_product(sd, a, b):
    """Product of wall crossings along the straight segment from a to b.

    Endpoints must lie in open chambers; a segment through a cell of
    codimension two or more is rejected (perturb and retry).  Consistency
    says the result equals endpoint_product(sd, a, b).
    """
    a = tuple(Fraction(x) for x in a)
    b = tuple(Fraction(x) for x in b)
    normals = sd.support_normals()
    for point in (a, b):
        if any(pair(point, n) == 0 for n in normals):
            raise ValueError("path endpoint lies on a wall")
    crossings = {}
    for n in normals:
        sa, sb = pair(a, n), pair(b, n)
        if (sa > 0) != (sb > 0):
            t = sa / (sa - sb)
            if t in crossings:
                raise DegenerateSegmentError(
                    "segment passes through a codimension >= 2 cell")
            crossings[t] = (n, sa > 0)
    conv = sd.convention
    result = GradedElement.one(sd.seed, sd.order, QUANTUM)
    for t in sorted(crossings):
        n, downward = crossings[t]
        point = tuple(x + t * (y - x) for x, y in zip(a, b))
        value = sd._middle(point)
        if not downward:
            value = value.group_inverse()
        result = result.mul(value)
    return expose(result, conv)


def endpoint_product(sd, a, b):
    """The closed form minus(a)^{-1} * minus(b); depends only on endpoints."""
    la = _group(sd.carrier, _factor(sd.carrier, a)[0])
    lb = _group(sd.carrier, _factor(sd.carrier, b)[0])
    return expose(la.group_inverse().mul(lb), sd.convention)


# ---------------------------------------------------------------------------
# mutation of scattering diagrams
# ---------------------------------------------------------------------------

@dataclass
class MutationReport:
    passed: bool
    checked: int
    failures: list          # (kind, face witness covector, first differing key)


def _transvection(seed, k, s, d):
    """(T_k^vee)^s on dimension vectors: d -> d + s {s_k, d} s_k."""
    out = list(d)
    out[k - 1] += s * sum(b * x for b, x in zip(seed.b[k - 1], d))
    return tuple(out)


def _pulled_back(seed, k, sign, change, normals):
    """The mutated seed's normals pulled back through T_k^sign, by half-space:
    s = 0 where sign * m(s_k) > 0 and s = sign where it is < 0.  There T_k is
    linear, and each pulled-back n of n' has pair(m, n) = pair(image(m), n'),
    image(m) being covector_to_new_basis(change, t_k(seed, k, sign, m))."""
    return {s: [_transvection(seed, k, -s, apply_change_to_dimvec(change, n))
                for n in normals] for s in (0, sign)}


def _first_difference(a, b):
    return min((d for d in set(a) | set(b) if a.get(d, ZERO) != b.get(d, ZERO)),
               default=None)


def mutate_sd_check(sd, k, sign, sd_mut):
    """Check the mutation law (Gross-Hacking-Keel-Kontsevich, arXiv:1411.1394,
    Thm 1.24) relating sd, at seed s, and sd_mut, at mu_k^sign(s), exactly.

    On each half-space of s_k-perp, sd's wall normals, s_k and sd_mut's wall
    normals pulled back through T_k (`_pulled_back`) cut an arrangement on
    each face of which both sd(m) and sd_mut(image(m)) are constant.  At the
    witness of each face off s_k-perp with a zero sign, the wall function of
    sd, its keys moved by (T_k^vee)^s, must equal that of sd_mut at image(m)
    on every key visible in both truncations; on each face of s_k-perp of
    dimension rank - 1 each side must be the dilogarithm of its own s_k.
    Values come from the two minimal complexes; `checked` counts the faces.
    """
    seed = sd.seed
    order = min(sd.order, sd_mut.order)
    seed_mut, change = mutate_seed(seed, k, sign)
    if sd_mut.seed != seed_mut:
        raise ValueError("sd_mut is not the diagram of mu_k^sign(seed)")
    _, change_back = mutate_seed(seed_mut, k, -sign)
    ek = _unit_rays(seed)[k - 1]

    def within(d):
        return min(d) >= 0 and total_degree(d) <= order

    def compare(val1, val2, s):
        # val1 from sd (s-coordinates), its keys moved by theta^s, against
        # val2 from sd_mut (s'-coordinates): a differing key counts when
        # both truncations see it, or when sd can never produce it
        lat1 = {_transvection(seed, k, s, d): c for d, c in val1.items()}
        lat2 = {apply_change_to_dimvec(change, d): c for d, c in val2.items()}
        for key in sorted(set(lat1) | set(lat2)):
            if lat1.get(key, ZERO) == lat2.get(key, ZERO):
                continue
            src = _transvection(seed, k, -s, key)
            if min(src) < 0 or (within(src) and
                                within(apply_change_to_dimvec(change_back, key))):
                return key
        return None

    def value(diagram, m):
        cell = diagram.minimal_complex().locate(m)
        return cell.function.coeffs if cell.function else {}

    dilogs = [dilog_group_element(at, ek, order, sd.convention).coeffs
              for at in (seed, seed_mut)]
    pulled = _pulled_back(seed, k, sign, change, sd_mut.wall_normals())
    failures, checked = [], 0
    for s, side in ((0, sign), (sign, -sign)):
        for face in face_enumerate((*sd.wall_normals(), ek, *pulled[s]), seed.rank):
            on = face.signs[face.normals.index(ek)]
            # each face of s_k-perp is met on both half-spaces: check it once
            if 0 not in face.signs or on == -side or \
                    (on == 0 and (s or face.dim < seed.rank - 1)):
                continue
            m = face.witness
            got = (value(sd, m),
                   value(sd_mut, covector_to_new_basis(change, t_k(seed, k, sign, m))))
            checked += 1
            if on:
                found = [("transported-side" if s else "equal-side", compare(*got, s))]
            else:
                found = [(kind, _first_difference(val, want)) for kind, val, want
                         in zip(("wall", "wall-mutated"), got, dilogs)]
            failures.extend((kind, m, key) for kind, key in found if key is not None)
    return MutationReport(not failures, checked, failures)


# ---------------------------------------------------------------------------
# central comparison
# ---------------------------------------------------------------------------

@dataclass
class CentralReport:
    central: bool
    element: object        # the quotient group element (exposed convention)
    witness: object        # (dimvec, coefficient) of the first non-central term


def central_difference(sd1, sd2):
    """c = g1^{-1} g2, accepted when log(c) is supported on ker p*."""
    if (sd1.seed, sd1.order, sd1.convention) != (sd2.seed, sd2.order, sd2.convention):
        raise ValueError("diagrams live in different contexts")
    seed = sd1.seed
    c = sd1.carrier.group_inverse().mul(sd2.carrier)
    lie = expose(c.log(), sd1.convention)
    bad = [d for d in lie.coeffs if any(p_star(seed, d))]
    if bad:
        d = min(bad, key=lambda x: (total_degree(x), x))
        return CentralReport(False, None, (d, lie.coeffs[d]))
    return CentralReport(True, expose(c, sd1.convention), None)

