"""Consistent scattering diagrams as single group elements.

A diagram is stored as the group element g it corresponds to; walls and
chambers are derived views.  Everything runs in one carrier, the quantum
torus (`torus.to_carrier`, `torus.expose`): dt elements are carried by
sigma (v -> -v) and classical ones by the frame image of their canonical
quantum lift.  Factorization keeps supports, and sigma and the frame map
are automorphisms, so the noncommutative group structure (and hence the
scattering corrections) is computed exactly in every convention.

Sign conventions.  Factorization splits g = g_minus * g_zero * g_plus
with supports on m < 0, m = 0, m > 0; the wall function phi(m) is the
middle factor; initial data reads the ray part of phi at p*(n); path
ordered products compose crossings left to right along the path, a
crossing from the positive to the negative side of a wall contributing
the wall function itself and the reverse crossing its inverse.  These
choices reproduce the dilogarithm wall function on the outgoing A2 ray.
"""

from __future__ import annotations

import random
from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

from .coeff import CoeffFn, ONE, ZERO
from .lattice import (check_covector, face_enumerate, mutate_seed, p_star, pair, primitive,
                      rational_primitive, total_degree, apply_change_to_dimvec, _cut,
                      _unit_basis)
from .torus import (CLASSICAL, CONVENTIONS, DT_TWIST, GROUP, LIE, QUANTUM, GradedElement,
                    dilog_group_element, expose, rescale, to_carrier,
                    _acc, _by_degree, _full, _product, _zero_key)


class DegenerateSegmentError(ValueError):
    """A straight path hits a codimension >= 2 cell; perturb the endpoints."""


@dataclass
class Report:
    """An exact check's outcome: the cases it checked, those it could not,
    and per failure a witness (kind, covector or dims, key, value), the
    value holding what differs at the key."""

    passed: bool
    checked: int
    skipped: list
    failures: list


def corrupted(elem):
    """The negative control of every verify suite: elem times
    exp(x^(1,...,1)) in its convention."""
    if elem.order < elem.seed.rank:     # x^(1,...,1) would be truncated away
        raise ValueError("the control needs order >= %d, the seed rank" % elem.seed.rank)
    bump = GradedElement.monomial(elem.seed, elem.order, elem.convention,
                                  (1,) * elem.seed.rank, ONE)
    return elem.mul(bump.exp())


def _first_difference(a, b):
    """(least key where the coefficient dicts differ, both coefficients), or None."""
    key = min((d for d in set(a) | set(b) if a.get(d, ZERO) != b.get(d, ZERO)),
              default=None)
    return None if key is None else (key, (a.get(key, ZERO), b.get(key, ZERO)))


# ---------------------------------------------------------------------------
# incremental factorization  g = minus * zero * plus
# ---------------------------------------------------------------------------

class _FactorizationState:
    """Degree-by-degree factorization g = L * Z * P at a covector m, with L,
    Z and P supported on m < 0, m = 0 and m > 0 and LZ caching L * Z.  Layer
    t of g is L_t + Z_t + P_t plus `products(t)` of the settled layers.  It
    keeps no log of Z: completion takes it layer by layer.
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
        """Layer t of L * Z * P formed from the settled layers; LZ gains
        layer t of L * Z formed from them first."""
        lz_t = _product(self.seed, self.order, self.L, self.Z, True,
                        degree=t, keys=self.keys)
        for d, c in lz_t.items():
            _acc(self.LZ, d, c)
        return _product(self.seed, self.order, self.LZ, self.P, True,
                        degree=t, keys=self.keys)

    def finish_layer(self, g_t, r_t):
        """Assign the layer-t factor entries from the final layer-t entries
        g_t of g and r_t, the layer's `products`; return the new Z entries.
        LZ gains each new L and Z entry."""
        new_z = {}
        keys = set(g_t).union(r_t)
        for d in keys if self.keys is None else keys & self.keys:
            delta = g_t.get(d, ZERO) - r_t.get(d, ZERO)
            if delta.is_zero():
                continue
            s = pair(self.m, d)
            if s > 0:
                self.P[d] = delta
            elif s < 0:
                self.L[d] = delta
                _acc(self.LZ, d, delta)
            else:
                self.Z[d] = delta
                new_z[d] = delta
                _acc(self.LZ, d, delta)
        return new_z

    def run(self, g):
        layers = _by_degree(g)
        for t in range(1, self.order + 1):
            self.finish_layer(dict(layers.get(t, ())), self.products(t))


def _down_set(keys, tops, zero):
    """The zero key and the `keys` below one of `tops`: the part in `keys`
    of a down-set of N^r, outside which the monomials span an ideal."""
    return frozenset((zero, *(d for d in keys
                              if any(all(a <= b for a, b in zip(d, s)) for s in tops))))


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
        if (g.convention, g.seed, g.order) != (convention, seed, order):
            raise ValueError("initial data entry in the wrong context")
        for d in g.coeffs:
            if primitive(d) != n:
                raise ValueError("entry at %r not supported on its ray" % (n,))
        lie = to_carrier(g.log())
        if lie.coeffs:
            targets[n] = dict(lie.coeffs)
    return targets


def _ray_states(seed, order, rays, support):
    """Completion's factorization state at p*(n) for each ray n; rays whose
    p*(n) takes the same signs on the support share one state, so completion
    solves their layers in one factorization.  It factors modulo the monomials
    outside the down-set of the support keys on its rays: a ray key reads
    only the entries below it."""
    support = sorted(support)
    sign_of, by_sign = {}, {}
    for n in rays:
        m = p_star(seed, n)
        sign_of[n] = tuple((pair(m, d) > 0) - (pair(m, d) < 0) for d in support)
        by_sign.setdefault(sign_of[n], (m, set()))[1].add(n)
    zero = _zero_key(seed)
    states = {sig: _FactorizationState(seed, order, m, _down_set(
        support, [d for d in support if primitive(d) in own], zero))
        for sig, (m, own) in by_sign.items()}
    return {n: states[sign_of[n]] for n in rays}


def psi_extract(g):
    """The initial data of the consistent diagram of g: for each primitive n,
    exp of the ray-of-n part of log phi(p*(n))."""
    sd = g if isinstance(g, ScatDiagram) else ScatDiagram.from_group_element(g)
    out = {}
    for n in sd.candidate_normals():
        lie = {d: c for d, c in sd.phi(p_star(sd.seed, n)).log().coeffs.items()
               if primitive(d) == n}
        if lie:
            out[n] = GradedElement(sd.seed, sd.order, sd.convention, LIE, lie).exp()
    return out


def _log_correction(state, upow, t):
    """Layer t of log Z - (Z - 1): sum_{p >= 2} (-1)^(p-1)/p [(Z - 1)^p]_t,
    from upow[p-1], the settled layers of (Z - 1)^p, which gain layer t;
    modulo the monomials outside the state's keys, as Z is."""
    corr = {}
    upow.append({})     # (Z - 1)^(t+1) starts in degree t + 1
    for p in range(2, t + 1):
        new = _product(state.seed, state.order, upow[p - 2], upow[0], True,
                       degree=t, keys=state.keys)
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
        corr = {state: _log_correction(state, upow, t) for state, upow in powers.items()}
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
                   + products[state].get(kn, ZERO))
            if not val.is_zero():
                g_t[kn] = val
        g.update(g_t)
        for state, upow in powers.items():
            upow[0].update(state.finish_layer(g_t, products[state]))
    return ScatDiagram(seed, order, convention, GradedElement(seed, order, QUANTUM, GROUP, g))


def psi_roundtrip_suite(seed, order, convention, trials, random_seed, corrupt):
    """Initial data drawn from random.Random(random_seed), completed and
    read back by `psi_extract`: a Report per trial with nonempty data, in
    which each ray whose data differ fails with its first differing key and
    both coefficients (read back, drawn).  `corrupt` corrupts each diagram."""
    rng = random.Random(random_seed)
    reports = {}
    for trial in range(trials):
        eta = {}
        for _ in range(2):
            ray = tuple(rng.randint(0, 2) for _ in range(seed.rank))
            if not any(ray) or sum(ray) > order:
                continue
            ray = primitive(ray)
            lie = {}
            for kk in range(1, order // sum(ray) + 1):
                if rng.random() < 0.6:
                    lie[tuple(kk * x for x in ray)] = \
                        CoeffFn.from_fraction(rng.randint(-3, 3), rng.randint(1, 2))
            lie = {d: c for d, c in lie.items() if not c.is_zero()}
            if lie:
                eta[ray] = GradedElement(seed, order, convention, LIE, lie).exp()
        if not eta:
            continue
        sd = complete_from_initial(eta, seed, order, convention)
        if corrupt:
            sd = ScatDiagram.from_group_element(corrupted(sd.group_element()))
        back = psi_extract(sd)
        failures = []
        if back != eta:     # witnesses cost nothing on a pass
            for n in sorted(set(back) | set(eta)):
                diff = _first_difference(*(e[n].coeffs if n in e else {} for e in (back, eta)))
                if diff is not None:
                    failures.append(("initial-data", n, *diff))
        reports[trial] = Report(not failures, 1, [], failures)
    return reports


# ---------------------------------------------------------------------------
# wall detection on one candidate hyperplane
# ---------------------------------------------------------------------------

def _perp_basis(n):
    """An integer basis of n-perp: the lineality that cutting all space by n
    leaves."""
    return _cut((), _unit_basis(len(n)), n, ())[0]


def _open_face_witnesses(n, keys):
    """One covector in each open face that the keys off the ray of n cut out
    of n-perp."""
    basis = _perp_basis(n)
    lines = set()
    for d in keys:
        if any(d) and primitive(d) != n:
            c = tuple(pair(b, d) for b in basis)
            lines.add(min(c, tuple(-x for x in c)))     # c, -c: one line
    for face in face_enumerate(sorted(lines), len(basis)):
        if 0 not in face.signs:
            yield tuple(sum(x * b[i] for x, b in zip(face.witness, basis))
                        for i in range(len(n)))


# ---------------------------------------------------------------------------
# the diagram object and its minimal cone complex
# ---------------------------------------------------------------------------

@dataclass
class Cell:
    """One cell of the minimal complex: a union of arrangement faces on
    which the diagram function is constant.  `value`, if called, gives it as
    the pair (in the carrier, exposed)."""

    dim: int
    faces: tuple            # member SignedFace sign vectors
    rays: tuple
    lineality: tuple
    normal: tuple = None    # primitive wall normal for codimension-one cells
    value: object = field(default=None, repr=False, compare=False)     # None on chambers

    @cached_property
    def function(self):
        """The exposed function, or None for the identity, once asked."""
        value = self.value and self.value()[1]
        return value if value and value.coeffs else None


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

    def cell(self, signs):
        """The cell that holds the face of the given signs on `normals`."""
        return self.cells[self._face_cell[signs]]


class ScatDiagram:
    """A consistent scattering diagram, stored as its group element."""

    def __init__(self, seed, order, convention, carrier):
        if (carrier.convention, carrier.seed, carrier.order) != (QUANTUM, seed, order):
            raise ValueError("a diagram is carried in the quantum torus at its seed and order")
        if convention not in CONVENTIONS:
            raise ValueError("unknown convention: %r" % (convention,))
        self.seed = seed
        self.order = order
        self.convention = convention
        self.carrier = carrier
        self._keys = {}         # tops -> their down-set with the zero key
        self._middles = {}      # (down-set, signs of m on it) -> (carrier, exposed)

    @staticmethod
    def from_group_element(g):
        if g.flavor != GROUP:
            raise ValueError("a diagram needs a group element")
        return ScatDiagram(g.seed, g.order, g.convention, to_carrier(g))

    @cached_property
    def _exposed(self):
        return expose(self.carrier, self.convention)

    def group_element(self):
        return self._exposed

    def phi(self, m):
        return self._middle(m)[1]

    def _middle(self, m, tops=None):
        """The middle factor at m, in the carrier and exposed, modulo the
        monomials outside the down-set of `tops` in the support closure; by
        default `tops` is S(m), the closure keys on m-perp, which hold its
        keys.  This factorization reads m only through its signs on the
        down-set (`_FactorizationState.finish_layer`), so it is kept per
        down-set and signs, read in closure order.  The length of m is
        checked first: pairing through zip would give a covector with a
        missing or an extra coordinate the class of another."""
        check_covector(m, self.seed.rank)
        if tops is None:
            tops = tuple(s for s in self._closure if pair(m, s) == 0)
        keys = self._below(tops)
        key = keys, tuple((x > 0) - (x < 0) for x in
                          (pair(m, s) for s in self._closure if s in keys))
        if key not in self._middles:
            middle = _group(self.carrier, _factor(self.carrier, m, keys)[1])
            self._middles[key] = middle, expose(middle, self.convention)
        return self._middles[key]

    def _top(self, n):
        """The top of n's box: k*n, the last multiple of n within the order."""
        return (tuple(self.order // total_degree(n) * x for x in n),)

    def _below(self, tops):
        """The down-set of `tops` in the support closure, with the zero key."""
        if tops not in self._keys:
            self._keys[tops] = _down_set(self._closure, tops, _zero_key(self.seed))
        return self._keys[tops]

    @cached_property
    def _closure(self):
        """The support's closure: it holds each key of each factor at each m."""
        return tuple(sorted(_semigroup_closure(
            set(self.carrier.coeffs), self.order, self.seed.rank)))

    def candidate_normals(self):
        """Primitive directions of the support closure; every wall normal
        is among them."""
        return tuple(sorted({primitive(d) for d in self._closure}))

    def wall_normals(self):
        """Normals whose hyperplane carries a nontrivial wall somewhere.

        Candidates come from the support closure, and each is decided alone,
        from its box: the zero key and the closure keys below k*n, for k*n
        the last multiple of n within the order (`_top`).  Write R_n(m) for
        the middle factor at m on n-perp, factored modulo the monomials
        outside the box and exposed in the diagram's convention.

        The box is a down-set, so on its keys this factorization agrees with
        the unrestricted one, and it reads m only through the signs of m on
        the box keys (`_FactorizationState.finish_layer`).  So R_n is constant
        on each open face of the arrangement that the box keys off the ray of
        n cut out of n-perp.  There the only box keys on m-perp are multiples
        of n, so R_n(m) is the ray-of-n part of the middle factor, up to the
        degree of k*n, beyond which the ray has no term.  A wall of normal n
        is a cone of dimension rank - 1 in n-perp, so it meets an open face:
        n is a wall exactly when R_n is nontrivial at the witness of one.
        R_n is `_middle` at the box top, in the table the minimal complex
        and `phi` share.  It is not `phi`, whose S(m) may hold a closure key
        outside the box where a witness lies on its hyperplane.
        """
        return self._wall_normals

    @cached_property
    def _wall_normals(self):
        return tuple(n for n in self.candidate_normals() if any(
            self._middle(m, self._top(n))[1].coeffs
            for m in _open_face_witnesses(n, self._below(self._top(n)))))

    def minimal_complex(self):
        """The faces of the wall arrangement merged into cells.  A face of
        codimension one has the value R_n at its witness, n its zero sign's
        normal.  The value at a lower face is the product of the walls
        through it, so faces merge by their star: the (n, value) pairs of the
        nontrivial codimension-one faces whose closure holds them.  A lower
        cell's function is `phi` at a witness, computed only when asked."""
        return self._complex

    @cached_property
    def _complex(self):
        rank = self.seed.rank
        normals = self.wall_normals()
        faces = face_enumerate(normals, rank)
        # a face lies in the closure of another when its positive and its
        # negative signs are among the other's
        masks = [tuple(sum(1 << k for k, s in enumerate(f.signs) if s == t) for t in (1, -1))
                 for f in faces]
        # (n, value) -> its bit in a star; the index of a zero sign -> the
        # masks and bits of the nontrivial codimension-one faces zero there,
        # the only ones whose closure can hold a face zero there too
        bits, walls = {}, {}
        for f, mask in zip(faces, masks):
            if f.dim == rank - 1:
                z = f.signs.index(0)
                value = self._middle(f.witness, self._top(normals[z]))[1]
                if value.coeffs:
                    bit = 1 << bits.setdefault((normals[z], value), len(bits))
                    walls.setdefault(z, []).append((mask, bit))
        by_star = {}
        for i, (f, (pi, ni)) in enumerate(zip(faces, masks)):
            star = sum({bit for z, s in enumerate(f.signs) if s == 0
                        for (pj, nj), bit in walls.get(z, ()) if not (pi & ~pj or ni & ~nj)})
            by_star.setdefault(star, []).append(i)
        parent = list(range(len(faces)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for group in by_star.values():
            for a, i in enumerate(group):
                pi, ni = masks[i]
                for j in group[a + 1:]:
                    pj, nj = masks[j]
                    if not (pi & ~pj or ni & ~nj) or not (pj & ~pi or nj & ~ni):
                        parent[find(i)] = find(j)
        groups = {}
        for i in range(len(faces)):
            groups.setdefault(find(i), []).append(i)
        dims = {root: max(faces[i].dim for i in members) for root, members in groups.items()}
        # a ray of a member face generates its cell when the ray's own face,
        # one dimension above the lineality, lies in a cell of that dimension
        lineality = faces[0].lineality
        edge = len(lineality) + 1
        edge_rays = {r for i, f in enumerate(faces) if f.dim == edge == dims[find(i)]
                     for r in f.rays}
        cells = []
        face_cell = {}
        # the cells hold a copy of the diagram that shares its memos but not
        # its complex: a cycle would keep a dropped diagram until a collection
        sd = copy(self)
        for root, members in groups.items():
            f = faces[next(i for i in members if faces[i].dim == dims[root])]
            normal, value = None, None
            if f.dim == rank - 1:
                normal = normals[f.signs.index(0)]
                value = partial(sd._middle, f.witness, sd._top(normal))
            elif f.dim < rank:
                value = partial(sd._middle, f.witness)
            rays = tuple(sorted({r for i in members for r in faces[i].rays if r in edge_rays}))
            for i in members:
                face_cell[faces[i].signs] = len(cells)
            cells.append(Cell(f.dim, tuple(faces[i].signs for i in members),
                              rays, lineality, normal, value))
        return MinimalComplex(rank, normals, faces, cells, face_cell)


# ---------------------------------------------------------------------------
# standard diagrams
# ---------------------------------------------------------------------------

def quantum_cluster_sd(seed, order):
    eta = {n: dilog_group_element(seed, n, order, QUANTUM)
           for n in _unit_basis(seed.rank)}
    return complete_from_initial(eta, seed, order, QUANTUM)


def dt_in_sd(seed, order):
    """The dt cluster diagram, a view of the quantum one: its initial data
    is sigma of the quantum data, so it completes to the same carrier."""
    return ScatDiagram(seed, order, DT_TWIST, quantum_cluster_sd(seed, order).carrier)


def cluster_sd(seed, order):
    """The classical cluster diagram, a view of the quantum one: its carrier
    is the frame image of the quantum diagram's, exposed by the classical
    limit."""
    return ScatDiagram(seed, order, CLASSICAL,
                       rescale(quantum_cluster_sd(seed, order).carrier))


# the completed diagram of a seed's cluster initial data, by convention
BUILDERS = {QUANTUM: quantum_cluster_sd, CLASSICAL: cluster_sd, DT_TWIST: dt_in_sd}


# ---------------------------------------------------------------------------
# path-ordered products
# ---------------------------------------------------------------------------

def path_ordered_product(sd, a, b):
    """Product of wall crossings along the straight segment from a to b.

    The segment crosses the hyperplanes of `sd.wall_normals()`.  Endpoints
    must lie off them; a segment through a cell of codimension two or more
    is rejected (perturb and retry).  Consistency says the result equals
    endpoint_product(sd, a, b).
    """
    for point in (a, b):
        check_covector(point, sd.seed.rank)
    a, b = tuple(map(Fraction, a)), tuple(map(Fraction, b))
    normals = sd.wall_normals()
    if any(pair(point, n) == 0 for point in (a, b) for n in normals):
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
        value = sd._middle(point)[0]
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

def _transvection(seed, k, s, d):
    """(T_k^vee)^s on dimension vectors: d -> d + s {s_k, d} s_k."""
    out = list(d)
    out[k - 1] += s * sum(b * x for b, x in zip(seed.b[k - 1], d))
    return tuple(out)


def _pulled_back(seed, k, sign, change, normals):
    """The mutated seed's normals pulled back through T_k^sign, by half-space:
    s = 0 where sign * m(s_k) > 0 and s = sign where it is < 0.  There T_k is
    linear, and each pulled-back n of n' has pair(m, n) = pair(image(m), n'),
    image(m) being the oracle `t_k` of m in the mutated seed's dual basis."""
    return {s: [_transvection(seed, k, -s, apply_change_to_dimvec(change, n))
                for n in normals] for s in (0, sign)}


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
    Both cells are read off the face's signs; `checked` counts the faces,
    and a failure is (kind, face witness, key, both coefficients there).
    """
    seed = sd.seed
    order = min(sd.order, sd_mut.order)
    seed_mut, change = mutate_seed(seed, k, sign)
    if (sd_mut.seed, sd_mut.convention) != (seed_mut, sd.convention):
        raise ValueError("sd_mut is not the diagram of mu_k^sign(seed) in sd's convention")
    _, change_back = mutate_seed(seed_mut, k, -sign)
    ek = _unit_basis(seed.rank)[k - 1]

    def within(d):
        return min(d) >= 0 and total_degree(d) <= order

    def compare(val1, val2, s):
        # val1 from sd (s-coordinates), its keys moved by theta^s, against
        # val2 from sd_mut (s'-coordinates): a differing key counts when
        # both truncations see it, or when sd can never produce it
        lat1 = {_transvection(seed, k, s, d): c for d, c in val1.items()}
        lat2 = {apply_change_to_dimvec(change, d): c for d, c in val2.items()}
        for key in sorted(set(lat1) | set(lat2)):
            both = (lat1.get(key, ZERO), lat2.get(key, ZERO))
            if both[0] == both[1]:
                continue
            src = _transvection(seed, k, -s, key)
            if min(src) < 0 or (within(src) and
                                within(apply_change_to_dimvec(change_back, key))):
                return key, both
        return None

    dilogs = [dilog_group_element(at, ek, order, sd.convention).coeffs
              for at in (seed, seed_mut)]
    complexes = (sd.minimal_complex(), sd_mut.minimal_complex())
    pulled = _pulled_back(seed, k, sign, change, complexes[1].normals)
    failures, checked = [], 0
    for s, side in ((0, sign), (sign, -sign)):
        faces = face_enumerate((*complexes[0].normals, ek, *pulled[s]), seed.rank)
        # each normal's column in the face signs (equal primitive normals
        # share one); a pulled-back normal's sign at m is the sign of its
        # normal of sd_mut at image(m)
        column = {n: i for i, n in enumerate(faces[0].normals)}
        columns = [[column[primitive(n)] for n in normals]
                   for normals in (complexes[0].normals, pulled[s])]
        for face in faces:
            on = face.signs[column[ek]]
            # each face of s_k-perp is met on both half-spaces: check it once
            if 0 not in face.signs or on == -side or \
                    (on == 0 and (s or face.dim < seed.rank - 1)):
                continue
            m = face.witness
            cells = [mc.cell(tuple(face.signs[i] for i in cols))
                     for mc, cols in zip(complexes, columns)]
            got = [cell.function.coeffs if cell.function else {} for cell in cells]
            checked += 1
            if on:
                found = [("transported-side" if s else "equal-side", compare(*got, s))]
            else:
                found = [(kind, _first_difference(val, want)) for kind, val, want
                         in zip(("wall", "wall-mutated"), got, dilogs)]
            failures.extend((kind, m, *diff) for kind, diff in found if diff is not None)
    return Report(not failures, checked, [], failures)


def mutation_suite(seed, order, convention, corrupt):
    """`mutate_sd_check` of the seed's cluster diagram at each (k, sign),
    building (and with `corrupt` corrupting) each mutated diagram once:
    mutations often share a seed (all six of Markov give -B)."""
    build = BUILDERS[convention]
    sd = build(seed, order)
    built, reports = {}, {}
    for k in range(1, seed.rank + 1):
        for sign in (1, -1):
            seed2, _ = mutate_seed(seed, k, sign)
            if seed2 not in built:
                sd2 = build(seed2, order)
                built[seed2] = ScatDiagram.from_group_element(
                    corrupted(sd2.group_element())) if corrupt else sd2
            reports[k, sign] = mutate_sd_check(sd, k, sign, built[seed2])
    return reports


# ---------------------------------------------------------------------------
# central comparison
# ---------------------------------------------------------------------------

def central_difference(sd1, sd2):
    """c = g1^{-1} g2, accepted when log(c) is supported on ker p*: a Report
    over the terms of log(c), each x^d off ker p* failing with p*(d), least
    degree first, and c exposed when it is central, else None."""
    if (sd1.seed, sd1.order, sd1.convention) != (sd2.seed, sd2.order, sd2.convention):
        raise ValueError("diagrams live in different contexts")
    seed = sd1.seed
    c = sd1.carrier.group_inverse().mul(sd2.carrier)
    lie = expose(c.log(), sd1.convention)
    failures = [("non-central", p_star(seed, d), d, lie.coeffs[d])
                for d in sorted(lie.coeffs, key=lambda x: (total_degree(x), x))
                if any(p_star(seed, d))]
    report = Report(not failures, len(lie.coeffs), [], failures)
    return report, expose(c, sd1.convention) if report.passed else None

