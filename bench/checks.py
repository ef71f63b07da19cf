"""Correctness checks on the outputs of one round.

Every check returns a list of problems; an empty list means the output is
right.  Each compares an output with a closed form or a property the method
must have, computed here, or with a second route through the program that
does not share the code path under test (seed mutation for the chamber fan,
point counting for the wall functions).  None compares with a stored copy of
an earlier output.

Coefficients arrive as the CLI prints them: a fraction of two integer
polynomials in v = q^(1/2), such as "(v^3 - 2*v)/(v^2 - 1)".  They are parsed
and compared here with integer polynomial arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

# ---------------------------------------------------------------------------
# integer polynomials in v, lowest degree first
# ---------------------------------------------------------------------------


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _parse_poly(text):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "*" in term:
            c, mono = term.split("*")
        elif "v" in term:
            c, mono = "1", term
        else:
            c, mono = term, ""
        power = 0 if not mono else (1 if mono == "v" else int(mono.split("^")[1]))
        out[power] = out.get(power, 0) + sign * int(c)
    return _trim([out.get(i, 0) for i in range(max(out) + 1)])


def parse_coeff(text):
    """(numerator, denominator) polynomials of a printed coefficient."""
    depth = 0
    for i, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "/" and depth == 0:
            return _parse_poly(text[:i]), _parse_poly(text[i + 1:])
    return _parse_poly(text), [1]


def same_coeff(text, num, den):
    """The printed coefficient equals num/den as a rational function of v."""
    n1, d1 = parse_coeff(text)
    return pmul(n1, den) == pmul(num, d1)


def at_sqrt(text, p):
    """Exact value a + b*sqrt(p) of a printed coefficient at v = sqrt(p), as (a, b)."""
    def ev(poly):
        a = b = Fraction(0)
        for i, c in enumerate(poly):
            if i % 2:
                b += c * p ** (i // 2)
            else:
                a += c * p ** (i // 2)
        return a, b
    (a, b), (c, d) = (ev(x) for x in parse_coeff(text))
    norm = c * c - p * d * d
    return ((a * c - p * b * d) / norm, (b * c - a * d) / norm)


def quantum_dilog_coeff(k):
    """The x^{kn} coefficient of the quantum dilogarithm, q^{k^2/2} / |GL_k(F_q)|,
    as (numerator, denominator) in v = q^(1/2)."""
    num = [0] * (k * k) + [1]
    den = [1]
    for i in range(k):
        factor = [0] * (2 * k + 1)
        factor[2 * k] += 1
        factor[2 * i] -= 1
        den = pmul(den, factor)
    return num, den


# ---------------------------------------------------------------------------
# combinatorics computed here
# ---------------------------------------------------------------------------


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def type_a_positive_roots(b):
    """Positive roots of a quiver of type A_n: indicator vectors of the
    connected vertex sets of its underlying path."""
    n = len(b)
    edges = {(i, j) for i in range(n) for j in range(n) if b[i][j]}
    degrees = [sum(1 for j in range(n) if (i, j) in edges) for i in range(n)]
    if len(edges) != 2 * (n - 1) or max(degrees) > 2 or any(abs(x) > 1 for r in b for x in r):
        raise ValueError("not a quiver of type A")
    roots = set()
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            inner = sum(1 for i in subset for j in subset if (i, j) in edges) // 2
            if inner == size - 1:
                roots.add(tuple(1 if i in subset else 0 for i in range(n)))
    return roots


def fz_mutation(b, k):
    """Fomin-Zelevinsky mutation of the exchange matrix at vertex k (1-based)."""
    k -= 1
    n = len(b)
    return [[-b[i][j] if k in (i, j) else
             b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
             for j in range(n)] for i in range(n)]


def _degree(d):
    return sum(d)


def _key(vectors):
    return frozenset(tuple(v) for v in vectors)


def _pair(m, d):
    return sum(Fraction(x) * y for x, y in zip(m, d))


# ---------------------------------------------------------------------------
# per-output checks
# ---------------------------------------------------------------------------


def check_finite_type_scatter(out, gvector_cones):
    """`scatdiag scatter` on a quantum seed of type A_n: the cluster fan.

    gvector_cones: generator sets of the cluster chambers found by seed
    mutation (`chambers.enumerate_chambers`)."""
    problems = []
    b, n, order = out["seed"]["B"], out["seed"]["rank"], out["order"]
    chambers, walls = out["chambers"], out["walls"]
    if len(chambers) != catalan(n + 1):
        problems.append("%d chambers, expected Catalan(%d) = %d"
                        % (len(chambers), n + 1, catalan(n + 1)))
    if 2 * len(walls) != n * len(chambers):
        problems.append("%d walls for %d simplicial chambers of rank %d"
                        % (len(walls), len(chambers), n))
    normals = {tuple(w["normal"]) for w in walls}
    if normals != type_a_positive_roots(b):
        problems.append("wall normals %s are not the positive roots" % sorted(normals))
    for w in walls:
        normal = tuple(w["normal"])
        seen = set()
        for term in w["function"]:
            d = tuple(term["dimvec"])
            k = _degree(d) // _degree(normal)
            if d != tuple(k * x for x in normal):
                problems.append("wall %s has a term off its normal at %s" % (normal, d))
                continue
            seen.add(k)
            if not same_coeff(term["coeff"], *quantum_dilog_coeff(k)):
                problems.append("wall %s: coefficient %s of x^%s is not the quantum "
                                "dilogarithm's" % (normal, term["coeff"], list(d)))
        if seen != set(range(1, order // _degree(normal) + 1)):
            problems.append("wall %s has terms k = %s" % (normal, sorted(seen)))
    got = {_key(c["generator_rays"]) for c in chambers}
    if got != {_key(c) for c in gvector_cones}:
        problems.append("chamber generator sets differ from the g-vector cones")
    return problems


def _rotate(v):
    """The Markov symmetry (x1, x2, x3) -> (x3, x1, x2)."""
    return (v[2], v[0], v[1])


def _walls_key(walls, move=lambda v: tuple(v)):
    return {(move(w["normal"]), _key(move(r) for r in w["cone_generators"]),
             _key(move(r) for r in w["cone_lineality"]),
             frozenset((move(t["dimvec"]), t["coeff"]) for t in w["function"]))
            for w in walls}


def check_markov_scatter(out, face_dims):
    """`scatdiag scatter` on the Markov quiver.

    face_dims: dimensions of the faces of the arrangement of its wall normals."""
    problems = []
    walls, chambers = out["walls"], out["chambers"]
    if not walls:
        problems.append("no walls")
    if _walls_key(walls, _rotate) != _walls_key(walls):
        problems.append("walls are not invariant under the cyclic symmetry")
    if ({_key(_rotate(r) for r in c["generator_rays"]) for c in chambers}
            != {_key(c["generator_rays"]) for c in chambers}):
        problems.append("chambers are not invariant under the cyclic symmetry")
    for w in walls:
        normal = tuple(w["normal"])
        for term in w["function"]:
            d = tuple(term["dimvec"])
            k = _degree(d) // _degree(normal)
            if d != tuple(k * x for x in normal):
                problems.append("wall %s has a term off its normal at %s" % (normal, d))
        for r in list(w["cone_generators"]) + list(w["cone_lineality"]):
            if _pair(r, normal) != 0:
                problems.append("generator %s of wall %s is off its hyperplane" % (r, normal))
    euler = sum((-1) ** d for d in face_dims)
    rank = out["seed"]["rank"]
    if euler != (-1) ** rank:
        problems.append("faces have Euler sum %d, expected %d" % (euler, (-1) ** rank))
    return problems


def check_pentagon(out, count, lengths, phi0):
    """Series along every maximal green sequence: the expected number of
    sequences, one common series (the pentagon identity), equal to phi(0) of
    the completed diagram."""
    problems = []
    seqs, series = out["sequences"], out["series"]
    if len(seqs) != count or (seqs and (min(map(len, seqs)), max(map(len, seqs))) != lengths):
        problems.append("%d sequences of lengths %s, expected %d of lengths %s"
                        % (len(seqs), sorted(map(len, seqs)), count, lengths))
    if any(s != series[0] for s in series):
        problems.append("the sequences give different series")
    if series and series[0] != phi0:
        problems.append("the series differs from phi(0) of the completed diagram")
    return problems


def check_dt(out, phi0):
    if out.get("found") is not True or out.get("series") != phi0:
        return ["`dt` series differs from phi(0) of the completed diagram"]
    return []


def check_suite_passed(out):
    if out.get("passed") is not True or out.get("failures") or not out.get("trials", 1):
        return ["verify suite %s failed: %s" % (out.get("suite"), out.get("failures"))]
    return []


def check_roundtrip(out):
    if not out["eta"] or out["back"] != out["eta"]:
        return ["psi_extract does not return the initial data"]
    return []


def check_reps(out, wall):
    """`scatdiag reps` at q = p against the wall function at v = sqrt(p).

    wall: serialized wall function of the same diagram, from scattering."""
    problems = []
    want = {tuple(t["dimvec"]): t["coeff"] for t in wall}
    for row in out["series"]:
        p = row["p"]
        got = {tuple(t["dimvec"]): t["coeff"] for t in row["series"]}
        for d in sorted(set(got) | set(want)):
            a = at_sqrt(got.get(d, "0"), p)
            b = at_sqrt(want.get(d, "0"), p)
            if a != b:
                problems.append("p = %d, x^%s: counting gives %s, the wall %s"
                                % (p, list(d), a, b))
    return problems


def check_brute(brute, reps_out, p):
    """Point counts at the enumerated dimension vectors against the
    Harder-Narasimhan series that `scatdiag reps` printed for the same p."""
    if reps_out is None:        # that job failed, and is counted so
        return []
    rows = [r for r in reps_out["series"] if r["p"] == p]
    if not rows or not brute:
        return ["no series to compare at p = %d" % p]
    hn = {tuple(t["dimvec"]): t["coeff"] for t in rows[0]["series"]}
    problems = []
    for t in brute:
        d = tuple(t["dimvec"])
        if at_sqrt(t["coeff"], p) != at_sqrt(hn.get(d, "0"), p):
            problems.append("p = %d, x^%s: enumeration %s, factorization %s"
                            % (p, list(d), t["coeff"], hn.get(d)))
    return problems


def check_transport(rows):
    bad = [r for r in rows if not r["passed"] or not r["checked"]]
    return ["transport check failed: %s" % bad] if bad or not rows else []


def check_reflections(rows):
    bad = [r for r in rows if any(r["dims"])]
    return ["reflection did not kill the simple: %s" % bad] if bad or not rows else []


def check_mutation(out, b, k):
    """`scatdiag mutate` on a seed with potential."""
    sp = out["seed_with_potential"]
    problems = []
    if sp["seed"]["B"] != fz_mutation(b, k):
        problems.append("mutated B %s is not the Fomin-Zelevinsky mutation" % sp["seed"]["B"])
    arrows = {(a["source"], a["target"]) for a in sp["quiver"]["arrows"]}
    if _acyclic(arrows, len(b)) and sp["potential"]:
        problems.append("acyclic quiver with a nonzero potential")
    return problems


def _acyclic(arrows, n):
    left = set(range(1, n + 1))
    while left:
        sources = {v for v in left if not any(t == v and s in left for s, t in arrows)}
        if not sources:
            return False
        left -= sources
    return True
