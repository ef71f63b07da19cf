"""The benchmark's workloads: the inputs each one writes and the jobs of one round.

A round is the fixed list of jobs of a workload, run one after the other in
one process.  A job is either a `scatdiag` command line (run through
`scatdiag.cli.main`, stdout captured) or a call into the public API whose
result is returned as JSON-ready data.

Every workload also runs the same small companion jobs (A2, Kronecker and
the 3-cycle at low order), so that every layer does some work on every
workload and each CLI subcommand the benchmark uses is byte-compared across
rounds.  They take well under a tenth of a round.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

# Calls go through the module objects, so that the tracer's wrappers,
# installed after the jobs are built, are the ones called.
from scatdiag import chambers, coeff, lattice, qp, reps, scattering, torus

# Sizes chosen so that one round takes 3 to 5 s on a 2-core box with
# Python 3.11 and keeps the layer balance of the larger orders (see README).
A3_ORDER = 5            # scatter-a3: wall detection dominates
MARKOV_ORDER = 3        # scatter-markov: face enumeration and cone generators dominate
SERIES_A3 = (5, 7)      # (order, depth): all 9 maximal green sequences of A3
SERIES_A2 = (8, 4)
REPS_ORDER = 10
BRUTE_DIMS = ((1, 1), (2, 2))
TRANSPORT_DIM = 4
COMPANION_ORDER = 4

CYCLE_B = ((0, 1, -1), (-1, 0, 1), (1, -1, 0))
CYCLE_POTENTIAL = {("a1_2_1", "a2_3_1", "a3_1_1"): 1}

WORKLOADS = ("scatter-a3", "scatter-markov", "series-classical", "oracle")


@dataclass(frozen=True)
class Job:
    """One operation of a round.  `argv` for a CLI job, `call` for an API job;
    `expect` is the exit code a correct program gives."""

    name: str
    argv: tuple = None
    call: object = None
    expect: int = 0


@dataclass(frozen=True)
class Params:
    """Everything a workload takes from --seed."""

    scale: int              # stability covectors are scaled by it: same walls, same work
    random_seed: int        # --random-seed of the CLI psi-roundtrip suite
    eta: tuple              # ((ray, ((k, num, den), ...)), ...) initial data of the API roundtrip


def params(seed):
    rng = random.Random(seed)
    scale = rng.randint(1, 5)
    random_seed = rng.randrange(10 ** 6)
    order = SERIES_A3[0]
    eta = []
    for ray in ((1, 0, 0), (0, 1, 1)) if rng.random() < 0.5 else ((0, 0, 1), (1, 1, 0)):
        kmax = order // sum(ray)
        terms = [(1, rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))]
        terms += [(k, rng.randint(-3, 3), rng.randint(1, 3)) for k in range(2, kmax + 1)]
        eta.append((ray, tuple(t for t in terms if t[1])))
    return Params(scale, random_seed, tuple(eta))


def cycle_sp():
    return qp.SeedWithPotential.make(lattice.Seed(CYCLE_B), CYCLE_POTENTIAL)


def input_files():
    """The JSON input files of every workload, by file name."""
    return {
        "a2.json": lattice.a2_seed().to_json(),
        "a3.json": lattice.a3_seed().to_json(),
        "markov.json": lattice.markov_seed().to_json(),
        "kronecker.json": lattice.kronecker_seed().to_json(),
        "cycle-qp.json": cycle_sp().to_json(),
        # known-fault probes: each should be refused with exit code 2
        "probe-float.json": {"rank": 2, "B": [[0, 1.5], [-1.5, 0]]},
        "probe-no-b.json": {"rank": 2},
    }


def _cli(name, *argv, expect=0):
    return Job(name, argv=tuple(str(a) for a in argv), expect=expect)


def _covector(p, *entries):
    return tuple(Fraction(p.scale * x) for x in entries)


def companion_jobs(d, p):
    m = "%d,%d" % (p.scale, -p.scale)
    o = COMPANION_ORDER
    k2 = qp.SeedWithPotential.make(lattice.kronecker_seed())
    return [
        _cli("a2-scatter", "scatter", "--seed", d("a2.json"), "--order", o),
        _cli("a2-dt", "dt", "--seed", d("a2.json"), "--order", o, "--depth", 4),
        _cli("a2-psi", "verify", "--seed", d("a2.json"), "--suite", "psi-roundtrip",
             "--order", o, "--random-seed", p.random_seed),
        _cli("cycle-mutate", "mutate", "--seed", d("cycle-qp.json"), "--vertex", 2),
        _cli("k2-reps", "reps", "--seed", d("kronecker.json"), "--m", m,
             "--order", o, "--primes", 2),
        Job("k2-brute", call=lambda: reps.iq_wall_series_brute(
            k2, _covector(p, 1, -1), [(1, 1)], 2).serialize()),
    ]


def _pentagon(seed, order, depth):
    seqs = chambers.enumerate_green_to_red(seed, depth)
    return {"sequences": [list(s) for s in seqs],
            "series": [chambers.dt_series(seed, s, order, torus.CLASSICAL).serialize()
                       for s in seqs]}


def _roundtrip(p):
    seed, order = lattice.a3_seed(), SERIES_A3[0]
    eta = {}
    for ray, terms in p.eta:
        lie = {tuple(k * x for x in ray): coeff.CoeffFn.from_fraction(num, den)
               for k, num, den in terms}
        eta[ray] = torus.GradedElement(seed, order, torus.CLASSICAL, torus.LIE, lie).exp()
    diagram = scattering.complete_from_initial(eta, seed, order, torus.CLASSICAL)
    back = scattering.psi_extract(diagram)
    ser = lambda e: {",".join(map(str, n)): g.serialize() for n, g in sorted(e.items())}
    return {"eta": ser(eta), "back": ser(back)}


def _reflection_cases():
    return (("a3", qp.SeedWithPotential.make(lattice.a3_seed())), ("cycle", cycle_sp()))


def _transport(p):
    out = []
    for name, sp in _reflection_cases():
        for k in range(1, 4):
            m = _covector(p, *(3 if j == k - 1 else -1 for j in range(3)))
            for sign in (1, -1):
                rep = reps.semistable_transport_check(
                    sp, k, tuple(sign * x for x in m), max_total_dim=TRANSPORT_DIM, p=2)
                out.append({"quiver": name, "k": k, "sign": sign,
                            "passed": rep.passed, "checked": rep.checked})
    return out


def _reflections():
    out = []
    for name, sp in _reflection_cases():
        for k in range(1, 4):
            for sign in (1, -1):
                image, _, _ = reps.reflect(reps.simple_rep(sp, 2, k), k, sign)
                out.append({"quiver": name, "k": k, "sign": sign, "dims": list(image.dims)})
    return out


def jobs(workload, directory, seed):
    """The jobs of one round of the workload, inputs read from `directory`."""
    d = lambda name: os.path.join(directory, name)
    p = params(seed)
    if workload == "scatter-a3":
        main = [_cli("a3-scatter", "scatter", "--seed", d("a3.json"), "--order", A3_ORDER)]
    elif workload == "scatter-markov":
        main = [_cli("markov-scatter", "scatter", "--seed", d("markov.json"),
                     "--order", MARKOV_ORDER)]
    elif workload == "series-classical":
        o3, depth3 = SERIES_A3
        main = [
            Job("a3-pentagon", call=lambda: _pentagon(lattice.a3_seed(), o3, depth3)),
            Job("a2-pentagon", call=lambda: _pentagon(lattice.a2_seed(), *SERIES_A2)),
            _cli("a3-dt", "dt", "--seed", d("a3.json"), "--convention", "classical",
                 "--order", o3, "--depth", depth3),
            _cli("a3-psi", "verify", "--seed", d("a3.json"), "--suite", "psi-roundtrip",
                 "--convention", "classical", "--order", o3,
                 "--random-seed", p.random_seed),
            Job("a3-roundtrip", call=lambda: _roundtrip(p)),
        ]
    elif workload == "oracle":
        k2 = qp.SeedWithPotential.make(lattice.kronecker_seed())
        main = [
            _cli("k2-reps-10", "reps", "--seed", d("kronecker.json"),
                 "--m", "%d,%d" % (p.scale, -p.scale), "--order", REPS_ORDER,
                 "--primes", 2, 3, 5),
            Job("k2-brute-f2", call=lambda: reps.iq_wall_series_brute(
                k2, _covector(p, 1, -1), list(BRUTE_DIMS), 2).serialize()),
            Job("k2-brute-f3", call=lambda: reps.iq_wall_series_brute(
                k2, _covector(p, 1, -1), list(BRUTE_DIMS), 3).serialize()),
            Job("transport", call=lambda: _transport(p)),
            Job("reflections", call=_reflections),
            # Known faults: each exits 0 or 1 today, where invalid input should give 2.
            _cli("probe-short-covector", "reps", "--seed", d("a2.json"), "--m", "1",
                 "--order", 4, "--primes", 2, expect=2),
            _cli("probe-float-entries", "scatter", "--seed", d("probe-float.json"),
                 "--order", 2, expect=2),
            _cli("probe-missing-b", "scatter", "--seed", d("probe-no-b.json"),
                 "--order", 2, expect=2),
        ]
    else:
        raise ValueError("unknown workload %r" % workload)
    return main + companion_jobs(d, p)

