"""Command-line front door producing reproducible JSON artifacts.

Subcommands: scatter, mutate, g2r, dt, reps, verify.  Every payload is
schema-versioned, deterministically ordered and timestamp-free, so a fixed
configuration gives byte-identical output across runs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .coeff import CoeffFn, ONE
from .lattice import Seed, mutate_seed, primitive
from .qp import SeedWithPotential, mutate_sp
from .torus import CLASSICAL, DT_TWIST, QUANTUM, LIE, GradedElement
from . import scattering
from . import chambers as chambers_mod
from . import reps as reps_mod

SCHEMA = "scatdiag/1"

CONVENTIONS = {"quantum": QUANTUM, "classical": CLASSICAL, "dt": DT_TWIST}

# the completed diagram of a seed's cluster initial data, by convention
BUILDERS = {"quantum": scattering.quantum_cluster_sd,
            "classical": scattering.cluster_sd,
            "dt": scattering.dt_in_sd}


def _load_seed(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("seed file must hold a JSON object")
    if "quiver" in data or "potential" in data:
        sp = SeedWithPotential.from_json(data)
        return sp.seed, sp
    return Seed.from_json(data), None


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_scatter(args):
    seed, _ = _load_seed(args.seed)
    sd = BUILDERS[args.convention](seed, args.order)
    mc = sd.minimal_complex()
    walls = []
    for cell in sorted(mc.walls(), key=lambda c: (c.normal, c.rays)):
        walls.append({
            "normal": list(cell.normal),
            "cone_generators": [list(r) for r in cell.rays],
            "cone_lineality": [list(r) for r in cell.lineality],
            "function": cell.function.serialize(),
        })
    chambers = [{"generator_rays": [list(r) for r in cell.rays]}
                for cell in sorted(mc.chambers(), key=lambda c: c.rays)]
    _emit({"schema": SCHEMA, "command": "scatter",
           "seed": seed.to_json(), "order": args.order,
           "convention": args.convention,
           "group_element": sd.group_element().serialize(),
           "walls": walls, "chambers": chambers}, args.out)
    return 0


def cmd_mutate(args):
    seed, sp = _load_seed(args.seed)
    sign = 1 if args.sign == "+" else -1
    if sp is None:
        new_seed, change = mutate_seed(seed, args.vertex, sign)
        payload = {"schema": SCHEMA, "command": "mutate",
                   "vertex": args.vertex, "sign": args.sign,
                   "seed": new_seed.to_json(),
                   "basis_change": [list(r) for r in change]}
    else:
        sp2, change = mutate_sp(sp, args.vertex, sign)
        payload = {"schema": SCHEMA, "command": "mutate",
                   "vertex": args.vertex, "sign": args.sign,
                   "seed_with_potential": sp2.to_json(),
                   "basis_change": [list(r) for r in change]}
    _emit(payload, args.out)
    return 0


def cmd_g2r(args):
    seed, _ = _load_seed(args.seed)
    seq = chambers_mod.find_green_to_red(seed, args.depth,
                                         green_restricted=not args.unrestricted)
    payload = {"schema": SCHEMA, "command": "g2r", "seed": seed.to_json(),
               "depth": args.depth,
               "found": seq is not None,
               "sequence": list(seq) if seq is not None else None,
               "length": len(seq) if seq is not None else None}
    _emit(payload, args.out)
    return 0 if seq is not None or args.allow_missing else 1


def cmd_dt(args):
    seed, _ = _load_seed(args.seed)
    conv = CONVENTIONS[args.convention]
    seq = chambers_mod.find_green_to_red(seed, args.depth)
    if seq is None:
        _emit({"schema": SCHEMA, "command": "dt", "found": False}, args.out)
        return 1
    series = chambers_mod.dt_series(seed, seq, args.order, conv)
    _emit({"schema": SCHEMA, "command": "dt", "found": True,
           "sequence": list(seq), "order": args.order,
           "convention": args.convention,
           "series": series.serialize()}, args.out)
    return 0


def cmd_reps(args):
    seed, sp = _load_seed(args.seed)
    if sp is None:
        sp = SeedWithPotential.make(seed)
    try:
        m = tuple(Fraction(x) for x in args.m.split(","))
    except ZeroDivisionError:
        raise ValueError("--m has a zero denominator: %r" % args.m) from None
    series = reps_mod.iq_wall_series(sp, m, args.order)
    rows = [{"p": p, "series": reps_mod.at_prime(series, p).serialize()}
            for p in args.primes]
    payload = {"schema": SCHEMA, "command": "reps",
               "m": [str(x) for x in m], "order": args.order,
               "primes": list(args.primes), "series": rows}
    _emit(payload, args.out)
    return 0


def _corrupted(elem):
    """The negative control: elem times exp(x^(1,...,1)) in its convention."""
    bump = GradedElement.monomial(elem.seed, elem.order, elem.convention,
                                  (1,) * elem.seed.rank, ONE)
    return elem.mul(bump.exp())


def _suite_psi_roundtrip(args, seed):
    conv = CONVENTIONS[args.convention]
    rng = random.Random(args.random_seed)
    n = seed.rank
    failures = []
    trials = 0
    for trial in range(args.trials):
        eta = {}
        for _ in range(2):
            ray = tuple(rng.randint(0, 2) for _ in range(n))
            if not any(ray) or sum(ray) > args.order:
                continue
            ray = primitive(ray)
            lie = {}
            for kk in range(1, args.order // sum(ray) + 1):
                if rng.random() < 0.6:
                    lie[tuple(kk * x for x in ray)] = \
                        CoeffFn.from_fraction(rng.randint(-3, 3), rng.randint(1, 2))
            lie = {d: c for d, c in lie.items() if not c.is_zero()}
            if lie:
                eta[ray] = GradedElement(seed, args.order, conv, LIE, lie).exp()
        if not eta:
            continue
        trials += 1
        sd = scattering.complete_from_initial(eta, seed, args.order, conv)
        if args.corrupt:
            sd = scattering.ScatDiagram.from_group_element(_corrupted(sd.group_element()))
        back = scattering.psi_extract(sd)
        if back != eta:
            witness = sorted(set(back) ^ set(eta)) or sorted(
                n0 for n0 in eta if back.get(n0) != eta[n0])
            failures.append({"trial": trial, "witness_rays": [list(w) for w in witness]})
    # "trials" counts the trials that drew nonempty initial data; a run
    # that checks nothing does not pass
    return {"suite": "psi-roundtrip", "trials": trials,
            "passed": trials > 0 and not failures, "failures": failures}


def _suite_mutation(args, seed):
    build = BUILDERS[args.convention]
    sd = build(seed, args.order)
    built, failures = {}, []
    for k in range(1, seed.rank + 1):
        for sign in (1, -1):
            seed2, _ = mutate_seed(seed, k, sign)
            if seed2 not in built:
                built[seed2] = build(seed2, args.order)
            sd2 = built[seed2]
            if args.corrupt:
                sd2 = scattering.ScatDiagram.from_group_element(_corrupted(sd2.group_element()))
            report = scattering.mutate_sd_check(sd, k, sign, sd2)
            if not report.passed:
                failures.append({"k": k, "sign": sign, "witnesses": [
                    [kind, list(m), list(key)]
                    for kind, m, key in report.failures[:3]]})
    return {"suite": "mutation", "passed": not failures, "failures": failures}


def _suite_pentagon(args, seed):
    conv = CONVENTIONS[args.convention]
    seqs = chambers_mod.enumerate_green_to_red(seed, args.depth)
    if len(seqs) < 2:
        return {"suite": "pentagon", "passed": False,
                "failures": ["fewer than two green-to-red sequences"]}
    series = [chambers_mod.dt_series(seed, s, args.order, conv) for s in seqs]
    if args.corrupt:
        series[-1] = _corrupted(series[-1])
    ok = all(s == series[0] for s in series)
    return {"suite": "pentagon", "passed": ok,
            "sequences": [list(s) for s in seqs],
            "failures": [] if ok else ["series differ between sequences"]}


SUITES = {"psi-roundtrip": _suite_psi_roundtrip,
          "mutation": _suite_mutation,
          "pentagon": _suite_pentagon}


def cmd_verify(args):
    seed, _ = _load_seed(args.seed)
    if args.corrupt and args.order < seed.rank:
        # x^(1,...,1) would be truncated away
        raise ValueError("--corrupt needs --order >= %d, the seed rank" % seed.rank)
    report = SUITES[args.suite](args, seed)
    payload = {"schema": SCHEMA, "command": "verify"}
    payload.update(report)
    _emit(payload, args.out)
    return 0 if report["passed"] else 1


def _integer(text, low):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
    if value < low:
        raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
    return value


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


def _prime(text):
    p = _integer(text, 2)
    if p >= _MR_BOUND:
        raise argparse.ArgumentTypeError("primes must be below %d, got %d" % (_MR_BOUND, p))
    if not _is_prime(p):
        raise argparse.ArgumentTypeError("not a prime: %d" % p)
    return p


# every flag once; each subcommand takes only the flags its handler reads
FLAGS = {
    "seed": dict(required=True, help="seed or QP JSON file"),
    "order": dict(type=lambda text: _integer(text, 1), default=6),
    "convention": dict(choices=sorted(CONVENTIONS), default="quantum"),
    "depth": dict(type=lambda text: _integer(text, 0), default=6),
    "primes": dict(type=_prime, nargs="+", default=[2, 3, 5]),
    "m": dict(required=True, help="stability covector, e.g. 1,-1"),
    "vertex": dict(type=int, required=True),
    "sign": dict(choices=["+", "-"], default="-"),
    "unrestricted": dict(action="store_true"),
    "allow-missing": dict(action="store_true"),
    "suite": dict(required=True, choices=sorted(SUITES)),
    "random-seed": dict(type=int, default=2024),
    "trials": dict(type=lambda text: _integer(text, 1), default=10),
    "corrupt": dict(action="store_true",
                    help="negative control: perturb before verifying"),
    "out": dict(default=None),
}

COMMANDS = {
    "scatter": (cmd_scatter, "walls and chambers of the completed diagram",
                ("seed", "order", "convention", "out")),
    "mutate": (cmd_mutate, "mutate a seed or seed-with-potential",
               ("seed", "vertex", "sign", "out")),
    "g2r": (cmd_g2r, "search for a green-to-red sequence",
            ("seed", "depth", "unrestricted", "allow-missing", "out")),
    "dt": (cmd_dt, "refined DT series along a green-to-red sequence",
           ("seed", "order", "convention", "depth", "out")),
    "reps": (cmd_reps, "finite-field counting series on a wall",
             ("seed", "m", "order", "primes", "out")),
    "verify": (cmd_verify, "run a named verification suite",
               ("seed", "suite", "order", "convention", "depth", "random-seed",
                "trials", "corrupt", "out")),
}


def build_parser():
    ap = argparse.ArgumentParser(prog="scatdiag",
                                 description="exact scattering diagrams for "
                                             "quivers with potential")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument("--" + flag, **FLAGS[flag])
        p.set_defaults(func=func)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse rejected the arguments (2) or printed help (0)
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError, reps_mod.BudgetExceeded) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
