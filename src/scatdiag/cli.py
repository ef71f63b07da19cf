"""Command-line front door producing reproducible JSON artifacts.

Subcommands: scatter, mutate, g2r, dt, reps, verify.  Each handler returns
its payload and exit code and writes nothing; `main` adds the schema and
the command and writes the payload once, to stdout or `--out`.  Every
payload is deterministically ordered and timestamp-free, so a fixed
configuration gives byte-identical output across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .lattice import Seed, mutate_seed
from .qp import SeedWithPotential, mutate_sp
from . import scattering, torus
from . import chambers as chambers_mod
from . import reps as reps_mod
from .reps import _MR_BOUND, _is_prime

SCHEMA = "scatdiag/1"


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
    sd = scattering.BUILDERS[args.convention](seed, args.order)
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
    return {"seed": seed.to_json(), "order": args.order,
            "convention": args.convention,
            "group_element": sd.group_element().serialize(),
            "walls": walls, "chambers": chambers}, 0


def cmd_mutate(args):
    seed, sp = _load_seed(args.seed)
    sign = 1 if args.sign == "+" else -1
    if sp is None:
        key, (new, change) = "seed", mutate_seed(seed, args.vertex, sign)
    else:
        key, (new, change) = "seed_with_potential", mutate_sp(sp, args.vertex, sign)
    return {"vertex": args.vertex, "sign": args.sign, key: new.to_json(),
            "basis_change": [list(r) for r in change]}, 0


def cmd_g2r(args):
    seed, _ = _load_seed(args.seed)
    seq = chambers_mod.find_green_to_red(seed, args.depth,
                                         green_restricted=not args.unrestricted)
    payload = {"seed": seed.to_json(), "depth": args.depth,
               "found": seq is not None,
               "sequence": list(seq) if seq is not None else None,
               "length": len(seq) if seq is not None else None}
    return payload, 0 if seq is not None or args.allow_missing else 1


def cmd_dt(args):
    seed, _ = _load_seed(args.seed)
    seq = chambers_mod.find_green_to_red(seed, args.depth)
    if seq is None:
        return {"found": False}, 1
    series = chambers_mod.dt_series(seed, seq, args.order, args.convention)
    return {"found": True, "sequence": list(seq), "order": args.order,
            "convention": args.convention, "series": series.serialize()}, 0


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
    return {"m": [str(x) for x in m], "order": args.order,
            "primes": list(args.primes), "series": rows}, 0


def _witnesses(failures):
    """Report failures as [kind, where (a covector, a dimension vector or
    two sequences), key, both coefficients]."""
    return [[kind, list(where), list(key), [c.to_string() for c in values]]
            for kind, where, key, values in failures]


# each suite reads its flags, runs the library check and shapes its JSON;
# every failure entry holds its witnesses

def _psi_roundtrip(args, seed):
    reports = scattering.psi_roundtrip_suite(seed, args.order, args.convention, args.trials,
                                             args.random_seed, args.corrupt)
    failures = [{"trial": trial, "witness_rays": [list(f[1]) for f in r.failures],
                 "witnesses": _witnesses(r.failures)}
                for trial, r in reports.items() if not r.passed]
    # "trials" counts the trials that drew nonempty initial data; a run
    # that checks nothing does not pass
    return {"suite": "psi-roundtrip", "trials": len(reports),
            "passed": bool(reports) and not failures, "failures": failures}


def _mutation(args, seed):
    reports = scattering.mutation_suite(seed, args.order, args.convention, args.corrupt)
    failures = [{"k": k, "sign": sign, "witnesses": _witnesses(r.failures[:3])}
                for (k, sign), r in reports.items() if not r.passed]
    return {"suite": "mutation", "passed": not failures, "failures": failures}


def _pentagon(args, seed):
    report, seqs = chambers_mod.pentagon_suite(seed, args.depth, args.order,
                                               args.convention, args.corrupt)
    return {"suite": "pentagon", "passed": report.passed,
            "sequences": [list(s) for s in seqs],
            "failures": [{"witnesses": _witnesses([f])} for f in report.failures]}


SUITES = {"psi-roundtrip": _psi_roundtrip,
          "mutation": _mutation,
          "pentagon": _pentagon}


def cmd_verify(args):
    seed, _ = _load_seed(args.seed)
    if args.corrupt and args.order < seed.rank:
        # x^(1,...,1) would be truncated away
        raise ValueError("--corrupt needs --order >= %d, the seed rank" % seed.rank)
    report = SUITES[args.suite](args, seed)
    return report, 0 if report["passed"] else 1


def _integer(text, low):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
    if value < low:
        raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
    return value


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
    "convention": dict(choices=sorted(torus.CONVENTIONS), default="quantum"),
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
        payload, code = args.func(args)
        _emit({"schema": SCHEMA, "command": args.command, **payload}, args.out)
        return code
    except (ValueError, OSError, reps_mod.BudgetExceeded) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
