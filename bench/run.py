"""scatdiag benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs the workload's jobs one at a time, in whole rounds, until
the time is used (at least two rounds), then checks the first round's
outputs.  A job whose exit code is not the expected one, or whose output
differs from the first round's, counts as failed.  With --trace 0 the last
line of stdout gives the end-to-end metrics; with --trace 1 the rounds
alternate untraced and traced, and it gives the per-layer metrics read from
the spans of the traced rounds.  End-to-end times are scaled to a reference
host speed measured while they are taken (bench/host.py), so that the shared
host's slow and fast phases do not move them.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from scatdiag import chambers, cli, lattice, scattering  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from host import REFERENCE_S, HostProbe, slowdown_now  # noqa: E402
from spans import Tracer  # noqa: E402

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# per-layer metric -> (unit, how it is read from the trace)
CALLS, INCL, SIZE, LAYER = "calls", "incl", "size", "layer"
PER_LAYER = {
    "scattering.wall_normals_s": ("s", INCL, "scattering.ScatDiagram.wall_normals"),
    "scattering.phi_calls": ("count", CALLS, "scattering.ScatDiagram.phi"),
    "scattering.phi_s": ("s", INCL, "scattering.ScatDiagram.phi"),
    "scattering.candidates": ("count", SIZE, "scattering.ScatDiagram.candidate_normals"),
    "scattering.walls": ("count", SIZE, "scattering.ScatDiagram.wall_normals"),
    "scattering.complete_s": ("s", INCL, "scattering.complete_from_initial"),
    "scattering.minimal_complex_s": ("s", INCL, "scattering.ScatDiagram.minimal_complex"),
    "scattering.self_s": ("s", LAYER, "scattering"),
    "lattice.face_enumerate_s": ("s", INCL, "lattice.face_enumerate"),
    "lattice.lp_calls": ("count", CALLS, "lattice.cone_interior_point"),
    "lattice.faces": ("count", SIZE, "lattice.face_enumerate"),
    "lattice.cone_generators_calls": ("count", CALLS, "lattice.cone_generators"),
    "lattice.cone_generators_s": ("s", INCL, "lattice.cone_generators"),
    "lattice.reduce_rays_s": ("s", INCL, "lattice.reduce_ray_generators"),
    "lattice.self_s": ("s", LAYER, "lattice"),
    "torus.mul_calls": ("count", CALLS, "torus.GradedElement.mul"),
    "torus.inverse_calls": ("count", CALLS, "torus.GradedElement.group_inverse"),
    "torus.exp_calls": ("count", CALLS, "torus.GradedElement.exp"),
    "torus.log_calls": ("count", CALLS, "torus.GradedElement.log"),
    "torus.lift_calls": ("count", CALLS, "torus.lift_classical"),
    "torus.classical_map_calls": ("count", CALLS, "torus.classical_map"),
    "torus.self_s": ("s", LAYER, "torus"),
    "coeff.add_calls": ("count", CALLS, "coeff.CoeffFn.__add__"),
    "coeff.mul_calls": ("count", CALLS, "coeff.CoeffFn.__mul__"),
    "coeff.self_s": ("s", LAYER, "coeff"),
    "chambers.chamber_calls": ("count", CALLS, "chambers.chamber_from_sequence"),
    "chambers.dt_series_s": ("s", INCL, "chambers.dt_series"),
    "chambers.self_s": ("s", LAYER, "chambers"),
    "reps.enumerate_calls": ("count", CALLS, "reps.enumerate_reps"),
    "reps.enumerate_s": ("s", INCL, "reps.enumerate_reps"),
    "reps.semistable_calls": ("count", CALLS, "reps.is_semistable"),
    "reps.iq_wall_series_s": ("s", INCL, "reps.iq_wall_series"),
    "reps.self_s": ("s", LAYER, "reps"),
    "qp.mutate_calls": ("count", CALLS, "qp.mutate_qp"),
    "qp.self_s": ("s", LAYER, "qp"),
    "cli.self_s": ("s", LAYER, "cli"),
}
# ratios and the metrics that are not read from spans
DERIVED_UNITS = {"scattering.wall_yield": "ratio", "lattice.lp_yield": "ratio",
                 "cli.output_bytes": "bytes", "trace.overhead_s": "s",
                 "host.slowdown": "ratio"}


def run_job(job):
    """(exit code, output text, error text) of one job."""
    if job.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(job.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:   # an uncaught error ends the command with code 1
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()
    try:
        value = job.call()
    except Exception:           # reported as a failed operation
        return 1, None, traceback.format_exc()
    return 0, json.dumps(value, sort_keys=True), ""


class Rounds:
    """Runs whole rounds of the jobs and keeps the operation accounting."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = {}         # job name -> output text of the first round
        self.attempted = 0
        self.failed = 0
        self.walls = {False: [], True: []}      # traced? -> round wall times
        self.cpus = []
        self.slowdowns = []     # (wall, cpu) host slowdown of each untraced round
        self.output_bytes = 0
        self.notes = set()

    def run(self, tracer=None):
        """One round; returns its wall time, host probe included."""
        first_round = self.attempted == 0
        out_bytes = 0
        probe = HostProbe() if tracer is None else None
        if probe is not None:
            probe.start()
        else:
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            for job in self.jobs:
                code, text, err = run_job(job)
                self.attempted += 1
                if job.argv is not None:
                    out_bytes += len(text.encode())
                ok = code == job.expect
                if ok and job.expect == 0:
                    if first_round:
                        self.first[job.name] = text
                    ok = self.first.get(job.name) == text
                if not ok:
                    self.failed += 1
                    self.notes.add("%s: exit %s, expected %s%s" % (
                        job.name, code, job.expect,
                        "" if code != job.expect else " (output differs from round 1)"))
                    if err and job.expect == 0:
                        self.notes.add(err.strip().splitlines()[-1])
        finally:
            if probe is not None:
                probe.stop()
            else:
                tracer.uninstall()
            elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
        if probe is not None:
            p_wall, p_cpu, n = probe.totals()
            self.walls[False].append(elapsed - p_wall)
            self.cpus.append(cpu - p_cpu)
            self.slowdowns.append((p_wall / n / REFERENCE_S, p_cpu / n / REFERENCE_S))
        else:
            self.walls[True].append(elapsed)
        self.output_bytes = out_bytes
        return elapsed

    def outputs(self):
        return {name: json.loads(text) for name, text in self.first.items()}


def measure(jobs, seconds, tracer, between):
    """Whole rounds until the next would end after `seconds`; `between` runs
    after every untraced-mode round."""
    rounds = Rounds(jobs)
    start = time.perf_counter()
    if tracer is None:
        while True:
            rounds.run()
            between()
            spent = time.perf_counter() - start
            done = rounds.walls[False]
            if len(done) >= 2 and spent + statistics.median(done) > seconds:
                break
    else:
        pairs = []
        while True:
            pairs.append(rounds.run() + rounds.run(tracer))
            spent = time.perf_counter() - start
            if spent + statistics.median(pairs) > seconds:
                break
    return rounds


def setup(directory):
    """Time of one fresh interpreter that imports scatdiag and writes the
    input files, at the reference host speed (the mean of the host slowdowns
    sampled just before and just after it)."""
    before = slowdown_now()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"), "--dir", directory],
                   check=True, timeout=60)
    seconds = time.perf_counter() - t0
    return seconds / ((before + slowdown_now()) / 2)


def end_to_end(rounds, setups):
    """Medians over the rounds and the set-ups, each at the reference host
    speed: a round's times are divided by the host slowdown measured during it."""
    slow = rounds.slowdowns
    return {"run_s": statistics.median(t / w for t, (w, _) in zip(rounds.walls[False], slow)),
            "cpu_s": statistics.median(t / c for t, (_, c) in zip(rounds.cpus, slow)),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(rounds, tracer):
    n = len(rounds.walls[True])
    inclusive = [src for _, kind, src in PER_LAYER.values() if kind == INCL]
    names, layers = tracer.summary(inclusive)
    out = {}
    for metric, (_, kind, src) in PER_LAYER.items():
        if kind == LAYER:
            value = layers.get(src, 0.0)
        elif kind == SIZE:
            value = tracer.sizes.get(src, 0)
        else:
            row = names.get(src, {"calls": 0, "incl_s": 0.0})
            value = row["calls"] if kind == CALLS else row["incl_s"]
        out[metric] = value / n
    out["scattering.wall_yield"] = (out["scattering.walls"] / out["scattering.candidates"]
                                    if out["scattering.candidates"] else 0.0)
    out["lattice.lp_yield"] = (out["lattice.faces"] / out["lattice.lp_calls"]
                               if out["lattice.lp_calls"] else 0.0)
    out["cli.output_bytes"] = rounds.output_bytes
    out["trace.overhead_s"] = (statistics.median(rounds.walls[True])
                               - statistics.median(rounds.walls[False]))
    out["host.slowdown"] = statistics.median(w for w, _ in rounds.slowdowns)
    return out


# ---------------------------------------------------------------------------
# checks of the first round's outputs
# ---------------------------------------------------------------------------

def _phi0(sd):
    return sd.phi(tuple(Fraction(0) for _ in range(sd.seed.rank))).serialize()


def _kronecker_wall(order):
    return scattering.quantum_cluster_sd(lattice.kronecker_seed(), order).phi(
        (Fraction(1), Fraction(-1))).serialize()


def _cones(seed, depth):
    return [node.generators for node in chambers.enumerate_chambers(seed, depth)]


def _face_dims(out):
    normals = sorted({tuple(w["normal"]) for w in out["walls"]})
    return [f.dim for f in lattice.face_enumerate(normals, out["seed"]["rank"])]


def check_plan(workload):
    """(job name, check) pairs; each check takes the job's output and all outputs.
    The references through the program (g-vector cones, completed diagrams,
    wall functions) are computed here, after the timed rounds."""
    w = workloads
    plan = [
        ("a2-scatter", lambda o, _: checks.check_finite_type_scatter(
            o, _cones(lattice.a2_seed(), 5))),
        ("a2-dt", lambda o, _: checks.check_dt(o, _phi0(scattering.quantum_cluster_sd(
            lattice.a2_seed(), w.COMPANION_ORDER)))),
        ("a2-psi", lambda o, _: checks.check_suite_passed(o)),
        ("cycle-mutate", lambda o, _: checks.check_mutation(o, w.CYCLE_B, 2)),
        ("k2-reps", lambda o, _: checks.check_reps(o, _kronecker_wall(w.COMPANION_ORDER))),
        ("k2-brute", lambda o, outs: checks.check_brute(o, outs.get("k2-reps"), 2)),
    ]
    if workload == "scatter-a3":
        plan.append(("a3-scatter", lambda o, _: checks.check_finite_type_scatter(
            o, _cones(lattice.a3_seed(), 9))))
    elif workload == "scatter-markov":
        plan.append(("markov-scatter", lambda o, _: checks.check_markov_scatter(
            o, _face_dims(o))))
    elif workload == "series-classical":
        a3_order, a2_order = w.SERIES_A3[0], w.SERIES_A2[0]
        phi_a3 = functools.cache(
            lambda: _phi0(scattering.cluster_sd(lattice.a3_seed(), a3_order)))
        plan += [
            ("a3-pentagon", lambda o, _: checks.check_pentagon(o, 9, (3, 6), phi_a3())),
            ("a2-pentagon", lambda o, _: checks.check_pentagon(o, 2, (2, 3), _phi0(
                scattering.cluster_sd(lattice.a2_seed(), a2_order)))),
            ("a3-dt", lambda o, _: checks.check_dt(o, phi_a3())),
            ("a3-psi", lambda o, _: checks.check_suite_passed(o)),
            ("a3-roundtrip", lambda o, _: checks.check_roundtrip(o)),
        ]
    elif workload == "oracle":
        plan += [
            ("k2-reps-10", lambda o, _: checks.check_reps(o, _kronecker_wall(w.REPS_ORDER))),
            ("k2-brute-f2", lambda o, outs: checks.check_brute(o, outs.get("k2-reps-10"), 2)),
            ("k2-brute-f3", lambda o, outs: checks.check_brute(o, outs.get("k2-reps-10"), 3)),
            ("transport", lambda o, _: checks.check_transport(o)),
            ("reflections", lambda o, _: checks.check_reflections(o)),
        ]
    return plan


def check_outputs(workload, outputs):
    """Problems found in the outputs of the jobs that did not fail."""
    problems = []
    for name, check in check_plan(workload):
        if name not in outputs:
            continue
        try:
            problems += ["%s: %s" % (name, p) for p in check(outputs[name], outputs)]
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append("%s: malformed output (%s: %s)" % (name, type(exc).__name__, exc))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    scratch = os.path.join(ROOT, ".bench_work")
    work = os.path.join(scratch, "%s-%d" % (args.workload, os.getpid()))
    try:
        # The first set-up writes the inputs; the repeats after each round
        # sample the host over the whole run, as the rounds do.
        setups = [setup(work)]
        jobs = workloads.jobs(args.workload, work, args.seed)
        tracer = Tracer() if args.trace else None
        rounds = measure(jobs, args.seconds, tracer,
                         lambda: setups.append(setup(work)))
        if tracer is None:
            metrics = end_to_end(rounds, setups)
            units = END_TO_END_UNITS
        else:
            metrics = per_layer(rounds, tracer)
            units = {k: u for k, (u, _, _) in PER_LAYER.items()}
            units.update(DERIVED_UNITS)
            traces = os.path.join(ROOT, ".bench_traces")
            os.makedirs(traces, exist_ok=True)
            tracer.write(os.path.join(traces, args.workload + ".json"))
        problems = check_outputs(args.workload, rounds.outputs())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):     # left in place while another run uses it
            os.rmdir(scratch)
    for line in sorted(rounds.notes) + problems:
        sys.stderr.write(line + "\n")
    print(json.dumps({"correct": not problems, "attempted": rounds.attempted,
                      "failed": rounds.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


if __name__ == "__main__":
    main()
