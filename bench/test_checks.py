"""Negative controls: every output check accepts a correct output and rejects
a perturbed one, so that none passes vacuously.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import copy
import json
import os
import random
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import host  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from scatdiag import chambers, lattice, scattering  # noqa: E402
from scatdiag.coeff import CoeffFn  # noqa: E402

F = Fraction


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    for name, data in workloads.input_files().items():
        (d / name).write_text(json.dumps(data))
    return lambda name: str(d / name)


def cli(*argv):
    code, text, err = run.run_job(workloads.Job("t", argv=tuple(map(str, argv))))
    assert code == 0, err
    return json.loads(text)


def mutated_coeff(text):
    num, den = checks.parse_coeff(text)
    return "(%s)/(%s)" % (" + ".join("%d*v^%d" % (c + (i == 0), i) for i, c in
                                     enumerate(num)), " + ".join(
        "%d*v^%d" % (c, i) for i, c in enumerate(den) if c))


# -- coefficient parsing: a differential test against the program's own field

def test_parse_matches_coefficient_field():
    rng = random.Random(7)
    for _ in range(200):
        num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
        den = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3))) + (rng.randint(1, 3),)
        c = CoeffFn(rng.randint(-3, 3), num, den)
        if c.is_zero():
            continue
        for p in (2, 3, 5):
            try:
                want = c.eval_at_sqrt(p)
            except ArithmeticError:
                continue
            assert checks.at_sqrt(c.to_string(), p) == tuple(F(x) for x in want)


def test_dilog_closed_form_matches_a_hand_value():
    # k = 2: q^2 / ((q^2 - 1)(q^2 - q)) = v^4 / (v^8 - v^6 - v^4 + v^2)
    num, den = checks.quantum_dilog_coeff(2)
    assert checks.same_coeff("v^4/(v^8 - v^6 - v^4 + v^2)", num, den)
    assert not checks.same_coeff("v^4/(v^8 - v^6)", num, den)


def test_mutated_coeff_differs():
    assert not checks.same_coeff(mutated_coeff("v/(v^2 - 1)"), [0, 1], [-1, 0, 1])


# -- finite-type scatter: A3

@pytest.fixture(scope="module")
def a3(inputs):
    out = cli("scatter", "--seed", inputs("a3.json"), "--order", 4)
    cones = [n.generators for n in chambers.enumerate_chambers(lattice.a3_seed(), 9)]
    return out, cones


def test_finite_type_accepts(a3):
    assert checks.check_finite_type_scatter(*a3) == []


def test_finite_type_rejects_changed_coefficient(a3):
    out = copy.deepcopy(a3[0])
    term = out["walls"][3]["function"][0]
    term["coeff"] = mutated_coeff(term["coeff"])
    assert checks.check_finite_type_scatter(out, a3[1])


def test_finite_type_rejects_dropped_chamber(a3):
    out = copy.deepcopy(a3[0])
    out["chambers"].pop(5)
    assert checks.check_finite_type_scatter(out, a3[1])


def test_finite_type_rejects_dropped_wall_term(a3):
    out = copy.deepcopy(a3[0])
    out["walls"][0]["function"].pop()
    assert checks.check_finite_type_scatter(out, a3[1])


def test_finite_type_rejects_wrong_cones(a3):
    cones = list(a3[1])
    cones[0] = tuple(tuple(2 * x for x in g) for g in cones[0])
    assert checks.check_finite_type_scatter(a3[0], cones)


# -- Markov

@pytest.fixture(scope="module")
def markov(inputs):
    out = cli("scatter", "--seed", inputs("markov.json"), "--order", 2)
    return out, run._face_dims(out)


def test_markov_accepts(markov):
    assert checks.check_markov_scatter(*markov) == []


def test_markov_rejects_wall_removed_from_orbit(markov):
    out = copy.deepcopy(markov[0])
    out["walls"].pop(0)
    assert checks.check_markov_scatter(out, markov[1])


def test_markov_rejects_term_off_normal(markov):
    out = copy.deepcopy(markov[0])
    for w in out["walls"]:                  # keep the symmetry, break the support
        w["function"].append({"dimvec": [1, 1, 1], "coeff": "1"})
    assert checks.check_markov_scatter(out, markov[1])


def test_markov_rejects_generator_off_hyperplane(markov):
    out = copy.deepcopy(markov[0])
    for w in out["walls"]:
        w["cone_generators"].append(list(w["normal"]))
    assert checks.check_markov_scatter(out, markov[1])


def test_markov_rejects_broken_euler_sum(markov):
    assert checks.check_markov_scatter(markov[0], markov[1][1:])


# -- series

@pytest.fixture(scope="module")
def pentagon():
    out = workloads._pentagon(lattice.a2_seed(), 4, 4)
    out = json.loads(json.dumps(out))
    phi0 = run._phi0(scattering.cluster_sd(lattice.a2_seed(), 4))
    return out, phi0


def test_pentagon_accepts(pentagon):
    assert checks.check_pentagon(pentagon[0], 2, (2, 3), pentagon[1]) == []


def test_pentagon_rejects_changed_series(pentagon):
    out = copy.deepcopy(pentagon[0])
    term = out["series"][1][0]
    term["coeff"] = mutated_coeff(term["coeff"])
    assert checks.check_pentagon(out, 2, (2, 3), pentagon[1])


def test_pentagon_rejects_missing_sequence(pentagon):
    out = copy.deepcopy(pentagon[0])
    out["sequences"].pop()
    out["series"].pop()
    assert checks.check_pentagon(out, 2, (2, 3), pentagon[1])


def test_pentagon_rejects_other_phi0(pentagon):
    other = run._phi0(scattering.cluster_sd(lattice.a2_seed(), 3))
    assert checks.check_pentagon(pentagon[0], 2, (2, 3), other)


def test_dt(inputs, pentagon):
    out = cli("dt", "--seed", inputs("a2.json"), "--convention", "classical",
              "--order", 4, "--depth", 4)
    assert checks.check_dt(out, pentagon[1]) == []
    out["series"].pop()
    assert checks.check_dt(out, pentagon[1])


def test_suite_rejects_corrupt(inputs):
    argv = ("verify", "--seed", inputs("a2.json"), "--suite", "psi-roundtrip", "--order", "4")
    assert checks.check_suite_passed(cli(*argv)) == []
    code, text, _ = run.run_job(workloads.Job("t", argv=argv + ("--corrupt",)))
    assert code == 1
    assert checks.check_suite_passed(json.loads(text))


def test_roundtrip():
    out = json.loads(json.dumps(workloads._roundtrip(workloads.params(3))))
    assert checks.check_roundtrip(out) == []
    key = sorted(out["back"])[0]
    out["back"][key][0]["coeff"] = mutated_coeff(out["back"][key][0]["coeff"])
    assert checks.check_roundtrip(out)


# -- oracle

@pytest.fixture(scope="module")
def reps_out(inputs):
    return cli("reps", "--seed", inputs("kronecker.json"), "--m", "2,-2", "--order", 4,
               "--primes", 2, 3)


def test_reps_against_wall(reps_out):
    wall = run._kronecker_wall(4)
    assert checks.check_reps(reps_out, wall) == []
    bad = copy.deepcopy(wall)
    bad[0]["coeff"] = mutated_coeff(bad[0]["coeff"])
    assert checks.check_reps(reps_out, bad)


def test_brute_against_reps(reps_out):
    from scatdiag import qp, reps
    sp = qp.SeedWithPotential.make(lattice.kronecker_seed())
    for p in (2, 3):
        brute = reps.iq_wall_series_brute(sp, (F(1), F(-1)), [(1, 1), (2, 2)], p).serialize()
        assert checks.check_brute(brute, reps_out, p) == []
        brute[-1]["coeff"] = mutated_coeff(brute[-1]["coeff"])
        assert checks.check_brute(brute, reps_out, p)


def test_transport_and_reflections():
    rows = [{"passed": True, "checked": 3}]
    assert checks.check_transport(rows) == []
    assert checks.check_transport([{"passed": False, "checked": 3}])
    assert checks.check_transport([{"passed": True, "checked": 0}])
    assert checks.check_reflections([{"dims": [0, 0, 0]}]) == []
    assert checks.check_reflections([{"dims": [0, 1, 0]}])


def test_mutation(inputs):
    out = cli("mutate", "--seed", inputs("cycle-qp.json"), "--vertex", 2)
    assert checks.check_mutation(out, workloads.CYCLE_B, 2) == []
    bad = copy.deepcopy(out)
    bad["seed_with_potential"]["seed"]["B"][0][1] += 1
    assert checks.check_mutation(bad, workloads.CYCLE_B, 2)
    bad = copy.deepcopy(out)
    bad["seed_with_potential"]["potential"] = [{"word": ["x"], "coeff": "1"}]
    assert checks.check_mutation(bad, workloads.CYCLE_B, 2)


# -- the benchmark's declared metrics are the ones it prints

def test_declared_metrics_match():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {k: u for k, (u, _, _) in run.PER_LAYER.items()}
    per_layer.update(run.DERIVED_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- the host probe samples during a job, and at least once per round

def test_host_probe_samples():
    probe = host.HostProbe()
    probe.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    probe.stop()
    assert probe.samples >= 3 and probe.wall > 0
    rounds = run.Rounds([workloads.Job("short", call=lambda: {})])
    rounds.run()                        # shorter than the timer interval
    wall_slowdown, cpu_slowdown = rounds.slowdowns[0]
    assert wall_slowdown > 0 and cpu_slowdown > 0
