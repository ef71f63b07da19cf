import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import scatdiag
from scatdiag import cli
from scatdiag.cli import main


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"rank": 2, "B": [[0, 1], [-1, 0]]}))
    return str(path)


@pytest.fixture
def markov_file(tmp_path):
    path = tmp_path / "markov.json"
    path.write_text(json.dumps(
        {"rank": 3, "B": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]}))
    return str(path)


def run(tmp_path, *argv):
    # a command that writes nothing returns payload None, not an older payload
    out = tmp_path / "out.json"
    out.unlink(missing_ok=True)
    code = main(list(argv) + ["--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def test_scatter_a2(tmp_path, a2_file):
    code, payload = run(tmp_path, "scatter", "--seed", a2_file, "--order", "4")
    assert code == 0
    assert payload["schema"] == "scatdiag/1"
    assert len(payload["walls"]) == 5
    assert len(payload["chambers"]) == 5
    normals = sorted(tuple(w["normal"]) for w in payload["walls"])
    assert normals == [(0, 1), (0, 1), (1, 0), (1, 0), (1, 1)]


def test_scatter_rank1(tmp_path):
    path = tmp_path / "r1.json"
    path.write_text(json.dumps({"rank": 1, "B": [[0]]}))
    code, payload = run(tmp_path, "scatter", "--seed", str(path), "--order", "4")
    assert code == 0 and len(payload["walls"]) == 1


def test_scatter_markov_central_line(tmp_path, markov_file):
    code, payload = run(tmp_path, "scatter", "--seed", markov_file,
                        "--order", "3", "--convention", "quantum")
    assert code == 0
    assert payload["walls"]


def test_determinism(tmp_path, a2_file):
    _, p1 = run(tmp_path, "scatter", "--seed", a2_file, "--order", "4")
    _, p2 = run(tmp_path, "scatter", "--seed", a2_file, "--order", "4")
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


def test_mutate_seed(tmp_path, a2_file):
    code, payload = run(tmp_path, "mutate", "--seed", a2_file,
                        "--vertex", "1", "--sign", "+")
    assert code == 0
    assert payload["basis_change"] == [[-1, 1], [0, 1]]


def test_mutate_seed_with_potential(tmp_path):
    from scatdiag.lattice import Seed
    from scatdiag.qp import SeedWithPotential
    sp = SeedWithPotential.make(Seed(((0, 1, -1), (-1, 0, 1), (1, -1, 0))),
                                {("a1_2_1", "a2_3_1", "a3_1_1"): 1})
    path = tmp_path / "sp.json"
    path.write_text(json.dumps(sp.to_json()))
    code, payload = run(tmp_path, "mutate", "--seed", str(path),
                        "--vertex", "2", "--sign", "-")
    assert code == 0
    out = SeedWithPotential.from_json(payload["seed_with_potential"])
    assert out.quiver.is_2_acyclic()
    assert out.potential.is_zero()


def test_g2r(tmp_path, a2_file, markov_file):
    code, payload = run(tmp_path, "g2r", "--seed", a2_file, "--depth", "5")
    assert code == 0 and payload["sequence"] == [1, 2] and payload["length"] == 2
    code, payload = run(tmp_path, "g2r", "--seed", markov_file,
                        "--depth", "5", "--allow-missing")
    assert code == 0 and payload["found"] is False
    code, _ = run(tmp_path, "g2r", "--seed", markov_file, "--depth", "5")
    assert code == 1


def test_dt(tmp_path, a2_file):
    code, payload = run(tmp_path, "dt", "--seed", a2_file, "--order", "4",
                        "--convention", "dt", "--depth", "5")
    assert code == 0 and payload["found"]
    assert payload["series"]


def test_reps(tmp_path, a2_file):
    code, payload = run(tmp_path, "reps", "--seed", a2_file, "--m", "0,1",
                        "--order", "3", "--primes", "2", "3")
    assert code == 0
    assert [row["p"] for row in payload["series"]] == [2, 3]


def test_verify_pass_fail(tmp_path, a2_file):
    code, payload = run(tmp_path, "verify", "--seed", a2_file,
                        "--suite", "psi-roundtrip", "--order", "5",
                        "--trials", "3")
    assert code == 0 and payload["passed"]
    code, payload = run(tmp_path, "verify", "--seed", a2_file,
                        "--suite", "psi-roundtrip", "--order", "5",
                        "--trials", "2", "--corrupt")
    assert code == 1 and not payload["passed"]
    assert payload["failures"]


def test_verify_psi_roundtrip_corrupt_fails_every_trial(tmp_path, a2_file):
    # each completed diagram times exp(x^(1,...,1)) has other initial data,
    # in every convention
    for conv in ("quantum", "classical", "dt"):
        code, payload = run(tmp_path, "verify", "--seed", a2_file, "--suite",
                            "psi-roundtrip", "--order", "4", "--trials", "4",
                            "--corrupt", "--convention", conv)
        assert code == 1 and payload["trials"] > 0, conv
        assert len({f["trial"] for f in payload["failures"]}) == payload["trials"], conv


def test_run_returns_no_stale_payload(tmp_path, a2_file):
    code, payload = run(tmp_path, "scatter", "--seed", a2_file, "--order", "2")
    assert code == 0 and payload is not None
    code, payload = run(tmp_path, "scatter", "--seed", a2_file, "--depth", "5")
    assert code == 2 and payload is None


def test_verify_mutation_suite(tmp_path, a2_file):
    code, payload = run(tmp_path, "verify", "--seed", a2_file,
                        "--suite", "mutation", "--order", "4")
    assert code == 0 and payload["passed"]


def test_verify_mutation_corrupt_fails(tmp_path, a2_file):
    # negative control: each mutated diagram times exp(x^(1,...,1)); every
    # (k, sign) fails with witnesses [kind, face witness, key]
    a3_file = tmp_path / "a3.json"
    a3_file.write_text(json.dumps({"rank": 3, "B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]}))
    for seed, rank in ((a2_file, 2), (str(a3_file), 3)):
        code, payload = run(tmp_path, "verify", "--seed", seed, "--suite", "mutation",
                            "--order", "4", "--corrupt")
        assert code == 1 and not payload["passed"], seed
        assert len(payload["failures"]) == 2 * rank, seed
        for failure in payload["failures"]:
            for kind, m, key in failure["witnesses"]:
                assert isinstance(kind, str) and len(m) == len(key) == rank


def test_verify_pentagon_suite(tmp_path, a2_file):
    code, payload = run(tmp_path, "verify", "--seed", a2_file,
                        "--suite", "pentagon", "--order", "6", "--depth", "4")
    assert code == 0 and payload["passed"]
    assert sorted(len(s) for s in payload["sequences"]) == [2, 3]


def test_verify_pentagon_corrupt_fails(tmp_path, a2_file):
    # negative control: the last series times exp(x^(1,...,1)) in its
    # convention no longer equals the others
    a3_file = tmp_path / "a3.json"
    a3_file.write_text(json.dumps({"rank": 3, "B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]}))
    for seed, order, depth in ((a2_file, 6, 4), (str(a3_file), 4, 5)):
        for conv in ("quantum", "classical", "dt"):
            argv = ["verify", "--seed", seed, "--suite", "pentagon", "--order",
                    str(order), "--depth", str(depth), "--convention", conv]
            code, payload = run(tmp_path, *argv)
            assert code == 0 and payload["passed"], (seed, conv)
            code, payload = run(tmp_path, *argv, "--corrupt")
            assert code == 1 and not payload["passed"], (seed, conv)
            assert payload["failures"] == ["series differ between sequences"]


def test_verify_unknown_suite(tmp_path, a2_file):
    code = main(["verify", "--seed", a2_file, "--suite", "nope"])
    assert code == 2


def test_invalid_inputs(tmp_path, a2_file):
    assert main(["scatter", "--seed", a2_file, "--order", "0"]) == 2
    assert main(["reps", "--seed", a2_file, "--m", "0,1", "--primes", "4"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 2, "B": [[0, 1], [1, 0]]}))
    assert main(["scatter", "--seed", str(bad), "--order", "2"]) == 2
    # the counting element of a quiver with an oriented cycle would count
    # matrix tuples that are not nilpotent
    cyc = tmp_path / "cyc.json"
    cyc.write_text(json.dumps({"rank": 3, "B": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]}))
    for seed, m in ((a2_file, "1"), (a2_file, "1,0,5"), (a2_file, "1/0,1"),
                    (str(cyc), "1,0,-1")):
        assert main(["reps", "--seed", seed, "--m", m, "--order", "4",
                     "--primes", "2"]) == 2
    for suite in ("mutation", "psi-roundtrip"):
        for trials in ("-1", "0"):
            assert main(["verify", "--seed", a2_file, "--suite", suite,
                         "--order", "2", "--trials", trials]) == 2
    # a 3-cycle with its potential, then the same with one key broken
    qp = {"seed": {"rank": 3, "B": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]},
          "quiver": {"vertices": 3,
                     "arrows": [{"name": "a", "source": 1, "target": 2},
                                {"name": "b", "source": 2, "target": 3},
                                {"name": "c", "source": 3, "target": 1}]},
          "potential": [{"word": ["a", "b", "c"], "coeff": "1"}]}
    bad.write_text(json.dumps(qp))
    assert main(["mutate", "--seed", str(bad), "--vertex", "1"]) == 0
    for vertex in ("0", "4"):
        assert main(["mutate", "--seed", str(bad), "--vertex", vertex]) == 2
    no_target = json.loads(json.dumps(qp))
    del no_target["quiver"]["arrows"][2]["target"]
    unknown_arrow = json.loads(json.dumps(qp))
    unknown_arrow["potential"][0]["word"] = ["a", "b", "z"]
    no_coeff = json.loads(json.dumps(qp))
    del no_coeff["potential"][0]["coeff"]

    def edited(change):
        data = json.loads(json.dumps(qp))
        change(data)
        return data

    # a value of the wrong JSON type, each of which was a TypeError traceback
    wrong_types = [
        edited(lambda d: d.update(seed=5)),
        edited(lambda d: d.update(quiver=5)),
        edited(lambda d: d.update(potential=5)),
        edited(lambda d: d["quiver"]["arrows"].append(5)),
        edited(lambda d: d["potential"].append(5)),
        edited(lambda d: d["quiver"].update(vertices="3")),
        edited(lambda d: d["potential"][0].update(coeff=[1])),
        edited(lambda d: d.update(cap="x")),
        edited(lambda d: d["potential"][0].update(coeff="1/0")),
        edited(lambda d: d["quiver"]["arrows"][0].update(source=True)),
    ]
    for data in ({"rank": 2, "B": [[0, 1.5], [-1.5, 0]]},
                 {"rank": 2, "B": [[0, True], [-1, 0]]},
                 {"rank": 2, "B": [1, 2]},
                 {"rank": 2}, 5, [[0, 1], [-1, 0]],
                 {"rank": True, "B": [[0]]}, {"rank": 2.0, "B": [[0, 1], [-1, 0]]},
                 {"potential": []}, no_target, unknown_arrow, no_coeff,
                 *wrong_types):
        bad.write_text(json.dumps(data))
        assert main(["scatter", "--seed", str(bad), "--order", "2"]) == 2
        assert main(["mutate", "--seed", str(bad), "--vertex", "1"]) == 2


def test_flags_a_command_does_not_read_exit_2(tmp_path, a2_file):
    assert main(["scatter", "--seed", a2_file, "--depth", "5"]) == 2
    assert main(["scatter", "--seed", a2_file, "--primes", "4"]) == 2
    assert main(["mutate", "--seed", a2_file, "--vertex", "1", "--order", "0"]) == 2
    assert main(["g2r", "--seed", a2_file, "--depth", "-1"]) == 2
    assert main(["dt", "--seed", a2_file, "--order", "x"]) == 2


def test_corrupt_below_the_seed_rank_exits_2(tmp_path, a2_file):
    # every suite's negative control is x^(1,...,1), truncated away below
    # the seed rank
    for suite in sorted(cli.SUITES):
        code, payload = run(tmp_path, "verify", "--seed", a2_file, "--suite", suite,
                            "--order", "1", "--corrupt")
        assert code == 2 and payload is None, suite


def _args_read(func):
    tree = ast.parse(inspect.getsource(func))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def test_every_flag_is_read_by_its_handler():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name, parser in commands.items():
        handlers = [parser.get_default("func")]
        if name == "verify":
            handlers += cli.SUITES.values()
        flags = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
        assert flags == set().union(*map(_args_read, handlers)), name


def test_large_prime_is_accepted_quickly(tmp_path, a2_file):
    # primality is checked by Miller-Rabin, not by trial division
    start = time.perf_counter()
    code, payload = run(tmp_path, "reps", "--seed", a2_file, "--m", "1,0",
                        "--order", "1", "--primes", "1000000007")
    assert code == 0 and payload["primes"] == [1000000007]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("p, code", [(2 ** 61 - 1, 0), (998244353 * 1000000007, 2)],
                         ids=["mersenne-61", "semiprime"])
def test_primes_near_2_61_are_decided_quickly(tmp_path, a2_file, p, code):
    # trial division up to sqrt(p) ran for over 10 s on each
    start = time.perf_counter()
    assert run(tmp_path, "reps", "--seed", a2_file, "--m", "1,0", "--order", "1",
               "--primes", str(p))[0] == code
    assert time.perf_counter() - start < 1


def test_primality_matches_trial_division(a2_file, capsys):
    for p in range(2, 10 ** 4):
        assert cli._is_prime(p) == all(p % q for q in range(2, int(p ** 0.5) + 1)), p
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    assert not cli._is_prime(3215031751) and not cli._is_prime(3825123056546413051)
    # 399165290221 * 798330580441 is the least strong pseudoprime to the
    # twelve prime bases 2..37; base 41 is a witness
    assert not cli._is_prime(399165290221 * 798330580441)
    assert main(["reps", "--seed", a2_file, "--m", "1,0", "--primes",
                 str(399165290221 * 798330580441)]) == 2
    assert "not a prime" in capsys.readouterr().err
    # the bound is the least strong pseudoprime to all thirteen bases, so the
    # test cannot decide it and the CLI refuses it and everything above
    assert cli._is_prime(cli._MR_BOUND)
    for p in (cli._MR_BOUND, cli._MR_BOUND + 2):
        assert main(["reps", "--seed", a2_file, "--m", "1,0", "--primes", str(p)]) == 2
        assert "must be below" in capsys.readouterr().err


def test_a_rank_0_seed_exits_2(tmp_path, capsys):
    # a rank-0 seed left `verify` checking nothing with exit 0, `scatter`
    # printing an empty diagram and `reps` failing inside itertools
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"B": []}))
    argvs = [("scatter",), ("mutate", "--vertex", "1"), ("g2r",), ("dt",),
             ("reps", "--m", "1")] + [("verify", "--suite", s) for s in sorted(cli.SUITES)]
    assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
    for argv in argvs:
        code, payload = run(tmp_path, argv[0], "--seed", str(empty), *argv[1:])
        assert (code, payload) == (2, None), argv
        assert "rank >= 1" in capsys.readouterr().err, argv


def test_reps_reads_a_piped_seed(a2_file):
    # a seed on a pipe can be read only once
    src = str(Path(scatdiag.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "scatdiag.cli", "reps", "--seed", "/dev/stdin",
         "--m", "1,0", "--order", "1", "--primes", "2"],
        input=Path(a2_file).read_text(), capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "reps"


def test_verify_psi_roundtrip_counts_checked_trials(tmp_path, a2_file):
    # at order 1 every drawn initial datum is empty, so nothing is checked
    code, payload = run(tmp_path, "verify", "--seed", a2_file, "--suite",
                        "psi-roundtrip", "--order", "1", "--random-seed", "2024")
    assert code == 1 and payload["trials"] == 0 and not payload["passed"]
    code, payload = run(tmp_path, "verify", "--seed", a2_file, "--suite",
                        "psi-roundtrip", "--order", "2", "--random-seed", "2024")
    assert code == 0 and payload["trials"] == 7 and payload["passed"]
