"""Byte-for-byte CLI output pinned across commits.

The files under tests/golden/ hold the `scatter` and `dt` JSON written by
an earlier build; any change to the algebra or the factorization that
moves a single character of the output fails here.  To regenerate after
an intended output change, run each case's argv with `--out` pointing at
its golden file.  A wider set of `scatter` runs is pinned by the first 16
hex digits of the sha256 of its stdout instead of a file, and so are the
classical DT series along every maximal green sequence of A3 and A2, and
the group elements of four completed DT-twisted diagrams.
"""

import hashlib
import json
from pathlib import Path

import pytest

from scatdiag.chambers import dt_series, enumerate_green_to_red
from scatdiag.cli import main
from scatdiag.lattice import a2_seed, a3_seed, kronecker_seed, markov_seed
from scatdiag.scattering import dt_in_sd
from scatdiag.torus import CLASSICAL

GOLDEN = Path(__file__).parent / "golden"

SEEDS = {
    "a3": {"rank": 3, "B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]},
    "markov": {"rank": 3, "B": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]},
    "a4": {"rank": 4, "B": [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]},
}

CASES = {
    "scatter_a3_quantum_3": ("scatter", "a3", "3", "quantum"),
    "scatter_a3_classical_3": ("scatter", "a3", "3", "classical"),
    "scatter_a3_dt_3": ("scatter", "a3", "3", "dt"),
    "scatter_markov_quantum_2": ("scatter", "markov", "2", "quantum"),
    "scatter_markov_quantum_3": ("scatter", "markov", "3", "quantum"),
    "scatter_a4_quantum_2": ("scatter", "a4", "2", "quantum"),
    "dt_a3_classical_4": ("dt", "a3", "4", "classical"),
    "dt_a3_dt_4": ("dt", "a3", "4", "dt"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(tmp_path, name):
    command, seed, order, convention = CASES[name]
    seed_file = tmp_path / ("%s.json" % seed)
    seed_file.write_text(json.dumps(SEEDS[seed]))
    out = tmp_path / "out.json"
    code = main([command, "--seed", str(seed_file), "--order", order,
                 "--convention", convention, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / ("%s.json" % name)).read_bytes()


A2 = [[0, 1], [-1, 0]]
A3 = SEEDS["a3"]["B"]
A4 = SEEDS["a4"]["B"]
MARKOV = SEEDS["markov"]["B"]
THREE_CYCLE = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
ACYCLIC3 = [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]
A2_A1 = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
A2_A2 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
D4 = [[0, 1, 0, 0], [-1, 0, -1, -1], [0, 1, 0, 0], [0, 1, 0, 0]]


def kronecker(m):
    return [[0, m], [-m, 0]]


def zero(n):
    return [[0] * n for _ in range(n)]


# (B, order, convention, sha256 prefix of `scatter` stdout)
SCATTER_HASHES = {
    "a2-6-quantum": (A2, 6, "quantum", "dbc111faf7d64249"),
    "a2-6-classical": (A2, 6, "classical", "fe62268e10cbef69"),
    "a2-6-dt": (A2, 6, "dt", "eae9e2d9613f53e3"),
    "kronecker2-5-quantum": (kronecker(2), 5, "quantum", "3cd9a4991505478d"),
    "kronecker2-5-classical": (kronecker(2), 5, "classical", "d1f8e6d0934b80ca"),
    "kronecker3-4-quantum": (kronecker(3), 4, "quantum", "f368e58c65302444"),
    "a3-5-quantum": (A3, 5, "quantum", "76fb6717e7a2c50f"),
    "a3-5-classical": (A3, 5, "classical", "db06bb12ec3cee31"),
    "a3-4-classical": (A3, 4, "classical", "432ad2d377a6bdc3"),
    "a3-4-dt": (A3, 4, "dt", "4ac33c6f23416864"),
    "markov-3-quantum": (MARKOV, 3, "quantum", "46db7e299254ed19"),
    "markov-3-classical": (MARKOV, 3, "classical", "c1b38b960079b8f1"),
    "markov-3-dt": (MARKOV, 3, "dt", "d7e657d9642f6557"),
    "markov-4-quantum": (MARKOV, 4, "quantum", "9640245f63636758"),
    "3-cycle-3-quantum": (THREE_CYCLE, 3, "quantum", "28e33af100ba714c"),
    "3-cycle-3-classical": (THREE_CYCLE, 3, "classical", "dea3659018d9b508"),
    "3-cycle-3-dt": (THREE_CYCLE, 3, "dt", "bd3a3cdce405b1dc"),
    "acyclic3-4-quantum": (ACYCLIC3, 4, "quantum", "d327670e3befa2d6"),
    "zero3-3-quantum": (zero(3), 3, "quantum", "f9cb9fbad8794f9a"),
    "a2+a1-4-quantum": (A2_A1, 4, "quantum", "25dcefcaf78c8344"),
    "a2+a1-4-classical": (A2_A1, 4, "classical", "f5a9a51380069027"),
    "rank1-4-quantum": (zero(1), 4, "quantum", "822a6f769a4a4da6"),
    "a4-2-quantum": (A4, 2, "quantum", "11d8fd2b3bdc7c5c"),
    "a4-2-classical": (A4, 2, "classical", "c151e9c2ed6588e2"),
    "a4-2-dt": (A4, 2, "dt", "f1a55f646413e2f4"),
    "a4-3-quantum": (A4, 3, "quantum", "9e73f5b9db544af7"),
    "a4-4-quantum": (A4, 4, "quantum", "f02ee7c1465c6405"),
    "a2+a2-2-quantum": (A2_A2, 2, "quantum", "60eee713238289a8"),
    "a2+a2-3-quantum": (A2_A2, 3, "quantum", "48f3862e2574f2c3"),
    "d4-2-quantum": (D4, 2, "quantum", "9095761140958f66"),
    "d4-2-classical": (D4, 2, "classical", "f6102d7e664375b4"),
    "d4-4-quantum": (D4, 4, "quantum", "5e1069828b1e392e"),
    "zero4-2-quantum": (zero(4), 2, "quantum", "1ed8573c8465949d"),
}


@pytest.mark.parametrize("name", list(SCATTER_HASHES))
def test_scatter_stdout_hash(tmp_path, capsys, name):
    b, order, convention, prefix = SCATTER_HASHES[name]
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps({"rank": len(b), "B": b}))
    code = main(["scatter", "--seed", str(seed_file), "--order", str(order),
                 "--convention", convention])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix


# (B, covector, order, primes, sha256 prefix of `reps` stdout)
REPS_HASHES = {
    "kronecker2-1,-1-10": (kronecker(2), "1,-1", 10, "2 3 5 7", "1af34abb5a1ca732"),
    "kronecker2-1,-1-10-p235": (kronecker(2), "1,-1", 10, "2 3 5", "623ee8b624894afc"),
    "kronecker2-2,-1-8": (kronecker(2), "2,-1", 8, "2 3 5 7", "e0f495264d5568fe"),
    "kronecker2-1,0-8": (kronecker(2), "1,0", 8, "2 3 5 7", "87954d97e506301f"),
    "kronecker2--1,2-6": (kronecker(2), "-1,2", 6, "2 3 5 7", "90cd9392612054dc"),
    "kronecker3-1,-1-6": (kronecker(3), "1,-1", 6, "2 3 5 7", "097034c8a728c792"),
    "a2-0,1-6": (A2, "0,1", 6, "2 3 5 7", "c567adcb8163e411"),
    "a2-2,1-5": (A2, "2,1", 5, "2 3 5 7", "e67f6966c68bea10"),
    "a3-1,-1,1-5": (A3, "1,-1,1", 5, "2 3 5 7", "63d61d7013967793"),
    "a3-1,0,-1-5": (A3, "1,0,-1", 5, "2 3 5 7", "322bc5f0747b243c"),
    "a3-1/2,-1,3-4": (A3, "1/2,-1,3", 4, "2 3 5 7", "44719fc1a4f08dee"),
}


@pytest.mark.parametrize("name", list(REPS_HASHES))
def test_reps_stdout_hash(tmp_path, capsys, name):
    b, m, order, primes, prefix = REPS_HASHES[name]
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps({"rank": len(b), "B": b}))
    code = main(["reps", "--seed", str(seed_file), "--m=" + m, "--order", str(order),
                 "--primes", *primes.split()])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix


# (seed, sequence) -> sha256 prefix of the JSON of the classical DT series
# along that maximal green sequence: A3 at order 5, A2 at order 8.  The
# series does not depend on the sequence, so each seed has one hash.
DT_SERIES_HASHES = {
    ("a3", (1, 2, 3)): "3b8c9d39837f407e",
    ("a3", (1, 3, 2, 3)): "3b8c9d39837f407e",
    ("a3", (2, 1, 2, 3)): "3b8c9d39837f407e",
    ("a3", (2, 1, 3, 2)): "3b8c9d39837f407e",
    ("a3", (3, 1, 2, 3)): "3b8c9d39837f407e",
    ("a3", (2, 3, 1, 3, 2)): "3b8c9d39837f407e",
    ("a3", (3, 2, 1, 2, 3)): "3b8c9d39837f407e",
    ("a3", (3, 2, 1, 3, 2, 3)): "3b8c9d39837f407e",
    ("a3", (3, 2, 3, 1, 2, 3)): "3b8c9d39837f407e",
    ("a2", (1, 2)): "17fd0ad3c2c1dac6",
    ("a2", (2, 1, 2)): "17fd0ad3c2c1dac6",
}
DT_SERIES_SEEDS = {"a3": (a3_seed, 5, 7), "a2": (a2_seed, 8, 4)}


@pytest.mark.parametrize("name", sorted(DT_SERIES_SEEDS))
def test_classical_dt_series_hash(name):
    make, order, depth = DT_SERIES_SEEDS[name]
    seed = make()
    sequences = enumerate_green_to_red(seed, depth)
    assert sorted(sequences) == sorted(s for n, s in DT_SERIES_HASHES if n == name)
    for s in sequences:
        text = json.dumps(dt_series(seed, s, order, CLASSICAL).serialize())
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
            DT_SERIES_HASHES[name, s], s


# (seed, order) -> sha256 prefix of the JSON of the group element of the
# completed DT-twisted diagram, pinned before that diagram was carried in
# the quantum torus through v -> -v
DT_DIAGRAM_HASHES = {
    "a2": (a2_seed, 7, "dd312e3f4b4b3a67"),
    "a3": (a3_seed, 5, "50f6e09cbe851b0b"),
    "markov": (markov_seed, 5, "f26948862b777e62"),
    "kronecker3": (lambda: kronecker_seed(3), 6, "62325e963f25629b"),
}


@pytest.mark.parametrize("name", list(DT_DIAGRAM_HASHES))
def test_dt_diagram_group_element_hash(name):
    make, order, prefix = DT_DIAGRAM_HASHES[name]
    text = json.dumps(dt_in_sd(make(), order).group_element().serialize(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == prefix
