"""Byte-for-byte CLI output pinned across commits.

The files under tests/golden/ hold the `scatter` and `dt` JSON written by
an earlier build; any change to the algebra or the factorization that
moves a single character of the output fails here.  To regenerate after
an intended output change, run each case's argv with `--out` pointing at
its golden file.
"""

import json
from pathlib import Path

import pytest

from scatdiag.cli import main

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
