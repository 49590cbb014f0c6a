"""Every subcommand on one explicit-Hamiltonian config and one spin config,
through ``cli.main`` in process with warnings turned into errors: each run
exits 0 and writes nothing to stderr."""

import json
import warnings

import pytest

from stoclim import cli

HAMILTONIAN = {
    "hamiltonian": [[0.0, 0.2, 0.0], [0.2, 0.9, 0.1], [0.0, 0.1, 2.3]],
    "couplings": [[[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]]],
    "cluster_tol": 1e-9,
    "bath": {"beta": 1.0, "uv_cutoff": 20.0, "lamb_shift": True},
    "run": {"t_max": 1.0, "points": 5},
}
SPIN = {
    "spin": {"sites": 3, "J": [1.0, 1.1], "boundary": "open"},
    "bath": {"beta": 1.0},
    "run": {"t_max": 1.0, "points": 5},
}
COMMANDS = [
    ["spectrum"],
    ["spectrum", "--json"],
    ["rates"],
    ["rates", "--json"],
    ["generator"],
    ["evolve"],
    ["evolve", "--initial", "gibbs"],
    ["glauber"],
    ["glauber", "--mode", "quantum"],
    ["check", "--suite", "detailed-balance"],
    ["check", "--suite", "leibniz"],
    ["check", "--suite", "positivity"],
    ["check", "--suite", "scaling"],
]


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("system", ["hamiltonian", "spin"])
def test_every_command_runs_clean(system, command, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"hamiltonian": HAMILTONIAN, "spin": SPIN}[system]))
    if system == "hamiltonian" and command[0] == "glauber":
        command = [*command, "--sites", "3"]  # only a spin config names a chain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([*command, "--config", str(path)])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    assert out.out
