"""NaN and infinities in every numeric config field, through the CLI in process.

The contract at the input boundary: each run exits 0, 2 or 3; exit 2 names
the field; nothing reaches stderr as a traceback or a numpy warning.  JSON's
``NaN``, ``Infinity`` and ``-Infinity`` tokens are ones ``json.load``
accepts, and ``json.dump`` writes them for float NaN and infinities.
"""

import copy
import json
import math
import warnings

import numpy as np
import pytest

from stoclim import BathConfigurationError, BathSpec, SpinChainSpec, cli, spectral_decompose
from stoclim.operators import validate_hermitian

HAMILTONIAN = {
    "hamiltonian": [[0.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 2.3]],
    "couplings": [[[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]]],
    "cluster_tol": 1e-9,
    "bath": {
        "beta": 1.0,
        "kernel": "quadrature",
        "uv_cutoff": 20.0,
        "lamb_shift": True,
        "filter": {"omega_max": 10.0},
    },
    "run": {"t_max": 1.0, "points": 5},
}
SPIN = {
    "spin": {"sites": 4, "J": 1.0, "boundary": "periodic"},
    "bath": {"beta": 1.0},
    "run": {"t_max": 1.0, "points": 5},
}
# each system's commands: evolve from the Gibbs state reads beta through the
# thermal state as well as through the reservoir
SYSTEMS = {
    "hamiltonian": (HAMILTONIAN, (["evolve", "--initial", "gibbs"], ["generator"])),
    "spin": (SPIN, (["glauber"], ["glauber", "--mode", "quantum"])),
}


def at(*path):
    def put(doc, value):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return put


def last_bond(doc, value):
    doc["spin"]["J"] = [1.0, 1.0, 1.0, value]


# (case, system, where the value goes, the name exit 2 gives)
FIELDS = [
    ("beta", "hamiltonian", at("bath", "beta"), "bath: beta"),
    ("cluster_tol", "hamiltonian", at("cluster_tol"), "cluster_tol: "),
    ("uv_cutoff", "hamiltonian", at("bath", "uv_cutoff"), "bath.uv_cutoff: "),
    ("omega_max", "hamiltonian", at("bath", "filter", "omega_max"), "bath.filter.omega_max: "),
    ("hamiltonian", "hamiltonian", at("hamiltonian", 2, 2), "hamiltonian: "),
    ("hamiltonian_offdiagonal", "hamiltonian", at("hamiltonian", 0, 1), "hamiltonian: "),
    ("couplings", "hamiltonian", at("couplings", 0, 0, 1), "couplings[0]: "),
    ("t_max", "hamiltonian", at("run", "t_max"), "run.t_max: "),
    ("points", "hamiltonian", at("run", "points"), "run.points: "),
    ("J", "spin", at("spin", "J"), "spin: "),
    ("J_list", "spin", last_bond, "spin: "),
    ("spin_beta", "spin", at("bath", "beta"), "bath: beta"),
]
VALUES = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def run(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, capsys.readouterr()


@pytest.mark.parametrize("value", sorted(VALUES))
@pytest.mark.parametrize("case,system,put,name", FIELDS, ids=[f[0] for f in FIELDS])
def test_non_finite_field_is_refused_by_name_or_runs_clean(
    case, system, put, name, value, tmp_path, capsys
):
    base, commands = SYSTEMS[system]
    doc = copy.deepcopy(base)
    put(doc, VALUES[value])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert "Infinity" in path.read_text() or "NaN" in path.read_text()
    for command in commands:
        code, out = run([*command, "--config", str(path)], capsys)
        assert "Traceback" not in out.err and "Warning" not in out.err
        # beta = inf is the zero-temperature reservoir, a valid input
        if case in ("beta", "spin_beta") and value == "inf":
            assert (code, out.err) == (0, "")
            assert "nan" not in out.out
        else:
            assert code == 2
            assert out.err.startswith(f"config error: {name}")


@pytest.mark.parametrize("value", sorted(VALUES))
def test_library_boundary_refuses_non_finite_values_by_name(value):
    bad = VALUES[value]
    with pytest.raises(ValueError, match=r"matrix entry \(1, 1\) is .*must be finite"):
        spectral_decompose(np.diag([0.0, bad]))
    with pytest.raises(ValueError, match=r"matrix entry \(0, 1\)"):
        validate_hermitian(np.array([[0.0, bad], [bad, 1.0]]))
    with pytest.raises(ValueError, match="cluster_tol must be finite"):
        spectral_decompose(np.diag([0.0, 1.0]), cluster_tol=bad)
    with pytest.raises(BathConfigurationError, match="uv_cutoff must be positive and finite"):
        BathSpec(beta=1.0, uv_cutoff=bad)
    with pytest.raises(ValueError, match="couplings must be finite"):
        SpinChainSpec(n_sites=3, coupling=bad)
    with pytest.raises(ValueError, match="couplings must be finite"):
        SpinChainSpec(n_sites=3, coupling=[1.0, bad], boundary="open")
    if value == "inf":
        assert BathSpec(beta=1.0, filter_max=bad).filter_max == math.inf
    else:
        with pytest.raises(BathConfigurationError, match="filter_max must be positive"):
            BathSpec(beta=1.0, filter_max=bad)


@pytest.mark.parametrize("bond", [{"a": 1}, "1.0", True, None])
def test_non_numeric_bond_is_refused_by_name(bond, tmp_path, capsys):
    doc = copy.deepcopy(SPIN)
    last_bond(doc, bond)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, out = run(["glauber", "--config", str(path)], capsys)
    assert code == 2
    assert out.err.startswith("config error: spin.J: expected a number or a list of numbers")
