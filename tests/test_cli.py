"""End-to-end command-line checks through the installed entry point."""

import json
import math
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

CLI = shutil.which("stoclim")


def run_cli(*args, cwd=None):
    if CLI is not None:
        cmd = [CLI, *args]
    else:
        cmd = [sys.executable, "-m", "stoclim.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def two_level_doc(**bath):
    merged = {"beta": 1.0}
    merged.update(bath)
    return {
        "hamiltonian": [[0.0, 0.0], [0.0, 1.0]],
        "couplings": [[[0.0, 1.0], [1.0, 0.0]]],
        "bath": merged,
    }


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, np.asarray(rows)


def test_spectrum_two_level(tmp_path):
    cfg = write_config(tmp_path / "sys.json", two_level_doc())
    res = run_cli("spectrum", "--config", cfg)
    assert res.returncode == 0
    assert "2 levels" in res.stdout
    assert "generic: yes" in res.stdout


def test_spectrum_flags_ring_degeneracy(tmp_path):
    cfg = write_config(
        tmp_path / "ring.json",
        {"spin": {"sites": 3, "J": 1.0, "boundary": "periodic"}, "bath": {"beta": 1.0}},
    )
    res = run_cli("spectrum", "--config", cfg)
    assert res.returncode == 0
    assert "generic: no" in res.stdout
    assert "degenerate" in res.stdout


def test_spectrum_missing_system_block(tmp_path):
    cfg = write_config(tmp_path / "bad.json", {"bath": {"beta": 1.0}})
    res = run_cli("spectrum", "--config", cfg)
    assert res.returncode == 2
    combined = res.stdout + res.stderr
    assert "hamiltonian" in combined


def test_rates_table(tmp_path):
    cfg = write_config(tmp_path / "sys.json", two_level_doc())
    res = run_cli("rates", "--config", cfg)
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert header[0] == "omega"
    by_omega = {row[0]: row for row in rows}
    want_minus = 4.0 * math.pi**2 * math.e / (math.e - 1.0)
    want_plus = 4.0 * math.pi**2 / (math.e - 1.0)
    assert by_omega[1.0][header.index("re_minus_0_0")] == pytest.approx(
        want_minus, rel=1e-12
    )
    assert by_omega[1.0][header.index("re_plus_0_0")] == pytest.approx(
        want_plus, rel=1e-12
    )
    assert np.all(by_omega[-1.0][1:] == 0.0)
    assert np.all(by_omega[0.0][1:] == 0.0)


def test_rates_dos_convention_switch(tmp_path):
    doc = two_level_doc()
    doc["hamiltonian"] = [[0.0, 0.0], [0.0, 2.0]]
    cfg = write_config(tmp_path / "sys.json", doc)
    base = run_cli("rates", "--config", cfg)
    phys = run_cli("rates", "--config", cfg, "--dos", "physical")
    _, rows_b = parse_csv(base.stdout)
    _, rows_p = parse_csv(phys.stdout)
    row_b = {r[0]: r for r in rows_b}[2.0]
    row_p = {r[0]: r for r in rows_p}[2.0]
    assert row_p[1] == pytest.approx(2.0 * row_b[1], rel=1e-12)


def test_generator_json_and_dense_export(tmp_path):
    cfg = write_config(tmp_path / "sys.json", two_level_doc())
    out = tmp_path / "gen.bin"
    res = run_cli("generator", "--config", cfg, "--dense", str(out), "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["dim"] == 2
    assert doc["energies"] == [0.0, 1.0]
    assert len(doc["channels"]) == 1
    ch = doc["channels"][0]
    assert ch["omega"] == 1.0
    raw = out.read_bytes()
    (side,) = struct.unpack("<Q", raw[:8])
    assert side == 4
    mat = np.frombuffer(raw[8:], dtype="<c16").reshape(side, side)
    # rebuild through the library and compare entrywise
    from stoclim import (
        BathSpec,
        bohr_frequencies,
        build_generator,
        correlation_table,
        spectral_decompose,
    )

    spec = spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
    bohr = bohr_frequencies(spec)
    gen = build_generator(
        spec,
        [np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)],
        correlation_table(BathSpec(beta=1.0), bohr, 1),
        bohr,
    )
    assert np.abs(mat - gen.dense_adjoint).max() == 0.0


def test_evolve_reaches_gibbs(tmp_path):
    cfg = write_config(tmp_path / "sys.json", two_level_doc())
    out = tmp_path / "traj.csv"
    res = run_cli(
        "evolve", "--config", cfg, "--t-max", "2.0", "--points", "9", "--out", str(out)
    )
    assert res.returncode == 0
    header, rows = parse_csv(out.read_text())
    assert header[0] == "t"
    assert len(header) == 1 + 2 * 4
    assert rows.shape == (9, 9)
    p0 = 1.0 / (1.0 + math.exp(-1.0))
    assert rows[-1, header.index("re_0_0")] == pytest.approx(p0, abs=1e-10)
    assert rows[-1, header.index("re_1_1")] == pytest.approx(1.0 - p0, abs=1e-10)
    # default start is the maximally mixed state
    assert rows[0, header.index("re_0_0")] == pytest.approx(0.5)


def test_evolve_initial_state_selection(tmp_path):
    cfg = write_config(tmp_path / "sys.json", two_level_doc())
    res = run_cli(
        "evolve", "--config", cfg, "--t-max", "0.001", "--points", "2",
        "--initial", "1",
    )
    header, rows = parse_csv(res.stdout)
    assert rows[0, header.index("re_1_1")] == pytest.approx(1.0)
    res = run_cli(
        "evolve", "--config", cfg, "--t-max", "1.0", "--points", "3",
        "--initial", "gibbs",
    )
    header, rows = parse_csv(res.stdout)
    p0 = 1.0 / (1.0 + math.exp(-1.0))
    for k in range(rows.shape[0]):
        assert rows[k, header.index("re_0_0")] == pytest.approx(p0, abs=1e-10)


def test_glauber_classical_run(tmp_path):
    out = tmp_path / "gl.csv"
    res = run_cli(
        "glauber", "--sites", "3", "--coupling", "1.0", "--beta", "0.5",
        "--boundary", "periodic", "--mode", "classical",
        "--t-max", "0.01", "--points", "4", "--out", str(out),
    )
    assert res.returncode == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["t", "magnetization", "energy"]
    assert rows[0, 1] == pytest.approx(1.0)
    assert rows[0, 2] == pytest.approx(-3.0)
    # heat flows out of the all-up state
    assert rows[-1, 1] < 1.0
    assert rows[-1, 2] > -3.0


def test_glauber_quantum_matches_classical(tmp_path):
    args = [
        "--sites", "3", "--coupling", "1.0", "--beta", "0.5",
        "--boundary", "periodic", "--t-max", "0.01", "--points", "4",
    ]
    classical = run_cli("glauber", *args, "--mode", "classical")
    quantum = run_cli("glauber", *args, "--mode", "quantum")
    hc, rc = parse_csv(classical.stdout)
    hq, rq = parse_csv(quantum.stdout)
    assert hq == ["t", "magnetization", "energy", "offdiag_l1"]
    assert np.abs(rc[:, 1] - rq[:, 1]).max() < 1e-10
    assert np.abs(rc[:, 2] - rq[:, 2]).max() < 1e-9
    assert np.abs(rq[:, 3]).max() < 1e-12


def test_glauber_from_config(tmp_path):
    cfg = write_config(
        tmp_path / "spin.json",
        {"spin": {"sites": 4, "J": 1.0, "boundary": "open"}, "bath": {"beta": 0.8}},
    )
    res = run_cli(
        "glauber", "--config", cfg, "--t-max", "0.005", "--points", "3"
    )
    assert res.returncode == 0
    header, rows = parse_csv(res.stdout)
    assert rows.shape[0] == 3


def test_glauber_takes_times_from_the_config_run_block(tmp_path):
    cfg = write_config(
        tmp_path / "spin.json",
        {
            "spin": {"sites": 2, "J": 1.0, "boundary": "open"},
            "bath": {"beta": 1.0},
            "run": {"t_max": 1.0, "points": 3},
        },
    )
    res = run_cli("glauber", "--config", cfg)
    assert res.returncode == 0
    _, rows = parse_csv(res.stdout)
    assert rows.shape[0] == 3
    assert rows[-1, 0] == 1.0


def test_check_suites_pass():
    for suite in (
        "detailed-balance",
        "leibniz",
        "positivity",
        "scaling",
        "coherence-control",
    ):
        res = run_cli("check", "--suite", suite)
        assert res.returncode == 0, f"{suite}: {res.stdout} {res.stderr}"
        doc = json.loads(res.stdout)
        assert doc["passed"] is True


def test_check_detects_injected_fault():
    res = run_cli(
        "check", "--suite", "detailed-balance", "--corrupt-rate", "0,1,1.5"
    )
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["passed"] is False
    assert doc["residual"] > 1e-10
    assert "worst_pair" in doc


@pytest.mark.parametrize(
    "spin, beta, pair",
    [
        ({"sites": 12, "J": 1.0, "boundary": "periodic"}, 1.0, "5,0,0"),
        ({"sites": 8, "J": 0.7, "boundary": "open"}, 0.5, "3,7,2"),
    ],
)
def test_check_refuses_to_corrupt_a_zero_rate(tmp_path, spin, beta, pair):
    # scaling a zero rate injects no fault, so the fixture must not report one
    cfg = write_config(tmp_path / "ring.json", {"spin": spin, "bath": {"beta": beta}})
    res = run_cli("check", "--suite", "detailed-balance", "--config", cfg, "--corrupt-rate", pair)
    assert res.returncode == 2
    a, b, _ = pair.split(",")
    assert f"the rate {a} -> {b} is zero" in res.stderr
    assert res.stdout == ""


def test_check_unknown_suite():
    res = run_cli("check", "--suite", "telepathy")
    assert res.returncode == 2


def test_config_rejects_couplings_with_spin_shorthand(tmp_path):
    cfg = write_config(
        tmp_path / "mix.json",
        {
            "spin": {"sites": 3, "J": 1.0},
            "couplings": [[[0.0, 1.0], [1.0, 0.0]]],
            "bath": {"beta": 1.0},
        },
    )
    res = run_cli("spectrum", "--config", cfg)
    assert res.returncode == 2
    assert "couplings" in (res.stdout + res.stderr)


def test_config_rejects_unknown_bath_key(tmp_path):
    doc = two_level_doc(flavor="strawberry")
    cfg = write_config(tmp_path / "sys.json", doc)
    res = run_cli("rates", "--config", cfg)
    assert res.returncode == 2
    assert "bath" in (res.stdout + res.stderr)


def test_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not valid json")
    res = run_cli("spectrum", "--config", str(path))
    assert res.returncode == 2


def test_config_rejects_nonhermitian_coupling(tmp_path):
    doc = two_level_doc()
    doc["couplings"] = [[[0.0, 1.0], [0.0, 0.0]]]
    cfg = write_config(tmp_path / "sys.json", doc)
    res = run_cli("spectrum", "--config", cfg)
    assert res.returncode == 2


def test_negative_mode_density_rejected(tmp_path):
    # a negative occupation makes the absorption rate negative: the
    # generator would not be completely positive
    (tmp_path / "dens.csv").write_text("0,-0.5\n10,-0.5\n")
    cfg = write_config(tmp_path / "sys.json", two_level_doc(mode_density="dens.csv"))
    res = run_cli("generator", "--config", cfg)
    assert res.returncode == 2
    assert "gamma_plus at omega=1.0" in res.stderr
    assert "not completely positive" in res.stderr
    assert res.stdout == ""


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    from stoclim import cli

    def failing_evolve(*args, **kwargs):
        raise RuntimeError("trace drifted to 0.9 at t=1.0; integration accuracy lost")

    monkeypatch.setattr(cli, "evolve", failing_evolve)
    cfg = write_config(tmp_path / "sys.json", two_level_doc())
    assert cli.main(["evolve", "--config", cfg, "--points", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: trace drifted")


def csv_header_with_17_digit_cells(text):
    """Header of a CSV document whose every cell is printed with 17 digits."""
    header, *rows = text.splitlines()
    for row in rows:
        for cell in row.split(","):
            assert cell == format(float(cell), ".17g")
    return header


def test_csv_headers_and_cell_format(tmp_path, capsys):
    from stoclim import cli

    doc = two_level_doc()
    doc["couplings"].append([[0.5, 0.0], [0.0, -0.5]])
    cfg = write_config(tmp_path / "sys.json", doc)
    cases = [
        (
            ["rates", "--config", cfg],
            "omega,re_minus_0_0,im_minus_0_0,re_minus_0_1,im_minus_0_1,"
            "re_minus_1_0,im_minus_1_0,re_minus_1_1,im_minus_1_1,"
            "re_plus_0_0,im_plus_0_0,re_plus_0_1,im_plus_0_1,"
            "re_plus_1_0,im_plus_1_0,re_plus_1_1,im_plus_1_1",
        ),
        (
            ["evolve", "--config", cfg, "--t-max", "1", "--points", "3"],
            "t,re_0_0,im_0_0,re_0_1,im_0_1,re_1_0,im_1_0,re_1_1,im_1_1",
        ),
        (
            ["glauber", "--sites", "3", "--beta", "1", "--t-max", "1", "--points", "3"],
            "t,magnetization,energy",
        ),
        (
            ["glauber", "--sites", "3", "--beta", "1", "--t-max", "1", "--points", "3",
             "--mode", "quantum"],
            "t,magnetization,energy,offdiag_l1",
        ),
    ]
    for argv, header in cases:
        assert cli.main(argv) == 0
        assert csv_header_with_17_digit_cells(capsys.readouterr().out) == header


def test_csv_cells_are_those_of_the_per_cell_formatter(capsys):
    # rows become Python floats once and are formatted in place; every byte
    # must be what _fmt gives cell by cell, numpy scalars and tuples included
    from argparse import Namespace

    from stoclim import cli

    special = [-0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e308, -1.7976931348623157e308,
               -0.1, 1 / 3, 123456789.0, np.inf, -np.inf, 0.0]
    rng = np.random.default_rng(7)
    column_table = np.column_stack([special, -np.asarray(special), rng.standard_normal(len(special))])
    mags, energies = rng.standard_normal(4), rng.standard_normal(4) * 1e-300
    dist = rng.dirichlet(np.ones(4), size=3)
    tuple_table = [(t, mags @ p, energies @ p) for t, p in zip(np.linspace(0.0, 1.0, 3), dist)]
    tuple_table.append((np.float64(-0.0), np.float64(5e-324), 3))
    for table in (column_table, tuple_table, []):
        cli._write_csv(Namespace(out=None), ["a", "b", "c"], table)
        want = "\n".join(["a,b,c"] + [",".join(map(cli._fmt, row)) for row in table]) + "\n"
        assert capsys.readouterr().out == want
