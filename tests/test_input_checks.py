"""Non-finite input is rejected with a named error; tabulated profiles with shifts."""

import json
import math

import numpy as np
import pytest

from stoclim import (
    BathDomainError,
    BathSpec,
    SpinChainSpec,
    bohr_frequencies,
    build_generator,
    classical_glauber_generator,
    correlation_table,
    detailed_balance_residual,
    evolve,
    gibbs_distribution,
    n_scaling_experiment,
    spectral_decompose,
)
from stoclim import cli
from stoclim.evolution import _check_trace, validate_density_matrix


def two_level_config(tmp_path, **bath):
    doc = {
        "hamiltonian": [[0.0, 0.0], [0.0, 1.0]],
        "couplings": [[[0.0, 1.0], [1.0, 0.0]]],
        "bath": {"beta": 1.0, **bath},
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_infinite_mode_density_names_frequency_and_pair():
    spec = spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
    bath = BathSpec(beta=1.0, mode_density=lambda rho: math.inf)
    with pytest.raises(BathDomainError, match=r"coupling pair \(0, 0\) at omega=1.0"):
        correlation_table(bath, bohr_frequencies(spec), 1)


@pytest.mark.parametrize("command", [["generator"], ["evolve", "--points", "3"]])
def test_cli_nan_mode_density_exits_2(tmp_path, capsys, command):
    (tmp_path / "dens.csv").write_text("0,0.5\n5,nan\n10,0.5\n")
    cfg = two_level_config(tmp_path, mode_density="dens.csv")
    code = cli.main([command[0], "--config", cfg, *command[1:]])
    out = capsys.readouterr()
    assert code == 2
    assert "at omega=1.0" in out.err
    assert "must be finite" in out.err
    assert out.out == ""


def test_density_matrix_with_nan_entry_rejected():
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = rho[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        validate_density_matrix(rho)


def ring4():
    cs = SpinChainSpec(n_sites=4, coupling=1.0, boundary="periodic")
    return classical_glauber_generator(cs, BathSpec(beta=1.0))


def test_kinetic_start_of_the_wrong_length_rejected():
    with pytest.raises(ValueError, match=r"start distribution must have shape \(16,\), got \(15,\)"):
        ring4().evolve(np.full(15, 1.0 / 15), [0.0, 1.0])


def test_kinetic_start_with_nan_entries_rejected():
    with pytest.raises(ValueError, match="start distribution has non-finite entries"):
        ring4().evolve(np.full(16, np.nan), [0.0, 1.0])


def test_kinetic_start_with_a_negative_entry_rejected():
    p0 = np.zeros(16)
    p0[0] = -1.0
    with pytest.raises(ValueError, match=r"start distribution has negative entry -1\.000e\+00"):
        ring4().evolve(p0, [0.0, 1.0])


def test_kinetic_start_that_does_not_sum_to_one_rejected():
    cks = ring4()
    p0 = np.zeros(16)
    p0[0] = 2.0
    with pytest.raises(ValueError, match=r"start distribution sums to 2\.0, which differs from 1 by 1\.000e\+00"):
        cks.evolve(p0, [0.0, 1.0])
    # 1e-12 is the tolerance on the sum
    p0[0] = 1.0 + 1e-11
    with pytest.raises(ValueError, match="sums to"):
        cks.evolve(p0, [0.0, 1.0])
    p0[0] = 1.0 + 1e-13
    assert cks.evolve(p0, [0.0, 1.0]).shape == (2, 16)


@pytest.mark.parametrize(
    "dist, message",
    [
        (np.full(17, 1.0 / 17), r"distribution must have shape \(16,\), got \(17,\)"),
        (np.full(15, 1.0 / 15), r"distribution must have shape \(16,\), got \(15,\)"),
        (1.0 / 16, r"distribution must have shape \(16,\), got \(\)"),
        (np.full(16, np.nan), "distribution has non-finite entries"),
    ],
    ids=["long", "short", "scalar", "nan"],
)
def test_detailed_balance_distribution_of_the_wrong_shape_rejected(dist, message):
    # a tail was ignored, a short or scalar one raised a bare IndexError
    with pytest.raises(ValueError, match=message):
        detailed_balance_residual(ring4(), dist)


def test_detailed_balance_distribution_need_not_sum_to_one():
    cks = ring4()
    p = gibbs_distribution(1.0, cks.energies)
    assert detailed_balance_residual(cks, 3.0 * p) <= 1e-12


def test_nan_trace_counts_as_drift():
    samples = np.stack([np.eye(2, dtype=complex) / 2, np.full((2, 2), np.nan, dtype=complex)])
    with pytest.raises(RuntimeError, match=r"trace drifted to nan at t=1\.0;"):
        _check_trace(samples, np.array([0.0, 1.0]))


def pv_reference(numerator, omega, cutoff, h=1e-3):
    """PV of numerator/(x - omega) over (0, cutoff) by singularity subtraction.

    The bounded difference quotient is integrated by the midpoint rule on a
    fine grid with omega on a cell edge, and the subtracted pole integrates
    to a logarithm.
    """
    edges = np.concatenate([np.arange(0.0, omega, h), np.arange(omega, cutoff + h / 2, h)])
    mid = 0.5 * (edges[1:] + edges[:-1])
    f0 = numerator(np.array([omega]))[0]
    quotient = (numerator(mid) - f0) / (mid - omega)
    return np.sum(quotient * np.diff(edges)) + f0 * math.log((cutoff - omega) / omega)


def test_rates_with_tabulated_form_factor_and_shifts(tmp_path, capsys):
    # a piecewise-linear profile has a kink at every node; quadrature that
    # is not told where they are reports roundoff
    nodes = np.linspace(0.0, 60.0, 61)
    (tmp_path / "ff.csv").write_text(
        "".join(f"{x!r},{math.exp(-x / 20.0)!r}\n" for x in nodes.tolist())
    )
    cfg = two_level_config(
        tmp_path,
        kernel="quadrature",
        uv_cutoff=50.0,
        lamb_shift=True,
        form_factors=["ff.csv"],
    )
    assert cli.main(["rates", "--config", cfg, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    k = doc["frequencies"].index(1.0)

    def numerator(x, spont):
        g = np.interp(x, nodes, np.exp(-nodes / 20.0))
        return 4.0 * math.pi * x * g * g * (1.0 / np.expm1(x) + spont)

    for branch, spont in (("minus", 1.0), ("plus", 0.0)):
        want = -pv_reference(lambda x: numerator(x, spont), 1.0, 50.0)
        got = doc[branch][k][0][0][1]
        assert got == pytest.approx(want, rel=1e-6), branch


@pytest.mark.parametrize(
    "times", [[0.0, math.nan], [math.nan], [0.0, 1.0, math.inf], [math.inf]]
)
def test_evolve_rejects_nonfinite_times(times):
    spec = spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
    bohr = bohr_frequencies(spec)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    gen = build_generator(spec, [sx], correlation_table(BathSpec(beta=1.0), bohr, 1), bohr)
    with pytest.raises(ValueError, match="finite"):
        evolve(gen, np.diag([0.5, 0.5]).astype(complex), times)


@pytest.mark.parametrize("t_max", ["nan", "inf"])
@pytest.mark.parametrize("mode", ["quantum", "classical"])
def test_cli_nonfinite_t_max_exits_2(capsys, mode, t_max):
    code = cli.main(
        ["glauber", "--sites", "2", "--beta", "1", "--mode", mode, "--t-max", t_max]
    )
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "need a finite t_max" in out.err


def test_cli_evolve_nonfinite_t_max_exits_2(tmp_path, capsys):
    code = cli.main(["evolve", "--config", two_level_config(tmp_path), "--t-max", "nan"])
    out = capsys.readouterr()
    assert code == 2
    assert "need a finite t_max" in out.err


def config_with_points(tmp_path, points):
    doc = json.loads(open(two_level_config(tmp_path)).read())
    doc["run"] = {"t_max": 1.0, "points": points}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "points", [math.nan, math.inf, -math.inf, 2.7, "20", [20], True, None]
)
def test_cli_rejects_bad_point_counts(tmp_path, capsys, points):
    code = cli.main(["evolve", "--config", config_with_points(tmp_path, points)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "points" in out.err and "expected an integer" in out.err


@pytest.mark.parametrize("points", [20, 20.0])
def test_cli_accepts_integral_point_counts(tmp_path, capsys, points):
    code = cli.main(["evolve", "--config", config_with_points(tmp_path, points)])
    out = capsys.readouterr()
    assert code == 0
    assert len(out.out.strip().splitlines()) == 1 + 20


@pytest.mark.parametrize(
    "field, value",
    [
        ("t_max", [1]),
        ("t_max", True),
        ("t_max", "1"),
        pytest.param("t_max", 10**400, id="t_max-10**400"),
        pytest.param("points", 10**400, id="points-10**400"),
        ("initial", True),
        ("initial", 1.0),
        ("initial", "--1"),
        pytest.param("initial", "\u00b2", id="initial-superscript-two"),
        ("t_mx", 1.0),
    ],
)
def test_cli_rejects_bad_run_fields(tmp_path, capsys, field, value):
    doc = json.loads(open(two_level_config(tmp_path)).read())
    doc["run"] = {"points": 3, field: value}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["evolve", "--config", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert f"run.{field}" in out.err


@pytest.mark.parametrize(
    "fault", ["100,0,2", "0,16,2", "-1,0,2", "0,-3,2", "3,3,2", "0,1,-1", "0,1,nan", "0,1,inf"]
)
def test_cli_rejects_bad_corrupt_rate(capsys, fault):
    # the default detailed-balance system is the 4-ring: 16 configurations
    code = cli.main(["check", "--suite", "detailed-balance", f"--corrupt-rate={fault}"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "--corrupt-rate" in out.err


def test_cli_refuses_a_corrupt_rate_factor_of_one(capsys):
    # scaling a rate by 1 leaves detailed balance as it is
    code = cli.main(["check", "--suite", "detailed-balance", "--corrupt-rate", "0,1,1"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "factor on 0 -> 1 must be finite, >= 0, not 1, got 1.0" in out.err


def test_cli_coherence_control_refuses_a_config(tmp_path, capsys):
    code = cli.main(["check", "--suite", "coherence-control", "--config", two_level_config(tmp_path)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "coherence-control" in out.err and "no --config" in out.err


@pytest.mark.parametrize("fault, injected", [("15,14,0", [15, 14, 0.0]), ("0,1,2.5", [0, 1, 2.5])])
def test_cli_injects_valid_corrupt_rate(capsys, fault, injected):
    code = cli.main(["check", "--suite", "detailed-balance", "--corrupt-rate", fault])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["passed"] is False
    assert doc["injected_fault"] == injected


@pytest.mark.parametrize("sizes", [[3], [3, 3]])
def test_scaling_fit_needs_two_distinct_sizes(sizes):
    with pytest.raises(ValueError, match="two distinct ring sizes"):
        n_scaling_experiment(sizes, BathSpec(beta=1.0))


def test_cli_scaling_with_one_size_exits_2(capsys):
    code = cli.main(["check", "--suite", "scaling", "--sizes", "3,3"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "two distinct ring sizes" in out.err


def test_cli_scaling_refuses_a_bath_with_form_factors(tmp_path, capsys):
    # the suite's rings take one form factor per site, so no list fits them all
    for k in range(3):
        (tmp_path / f"g{k}.csv").write_text("0,1\n10,1\n")
    doc = {
        "spin": {"sites": 3, "J": 1.0, "boundary": "open"},
        "bath": {"beta": 1.0, "form_factors": ["g0.csv", "g1.csv", "g2.csv"]},
    }
    path = tmp_path / "spin.json"
    path.write_text(json.dumps(doc))
    for sizes, named in (([], "2, 3, 4, 5, 6"), (["--sizes", "3,4"], "3, 4")):
        code = cli.main(["check", "--suite", "scaling", *sizes, "--config", str(path)])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err.startswith("config error: --suite scaling ")
        assert f"sizes {named} " in out.err and "3 form factors" in out.err
    del doc["bath"]["form_factors"]
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--suite", "scaling", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--suite", "scaling", "--sizes", "2,x"], "--sizes"),
        (["--suite", "scaling", "--sizes", ""], "--sizes"),
        (["--suite", "leibniz", "--sizes", "2,3"], "--sizes"),
        (["--suite", "detailed-balance", "--sizes", "2,3"], "--sizes"),
        (["--suite", "leibniz", "--corrupt-rate", "0,1,2"], "--corrupt-rate"),
        (["--suite", "scaling", "--corrupt-rate", "0,1,2"], "--corrupt-rate"),
        (["--suite", "detailed-balance", "--corrupt-rate", ""], "--corrupt-rate"),
    ],
)
def test_cli_check_refuses_a_flag_it_would_ignore_or_misread(capsys, args, flag):
    code = cli.main(["check", *args])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("config error: ") and flag in out.err


def dense_detailed_balance(k, p, rows=256):
    """Largest ``|flow - flow.T|`` over the dense matrix, ``flow[b, a] =
    K[b, a] p_a``, and its (from, to) pair, first in row-major (to, from)
    order as ``np.argmax`` finds it; taken a slab of rows at a time."""
    best, pair = -1.0, [0, 0]
    for lo in range(0, k.shape[0], rows):
        flow = k[lo : lo + rows].toarray() * p
        back = k[:, lo : lo + rows].toarray().T * p[lo : lo + rows, np.newaxis]
        gap = np.abs(flow - back)
        b, a = np.unravel_index(int(np.argmax(gap)), gap.shape)
        if gap[b, a] > best:
            best, pair = float(gap[b, a]), [int(a), lo + int(b)]
    return best, pair


@pytest.mark.parametrize("fault", [None, "4095,4094,3", "1,0,0.5"])
def test_detailed_balance_suite_on_12_sites_stays_sparse(tmp_path, capsys, fault):
    # the 12-ring has 4096 configurations: a dense 4096 x 4096 float array
    # alone takes 134 MB
    import tracemalloc

    from stoclim import SpinChainSpec, classical_glauber_generator, gibbs_distribution

    path = tmp_path / "ring.json"
    path.write_text(
        json.dumps({"spin": {"sites": 12, "J": 1.0, "boundary": "periodic"}, "bath": {"beta": 1.0}})
    )
    args = ["check", "--suite", "detailed-balance", "--config", str(path)]
    tracemalloc.start()
    try:
        code = cli.main(args + (["--corrupt-rate", fault] if fault else []))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc = json.loads(capsys.readouterr().out)
    assert peak < 100e6
    cks = classical_glauber_generator(
        SpinChainSpec(n_sites=12, coupling=1.0, boundary="periodic"), BathSpec(beta=1.0)
    )
    k = cks.rate_matrix.tolil()
    if fault:
        a, b, factor = fault.split(",")
        k[int(b), int(a)] *= float(factor)
    residual, pair = dense_detailed_balance(k.tocsr(), gibbs_distribution(1.0, cks.energies))
    assert doc["residual"] == residual and doc["worst_pair"] == pair
    assert code == (0 if fault is None else 1)
