"""The graded principal-value rule: user callables, singular densities,
divergences, tabulated profiles on arrays, and a 30-digit reference."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import stoclim
from stoclim import BathDomainError, BathSpec, TabulatedProfile, pv_lamb_shift


def scalar_only_bath():
    # math.exp and math.expm1 reject arrays: the rule maps them over the nodes
    return BathSpec(
        beta=1.0,
        kernel="quadrature",
        uv_cutoff=30.0,
        lamb_shift=True,
        form_factors=[lambda r: math.exp(-r / 10.0)],
        mode_density=lambda r: 1.0 / math.expm1(r),
    )


# values of the adaptive-quadrature implementation this rule replaced
@pytest.mark.parametrize(
    "omega, branch, want",
    [
        (0.4, "minus", -73.9428396155228),
        (0.4, "plus", -2.6060545829479906),
        (2.0, "minus", -50.98627028458011),
        (2.0, "plus", 9.915243691836093),
        (11.0, "minus", 26.847886793590785),
        (11.0, "plus", 1.6475535238680319),
    ],
)
def test_scalar_only_callables(omega, branch, want):
    got = pv_lamb_shift(scalar_only_bath(), omega, branch=branch)
    assert got == pytest.approx(want, rel=1e-12)


def test_constant_callables_return_scalars():
    # ``lambda r: 1.0`` returns a scalar for an array argument
    bath = BathSpec(
        beta=1.0,
        kernel="quadrature",
        uv_cutoff=30.0,
        lamb_shift=True,
        form_factors=[lambda r: 1.0],
        mode_density=lambda r: 0.25,
    )
    flat = BathSpec(
        beta=1.0,
        kernel="quadrature",
        uv_cutoff=30.0,
        lamb_shift=True,
        mode_density=lambda r: 0.25 + 0.0 * r,
    )
    for branch in ("minus", "plus"):
        got = pv_lamb_shift(bath, 2.0, branch=branch)
        assert got == pytest.approx(pv_lamb_shift(flat, 2.0, branch=branch), rel=1e-14)


@pytest.mark.parametrize(
    "branch, want", [("minus", -673.6462967514948), ("plus", 3.5782901970085277)]
)
def test_integrable_singular_density(branch, want):
    # 4*pi*rho * rho**-1.5 is rho**-1/2 at the origin: integrable
    bath = BathSpec(
        beta=1.0, kernel="quadrature", uv_cutoff=50.0, lamb_shift=True,
        mode_density=lambda r: r**-1.5,
    )
    assert pv_lamb_shift(bath, 1.0, branch=branch) == pytest.approx(want, rel=1e-10)


def test_divergent_integrals_raise():
    thermal = BathSpec(beta=1.0, kernel="quadrature", uv_cutoff=50.0, lamb_shift=True)
    with pytest.raises(BathDomainError, match="frequency 0.0"):
        pv_lamb_shift(thermal, 0.0)
    inverse_square = BathSpec(
        beta=1.0, kernel="quadrature", uv_cutoff=50.0, lamb_shift=True,
        mode_density=lambda r: 1.0 / r**2,
    )
    for branch in ("minus", "plus"):
        with pytest.raises(BathDomainError, match="divergent or not finite"):
            pv_lamb_shift(inverse_square, 1.0, branch=branch)


@pytest.mark.parametrize("complex_values", [False, True])
def test_tabulated_profile_on_arrays(complex_values):
    values = np.array([2.0, 1.0, 2.0, 0.5])
    if complex_values:
        values = values + 1j * np.array([0.0, -0.3, 0.7, 0.1])
    profile = TabulatedProfile(np.array([0.0, 1.0, 2.0, 3.5]), values)
    x = np.array([[-1.0, 0.0, 0.25, 1.0], [1.7, 2.0, 3.5, 9.0]])
    got = profile(x)
    assert got.shape == x.shape
    want = np.array([[profile(v) for v in row] for row in x.tolist()])
    assert np.array_equal(got, want)
    scalar = profile(0.25)
    assert type(scalar) is (complex if complex_values else float)


def run_rates_evolve_and_glauber(tmp_path, report: str) -> list:
    """Run ``rates`` with principal-value shifts, a trajectory of a generic
    17-level system with shifts, and the 12-ring's classical kinetics, one
    after the other in one interpreter; one line per run, its exit code and
    the expression ``report`` over the loaded module names ``mods``."""
    bath = {"beta": 1.0, "kernel": "quadrature", "uv_cutoff": 20.0, "lamb_shift": True}
    doc = {
        "hamiltonian": [[0.0, 0.0, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, 1.9]],
        "couplings": [[[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]],
        "bath": bath,
    }
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(doc))
    rng = np.random.default_rng(17)
    levels = np.cumsum(rng.uniform(0.1, 0.3, 17))
    phase = np.triu(np.exp(2j * np.pi * rng.uniform(size=(17, 17))), 1)
    coupling = (phase + phase.conj().T) * (0.3 / 17)
    generic = {
        "hamiltonian": np.diag(levels).tolist(),
        "couplings": [[[[z.real, z.imag] for z in row] for row in coupling]],
        "bath": bath,
    }
    generic_cfg = tmp_path / "generic.json"
    generic_cfg.write_text(json.dumps(generic))
    runs = [
        ["rates", "--config", str(cfg), "--out", str(tmp_path / "r.csv")],
        ["evolve", "--config", str(generic_cfg), "--initial", "0", "--t-max", "2", "--points", "20",
         "--out", str(tmp_path / "e.csv")],
        ["glauber", "--sites", "12", "--boundary", "periodic", "--beta", "1", "--out", str(tmp_path / "g.csv")],
    ]
    src = os.path.dirname(os.path.dirname(stoclim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys; from stoclim import cli\n"
        f"for argv in {runs!r}:\n"
        "    code = cli.main(argv)\n"
        "    mods = sys.modules\n"
        f"    print(code, {report})"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    # a header and the seven Bohr frequencies of three generic levels
    assert (tmp_path / "r.csv").read_text().count("\n") == 8
    # a header and one row per time
    assert (tmp_path / "e.csv").read_text().count("\n") == 21
    assert (tmp_path / "g.csv").read_text().count("\n") == 101
    return out.splitlines()


def test_rates_with_shifts_leaves_quadrature_unloaded(tmp_path):
    # no scipy module at all after any of the three runs
    report = "sorted(m for m in mods if m.split('.')[0] == 'scipy')"
    assert run_rates_evolve_and_glauber(tmp_path, report) == ["0 []"] * 3


def test_rates_evolve_and_glauber_leave_masked_arrays_unloaded(tmp_path):
    # a plain np.unique imports numpy.ma to rule out a masked array
    report = "'numpy.ma' in mods"
    assert run_rates_evolve_and_glauber(tmp_path, report) == ["0 False"] * 3


def test_check_suites_and_generator_export_leave_scipy_unloaded(tmp_path):
    # no scipy module after every check suite, the detailed-balance suite with
    # an injected fault and on an explicit system (through the population
    # block), and the generator export without its dense file, one after the
    # other in one interpreter
    doc = {
        "hamiltonian": [[0.0, 0.0, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, 1.9]],
        "couplings": [[[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]],
        "bath": {"beta": 1.0, "kernel": "quadrature", "uv_cutoff": 20.0, "lamb_shift": True},
    }
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(doc))
    suites = ["detailed-balance", "leibniz", "positivity", "scaling", "coherence-control"]
    runs = [["check", "--suite", suite, "--out", str(tmp_path / f"{suite}.json")] for suite in suites]
    runs += [
        ["check", "--suite", "detailed-balance", "--corrupt-rate", "0,1,2", "--out", str(tmp_path / "fault.json")],
        ["check", "--suite", "detailed-balance", "--config", str(cfg), "--out", str(tmp_path / "db.json")],
        ["generator", "--config", str(cfg), "--out", str(tmp_path / "gen.json")],
    ]
    src = os.path.dirname(os.path.dirname(stoclim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys; from stoclim import cli\n"
        f"for argv in {runs!r}:\n"
        "    code = cli.main(argv)\n"
        "    print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    # the injected fault fails its suite
    assert out.splitlines() == ["0 []"] * 5 + ["1 []", "0 []", "0 []"]
    assert json.loads((tmp_path / "fault.json").read_text())["injected_fault"] == [0, 1, 2.0]
    assert json.loads((tmp_path / "db.json").read_text())["passed"] is True
    assert json.loads((tmp_path / "gen.json").read_text())["dim"] == 3


def test_thermal_shifts_against_mpmath():
    mp = pytest.importorskip("mpmath")
    beta, cutoff = 1.0, 50.0
    bath = BathSpec(beta=beta, kernel="quadrature", uv_cutoff=cutoff, lamb_shift=True)
    omegas = [0.01, 0.7, 3.0, 17.0, 45.0]
    for branch, spont in (("minus", 1), ("plus", 0)):

        def f(x):
            # j(rho) * W(rho), with its finite limit at rho = 0
            if x == 0:
                return 4 * mp.pi / beta
            return 4 * mp.pi * x * (1 / mp.expm1(beta * x) + spont)

        want = []
        with mp.workdps(30):
            for omega in omegas:
                # 30-digit pole subtraction: P int f/(x-c) = int (f-f(c))/(x-c) + f(c) log
                c = mp.mpf(omega)
                fc = f(c)
                q = lambda x: (f(x) - fc) / (x - c) if x != c else 0
                want.append(-(mp.quad(q, [0, c, cutoff]) + fc * mp.log((cutoff - c) / c)))
        scale = max(abs(w) for w in want)
        for omega, w in zip(omegas, want):
            err = abs(pv_lamb_shift(bath, omega, branch=branch) - float(w)) / float(scale)
            assert err <= 1e-12, (branch, omega, err)


def test_nonfinite_density_is_a_named_error():
    # NaN cells never pass the check; the refinement cap names the interval
    bath = BathSpec(
        beta=1.0, kernel="quadrature", uv_cutoff=20.0, lamb_shift=True,
        mode_density=lambda r: np.where(r > 5.0, np.nan, 0.5),
    )
    with pytest.raises(BathDomainError, match=r"frequency 1.0: integrand divergent or not finite"):
        pv_lamb_shift(bath, 1.0)
