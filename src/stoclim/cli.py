"""Command-line interface.

Subcommands: ``spectrum`` (levels, transition frequencies, genericity),
``rates`` (reservoir constant tables), ``generator`` (structured export
plus optional dense binary), ``evolve`` (trajectory CSV), ``glauber``
(spin-chain kinetics in classical or quantum mode), and ``check``
(invariant suites).  Every config, explicit Hamiltonian or spin shorthand,
goes through one pipeline, :func:`_pipeline` (spectrum, Bohr set, reservoir
table), which ``spectrum``, ``rates``, ``generator``, ``evolve`` and the
``check`` suites read: ``rates`` prints the table the generator is built
from.  Exit codes: 0 success, 1 check failure, 2
configuration error, 3 numerical failure (an integration or null-space
solve that lost accuracy).

All CSV floats are printed with 17 significant digits so round-trips are
lossless; JSON numbers use Python's shortest exact representation.  The
dense generator export is little-endian complex doubles, row-major, with
an 8-byte unsigned dimension header.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import struct
import sys

import numpy as np

from .bath import (
    BathConfigurationError,
    BathDomainError,
    BathSpec,
    correlation_table,
    emission_rate,
)
from .config import ConfigError, RunConfig, _run_initial, _run_points, _run_t_max, load_config
from .evolution import (
    _balance_gap,
    diagonal_restriction,
    evolve,
    gibbs_distribution,
    gibbs_state,
)
from .generator import (
    StructureMapSet,
    build_generator,
    genericity_check,
    leibniz_defect,
)
from .glauber import (
    SpinChainSpec,
    _check_form_factors,
    _site_table,
    classical_glauber_generator,
    configuration_energies,
    configuration_magnetizations,
    n_scaling_experiment,
    quantum_glauber_generator,
)
from .operators import bohr_frequencies, dag

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _cjson(mat: np.ndarray) -> list:
    """Complex matrix as nested [re, im] pairs."""
    arr = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def _write_text(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(args, header: list, table) -> None:
    """CSV with one header line and every cell printed as by :func:`_fmt`."""
    rows = np.asarray(table, dtype=float).tolist()
    lines = [",".join(header)] + [",".join([f"{x:.17g}" for x in row]) for row in rows]
    _write_text(args, "\n".join(lines) + "\n")


def _re_im(labels: list, values) -> tuple[list, np.ndarray]:
    """Interleaved ``re_``/``im_`` header names and columns of complex values.

    ``values`` holds one complex array per row, flattened row-major in the
    order of ``labels``.
    """
    # a C-contiguous complex array read as floats interleaves (re, im)
    columns = np.array(values, dtype=complex).reshape(len(values), -1).view(float)
    return [f"{part}_{label}" for label in labels for part in ("re", "im")], columns


def _load(args) -> RunConfig | None:
    cfg = load_config(args.config) if getattr(args, "config", None) else None
    if cfg is not None and cfg.bath is not None and getattr(args, "dos", None):
        cfg.bath = dataclasses.replace(cfg.bath, dos=args.dos)
    return cfg


def _require_config(args) -> RunConfig:
    cfg = _load(args)
    if cfg is None:
        raise ConfigError("this command needs --config")
    return cfg


def _pipeline(cfg: RunConfig, tabulate: bool = True) -> tuple:
    """A config's spectrum, couplings, Bohr set and reservoir table, the steps
    every command reads (``spectrum`` stops before the table and needs no
    bath).  An explicit system has one shared reservoir; the spin shorthand
    gives each site its own (:func:`~stoclim.glauber._site_table`), the table
    ``glauber --mode quantum`` builds its generator from too."""
    bath = cfg.require_bath() if tabulate else None
    if bath is not None and cfg.spin is not None:
        # before the dense cap, as in quantum_glauber_generator
        _check_form_factors(cfg.spin, bath)
    spec, couplings = cfg.system()
    bohr = bohr_frequencies(spec)
    if bath is None:
        table = None
    elif cfg.spin is not None:
        table = _site_table(cfg.spin, bath, bohr)
    else:
        table = correlation_table(bath, bohr, n_couplings=max(1, len(couplings)))
    return spec, couplings, bohr, table


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(args) -> int:
    spec, _, bohr, _ = _pipeline(_require_config(args), tabulate=False)
    report = genericity_check(spec, bohr)
    if args.json:
        doc = {
            "energies": [float(e) for e in spec.energies],
            "multiplicities": [spec.multiplicity(k) for k in range(spec.n_levels)],
            "frequencies": [float(w) for w in bohr.frequencies],
            "generic": report.is_generic,
            "degenerate_levels": report.degenerate_levels,
            "ambiguous_frequencies": report.ambiguous_frequencies,
        }
        _write_text(args, json.dumps(doc, indent=2) + "\n")
        return 0
    lines = [f"dimension {spec.dim}, {spec.n_levels} levels"]
    for k, e in enumerate(spec.energies):
        lines.append(
            f"  level {k}: energy {_fmt(e)} multiplicity {spec.multiplicity(k)}"
        )
    lines.append(
        "frequencies: " + " ".join(_fmt(w) for w in bohr.frequencies)
    )
    if report.is_generic:
        lines.append("generic: yes")
    else:
        lines.append(
            "generic: no "
            f"(degenerate levels: {report.degenerate_levels}, "
            f"ambiguous frequencies: {report.ambiguous_frequencies})"
        )
    _write_text(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# rates


def cmd_rates(args) -> int:
    table = _pipeline(_require_config(args))[3]
    n = table.minus.shape[1]
    if args.json:
        doc = {
            "frequencies": [float(w) for w in table.frequencies],
            "minus": [_cjson(m) for m in table.minus],
            "plus": [_cjson(p) for p in table.plus],
        }
        _write_text(args, json.dumps(doc, indent=2) + "\n")
        return 0
    labels = [
        f"{name}_{i}_{j}" for name in ("minus", "plus") for i in range(n) for j in range(n)
    ]
    header, columns = _re_im(labels, np.concatenate([table.minus, table.plus], axis=1))
    _write_csv(args, ["omega", *header], np.column_stack([table.frequencies, columns]))
    return 0


# ---------------------------------------------------------------------------
# generator


def _build_from_config(cfg: RunConfig):
    """Generator for a config: the last step of its :func:`_pipeline`."""
    spec, couplings, bohr, table = _pipeline(cfg)
    return build_generator(spec, couplings, table, bohr)


def cmd_generator(args) -> int:
    cfg = _require_config(args)
    gen = _build_from_config(cfg)
    doc = {
        "dim": gen.dim,
        "energies": [float(e) for e in gen.spec.energies],
        "h_shift": _cjson(gen.h_shift),
        "channels": [
            {
                "omega": float(ch.omega),
                "gamma_minus": _cjson(ch.gamma_minus),
                "gamma_plus": _cjson(ch.gamma_plus),
                "lowering": [_cjson(a) for a in ch.lowering],
            }
            for ch in gen.channels
        ],
    }
    _write_text(args, json.dumps(doc, indent=2) + "\n")
    if args.dense:
        dense = gen.dense_adjoint
        side = dense.shape[0]
        with open(args.dense, "wb") as fh:
            fh.write(struct.pack("<Q", side))
            fh.write(np.ascontiguousarray(dense).astype("<c16").tobytes())
    return 0


# ---------------------------------------------------------------------------
# evolve


def _initial_state(cfg: RunConfig, args, spec) -> np.ndarray:
    choice = cfg.run.get("initial", "mixed")
    if args.initial:
        choice = _run_initial(args.initial, "--initial")
    d = spec.dim
    if choice == "mixed":
        return np.eye(d, dtype=complex) / d
    if choice == "gibbs":
        return gibbs_state(cfg.require_bath().beta, spec)
    if not 0 <= choice < d:
        raise ConfigError(f"initial basis state {choice} outside 0..{d - 1}")
    rho = np.zeros((d, d), dtype=complex)
    rho[choice, choice] = 1.0
    return rho


def _times(args, cfg: RunConfig | None) -> np.ndarray:
    """Sample times from the flags, else the config's run block, else 100
    points up to t = 10."""
    run = cfg.run if cfg is not None else {}
    t_max = run.get("t_max", 10.0) if args.t_max is None else _run_t_max(args.t_max, "--t-max")
    points = run.get("points", 100) if args.points is None else _run_points(args.points, "--points")
    return np.linspace(0.0, t_max, points)


def cmd_evolve(args) -> int:
    cfg = _require_config(args)
    gen = _build_from_config(cfg)
    d = gen.dim
    traj = evolve(gen, _initial_state(cfg, args, gen.spec), _times(args, cfg))
    # states in the eigenbasis, energy-ordered, as propagated
    header, columns = _re_im([f"{mu}_{nu}" for mu in range(d) for nu in range(d)], traj.samples)
    _write_csv(args, ["t", *header], np.column_stack([traj.times, columns]))
    return 0


# ---------------------------------------------------------------------------
# glauber


def _glauber_setup(args) -> tuple[SpinChainSpec, BathSpec, RunConfig | None]:
    cfg = _load(args)
    if args.sites is not None:
        coupling = args.coupling if args.coupling is not None else 1.0
        cs = SpinChainSpec(
            n_sites=args.sites, coupling=coupling, boundary=args.boundary
        )
    elif cfg is not None and cfg.spin is not None:
        cs = cfg.spin
    else:
        raise ConfigError("glauber needs --sites or a config with a spin block")
    if cfg is not None and cfg.bath is not None:
        bath = cfg.bath
        if args.beta is not None:
            bath = dataclasses.replace(bath, beta=args.beta)
    elif args.beta is not None:
        bath = BathSpec(beta=args.beta, dos=args.dos or "paper")
    else:
        raise ConfigError("glauber needs --beta or a config with a bath block")
    return cs, bath, cfg


def cmd_glauber(args) -> int:
    cs, bath, cfg = _glauber_setup(args)
    times = _times(args, cfg)
    mags = configuration_magnetizations(cs)
    idx = args.initial_configuration
    if not 0 <= idx < cs.dim:
        raise ConfigError(
            f"initial configuration {idx} outside 0..{cs.dim - 1}"
        )
    if args.mode == "classical":
        cks = classical_glauber_generator(cs, bath)
        p0 = np.zeros(cks.size)
        p0[idx] = 1.0
        dist = cks.evolve(p0, times)
        header = ["t", "magnetization", "energy"]
        table = [(t, mags @ p, cks.energies @ p) for t, p in zip(times, dist)]
    else:
        gen = quantum_glauber_generator(cs, bath)
        energies = configuration_energies(cs)
        rho0 = np.zeros((cs.dim, cs.dim), dtype=complex)
        rho0[idx, idx] = 1.0
        states = evolve(gen, rho0, times).states
        pops = np.real(np.diagonal(states, axis1=1, axis2=2))
        l1 = np.abs(states[:, ~np.eye(cs.dim, dtype=bool)]).sum(axis=1)
        header = ["t", "magnetization", "energy", "offdiag_l1"]
        table = [(t, mags @ p, energies @ p, c) for t, p, c in zip(times, pops, l1)]
    _write_csv(args, header, table)
    return 0


# ---------------------------------------------------------------------------
# check suites


def _default_spin_config() -> tuple[SpinChainSpec, BathSpec]:
    return SpinChainSpec(n_sites=4, coupling=1.0, boundary="periodic"), BathSpec(beta=1.0)


def _suite_detailed_balance(cfg: RunConfig | None, args) -> tuple[bool, dict]:
    cs, bath = _default_spin_config() if cfg is None else (cfg.spin, cfg.require_bath())
    if cs is not None:
        cks = classical_glauber_generator(cs, bath)
    else:
        cks = diagonal_restriction(_build_from_config(cfg))
    if bath.beta == math.inf:
        raise ConfigError("detailed balance needs a finite temperature")
    k = cks._triples
    injected = None
    if args.corrupt_rate is not None:
        try:
            a_s, b_s, f_s = args.corrupt_rate.split(",")
            a, b, factor = int(a_s), int(b_s), float(f_s)
        except ValueError as exc:
            raise ConfigError(
                f"--corrupt-rate wants 'from,to,factor', got {args.corrupt_rate!r}"
            ) from exc
        if not (0 <= a < cks.size and 0 <= b < cks.size and a != b):
            raise ConfigError(
                f"--corrupt-rate: from and to must be distinct states in [0, {cks.size}), "
                f"got {a} and {b}"
            )
        # a factor of 1, like a zero rate below, would inject no fault
        if not (math.isfinite(factor) and factor >= 0.0 and factor != 1.0):
            raise ConfigError(
                f"--corrupt-rate: factor on {a} -> {b} must be finite, >= 0, not 1, got {factor!r}"
            )
        at = (k.row == b) & (k.col == a)
        if not at.any():
            raise ConfigError(
                f"--corrupt-rate: the rate {a} -> {b} is zero, so scaling it injects no fault"
            )
        # the diagonal cancels in flow - flow.T, so it is left as it is
        k = k._replace(data=k.data * np.where(at, factor, 1.0))
        injected = [a, b, factor]
    gap = _balance_gap(k, gibbs_distribution(bath.beta, cks.energies))
    residual = float(np.abs(gap.data).max(initial=0.0))
    # the first worst pair in row-major (to, from) order, as np.argmax finds it
    # on the dense gap; (0, 0) when every pair balances exactly
    hit = np.abs(gap.data) == residual
    b_worst, a_worst = min(zip(gap.row[hit], gap.col[hit]), default=(0, 0))
    passed = residual <= 1e-10
    report = {
        "residual": residual,
        "threshold": 1e-10,
        "worst_pair": [int(a_worst), int(b_worst)],
    }
    if injected:
        report["injected_fault"] = injected
    return passed, report


def _suite_leibniz(cfg: RunConfig | None, args) -> tuple[bool, dict]:
    if cfg is None:
        h = np.diag([0.0, 1.0]).astype(complex)
        d = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        cfg = RunConfig(h, [d], cluster_tol=None, spin=None, bath=BathSpec(beta=1.0), run={})
    gen = _build_from_config(cfg)
    maps = StructureMapSet(gen)
    rng = np.random.default_rng(416)
    d = gen.dim
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = 0.5 * (x + dag(x)) / np.linalg.norm(x)
        y = 0.5 * (y + dag(y)) / np.linalg.norm(y)
        worst = max(worst, leibniz_defect(maps, x, y))
    return worst <= 1e-10, {"max_defect": worst, "threshold": 1e-10, "trials": 20}


def _suite_positivity(cfg: RunConfig | None, args) -> tuple[bool, dict]:
    if cfg is not None:
        gen = _build_from_config(cfg)
    else:
        gen = quantum_glauber_generator(*_default_spin_config())
    rng = np.random.default_rng(2617)
    d = gen.dim
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho0 = a @ dag(a)
    rho0 /= np.real(np.trace(rho0))
    scale = gen.norm_scale()
    times = np.linspace(0.0, 5.0 / scale, 21)
    # the spectrum of a state does not depend on the basis
    samples = evolve(gen, rho0, times).samples
    lo = float(np.linalg.eigvalsh(0.5 * (samples + samples.conj().swapaxes(1, 2))).min())
    return lo >= -1e-10, {"min_eigenvalue": lo, "floor": -1e-10}


def _suite_scaling(cfg: RunConfig | None, args) -> tuple[bool, dict]:
    bath = cfg.require_bath() if cfg is not None else BathSpec(beta=1.0)
    try:
        sizes = [2, 3, 4, 5, 6] if args.sizes is None else [int(s) for s in args.sizes.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--sizes wants comma-separated ring sizes, got {args.sizes!r}") from exc
    nf = bath.n_form_factors()
    if nf is not None:
        # a ring takes one form factor per site, so no one list fits every size
        raise ConfigError(
            f"--suite scaling builds rings of sizes {', '.join(map(str, sizes))} on the "
            f"config's bath, which has {nf} form factors; give a bath without form factors"
        )
    result = n_scaling_experiment(sizes, bath)
    passed = result.r_squared >= 0.999
    return passed, {
        "sizes": list(result.sizes),
        "measured": [float(v) for v in result.measured],
        "closed_form": [float(v) for v in result.closed_form],
        "slope": result.slope,
        "intercept": result.intercept,
        "r_squared": result.r_squared,
    }


def _suite_coherence_control(cfg: RunConfig | None, args) -> tuple[bool, dict]:
    if cfg is not None:
        raise ConfigError("coherence-control checks its own 3-level system and takes no --config")
    # two nearly degenerate levels far below a third; the pass band admits
    # only the intra-group frequency, and switching off spontaneous decay
    # silences every channel out of the upper group
    h = np.diag([0.0, 0.7, 5.0]).astype(complex)
    d_op = np.ones((3, 3), dtype=complex) - np.eye(3)
    beta = 1.0
    filtered = BathSpec(
        beta=beta, filter_max=2.0, spontaneous_emission=False
    )
    cfg = RunConfig(h, [d_op], cluster_tol=None, spin=None, bath=filtered, run={})
    gen_f = _build_from_config(cfg)
    k = diagonal_restriction(gen_f)._triples
    intra_rate = float(-k.data[k.row == k.col].min(initial=0.0))
    horizon = 100.0 / intra_rate
    rho0 = np.diag([0.3, 0.1, 0.6]).astype(complex)
    traj = evolve(gen_f, rho0, np.linspace(0.0, horizon, 11))
    pops = traj.populations()
    transfer = float(np.abs(pops[:, 2] - pops[0, 2]).max())
    # without the spontaneous term the active channel carries weight N both
    # ways, so the lower pair settles on the flat distribution
    moved = float(abs(pops[1, 0] - pops[0, 0]))
    settle = float(abs(pops[-1, 0] - pops[-1, 1]))
    thermalized = moved > 1e-3 and settle <= 1e-10
    open_bath = BathSpec(beta=beta)
    gen_o = _build_from_config(dataclasses.replace(cfg, bath=open_bath))
    expected = emission_rate(open_bath, 5.0) + emission_rate(open_bath, 4.3)
    k = diagonal_restriction(gen_o)._triples
    outflow = float(-k.data[(k.row == 2) & (k.col == 2)].sum())
    resumed = abs(outflow - expected) <= 1e-8 * expected
    passed = transfer <= 1e-10 and thermalized and resumed
    return passed, {
        "transfer": transfer,
        "transfer_bound": 1e-10,
        "intra_moved": moved,
        "intra_settle": settle,
        "unfiltered_outflow": outflow,
        "unfiltered_expected": expected,
    }


_SUITES = {
    "detailed-balance": _suite_detailed_balance,
    "leibniz": _suite_leibniz,
    "positivity": _suite_positivity,
    "scaling": _suite_scaling,
    "coherence-control": _suite_coherence_control,
}


def cmd_check(args) -> int:
    # each fixture flag belongs to one suite; elsewhere it would do nothing
    if args.sizes is not None and args.suite != "scaling":
        raise ConfigError("--sizes applies only to --suite scaling")
    if args.corrupt_rate is not None and args.suite != "detailed-balance":
        raise ConfigError("--corrupt-rate applies only to --suite detailed-balance")
    cfg = _load(args)
    passed, report = _SUITES[args.suite](cfg, args)
    doc = {"suite": args.suite, "passed": bool(passed)}
    doc.update(report)
    _write_text(args, json.dumps(doc, indent=2) + "\n")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--json", action="store_true", help="JSON output")
    common.add_argument(
        "--dos",
        choices=("paper", "physical"),
        help="override the mode-density convention",
    )

    parser = argparse.ArgumentParser(
        prog="stoclim",
        description="Stochastic-limit dynamics of small open quantum systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="levels and frequencies")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("rates", parents=[common], help="reservoir constant table")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("generator", parents=[common], help="export the generator")
    p.add_argument("--dense", help="also write the dense form to this binary file")
    p.set_defaults(func=cmd_generator)

    p = sub.add_parser("evolve", parents=[common], help="integrate a trajectory")
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--points", type=int)
    p.add_argument("--initial", help="'mixed', 'gibbs', or a basis index")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("glauber", parents=[common], help="spin-chain kinetics")
    p.add_argument("--sites", type=int)
    p.add_argument("--coupling", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--boundary", choices=("open", "periodic"), default="open")
    p.add_argument("--mode", choices=("classical", "quantum"), default="classical")
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--points", type=int)
    p.add_argument(
        "--initial-configuration",
        type=int,
        default=0,
        help="starting configuration index (0 = all spins up)",
    )
    p.set_defaults(func=cmd_glauber)

    p = sub.add_parser("check", parents=[common], help="run an invariant suite")
    p.add_argument("--suite", required=True, choices=_SUITES)
    p.add_argument(
        "--corrupt-rate",
        help="fault fixture for detailed-balance: 'from,to,factor'",
    )
    p.add_argument("--sizes", help="comma-separated ring sizes for scaling")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BathConfigurationError, BathDomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
