"""Workload passes and their reference checks.

A pass runs one workload's pipeline through the library's public functions.
Every call goes through a module attribute (``sc.evolve``, ...), so the
tracer's wrappers see it when tracing is on.  Checks run after a pass, outside
the timed interval, against the references of :mod:`inputs`; a check that
fails raises :class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from inputs import Case

#: largest tolerated deviation from the references
TRAJ_TOL = 1e-8
STATIONARY_TOL = 1e-8
RATE_REL_TOL = 1e-12
SHIFT_REL_TOL = 1e-8
DETAILED_BALANCE_TOL = 1e-10
CONSERVATION_TOL = 1e-10
NEGATIVITY_FLOOR = -1e-12
HERMITIAN_REL_TOL = 1e-12
DAMPING_REL_TOL = 1e-10


class CheckFailed(AssertionError):
    """A result differs from its reference by more than the tolerance."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def _rel_max(a, b) -> float:
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _dense(m) -> np.ndarray:
    return m.toarray() if sparse.issparse(m) else np.asarray(m)


def _read_csv(path: str) -> tuple[list, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


# ---------------------------------------------------------------------------
# open_generic


def pass_open_generic(sc, cfg, case: Case) -> dict:
    spec = sc.spectral_decompose(cfg.hamiltonian, cfg.cluster_tol)
    bohr = sc.bohr_frequencies(spec)
    table = sc.correlation_table(cfg.bath, bohr, n_couplings=len(cfg.couplings))
    gen = sc.build_generator(spec, cfg.couplings, table, bohr)
    v0 = spec.basis[:, 0]
    traj = sc.evolve(gen, np.outer(v0, v0.conj()), case.params["times"])
    st = sc.stationary_state(gen)
    cks = sc.diagonal_restriction(gen)
    return {"table": table, "generator": gen, "traj": traj, "stationary": st, "kinetic": cks}


def check_open_generic(out: dict, case: Case, sc, cfg) -> dict:
    v = case.ref["eigvecs"]
    states = np.array([v.conj().T @ rho @ v for rho in out["traj"].states])
    _require(states.shape[0] == len(case.params["times"]), "trajectory sample count")
    expected = np.zeros_like(states)
    idx = np.arange(states.shape[1])
    expected[:, idx, idx] = case.ref["pops_lib"]
    traj_err = float(np.max(np.abs(states - expected)))
    _require(traj_err <= TRAJ_TOL, f"trajectory deviates from expm(K t) p0 by {traj_err:.3e}")
    st = out["stationary"]
    _require(st.ergodic, "stationary state not unique on a generic spectrum")
    stat_err = _trace_distance(st.state, case.ref["gibbs"])
    _require(stat_err <= STATIONARY_TOL, f"stationary state {stat_err:.3e} from Gibbs")
    rate_err = _rel_max(_dense(out["kinetic"].rate_matrix), case.ref["rate_matrix"])
    _require(rate_err <= RATE_REL_TOL, f"population block rates off by {rate_err:.3e} (relative)")
    return {"traj_err": traj_err, "stationary_err": stat_err, **check_rates_lamb(out, case, sc, cfg)}


def check_cli_open_generic(path: str, case: Case) -> None:
    header, data = _read_csv(path)
    d = case.ref["eigvecs"].shape[0]
    _require(len(header) == 1 + 2 * d * d and data.shape[0] == len(case.params["times"]), "CSV shape")
    _require(np.array_equal(data[:, 0], case.params["times"]), "CSV time column")
    rho = (data[:, 1::2] + 1j * data[:, 2::2]).reshape(-1, d, d)
    idx = np.arange(d)
    pop_err = np.max(np.abs(rho[:, idx, idx].real - case.ref["pops_cli"]))
    off = ~np.eye(d, dtype=bool)
    coh_err = np.max(np.abs(np.abs(rho)[:, off] - case.ref["abs_coh_cli"][:, off]))
    err = float(max(pop_err, coh_err))
    _require(err <= TRAJ_TOL, f"CLI trajectory deviates from the reference by {err:.3e}")


# ---------------------------------------------------------------------------
# ising_quantum


def pass_ising_quantum(sc, cfg, case: Case) -> dict:
    gen = sc.quantum_glauber_generator(cfg.spin, cfg.bath)
    rho0 = np.zeros((gen.dim, gen.dim), dtype=complex)
    start = case.params["start"]
    rho0[start, start] = 1.0
    traj = sc.evolve(gen, rho0, case.params["times"])
    st = sc.stationary_state(gen)
    cks = sc.diagonal_restriction(gen, np.eye(gen.dim))
    return {"traj": traj, "stationary": st, "kinetic": cks}


def _stationary_error(st, gibbs: np.ndarray) -> float:
    """Trace distance to Gibbs, or Gibbs's distance from the stationary span."""
    if st.ergodic:
        return _trace_distance(st.state, gibbs)
    basis = np.array([b.ravel() for b in st.basis]).T
    coef, *_ = np.linalg.lstsq(basis, gibbs.ravel(), rcond=None)
    return float(np.linalg.norm(basis @ coef - gibbs.ravel()))


def check_ising_quantum(out: dict, case: Case, sc, cfg) -> dict:
    states = np.array(out["traj"].states)
    _require(states.shape[0] == len(case.params["times"]), "trajectory sample count")
    expected = np.array([np.diag(p) for p in case.ref["pops"]])
    traj_err = float(np.max(np.abs(states - expected)))
    _require(traj_err <= TRAJ_TOL, f"trajectory deviates from expm(K t) p0 by {traj_err:.3e}")
    stat_err = _stationary_error(out["stationary"], case.ref["gibbs"])
    _require(stat_err <= STATIONARY_TOL, f"Gibbs state {stat_err:.3e} outside the stationary set")
    block = _dense(out["kinetic"].rate_matrix)
    classical = _dense(sc.classical_glauber_generator(cfg.spin, cfg.bath).rate_matrix)
    err = max(_rel_max(block, classical), _rel_max(block, case.ref["rate_matrix"]))
    _require(err <= RATE_REL_TOL, f"population block differs from the classical generator by {err:.3e}")
    return {"traj_err": traj_err, "stationary_err": stat_err}


def check_cli_ising_quantum(path: str, case: Case) -> None:
    header, data = _read_csv(path)
    _require(header == ["t", "magnetization", "energy", "offdiag_l1"], "CSV header")
    _require(np.array_equal(data[:, 0], case.params["times"]), "CSV time column")
    pops = case.ref["pops"]
    scale = np.max(np.abs(case.ref["energies"]))
    err = max(
        np.max(np.abs(data[:, 1] - pops @ case.ref["magnetization"])),
        np.max(np.abs(data[:, 2] - pops @ case.ref["energies"])) / scale,
        np.max(np.abs(data[:, 3])),
    )
    _require(err <= TRAJ_TOL, f"CLI observables deviate from the reference by {err:.3e}")


# ---------------------------------------------------------------------------
# ising_classical


def pass_ising_classical(sc, cfg, case: Case) -> dict:
    cks = sc.classical_glauber_generator(cfg.spin, cfg.bath)
    p0 = np.zeros(cks.size)
    p0[case.params["start"]] = 1.0
    return {"kinetic": cks, "dist": cks.evolve(p0, case.params["times"])}


def detailed_balance_error(k, pi: np.ndarray) -> float:
    """Largest |K[b,a] pi_a - K[a,b] pi_b| over the stored entries, sparse."""
    k = sparse.csc_matrix(k)
    flow = k @ sparse.diags(pi)
    flow.setdiag(0.0)
    diff = (flow - flow.T).tocoo()
    return float(np.max(np.abs(diff.data), initial=0.0))


def check_ising_classical(out: dict, case: Case, sc, cfg) -> dict:
    k_ref = case.ref["rate_matrix"]
    k = sparse.csc_matrix(out["kinetic"].rate_matrix)
    rate_err = float(np.max(np.abs((k - k_ref).data), initial=0.0) / np.max(np.abs(k_ref.data)))
    _require(rate_err <= RATE_REL_TOL, f"rate matrix off by {rate_err:.3e} (relative)")
    db = detailed_balance_error(k, case.ref["gibbs"])
    _require(db <= DETAILED_BALANCE_TOL, f"detailed balance violated by {db:.3e}")
    dist = np.asarray(out["dist"])
    _require(dist.shape == (len(case.params["times"]), k.shape[0]), "trajectory shape")
    drift = float(np.max(np.abs(dist.sum(axis=1) - 1.0)))
    _require(drift <= CONSERVATION_TOL, f"probability drifts by {drift:.3e}")
    _require(dist.min() >= NEGATIVITY_FLOOR, f"negative probability {dist.min():.3e}")
    labels = case.ref["labels"]
    lumped = np.array([np.bincount(labels, weights=p) for p in dist])
    traj_err = float(np.max(np.abs(lumped - case.ref["class_pops"])))
    _require(traj_err <= TRAJ_TOL, f"trajectory deviates from the lumped reference by {traj_err:.3e}")
    return {"traj_err": traj_err}


def check_cli_ising_classical(path: str, case: Case) -> None:
    header, data = _read_csv(path)
    _require(header == ["t", "magnetization", "energy"], "CSV header")
    _require(np.array_equal(data[:, 0], case.params["times"]), "CSV time column")
    labels = case.ref["labels"]
    size = np.bincount(labels)
    cls_mag = np.bincount(labels, weights=case.ref["magnetization"]) / size
    cls_en = np.bincount(labels, weights=case.ref["energies"]) / size
    q = case.ref["class_pops"]
    scale = np.max(np.abs(case.ref["energies"]))
    err = max(
        np.max(np.abs(data[:, 1] - q @ cls_mag)),
        np.max(np.abs(data[:, 2] - q @ cls_en)) / scale,
    )
    _require(err <= TRAJ_TOL, f"CLI observables deviate from the reference by {err:.3e}")


# ---------------------------------------------------------------------------
# rates_lamb


def pass_rates_lamb(sc, cfg, case: Case) -> dict:
    spec = sc.spectral_decompose(cfg.hamiltonian, cfg.cluster_tol)
    bohr = sc.bohr_frequencies(spec)
    table = sc.correlation_table(cfg.bath, bohr, n_couplings=len(cfg.couplings))
    gen = sc.build_generator(spec, cfg.couplings, table, bohr)
    return {"table": table, "generator": gen}


def check_constants(freqs, minus, plus, ref: dict) -> float:
    """Check a constant table against the references; returns the worst
    relative error of the principal-value shift constants.

    A shift error is taken relative to the largest reference shift of the
    same branch: the absorption-branch constant changes sign between the
    levels, and near its zero a pointwise relative error says nothing about
    the quadrature (2.6e-9 absolute on -0.012 reads as 2e-7).  Below zero
    frequency the shift is either stored as 0 (today's exclusion) or must
    match the plain integral; at zero frequency, where the thermal integrand
    is infrared-divergent, it must be finite.
    """
    freqs = np.asarray(freqs)
    _require(len(freqs) == len(ref["frequencies"]), f"{len(freqs)} frequencies, expected {len(ref['frequencies'])}")
    f_err = float(np.max(np.abs(freqs - ref["frequencies"])))
    _require(f_err <= 1e-9, f"frequencies off by {f_err:.3e}")
    scale = {b: np.nanmax(np.abs(ref[f"im_{b}"])) for b in ("minus", "plus")}
    worst = 0.0
    for k, w in enumerate(freqs):
        for branch, block in (("minus", minus[k]), ("plus", plus[k])):
            re_ref, im_ref = ref[f"re_{branch}"][k], ref[f"im_{branch}"][k]
            block = np.asarray(block)
            re_err = np.max(np.abs(block.real - re_ref)) / max(abs(re_ref), 1.0)
            _require(re_err <= DAMPING_REL_TOL, f"damping constant at {w:.6g} off by {re_err:.3e}")
            im = block.imag
            if math.isnan(im_ref):
                _require(bool(np.all(np.isfinite(im))), f"non-finite shift at {w:.6g}")
                continue
            if w < 0 and not np.any(im):
                continue
            rel = float(np.max(np.abs(im - im_ref)) / scale[branch])
            _require(rel <= SHIFT_REL_TOL, f"shift constant at {w:.6g} off by {rel:.3e} (relative)")
            worst = max(worst, rel)
    return worst


def check_rates_lamb(out: dict, case: Case, sc, cfg) -> dict:
    table = out["table"]
    pv_err = check_constants(table.frequencies, table.minus, table.plus, case.ref)
    h = out["generator"].h_shift
    herm = float(np.linalg.norm(h - h.conj().T))
    _require(herm <= HERMITIAN_REL_TOL * max(1.0, float(np.linalg.norm(h))), f"h_shift not Hermitian ({herm:.3e})")
    return {"pv_rel_err": pv_err}


def check_cli_rates_lamb(path: str, case: Case) -> None:
    header, data = _read_csv(path)
    n = case.params["n_couplings"]
    _require(len(header) == 1 + 4 * n * n, "CSV header")
    blocks = data[:, 1:].reshape(len(data), 2, n, n, 2)
    values = blocks[..., 0] + 1j * blocks[..., 1]
    check_constants(data[:, 0], values[:, 0], values[:, 1], case.ref)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A pass, the check of its outputs and the check of its CLI output."""

    name: str
    run_pass: Callable
    check: Callable
    check_cli: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("open_generic", pass_open_generic, check_open_generic, check_cli_open_generic),
        Workload("ising_quantum", pass_ising_quantum, check_ising_quantum, check_cli_ising_quantum),
        Workload("ising_classical", pass_ising_classical, check_ising_classical, check_cli_ising_classical),
        Workload("rates_lamb", pass_rates_lamb, check_rates_lamb, check_cli_rates_lamb),
    )
}
