"""Seeded benchmark inputs and their independent reference values.

Every workload's inputs are a pure function of (workload name, seed): the
generated matrices go into a JSON run configuration, which is all the
program sees.  The reference values are computed here from closed forms
with numpy/scipy only -- no stoclim code -- so a check compares the timed
path against something it did not produce.

Rates follow the package's conventions for a flat form factor and the
"paper" mode density j(w) = 4*pi*w: emission 2*pi*j(w)*(N(w)+1), absorption
2*pi*j(w)*N(w), with N the Planck occupation at inverse temperature beta.
"""

from __future__ import annotations

import json
import math
import os
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, sparse
from scipy.linalg import expm

BETA = 1.0

#: open_generic: d = 17 is the smallest dimension on the RK45 path (d > 16)
GENERIC_DIM = 17
GENERIC_TIMES = (2.0, 20)
#: ising_quantum: 5-site ring, d = 32
QUANTUM_SITES = 5
QUANTUM_TIMES = (1.0, 20)
#: ising_classical: 12-site ring, 4096 configurations (sparse path)
CLASSICAL_SITES = 12
CLASSICAL_TIMES = (0.1, 20)
#: rates_lamb: d = 8, 3 couplings, PV shifts below the cutoff
LAMB_DIM = 8
LAMB_COUPLINGS = 3
LAMB_CUTOFF = 50.0
#: reservoir of both generic workloads: Lamb shifts by principal-value quadrature
LAMB_BATH = {"beta": BETA, "kernel": "quadrature", "uv_cutoff": LAMB_CUTOFF, "lamb_shift": True}


@dataclass
class Case:
    """One workload instance: its config file, CLI arguments and references."""

    config_path: str
    cli_args: list
    params: dict = field(default_factory=dict)
    ref: dict = field(default_factory=dict)


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def levels_rng(workload: str) -> np.random.Generator:
    """Stream of a workload's fixed level set, the same for every seed."""
    return np.random.default_rng([zlib.crc32(workload.encode()), 0])


def occupation(w, beta: float = BETA):
    """Planck occupation 1/(exp(beta w) - 1)."""
    return 1.0 / np.expm1(beta * np.asarray(w, dtype=float))


def emission(w, beta: float = BETA):
    w = np.asarray(w, dtype=float)
    return 8.0 * math.pi**2 * w * (occupation(w, beta) + 1.0)


def absorption(w, beta: float = BETA):
    w = np.asarray(w, dtype=float)
    return 8.0 * math.pi**2 * w * occupation(w, beta)


def times_grid(spec: tuple) -> np.ndarray:
    t_max, points = spec
    return np.linspace(0.0, t_max, points)


def _write_config(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def _cjson(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_hermitian(rng: np.random.Generator, d: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = a + a.conj().T
    return h * (norm / np.linalg.norm(h))


def _generic_levels(rng: np.random.Generator, d: int, gap_lo: float, gap_hi: float) -> np.ndarray:
    """Levels with gaps in [gap_lo, gap_hi] and well-separated differences.

    Redraws (deterministically) until no two distinct level differences lie
    within 1e-6, so the spectrum is generic far above any clustering
    tolerance.
    """
    while True:
        levels = np.concatenate(([0.0], np.cumsum(rng.uniform(gap_lo, gap_hi, d - 1))))
        diffs = np.sort((levels[:, None] - levels[None, :])[~np.eye(d, dtype=bool)])
        if np.min(np.diff(diffs)) > 1e-6:
            return levels


def _rotated(levels: np.ndarray, u: np.ndarray) -> np.ndarray:
    h = u @ np.diag(levels) @ u.conj().T
    return 0.5 * (h + h.conj().T)


# ---------------------------------------------------------------------------
# open_generic


def generic_rates(energies: np.ndarray, coupling_eig: np.ndarray) -> np.ndarray:
    """Jump-rate matrix W[b, a] (a -> b) of a generic spectrum, one coupling."""
    omega = energies[:, None] - energies[None, :]  # omega[b, a] = E_b - E_a
    released = -omega
    w = np.zeros_like(omega)
    down = released > 0
    up = released < 0
    mod2 = np.abs(coupling_eig) ** 2  # |<b|D|a>|^2 at [b, a]
    w[down] = emission(released[down]) * mod2[down]
    w[up] = absorption(-released[up]) * mod2[up]
    np.fill_diagonal(w, 0.0)
    return w


def make_open_generic(seed: int, workdir: str) -> Case:
    # The level set is fixed and the coupling has equal moduli, so every
    # seed has the same rates and the same solver work; the seed draws the
    # coupling's phases.  The Hamiltonian is diagonal, so the CLI's
    # ``--initial 0`` is the ground eigenstate, the library pass's start.
    d = GENERIC_DIM
    levels = _generic_levels(levels_rng("open_generic"), d, 0.1, 0.3)
    h = np.diag(levels).astype(complex)
    phase = np.triu(np.exp(2j * np.pi * rng_for("open_generic", seed).uniform(size=(d, d))), 1)
    coupling = (phase + phase.conj().T) * (0.3 / np.sqrt(d * (d - 1)))
    cfg = os.path.join(workdir, "open_generic.json")
    _write_config(cfg, {"hamiltonian": _cjson(h), "couplings": [_cjson(coupling)], "bath": LAMB_BATH})

    energies, v = np.linalg.eigh(h)
    w = generic_rates(energies, v.conj().T @ coupling @ v)
    out = w.sum(axis=0)
    k = w - np.diag(out)
    t = times_grid(GENERIC_TIMES)
    props = [expm(k * tk) for tk in t]
    # library pass: pure ground eigenstate; CLI: lab basis state 0
    pops_lib = np.array([p[:, 0] for p in props])
    rho_cli0 = np.outer(v[0, :].conj(), v[0, :])  # V^dag |0><0| V
    pops_cli = np.array([p @ np.real(np.diag(rho_cli0)) for p in props])
    decay = np.exp(-0.5 * np.outer(t, out[:, None] + out[None, :]).reshape(len(t), d, d))
    coh_cli = np.abs(rho_cli0)[None, :, :] * decay
    gibbs_w = np.exp(-BETA * (energies - energies[0]))
    gibbs = (v * (gibbs_w / gibbs_w.sum())) @ v.conj().T
    return Case(
        config_path=cfg,
        cli_args=["evolve", "--initial", "0", "--t-max", repr(GENERIC_TIMES[0]), "--points", str(GENERIC_TIMES[1])],
        params={"times": t},
        ref={
            "eigvecs": v,
            "rate_matrix": k,
            "pops_lib": pops_lib,
            "pops_cli": pops_cli,
            "abs_coh_cli": coh_cli,
            "gibbs": gibbs,
            **constant_refs(energies),
        },
    )


# ---------------------------------------------------------------------------
# Ising rings


def ring_spins(n: int) -> np.ndarray:
    """Spins (+-1) of all 2^n configurations; site 0 is the top bit, bit 0 = up."""
    idx = np.arange(2**n)
    return 1 - 2 * ((idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1)


def ring_rate_matrix(n: int, j: float = 1.0) -> sparse.csc_matrix:
    """Single-flip golden-rule generator of a periodic Ising ring (columns sum to 0)."""
    s = ring_spins(n)
    idx = np.arange(2**n)
    rows, cols, vals = [], [], []
    for r in range(n):
        released = -2.0 * j * s[:, r] * (s[:, (r - 1) % n] + s[:, (r + 1) % n])
        rate = np.zeros(len(idx))
        rate[released > 0] = emission(released[released > 0])
        rate[released < 0] = absorption(-released[released < 0])
        keep = rate != 0.0
        rows.append(idx[keep] ^ (1 << (n - 1 - r)))
        cols.append(idx[keep])
        vals.append(rate[keep])
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    off = sparse.csc_matrix((vals, (rows, cols)), shape=(2**n, 2**n))
    return (off - sparse.diags(np.asarray(off.sum(axis=0)).ravel())).tocsc()


def ring_energies(n: int, j: float = 1.0) -> np.ndarray:
    s = ring_spins(n)
    return -j * (s * np.roll(s, -1, axis=1)).sum(axis=1).astype(float)


def rotation_classes(n: int) -> np.ndarray:
    """Class label per configuration: configurations equal up to a ring rotation."""
    idx = np.arange(2**n)
    mask = 2**n - 1
    rep = idx.copy()
    for r in range(1, n):
        rep = np.minimum(rep, ((idx << r) | (idx >> (n - r))) & mask)
    _, labels = np.unique(rep, return_inverse=True)
    return labels


def lumped_trajectory(k: sparse.csc_matrix, labels: np.ndarray, start: int, t: np.ndarray) -> np.ndarray:
    """Class probabilities over time, propagated on the rotation-lumped chain.

    Rotations commute with the ring generator, so the chain lumps exactly
    onto rotation classes; the lumped generator is small enough for a dense
    exponential.  Requires a uniform time grid starting at 0.
    """
    n_cls = labels.max() + 1
    first = np.full(n_cls, -1)
    for a in range(len(labels) - 1, -1, -1):
        first[labels[a]] = a
    q = np.zeros((n_cls, n_cls))
    kc = k.tocsc()
    for c in range(n_cls):
        col = kc[:, first[c]]
        np.add.at(q[:, c], labels[col.indices], col.data)
    step = expm(q * (t[1] - t[0]))
    out = np.zeros((len(t), n_cls))
    out[0, labels[start]] = 1.0
    for m in range(1, len(t)):
        out[m] = step @ out[m - 1]
    return out


def _ring_config(workdir: str, name: str, n: int) -> str:
    cfg = os.path.join(workdir, f"{name}.json")
    _write_config(cfg, {"spin": {"sites": n, "J": 1.0, "boundary": "periodic"}, "bath": {"beta": BETA}})
    return cfg


def _ground_start(rng: np.random.Generator, n: int) -> int:
    # all-up or all-down: the two ground configurations, equal in cost
    return int(rng.integers(2)) * (2**n - 1)


def make_ising_quantum(seed: int, workdir: str) -> Case:
    rng = rng_for("ising_quantum", seed)
    n = QUANTUM_SITES
    start = _ground_start(rng, n)
    cfg = _ring_config(workdir, "ising_quantum", n)
    k = ring_rate_matrix(n).toarray()
    t = times_grid(QUANTUM_TIMES)
    pops = np.array([expm(k * tk)[:, start] for tk in t])
    energies = ring_energies(n)
    gw = np.exp(-BETA * (energies - energies.min()))
    return Case(
        config_path=cfg,
        cli_args=["glauber", "--mode", "quantum", "--t-max", repr(QUANTUM_TIMES[0]),
                  "--points", str(QUANTUM_TIMES[1]), "--initial-configuration", str(start)],
        params={"times": t, "start": start},
        ref={
            "rate_matrix": k,
            "pops": pops,
            "gibbs": np.diag(gw / gw.sum()).astype(complex),
            "magnetization": ring_spins(n).mean(axis=1),
            "energies": energies,
        },
    )


def make_ising_classical(seed: int, workdir: str) -> Case:
    rng = rng_for("ising_classical", seed)
    n = CLASSICAL_SITES
    start = _ground_start(rng, n)
    cfg = _ring_config(workdir, "ising_classical", n)
    k = ring_rate_matrix(n)
    t = times_grid(CLASSICAL_TIMES)
    labels = rotation_classes(n)
    energies = ring_energies(n)
    gw = np.exp(-BETA * (energies - energies.min()))
    return Case(
        config_path=cfg,
        cli_args=["glauber", "--t-max", repr(CLASSICAL_TIMES[0]), "--points",
                  str(CLASSICAL_TIMES[1]), "--initial-configuration", str(start)],
        params={"times": t, "start": start},
        ref={
            "rate_matrix": k,
            "labels": labels,
            "class_pops": lumped_trajectory(k, labels, start, t),
            "gibbs": gw / gw.sum(),
            "magnetization": ring_spins(n).mean(axis=1),
            "energies": energies,
        },
    )


# ---------------------------------------------------------------------------
# rates_lamb


def _numerator(branch: str):
    # j(rho) * W(rho) with its finite rho -> 0 limit 4*pi/beta
    def f(rho: float) -> float:
        if rho == 0.0:
            return 4.0 * math.pi / BETA
        weight = 1.0 / math.expm1(BETA * rho)
        if branch == "minus":
            weight += 1.0
        return 4.0 * math.pi * rho * weight

    return f


def shift_constant(omega: float, branch: str, cutoff: float = LAMB_CUTOFF) -> float:
    """``-PV int_0^cutoff j W / (rho - omega)`` by QAWC (or plain quadrature off the pole)."""
    f = _numerator(branch)
    with warnings.catch_warnings():
        # a reference that missed its tolerance must not pass silently
        warnings.simplefilter("error", integrate.IntegrationWarning)
        if 0.0 < omega < cutoff:
            val, _ = integrate.quad(f, 0.0, cutoff, weight="cauchy", wvar=omega,
                                    epsabs=0.0, epsrel=1e-10, limit=200)
        else:
            val, _ = integrate.quad(lambda x: f(x) / (x - omega), 0.0, cutoff,
                                    epsabs=0.0, epsrel=1e-10, limit=200)
    return -val


def constant_refs(energies: np.ndarray) -> dict:
    """Bohr frequencies and the reservoir constants on them (flat form
    factors, thermal density, cutoff LAMB_CUTOFF): damping closed forms and
    principal-value shifts."""
    diffs = np.sort((energies[None, :] - energies[:, None]).ravel())
    freqs = [diffs[0]]
    for w in diffs[1:]:
        if w - freqs[-1] > 1e-9:
            freqs.append(w)
    freqs = np.array(freqs)
    pos = freqs > 1e-9
    # omega = 0 is infrared-divergent for the thermal density: no reference
    return {
        "frequencies": freqs,
        "re_minus": np.where(pos, 0.5 * emission(np.where(pos, freqs, 1.0)), 0.0),
        "re_plus": np.where(pos, 0.5 * absorption(np.where(pos, freqs, 1.0)), 0.0),
        "im_minus": np.array([shift_constant(w, "minus") if abs(w) > 1e-9 else np.nan for w in freqs]),
        "im_plus": np.array([shift_constant(w, "plus") if abs(w) > 1e-9 else np.nan for w in freqs]),
    }


def make_rates_lamb(seed: int, workdir: str) -> Case:
    # The level set is fixed: the quadrature work depends on where the poles
    # sit, so fixed frequencies give every seed the same cost.  The seed
    # draws the eigenbasis and the couplings.
    d = LAMB_DIM
    levels = _generic_levels(levels_rng("rates_lamb"), d, 0.3, 0.5)
    rng = rng_for("rates_lamb", seed)
    h = _rotated(levels, _random_unitary(rng, d))
    couplings = [_random_hermitian(rng, d, 0.3) for _ in range(LAMB_COUPLINGS)]
    cfg = os.path.join(workdir, "rates_lamb.json")
    _write_config(cfg, {
        "hamiltonian": _cjson(h),
        "couplings": [_cjson(c) for c in couplings],
        "bath": LAMB_BATH,
    })
    return Case(
        config_path=cfg,
        cli_args=["rates"],
        params={"n_couplings": LAMB_COUPLINGS},
        ref=constant_refs(np.linalg.eigvalsh(h)),
    )


MAKERS = {
    "open_generic": make_open_generic,
    "ising_quantum": make_ising_quantum,
    "ising_classical": make_ising_classical,
    "rates_lamb": make_rates_lamb,
}


def make_case(workload: str, seed: int, workdir: str) -> Case:
    os.makedirs(workdir, exist_ok=True)
    return MAKERS[workload](seed, workdir)
