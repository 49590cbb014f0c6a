"""Time evolution, stationary states, and classical kinetic restrictions.

States are plain complex ndarrays validated by
:func:`validate_density_matrix`; trajectories bundle times with states.
Evolution and stationary states work on the generator's sparse
energy-eigenbasis superoperator: trajectories step from sample to sample
with the action of the matrix exponential (``expm_multiply``, Al-Mohy &
Higham 2011) on any increasing time grid, and each sample is rotated back
to the lab basis.

The diagonal (population) sector of the generator is a classical jump
process; :func:`diagonal_restriction` extracts its rate matrix, whose
stationary distribution for a thermal reservoir is the Gibbs distribution
(detailed balance).  :class:`ClassicalKineticSystem` reads a dense or
sparse rate matrix through one CSC view and steps its distributions from
sample to sample: with a dense ``expm(K dt)`` up to
:data:`DENSE_KINETIC_STATES` states, with ``expm_multiply`` beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import expm, null_space
from scipy.sparse.linalg import expm_multiply

from .generator import Generator, vectorize, unvectorize
from .operators import SpectralData, dag

__all__ = [
    "TRACE_DRIFT_BOUND",
    "DENSE_KINETIC_STATES",
    "Trajectory",
    "StationaryResult",
    "ClassicalKineticSystem",
    "validate_density_matrix",
    "evolve",
    "stationary_state",
    "diagonal_restriction",
    "detailed_balance_residual",
    "gibbs_state",
    "gibbs_distribution",
    "decay_fit",
    "trace_distance",
]

#: per-sample bound on the trace drift before renormalisation aborts
TRACE_DRIFT_BOUND = 1e-10

#: rate matrices with up to this many states are propagated with dense step
#: propagators (and the Glauber generator hands them out dense)
DENSE_KINETIC_STATES = 1024


def validate_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    psd_floor: float = -1e-10,
) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a state.

    Raises ``ValueError`` naming the offending quantity.  Returns the state
    as a complex ndarray.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"state must be square, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("state has non-finite entries")
    scale = max(float(np.linalg.norm(rho)), 1.0)
    asym = float(np.linalg.norm(rho - dag(rho)))
    if asym > herm_tol * scale:
        raise ValueError(f"state not Hermitian: deviation {asym:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"state trace {tr} differs from 1 by {abs(tr - 1.0):.3e}")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + dag(rho))).min())
    if lo < psd_floor:
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")
    return rho


@dataclass(eq=False)
class Trajectory:
    """Sampled solution of the master equation."""

    times: np.ndarray
    states: tuple

    def populations(self, basis: np.ndarray | None = None) -> np.ndarray:
        """Diagonal of each state, optionally in the given orthonormal basis.

        Returns an array of shape (len(times), dim).
        """
        out = []
        for rho in self.states:
            if basis is not None:
                rho = dag(basis) @ rho @ basis
            out.append(np.real(np.diag(rho)))
        return np.asarray(out)

    def matrix_element(self, mu: int, nu: int, basis: np.ndarray | None = None) -> np.ndarray:
        vals = []
        for rho in self.states:
            if basis is not None:
                rho = dag(basis) @ rho @ basis
            vals.append(rho[mu, nu])
        return np.asarray(vals)

    def expectation(self, observable: np.ndarray) -> np.ndarray:
        return np.asarray([complex(np.trace(observable @ rho)) for rho in self.states])


def _normalise_times(times: Sequence[float]) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    if t[0] < 0:
        raise ValueError("times must be non-negative")
    if t[0] > 0:
        t = np.concatenate(([0.0], t))
    return t


def _check_and_renormalise(rho: np.ndarray, where: str) -> np.ndarray:
    rho = 0.5 * (rho + dag(rho))
    tr = float(np.real(np.trace(rho)))
    # written so that a NaN trace counts as drift
    if not abs(tr - 1.0) <= TRACE_DRIFT_BOUND:
        raise RuntimeError(
            f"trace drifted to {tr!r} at {where}; integration accuracy lost"
        )
    return rho / tr


def evolve(gen: Generator, rho0: np.ndarray, times: Sequence[float]) -> Trajectory:
    """Propagate ``rho0`` under the generator, sampling at ``times``.

    The state is rotated into the energy eigenbasis and stepped from sample
    to sample by ``expm_multiply`` on the sparse superoperator, so the grid
    may be non-uniform.  Each sample is rotated back, Hermitised and
    renormalised; a trace drift beyond ``TRACE_DRIFT_BOUND`` raises
    ``RuntimeError``.
    """
    rho0 = validate_density_matrix(rho0)
    t = _normalise_times(times)
    v = gen.spec.basis
    states = [rho0]
    for k in range(1, len(t)):
        vec = expm_multiply(
            gen.superoperator * (t[k] - t[k - 1]), vectorize(dag(v) @ states[-1] @ v)
        )
        rho = v @ unvectorize(vec, gen.dim) @ dag(v)
        states.append(_check_and_renormalise(rho, f"t={t[k]}"))
    return Trajectory(times=t, states=tuple(states))


@dataclass(eq=False)
class StationaryResult:
    """Null space of the Schroedinger-picture generator.

    ``state`` is the unit-trace positive stationary state when the null
    space is one-dimensional (``ergodic``); otherwise ``basis`` holds an
    orthonormal operator basis of the stationary sector and ``state`` is
    None.
    """

    ergodic: bool
    state: np.ndarray | None
    basis: tuple


def stationary_state(gen: Generator, rank_tol: float = 1e-9) -> StationaryResult:
    """Stationary state(s) of the generator via a dense null-space solve.

    The null space is taken in the energy eigenbasis and its operator basis
    rotated back to the lab basis.  It is the null space of the generator
    as assembled, which has no free-Hamiltonian term ``-i[H, rho]``, so a
    coherence that no channel and no shift touches counts as stationary
    although it rotates under H.  For example H = diag(0, 1, 2.5), one
    coupling between levels 0 and 1 only, and beta = inf give nullity 4,
    including |0><2| and |2><0|, for which ||[H, X]|| = 2.5.
    """
    dense = gen.superoperator.toarray()
    ns = null_space(dense, rcond=rank_tol)
    if ns.shape[1] == 0:
        # numerically empty null space: relax once before giving up
        ns = null_space(dense, rcond=1e-7)
    if ns.shape[1] == 0:
        raise RuntimeError("no stationary state found (empty numerical null space)")
    v = gen.spec.basis
    ops = tuple(
        v @ unvectorize(ns[:, k], gen.dim) @ dag(v) for k in range(ns.shape[1])
    )
    if len(ops) > 1:
        return StationaryResult(ergodic=False, state=None, basis=ops)
    rho = ops[0]
    rho = 0.5 * (rho + dag(rho))
    tr = float(np.real(np.trace(rho)))
    if abs(tr) < 1e-12:
        raise RuntimeError("stationary null vector is traceless; cannot normalise")
    rho = rho / tr
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < -1e-10:
        raise RuntimeError(f"stationary candidate not positive (min eig {lo:.3e})")
    return StationaryResult(ergodic=True, state=rho, basis=(rho,))


@dataclass(eq=False)
class ClassicalKineticSystem:
    """Jump process on the population sector.

    ``rate_matrix`` is the column generator: ``K[b, a]`` is the jump rate
    a -> b for ``b != a`` and each diagonal entry is minus the total outflow,
    so columns sum to zero and ``dp/dt = K p``.
    """

    labels: tuple
    energies: np.ndarray
    rate_matrix: np.ndarray | sparse.spmatrix

    @property
    def size(self) -> int:
        return len(self.labels)

    def is_sparse(self) -> bool:
        return sparse.issparse(self.rate_matrix)

    def as_csc(self) -> sparse.csc_matrix:
        """The rate matrix as CSC, whether it was given dense or sparse."""
        return sparse.csc_matrix(self.rate_matrix, dtype=float)

    def validate(self, tol: float = 1e-10) -> None:
        k = self.as_csc()
        if not np.isfinite(k.data).all():
            raise ValueError("rate matrix has non-finite entries")
        lo = (k - sparse.diags(k.diagonal())).min()
        if lo < -tol:
            raise ValueError(f"negative off-diagonal rate {lo:.3e}")
        colsum = np.abs(k.sum(axis=0)).max()
        if colsum > tol * max(1.0, abs(k).max()):
            raise ValueError(f"columns do not sum to zero (max {colsum:.3e})")

    def evolve(self, p0: np.ndarray, times: Sequence[float]) -> np.ndarray:
        """Distribution trajectory, shape (len(times), size).

        Steps from sample to sample, starting at t = 0; the times must be
        finite, non-negative and non-decreasing (else ``ValueError``).  Up to
        ``DENSE_KINETIC_STATES`` states each step applies the dense
        propagator ``expm(K dt)``, formed again only when the step changes
        by more than the rounding of the sample times, so an evenly spaced
        grid costs one ``expm`` at any horizon.  Larger matrices step with
        ``expm_multiply``, which needs about ``|K|_1 dt`` sparse products.
        """
        times = np.asarray(times, dtype=float)
        steps = np.diff(times, prepend=0.0)
        if not (np.isfinite(times).all() and np.all(steps >= 0)):
            raise ValueError("times must be finite, non-negative and non-decreasing")
        k = self.as_csc()
        dense = self.size <= DENSE_KINETIC_STATES
        if dense:
            k = k.toarray()
        p = np.asarray(p0, dtype=float)
        out, h, prop = [], None, None
        for t, dt in zip(times, steps):
            if not dense:
                p = expm_multiply(k * dt, p)
            elif dt > 0.0:
                if h is None or abs(dt - h) > 4.0 * np.spacing(t):
                    h, prop = dt, expm(k * dt)
                p = prop @ p
            out.append(p)
        return np.asarray(out)

    def stationary(self) -> np.ndarray:
        """Normalised stationary distribution (dense null-space solve)."""
        ns = null_space(self.as_csc().toarray(), rcond=1e-10)
        if ns.shape[1] != 1:
            raise RuntimeError(
                f"kinetic stationary distribution not unique (dim {ns.shape[1]})"
            )
        p = ns[:, 0]
        if p.sum() < 0:
            p = -p
        if p.min() < -1e-10:
            raise RuntimeError(f"stationary distribution not positive: {p.min():.3e}")
        return np.clip(p, 0.0, None) / p.sum()


def diagonal_restriction(
    gen: Generator, basis: np.ndarray | None = None
) -> ClassicalKineticSystem:
    """Population-sector rate matrix of the generator.

    The populations are taken along the eigenbasis of the spectral data (or
    any supplied orthonormal basis diagonalising the free Hamiltonian).  The
    jump rate a -> b is ``<b| L(|a><a|) |b>``: the population block of the
    superoperator, read through the rotation from the eigenbasis to the
    requested basis.  The diagonal is minus the column sums.
    """
    d = gen.dim
    if basis is None:
        r = np.eye(d)
    else:
        r = dag(gen.spec.basis) @ np.asarray(basis, dtype=complex)
    # column a: vectorize(|r_a><r_a|), the population projector a in the eigenbasis
    pops = (r[:, np.newaxis, :] * r.conj()[np.newaxis, :, :]).reshape(d * d, d, order="F")
    w = np.real(pops.conj().T @ (gen.superoperator @ pops))
    np.fill_diagonal(w, 0.0)
    k = w.copy()
    k[np.diag_indices(d)] = -w.sum(axis=0)
    # <r_a| H |r_a> in the eigenbasis, where H is diagonal
    energies = (np.abs(r) ** 2).T @ gen.spec.energies[gen.spec.level_of_column]
    cks = ClassicalKineticSystem(
        labels=tuple(range(d)), energies=energies, rate_matrix=k
    )
    cks.validate()
    return cks


def detailed_balance_residual(
    cks: ClassicalKineticSystem, dist: np.ndarray
) -> float:
    """Largest detailed-balance violation of ``dist`` for the jump process.

    ``max over connected pairs |p_a W[a->b] - p_b W[b->a]|``.
    """
    # flow[b, a] = W[a->b] p_a; the diagonal cancels in flow - flow.T
    flow = cks.as_csc() @ sparse.diags(np.asarray(dist, dtype=float))
    return float(abs(flow - flow.T).max())


def gibbs_state(beta: float, spec: SpectralData) -> np.ndarray:
    """Thermal state ``exp(-beta H) / Z`` from spectral data.

    Degenerate levels are weighted by projector rank; ``beta = inf`` gives
    the normalised ground-level projector.
    """
    en = spec.energies - spec.energies.min()
    if beta == math.inf:
        p0 = spec.projectors[0]
        return np.asarray(p0) / np.real(np.trace(p0))
    weights = np.exp(-beta * en)
    z = float(sum(w * spec.multiplicity(k) for k, w in enumerate(weights)))
    rho = sum(w * p for w, p in zip(weights, spec.projectors)) / z
    return np.asarray(rho, dtype=complex)


def gibbs_distribution(beta: float, energies: np.ndarray) -> np.ndarray:
    """Normalised Boltzmann weights over a list of configuration energies."""
    en = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (en - en.min()))
    return w / w.sum()


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two states."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    vals = np.linalg.eigvalsh(0.5 * (diff + dag(diff)))
    return 0.5 * float(np.abs(vals).sum())


def decay_fit(
    traj: Trajectory,
    mu: int,
    nu: int,
    basis: np.ndarray | None = None,
    floor: float = 1e-10,
) -> tuple[complex, float]:
    """Fit ``rho[mu, nu](t) = rho[mu, nu](0) exp(A t)`` by least squares.

    Works on the log of the matrix element restricted to the window where
    its magnitude stays above ``floor``.  Returns ``(A, residual)`` with the
    residual the rms log-domain misfit.  Raises if the initial magnitude is
    below 1e-8 (nothing to fit).
    """
    z = traj.matrix_element(mu, nu, basis=basis)
    if abs(z[0]) < 1e-8:
        raise ValueError(
            f"matrix element ({mu},{nu}) starts at {abs(z[0]):.3e}; too small to fit"
        )
    mask = np.abs(z) > floor
    # use the leading contiguous window
    end = len(z)
    for k, ok in enumerate(mask):
        if not ok:
            end = k
            break
    if end < 3:
        raise ValueError("fewer than 3 usable samples for the decay fit")
    t = traj.times[:end]
    logz = np.log(np.abs(z[:end])) + 1j * np.unwrap(np.angle(z[:end]))
    coeffs = np.polyfit(t, logz, 1)
    fit = np.polyval(coeffs, t)
    resid = float(np.sqrt(np.mean(np.abs(fit - logz) ** 2)))
    return complex(coeffs[0]), resid
