"""Time evolution, stationary states, and classical kinetic restrictions.

States are plain complex ndarrays validated by
:func:`validate_density_matrix`; trajectories bundle times with states.
The diagonal (population) sector of the generator is a classical jump
process; :func:`diagonal_restriction` extracts its rate matrix, whose
stationary distribution for a thermal reservoir is the Gibbs distribution
(detailed balance).

Quantum (sparse energy-eigenbasis superoperator) and classical (rate
matrix) solvers share one route: the weakly connected components of the
generator's sparsity pattern, which refine its Bohr sectors (Baumgartner &
Narnhofer, J. Phys. A 41, 395303, 2008).  Trajectories step from sample to
sample on the components the initial state touches, with a batched dense
``expm(M dt)`` per block size up to :data:`DENSE_KINETIC_STATES` states and
``expm_multiply`` (Al-Mohy & Higham 2011) above; null spaces come from a
batched SVD of the blocks.  A classical system first lumps onto the orbits
of the declared symmetries of its rate matrix that fix the start (strong
lumpability; Kemeny & Snell, *Finite Markov Chains*, 1960, section 6.3), so
the all-up start of a uniform 12-ring steps on 118 orbits instead of a
1,848-state component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

from .generator import Generator, _blocks, vectorize, unvectorize
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

#: connected components of a generator (quantum or classical) with up to this
#: many states step with dense propagators, larger ones with expm_multiply;
#: the Glauber generator hands out rate matrices of up to this size dense
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


class _Components:
    """A sparse generator split into the weakly connected components of its
    sparsity pattern; it acts on each of them as a block of its own."""

    def __init__(self, m: sparse.spmatrix) -> None:
        self.m = sparse.csr_matrix(m)
        _, self.label = connected_components(self.m != 0, connection="weak")
        self.order = np.argsort(self.label, kind="stable")
        self.sizes = np.bincount(self.label)

    def _blocks(self, comps: np.ndarray, dense_max: float):
        """For each size s among ``comps``: their members (g, s) and blocks,
        stacked dense (g, s, s) up to ``dense_max`` and one sparse slice above."""
        starts, sizes = np.cumsum(self.sizes) - self.sizes, self.sizes[comps]
        for s in np.unique(sizes):
            idx = self.order[starts[comps[sizes == s], np.newaxis] + np.arange(s)]
            sub = self.m[idx.ravel()][:, idx.ravel()]
            if s <= dense_max:
                coo, sub = sub.tocoo(), np.zeros((len(idx), s, s), dtype=sub.dtype)
                np.add.at(sub, (coo.row // s, coo.row % s, coo.col % s), coo.data)
            yield idx, sub

    def propagate(self, v0: np.ndarray, times: np.ndarray, stochastic: bool = False) -> np.ndarray:
        """``expm(M t) v0`` at each time (rows) from t = 0, stepped from sample to
        sample on the components ``v0`` touches: batched dense propagators up to
        ``DENSE_KINETIC_STATES`` states, formed again only when the step changes
        by more than the rounding of the sample times, ``expm_multiply`` above.

        ``stochastic`` says that the columns of M sum to zero.  Each dense
        propagator's columns are then set to sum to one, the deficit going to
        the diagonal, so the rounding of ``expm`` does not pile up step after
        step along the stationary direction, where nothing damps it."""
        times = np.asarray(times, dtype=float)
        steps = np.diff(times, prepend=0.0)
        if not (np.isfinite(times).all() and np.all(steps >= 0)):
            raise ValueError("times must be finite, non-negative and non-decreasing")
        out = np.zeros((len(times), len(v0)), dtype=np.result_type(self.m.dtype, v0))
        for idx, block in self._blocks(np.unique(self.label[v0 != 0]), DENSE_KINETIC_STATES):
            v, h = v0[idx], None
            for k, (t, dt) in enumerate(zip(times, steps)):
                if dt > 0.0 and sparse.issparse(block):
                    v = expm_multiply(block * dt, v.ravel()).reshape(idx.shape)
                elif dt > 0.0:
                    if h is None or abs(dt - h) > 4.0 * np.spacing(t):
                        h, prop = dt, expm(block * dt)
                        if stochastic:
                            diag = np.arange(prop.shape[-1])
                            prop[:, diag, diag] += 1.0 - prop.sum(axis=1)
                    v = np.einsum("gij,gj->gi", prop, v)
                out[k, idx] = v
        return out

    def null_space(self, rcond: float) -> list:
        """Orthonormal null vectors, each on one component.  Singular values
        up to ``rcond`` times the largest of the whole matrix count as zero,
        as in a dense solve."""
        blocks = self._blocks(np.arange(len(self.sizes)), np.inf)
        svds = [(idx, *np.linalg.svd(block)[1:]) for idx, block in blocks]
        tol = rcond * max(sv.max() for _, sv, _ in svds)
        out = []
        for idx, sv, vh in svds:
            for comp, row in zip(*np.nonzero(sv <= tol)):
                out.append(np.zeros(len(self.label), dtype=vh.dtype))
                out[-1][idx[comp]] = vh[comp, row].conj()
        return out


def evolve(gen: Generator, rho0: np.ndarray, times: Sequence[float]) -> Trajectory:
    """Propagate ``rho0`` under the generator, sampling at ``times``.

    The state is rotated into the energy eigenbasis and stepped from sample
    to sample on each connected component of the sparse superoperator that
    it touches (see :data:`DENSE_KINETIC_STATES`), so the grid may be
    non-uniform and an evenly spaced grid costs one exponential per block
    size.  Each sample is rotated back, Hermitised and renormalised; a trace
    drift beyond ``TRACE_DRIFT_BOUND`` raises ``RuntimeError``.
    """
    rho0 = validate_density_matrix(rho0)
    t = _normalise_times(times)
    v = gen.spec.basis
    vecs = _Components(gen.superoperator).propagate(vectorize(dag(v) @ rho0 @ v), t)
    states = [rho0] + [
        _check_and_renormalise(v @ unvectorize(x, gen.dim) @ dag(v), f"t={tk}")
        for tk, x in zip(t[1:], vecs[1:])
    ]
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
    """Stationary state(s) of the generator from its null space.

    The null space is taken block by block in the energy eigenbasis, with
    ``rank_tol`` relative to the largest singular value of the whole
    superoperator, and its operator basis rotated back to the lab basis.
    It is the null space of the generator as assembled, which has no
    free-Hamiltonian term ``-i[H, rho]``, so a coherence that no channel and
    no shift touches counts as stationary although it rotates under H.  For
    example H = diag(0, 1, 2.5), one coupling between levels 0 and 1 only,
    and beta = inf give nullity 4, including |0><2| and |2><0|, for which
    ||[H, X]|| = 2.5.
    """
    blocks = _Components(gen.superoperator)
    # numerically empty null space: relax once before giving up
    ns = blocks.null_space(rank_tol) or blocks.null_space(1e-7)
    if not ns:
        raise RuntimeError("no stationary state found (empty numerical null space)")
    v = gen.spec.basis
    ops = tuple(v @ unvectorize(x, gen.dim) @ dag(v) for x in ns)
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


def _symmetry_defect(k: sparse.csc_matrix, perm) -> float:
    """``max |K[perm][:, perm] - K|`` relative to ``max(1, max|K|)``; inf when
    ``perm`` is not a permutation of the states."""
    perm = np.asarray(perm)
    if perm.shape != (k.shape[0],) or not np.array_equal(np.sort(perm), np.arange(k.shape[0])):
        return math.inf
    return float(abs(k[perm][:, perm] - k).max()) / max(1.0, abs(k).max())


@dataclass(eq=False)
class ClassicalKineticSystem:
    """Jump process on the population sector.

    ``rate_matrix`` is the column generator: ``K[b, a]`` is the jump rate
    a -> b for ``b != a`` and each diagonal entry is minus the total outflow,
    so columns sum to zero and ``dp/dt = K p``.  ``symmetries`` holds state
    permutations (index arrays) under which K is invariant,
    ``K[perm][:, perm] == K``; :meth:`evolve` propagates on their orbits
    when the start is invariant too.
    """

    labels: tuple
    energies: np.ndarray
    rate_matrix: np.ndarray | sparse.spmatrix
    symmetries: tuple = ()

    @property
    def size(self) -> int:
        return len(self.labels)

    def is_sparse(self) -> bool:
        return sparse.issparse(self.rate_matrix)

    def as_csc(self) -> sparse.csc_matrix:
        """The rate matrix as CSC, whether it was given dense or sparse."""
        return sparse.csc_matrix(self.rate_matrix, dtype=float)

    def validate(self, tol: float = 1e-10) -> None:
        """Check finiteness, non-negative jump rates, zero column sums and
        the declared symmetries, each to ``tol`` times ``max(1, max|K|)``;
        raises ``ValueError`` naming the failed check."""
        k = self.as_csc()
        if not np.isfinite(k.data).all():
            raise ValueError("rate matrix has non-finite entries")
        scale = max(1.0, abs(k).max())
        lo = (k - sparse.diags(k.diagonal())).min()
        if lo < -tol * scale:
            raise ValueError(f"negative off-diagonal rate {lo:.3e}")
        colsum = np.abs(k.sum(axis=0)).max()
        if colsum > tol * scale:
            raise ValueError(f"columns do not sum to zero (max {colsum:.3e})")
        for i, perm in enumerate(self.symmetries):
            defect = _symmetry_defect(k, perm)
            if not defect <= tol:
                raise ValueError(
                    f"rate matrix is not invariant under symmetry {i} (defect {defect:.3e})"
                )

    def evolve(self, p0: np.ndarray, times: Sequence[float]) -> np.ndarray:
        """Distribution trajectory, shape (len(times), size).

        The symmetries that fix ``p0`` exactly split the states into orbits,
        and K lumps exactly onto orbit sums (strong lumpability; Kemeny &
        Snell, *Finite Markov Chains*, 1960, section 6.3): the chain runs on
        ``Q = L K R``, with L the orbit indicator and R spreading each orbit
        uniformly, and each orbit's probability is shared out evenly again.
        With no such symmetry every orbit is one state and Q is K.  Q steps
        from sample to sample, starting at t = 0, on the connected
        components that ``L p0`` touches; the times must be finite,
        non-negative and non-decreasing (else ``ValueError``).  A component
        of up to ``DENSE_KINETIC_STATES`` orbits costs one ``expm`` per
        distinct step at any horizon, with its columns set to sum to one so
        that probability does not drift; a larger one steps with
        ``expm_multiply``, which needs about ``|Q|_1 dt`` sparse products.
        """
        p0 = np.asarray(p0, dtype=float)
        states = np.arange(self.size)
        perms = [states] + [p for p in self.symmetries if np.array_equal(p0[p], p0)]
        moves = sparse.coo_matrix(
            (np.ones(len(perms) * self.size), (np.tile(states, len(perms)), np.concatenate(perms))),
            shape=(self.size, self.size),
        )
        _, orbit = connected_components(moves, connection="weak")
        sizes = np.bincount(orbit)
        lump = sparse.csr_matrix((np.ones(self.size), (orbit, states)))
        q = lump @ self.as_csc() @ lump.T @ sparse.diags(1.0 / sizes)
        return _Components(q).propagate(lump @ p0, times, stochastic=True)[:, orbit] / sizes[orbit]

    def stationary(self) -> np.ndarray:
        """Normalised stationary distribution (null space per component)."""
        ns = _Components(self.as_csc()).null_space(1e-10)
        if len(ns) != 1:
            raise RuntimeError(f"kinetic stationary distribution not unique (dim {len(ns)})")
        p = ns[0]
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
    jump rate a -> b is ``<b| L(|a><a|) |b>``: ``P^dag S P`` for the sparse
    eigenbasis superoperator ``S`` and the sparse map ``P`` from populations
    to vectorised projectors ``|r_a><r_a|``, with ``r`` the requested basis
    in the eigenbasis.  The diagonal is minus the column sums.
    """
    d = gen.dim
    if basis is None:
        r = np.eye(d)
    else:
        r = dag(gen.spec.basis) @ np.asarray(basis, dtype=complex)
    # column a of P: vectorize(|r_a><r_a|), the population projector a in the
    # eigenbasis, whose entries pair the non-zero entries x, y of column a of r
    data, rows, cols = [], [], []
    for pos, col, row in _blocks(r[np.newaxis], np.where(r != 0.0, np.arange(d), -1).ravel()):
        x, a = np.divmod(pos, d)
        data.append((col @ row.conj())[:, 0].ravel())
        rows.append((x[:, :, np.newaxis] + d * x[:, np.newaxis, :]).ravel())
        cols.append(np.repeat(a[:, 0], a.shape[1] ** 2))
    pops = sparse.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(d * d, d)
    )
    w = np.real((pops.conj().T @ gen.superoperator @ pops).toarray())
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
