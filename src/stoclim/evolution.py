"""Time evolution, stationary states, and classical kinetic restrictions.

States are plain complex ndarrays validated by
:func:`validate_density_matrix`; a trajectory holds its samples as
propagated, one energy-eigenbasis stack, of which every other form is one
rotation.
The diagonal (population) sector of the generator is a classical jump
process; :func:`diagonal_restriction` extracts its rate matrix, whose
stationary distribution for a thermal reservoir is the Gibbs distribution
(detailed balance).

Quantum (sparse energy-eigenbasis superoperator) and classical (rate
matrix) solvers share one route, in numpy alone: both read the generator as
the package's (data, row, col) triples (:mod:`stoclim._sparse`), split into
the weakly connected components of its sparsity pattern, found by hooking
and pointer jumping, which refine its Bohr sectors (Baumgartner &
Narnhofer, J. Phys. A 41, 395303, 2008).  Trajectories step from sample to
sample on the components the initial state touches, with a batched dense
``expm(M dt)`` per block size up to :data:`DENSE_KINETIC_STATES` states;
null spaces from a batched SVD of the blocks, and |a| for a 1 x 1 block
[a].  The dense exponential is this module's own numpy kernel :func:`expm`,
scaling and squaring on Padé approximants with degree and squarings chosen
from the 1-norm alone (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005),
so every dense BLAS and LAPACK call runs in numpy's library; it keeps unit
column sums for blocks whose columns sum to zero, so probability does not
drift.  A classical system reads its rate matrix by columns, from its
triples or, for a Glauber chain, computed from its local flip-rate table.
It first lumps onto the orbits of the declared symmetries of its rate
matrix that fix the start (strong lumpability; Kemeny & Snell, *Finite
Markov Chains*, 1960, section 6.3), summing one column per orbit over the
orbits; only those columns are read, so the all-up start of a uniform
12-ring steps on 118 orbits instead of a 1,848-state component, and the
chain's full rate matrix is never assembled.

scipy only renders the public views (``Generator.superoperator``,
``ClassicalKineticSystem.rate_matrix``, ``Generator.dense_adjoint``) and
steps components larger than :data:`DENSE_KINETIC_STATES` with
``expm_multiply`` (Al-Mohy & Higham 2011); everything else computes on the
triples with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from ._sparse import Triples, as_triples, components, max_difference, summed, to_scipy
from .generator import Generator, vectorize, unvectorize
from .operators import SpectralData, _unique, dag

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

#: per-sample bound on the trace drift of a propagated state; beyond it
#: ``evolve`` raises instead of returning the sample
TRACE_DRIFT_BOUND = 1e-10

#: connected components of a generator (quantum or classical) with up to this
#: many states step with dense propagators, larger ones with expm_multiply
DENSE_KINETIC_STATES = 1024


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity (to 1e-12 of ``max(1, |rho|_F)``), unit trace (to
    1e-12) and positivity (no eigenvalue below -1e-10) of a state.

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
    if asym > 1e-12 * scale:
        raise ValueError(f"state not Hermitian: deviation {asym:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-12:
        raise ValueError(f"state trace {tr} differs from 1 by {abs(tr - 1.0):.3e}")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + dag(rho))).min())
    if lo < -1e-10:
        raise ValueError(f"state has negative eigenvalue {lo:.3e}")
    return rho


@dataclass(eq=False)
class Trajectory:
    """Sampled solution of the master equation: ``samples[k]`` is the state
    at ``times[k]`` in the energy eigenbasis, the columns V of ``basis``.
    ``states``, ``populations`` and ``matrix_element`` are views of that
    stack, each one batched rotation."""

    times: np.ndarray
    samples: np.ndarray
    basis: np.ndarray

    @cached_property
    def states(self) -> np.ndarray:
        """Lab-basis states ``V samples V^dag``, (len(times), dim, dim), on first use."""
        return self._in_basis(None)

    def _in_basis(self, basis: np.ndarray | None) -> np.ndarray:
        """The stack in an orthonormal basis (columns), the lab basis for None:
        ``W^dag samples W`` with ``W = V^dag basis``."""
        w = dag(self.basis) if basis is None else dag(self.basis) @ basis
        return dag(w) @ self.samples @ w

    def populations(self, basis: np.ndarray | None = None) -> np.ndarray:
        """Diagonal of each state, optionally in the given orthonormal basis,
        shape (len(times), dim)."""
        return np.real(np.diagonal(self._in_basis(basis), axis1=1, axis2=2))

    def matrix_element(self, mu: int, nu: int, basis: np.ndarray | None = None) -> np.ndarray:
        """``rho[mu, nu]`` at each time, optionally in the given orthonormal basis."""
        return self._in_basis(basis)[:, mu, nu]


def _check_trace(samples: np.ndarray, times: np.ndarray) -> None:
    """``RuntimeError`` naming the first time at which the trace of a sample
    has drifted from one by more than ``TRACE_DRIFT_BOUND``."""
    tr = np.real(np.trace(samples, axis1=1, axis2=2))
    # written so that a NaN trace counts as drift
    drifted = ~(np.abs(tr - 1.0) <= TRACE_DRIFT_BOUND)
    if drifted.any():
        k = int(np.argmax(drifted))
        raise RuntimeError(
            f"trace drifted to {float(tr[k])!r} at t={float(times[k])}; integration accuracy lost"
        )


# Padé coefficients b_0..b_m of the degree-m diagonal approximant of exp
# (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005)
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
# theta_m, the largest 1-norm for which degree m meets the unit roundoff
# (Higham 2005, table 2.3)
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068, 13: 5.371920351148152}


def _unit_column_sums(x: np.ndarray, stochastic: np.ndarray) -> None:
    """Give the columns of the marked propagators unit sums, in place, the
    deficit going to the diagonal."""
    if stochastic.any():
        diag = np.arange(x.shape[-1])
        x[:, diag, diag] += np.where(stochastic[:, np.newaxis], 1.0 - x.sum(axis=1), 0.0)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each square block of a stack (..., n, n).

    Scaling and squaring on Padé approximants chosen from the 1-norm alone
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005): the stack takes the
    smallest degree m in {3, 5, 7, 9} whose theta_m bounds its largest block
    1-norm, else 13, where each block A takes ``s = max(0, ceil(log2(|A|_1 /
    theta_13)))`` squarings and is first divided by the exact power 2^s, so
    its powers cannot overflow however large the step.

    A block whose columns sum to zero, to ``n`` units of rounding of its
    1-norm, has a propagator whose columns sum to one: a classical rate
    matrix, or a population block of a trace-preserving generator.  Those
    sums are reset to one after the Padé step and after every squaring, the
    deficit going to the diagonal, so that rounding does not pile up along
    the stationary direction, where nothing damps it.  Only numpy's BLAS and
    LAPACK are called.  Raises ``RuntimeError`` for a block with non-finite
    entries or a propagator that overflows.
    """
    a = np.asarray(a)
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(-1, n, n)
    with np.errstate(over="ignore"):
        norm = np.abs(a).sum(axis=1).max(axis=-1)
    if not np.isfinite(norm).all():
        raise RuntimeError("matrix exponential of a block with non-finite entries")
    if n == 1:
        return np.exp(a).reshape(shape)
    stochastic = np.abs(a.sum(axis=1)).max(axis=-1) <= n * np.finfo(float).eps * norm
    m = next((m for m in (3, 5, 7, 9) if norm.max() <= _THETA[m]), 13)
    # no squaring below degree 13, where every norm is at most theta_9
    with np.errstate(divide="ignore"):
        s = np.maximum(np.ceil(np.log2(norm / _THETA[13])), 0).astype(int)
    a = a * np.exp2(-s)[:, np.newaxis, np.newaxis]
    # A^2, A^4, A^6 and, at degree 9, A^8
    powers = [a @ a]
    while len(powers) < min(m // 2, 3):
        powers.append(powers[-1] @ powers[0])
    if m == 9:
        powers.append(powers[1] @ powers[1])
    b = _PADE[m]
    if m == 13:
        a2, a4, a6 = powers
        u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    else:
        u = sum(b[2 * j + 3] * p for j, p in enumerate(powers))
        v = sum(b[2 * j + 2] * p for j, p in enumerate(powers))
    diag = np.arange(n)
    u[:, diag, diag] += b[1]
    v[:, diag, diag] += b[0]
    u = a @ u
    x = np.linalg.solve(v - u, v + u)
    _unit_column_sums(x, stochastic)
    # square the blocks that need the most squarings first, each a leading slice
    order = np.argsort(-s, kind="stable")
    x, s, stochastic = x[order], s[order], stochastic[order]
    for i in range(s.max()):
        k = np.count_nonzero(s > i)
        x[:k] = x[:k] @ x[:k]
        _unit_column_sums(x[:k], stochastic[:k])
    if not np.isfinite(x).all():
        raise RuntimeError("matrix exponential overflowed in scaling and squaring")
    out = np.empty_like(x)
    out[order] = x
    return out.reshape(shape)


class _Components:
    """A sparse generator split into the weakly connected components of its
    sparsity pattern; it acts on each of them as a block of its own."""

    def __init__(self, m: Triples) -> None:
        self.m = m
        n = m.shape[0]
        self.label = components(n, m.row, m.col)
        self.order = np.argsort(self.label, kind="stable")
        self.sizes = np.bincount(self.label)
        self.starts = np.cumsum(self.sizes) - self.sizes
        # each state's place within its component
        self.place = np.empty(n, dtype=int)
        self.place[self.order] = np.arange(n) - self.starts[self.label[self.order]]

    def _blocks(self, comps: np.ndarray, dense_max: float):
        """For each size s among ``comps``: their members (g, s) and blocks,
        stacked dense (g, s, s) up to ``dense_max`` and one scipy CSR matrix
        of the g blocks on its diagonal above."""
        m, sizes = self.m, self.sizes[comps]
        at = self.label[m.row]
        for s in _unique(sizes):
            these = comps[sizes == s]
            idx = self.order[self.starts[these, np.newaxis] + np.arange(s)]
            slot = np.full(len(self.sizes), -1)
            slot[these] = np.arange(len(these))
            g = slot[at]
            e = g >= 0
            g, r, c = g[e], self.place[m.row[e]], self.place[m.col[e]]
            if s <= dense_max:
                block = np.zeros((len(these), s, s), dtype=m.data.dtype)
                block[g, r, c] = m.data[e]
            else:
                block = to_scipy(summed(m.data[e], g * s + r, g * s + c, (idx.size, idx.size)), "csr")
            yield idx, block

    def propagate(self, v0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """``expm(M t) v0`` at each time (rows) from t = 0, stepped from sample to
        sample on the components ``v0`` touches: batched dense propagators up to
        ``DENSE_KINETIC_STATES`` states, formed again only when the step changes
        by more than the rounding of the sample times, ``expm_multiply`` above.
        Each dense propagator is one :func:`expm` call on all blocks of a size,
        its Padé degree and squarings chosen from the 1-norm of ``M dt`` alone
        (Higham 2005); a step that overflows ``M dt`` reaches the kernel as
        non-finite entries, which it reports as ``RuntimeError``.  One row
        per time; the times must be a non-empty 1-d sequence, finite,
        non-negative and non-decreasing, else a named ``ValueError``."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError(f"times must be a non-empty 1-d sequence, got shape {times.shape}")
        contract = "times must be finite, non-negative and non-decreasing"
        if not np.isfinite(times).all():
            raise ValueError(f"{contract}, got a non-finite time")
        if times[0] < 0:
            raise ValueError(f"{contract}, got a negative first time {times[0]}")
        steps = np.diff(times, prepend=0.0)
        if np.any(steps < 0):
            k = int(np.argmax(steps < 0))
            raise ValueError(f"{contract}, got {times[k]} after {times[k - 1]}")
        out = np.zeros((len(times), len(v0)), dtype=np.result_type(self.m.data.dtype, v0))
        for idx, block in self._blocks(_unique(self.label[v0 != 0]), DENSE_KINETIC_STATES):
            v, h, dense = v0[idx], None, isinstance(block, np.ndarray)
            if not dense:
                from scipy.sparse.linalg import expm_multiply
            for k, (t, dt) in enumerate(zip(times, steps)):
                if dt > 0.0 and not dense:
                    v = expm_multiply(block * dt, v.ravel()).reshape(idx.shape)
                elif dt > 0.0:
                    if h is None or abs(dt - h) > 4.0 * np.spacing(t):
                        with np.errstate(over="ignore"):
                            h, prop = dt, expm(block * dt)
                    v = np.einsum("gij,gj->gi", prop, v)
                out[k, idx] = v
        return out

    def null_space(self, rcond: float) -> list:
        """Orthonormal null vectors, each on one component.  Singular values
        up to ``rcond`` times the largest of the whole matrix count as zero,
        as in a dense solve; a 1 x 1 block [a] has |a| and right vector 1, no SVD."""
        svds = [
            (i, np.abs(b[..., 0]), np.ones_like(b)) if b.shape[-1] == 1 else (i, *np.linalg.svd(b)[1:])
            for i, b in self._blocks(np.arange(len(self.sizes)), np.inf)
        ]
        tol = rcond * max(sv.max() for _, sv, _ in svds)
        out = []
        for idx, sv, vh in svds:
            for comp, row in zip(*np.nonzero(sv <= tol)):
                out.append(np.zeros(len(self.label), dtype=vh.dtype))
                out[-1][idx[comp]] = vh[comp, row].conj()
        return out


def evolve(gen: Generator, rho0: np.ndarray, times: Sequence[float]) -> Trajectory:
    """Propagate ``rho0`` under the generator, sampling at exactly ``times``.

    The state is rotated into the energy eigenbasis and stepped from sample
    to sample, from t = 0, on each connected component of the sparse
    superoperator that it touches (see :data:`DENSE_KINETIC_STATES`), so the
    grid may be non-uniform and an evenly spaced grid costs one exponential
    per block size.  The times obey the contract of
    :meth:`ClassicalKineticSystem.evolve`.  The samples are kept in the
    eigenbasis as propagated: the generator preserves trace and
    Hermiticity, so nothing is rescaled, and a trace drift beyond
    ``TRACE_DRIFT_BOUND`` raises ``RuntimeError``.
    """
    rho0 = validate_density_matrix(rho0)
    times = np.asarray(times, dtype=float)
    v, d = gen.spec.basis, gen.dim
    vecs = gen._split.propagate(vectorize(dag(v) @ rho0 @ v), times)
    # rows are column-stacked: row k holds sample k transposed in C order
    samples = vecs.reshape(-1, d, d).swapaxes(1, 2)
    _check_trace(samples, times)
    return Trajectory(times=times, samples=samples, basis=v)


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


def stationary_state(gen: Generator) -> StationaryResult:
    """Stationary state(s) of the generator from its null space.

    The null space is taken block by block in the energy eigenbasis, with
    singular values up to 1e-9 of the largest of the whole superoperator
    counting as zero (1e-7 when that finds none), and its operator basis
    rotated back to the lab basis.
    It is the null space of the generator as assembled, which has no
    free-Hamiltonian term ``-i[H, rho]``, so a coherence that no channel and
    no shift touches counts as stationary although it rotates under H.  For
    example H = diag(0, 1, 2.5), one coupling between levels 0 and 1 only,
    and beta = inf give nullity 4, including |0><2| and |2><0|, for which
    ||[H, X]|| = 2.5.
    """
    # numerically empty null space: relax once before giving up
    ns = gen._split.null_space(1e-9) or gen._split.null_space(1e-7)
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


# relative tolerance of the rate-matrix checks of ClassicalKineticSystem
_RATE_TOL = 1e-10


def _symmetry_defect(k: Triples, perm) -> float:
    """``max |K[perm][:, perm] - K|`` relative to ``max(1, max|K|)``; inf when
    ``perm`` is not an integer permutation of the states."""
    n = k.shape[0]
    perm = np.asarray(perm)
    if perm.shape != (n,) or perm.dtype.kind not in "iu" or (np.sort(perm) != np.arange(n)).any():
        return math.inf
    inv = np.empty(n, dtype=int)
    inv[perm] = np.arange(n)
    # K[perm][:, perm] holds K[r, c] at (inv[r], inv[c])
    defect = max_difference(k, k.data, inv[k.row], inv[k.col])
    return defect / max(1.0, np.abs(k.data).max(initial=0.0))


@cache
def _rate_matrix_type() -> type:
    """``scipy.sparse.csc_matrix`` that ``np.asarray`` reads as its dense
    array, as dense-K callers expect; made on first use, with scipy."""
    from scipy import sparse

    class RateMatrix(sparse.csc_matrix):
        def __array__(self, dtype=None, copy=None) -> np.ndarray:
            if copy is False:
                raise ValueError("the dense form of a sparse rate matrix is always a copy")
            return self.toarray().astype(float if dtype is None else dtype, copy=False)

        def __reduce__(self):
            # a class made inside a function pickles by its module-level maker
            return _rate_matrix_view, ((self.data, self.indices, self.indptr), self.shape)

    return RateMatrix


def _rate_matrix_view(arrays: tuple, shape: tuple):
    """The rate-matrix view of CSC arrays (data, indices, indptr)."""
    return _rate_matrix_type()(arrays, shape=shape)


class ClassicalKineticSystem:
    """Jump process on the population sector.

    ``rate_matrix`` is the column generator: ``K[b, a]`` is the jump rate
    a -> b for ``b != a`` and each diagonal entry is minus the total outflow,
    so columns sum to zero and ``dp/dt = K p``.  It is given dense or as a
    scipy sparse matrix and held as float triples, which the solvers read;
    the attribute is a float ``scipy.sparse.csc_matrix`` view of them, built
    on first access, that ``np.asarray`` reads as the dense array.  The
    lumped propagation reads K by columns (:meth:`_columns`), so a subclass
    that computes columns on request, as the Glauber chain of
    :func:`~stoclim.glauber.classical_glauber_generator` does, need not
    hold the triples until they are read.
    ``symmetries`` holds state permutations (index arrays) under which K is
    invariant, ``K[perm][:, perm] == K``; :meth:`evolve` propagates on their
    orbits when the start is invariant too.
    """

    def __init__(self, energies: np.ndarray, rate_matrix, symmetries: tuple = ()) -> None:
        self.energies = energies
        self.symmetries = symmetries
        if isinstance(rate_matrix, Triples):
            self._triples = rate_matrix
        else:
            self._triples = as_triples(rate_matrix, float)

    @cached_property
    def rate_matrix(self) -> "scipy.sparse.csc_matrix":
        return _rate_matrix_type()(to_scipy(self._triples, "csc"))

    @property
    def size(self) -> int:
        return self._triples.shape[0]

    def _columns(self, states: np.ndarray) -> tuple:
        """Entries ``(data, row, col)`` of K's columns ``states`` (increasing
        indices), column by column in row order, zero-free."""
        wanted = np.zeros(self.size, dtype=bool)
        wanted[states] = True
        k = self._triples
        e = np.flatnonzero(wanted[k.col])
        return k.data[e], k.row[e], k.col[e]

    def validate(self) -> None:
        """Check finiteness, non-negative jump rates, zero column sums and
        the declared symmetries, each to 1e-10 times ``max(1, max|K|)``;
        raises ``ValueError`` naming the failed check."""
        k = self._triples
        if not np.isfinite(k.data).all():
            raise ValueError("rate matrix has non-finite entries")
        scale = max(1.0, np.abs(k.data).max(initial=0.0))
        lo = k.data[k.row != k.col].min(initial=0.0)
        if lo < -_RATE_TOL * scale:
            raise ValueError(f"negative off-diagonal rate {lo:.3e}")
        colsum = np.abs(np.bincount(k.col, weights=k.data, minlength=self.size)).max(initial=0.0)
        if colsum > _RATE_TOL * scale:
            raise ValueError(f"columns do not sum to zero (max {colsum:.3e})")
        for i, perm in enumerate(self.symmetries):
            defect = _symmetry_defect(k, perm)
            if not defect <= _RATE_TOL:
                raise ValueError(
                    f"rate matrix is not invariant under symmetry {i} (defect {defect:.3e})"
                )

    def _start(self, p0) -> np.ndarray:
        """``p0`` as a float distribution over the states; ``ValueError``
        naming its length, a non-finite or negative entry, or a sum that
        differs from 1 by more than 1e-12."""
        p0 = np.asarray(p0, dtype=float)
        if p0.shape != (self.size,):
            raise ValueError(f"start distribution must have shape ({self.size},), got {p0.shape}")
        if not np.isfinite(p0).all():
            raise ValueError("start distribution has non-finite entries")
        lo = p0.min(initial=0.0)
        if lo < 0.0:
            raise ValueError(f"start distribution has negative entry {lo:.3e}")
        total = float(p0.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(
                f"start distribution sums to {total!r}, which differs from 1 by {abs(total - 1.0):.3e}"
            )
        return p0

    def evolve(self, p0: np.ndarray, times: Sequence[float]) -> np.ndarray:
        """Distribution trajectory, shape (len(times), size).

        ``p0`` must be a distribution over the states: the right length,
        finite, non-negative and summing to 1 within 1e-12 (else
        ``ValueError``).  The symmetries that fix ``p0`` exactly split the
        states into orbits, and K lumps exactly onto orbit sums (strong
        lumpability; Kemeny & Snell, *Finite Markov Chains*, 1960, section
        6.3): the chain runs on ``Q = L K R``, with L the orbit indicator and R
        picking each orbit's smallest state, as all columns of an orbit have
        the same orbit sums; only those columns of K are read (Q is exact up
        to the invariance defect that :meth:`validate` allows).  Each orbit's
        probability is shared out evenly again.  With no such symmetry every
        orbit is one state and Q is K.  Q steps from sample to sample,
        starting at t = 0, on the connected components that ``L p0`` touches; each time gives one row, and the
        times must be a non-empty 1-d sequence, finite, non-negative and
        non-decreasing (else ``ValueError``).  A component of up to
        ``DENSE_KINETIC_STATES`` orbits costs one ``expm`` per distinct step at
        any horizon, its columns set to sum to one so that probability does not
        drift; a larger one steps with ``expm_multiply``, in about ``|Q|_1 dt``
        sparse products.
        """
        p0 = self._start(p0)
        states = np.arange(self.size)
        perms = [states] + [p for p in self.symmetries if np.array_equal(p0[p], p0)]
        orbit = components(self.size, np.tile(states, len(perms)), np.concatenate(perms))
        sizes = np.bincount(orbit)
        # Q[o, o'] = sum of K over o x {rep(o')}, rep(o') the first state labelled o'
        reps = np.flatnonzero(np.diff(np.maximum.accumulate(orbit), prepend=-1) > 0)
        data, row, col = self._columns(reps)
        q = summed(data, orbit[row], orbit[col], (len(sizes),) * 2)
        lumped = np.bincount(orbit, weights=p0, minlength=len(sizes))
        return (_Components(q).propagate(lumped, times) / sizes)[:, orbit]

    def stationary(self) -> np.ndarray:
        """Normalised stationary distribution (null space per component)."""
        ns = _Components(self._triples).null_space(1e-10)
        if len(ns) != 1:
            raise RuntimeError(f"kinetic stationary distribution not unique (dim {len(ns)})")
        p = ns[0]
        if p.sum() < 0:
            p = -p
        if p.min() < -1e-10:
            raise RuntimeError(f"stationary distribution not positive: {p.min():.3e}")
        return np.clip(p, 0.0, None) / p.sum()


def diagonal_restriction(gen: Generator, basis: np.ndarray | None = None) -> ClassicalKineticSystem:
    """Population-sector rate matrix of the generator.

    The populations are taken along the eigenbasis of the spectral data (or
    any supplied orthonormal basis diagonalising the free Hamiltonian).  The
    jump rate a -> b is ``<b| L(|a><a|) |b>``: ``P^dag S P`` for the
    eigenbasis superoperator ``S`` and the map ``P`` from populations to
    vectorised projectors ``|r_a><r_a|`` (``r`` the basis in the eigenbasis),
    on the positions they reach; ``S P`` is taken entry by entry of ``S``.
    The diagonal is minus the column sums.
    """
    d = gen.dim
    r = np.eye(d) if basis is None else dag(gen.spec.basis) @ np.asarray(basis, dtype=complex)
    reach = (r != 0.0).astype(float)
    pos = np.flatnonzero((reach @ reach.T).ravel(order="F"))
    # row i of P, at position pos[i] = x + d y, and its non-zero columns first
    p = r[pos % d] * r[pos // d].conj()
    cols = np.argsort(p == 0.0, axis=1, kind="stable")[:, : (p != 0.0).sum(axis=1).max()]
    s = gen._triples
    e = np.isin(s.row, pos) & np.isin(s.col, pos)
    i, j = np.searchsorted(pos, s.row[e]), np.searchsorted(pos, s.col[e])
    terms = s.data[e, np.newaxis] * np.take_along_axis(p, cols, axis=1)[j]
    at = (d * i[:, np.newaxis] + cols[j]).ravel()
    sp = [np.bincount(at, z.ravel(), p.size).reshape(p.shape) for z in (terms.real, terms.imag)]
    k = p.real.T @ sp[0] + p.imag.T @ sp[1]
    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(k, -k.sum(axis=0))
    # <r_a| H |r_a> in the eigenbasis, where H is diagonal
    energies = (np.abs(r) ** 2).T @ gen.spec.energies[gen.spec.level_of_column]
    cks = ClassicalKineticSystem(energies=energies, rate_matrix=k)
    cks.validate()
    return cks


def detailed_balance_residual(cks: ClassicalKineticSystem, dist: np.ndarray) -> float:
    """Largest detailed-balance violation of ``dist`` for the jump process.

    ``max over connected pairs |p_a W[a->b] - p_b W[b->a]|``.  ``dist``
    must have one finite entry per state, else ``ValueError``; it need not
    sum to one.
    """
    return float(np.abs(_balance_gap(cks._triples, dist).data).max(initial=0.0))


def _balance_gap(k: Triples, dist) -> Triples:
    """``flow - flow^T`` as triples, ``flow[b, a] = K[b, a] dist[a]``, ``dist`` checked."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (k.shape[0],):
        raise ValueError(f"distribution must have shape ({k.shape[0]},), got {dist.shape}")
    if not np.isfinite(dist).all():
        raise ValueError("distribution has non-finite entries")
    # the diagonal cancels
    flow = k.data * dist[k.col]
    rows, cols = np.concatenate([k.row, k.col]), np.concatenate([k.col, k.row])
    return summed(np.concatenate([flow, -flow]), rows, cols, k.shape)


def gibbs_state(beta: float, spec: SpectralData) -> np.ndarray:
    """Thermal state ``exp(-beta H) / Z`` from spectral data.

    One rotation ``V diag(p) V^dag`` of the :func:`gibbs_distribution` ``p``
    of the eigenbasis columns' energies, so degenerate levels are weighted
    by their rank; ``beta = inf`` gives the normalised ground-level projector.
    """
    p = gibbs_distribution(beta, spec.energies[spec.level_of_column])
    v = np.asarray(spec.basis, dtype=complex)
    return (v * p) @ dag(v)


def gibbs_distribution(beta: float, energies: np.ndarray) -> np.ndarray:
    """Normalised Boltzmann weights over a list of configuration energies;
    ``beta = inf`` gives the uniform distribution over the lowest ones."""
    en = np.asarray(energies, dtype=float)
    if beta == math.inf:
        w = (en == en.min()).astype(float)
    else:
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
) -> tuple[complex, float]:
    """Fit ``rho[mu, nu](t) = rho[mu, nu](0) exp(A t)`` by least squares.

    Works on the log of the matrix element restricted to the window where
    its magnitude stays above 1e-10.  Returns ``(A, residual)`` with the
    residual the rms log-domain misfit.  Raises if the initial magnitude is
    below 1e-8 (nothing to fit).
    """
    z = traj.matrix_element(mu, nu, basis=basis)
    if abs(z[0]) < 1e-8:
        raise ValueError(
            f"matrix element ({mu},{nu}) starts at {abs(z[0]):.3e}; too small to fit"
        )
    # the leading contiguous window
    usable = np.abs(z) > 1e-10
    end = len(z) if usable.all() else int(np.argmin(usable))
    if end < 3:
        raise ValueError("fewer than 3 usable samples for the decay fit")
    t = traj.times[:end]
    logz = np.log(np.abs(z[:end])) + 1j * np.unwrap(np.angle(z[:end]))
    coeffs = np.polyfit(t, logz, 1)
    fit = np.polyval(coeffs, t)
    resid = float(np.sqrt(np.mean(np.abs(fit - logz) ** 2)))
    return complex(coeffs[0]), resid
