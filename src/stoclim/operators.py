"""Spectral toolbox for finite-dimensional Hermitian operators.

Everything downstream (reservoir kernels, dissipative generators, kinetic
restrictions) is organised around the transition frequencies of the system
Hamiltonian.  This module provides the primitives that encode that
structure:

* :func:`spectral_decompose` -- eigenlevels and orthogonal projectors, with
  near-degenerate eigenvalues clustered into a single level;
* :func:`bohr_frequencies` -- the set of level differences, closed under
  negation and containing 0;
* :func:`frequency_mask` -- the energy-eigenbasis matrix elements that a
  frequency component keeps, the one rule every component is formed by,
  and :func:`frequency_index`, the same rule for every Bohr frequency at
  once;
* :func:`e_omega` -- the frequency component ``E_w(X)`` of an operator,
  i.e. the part of ``X`` that oscillates as ``exp(-i w t)`` under the free
  Heisenberg evolution.

Operators are plain complex ndarrays throughout; the dataclasses hold the
derived spectral data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DEFAULT_CLUSTER_SCALE",
    "MAX_DIMENSION",
    "SpectralData",
    "BohrSet",
    "validate_hermitian",
    "spectral_decompose",
    "bohr_frequencies",
    "frequency_mask",
    "frequency_index",
    "e_omega",
    "commutant_membership",
    "dag",
    "matrix_unit",
]

#: Relative eigenvalue-clustering tolerance: gaps below
#: ``DEFAULT_CLUSTER_SCALE * (spectral range)`` merge into one level.
DEFAULT_CLUSTER_SCALE = 1e-9

#: Hard cap on the Hilbert-space dimension for dense spectral work.
MAX_DIMENSION = 64


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def matrix_unit(dim: int, mu: int, nu: int) -> np.ndarray:
    """The matrix unit ``|mu><nu|`` in the standard basis."""
    out = np.zeros((dim, dim), dtype=complex)
    out[mu, nu] = 1.0
    return out


def _check_dimension(d: int) -> None:
    """``ValueError`` when ``d`` exceeds :data:`MAX_DIMENSION`."""
    if d > MAX_DIMENSION:
        raise ValueError(f"dimension {d} exceeds the dense cap {MAX_DIMENSION}")


def validate_hermitian(mat: np.ndarray) -> np.ndarray:
    """Check that ``mat`` is a square, finite, Hermitian matrix.

    Returns the matrix as a complex ndarray.  Raises ``ValueError`` naming
    the first non-finite entry, or the largest offending entry if
    ``||M - M^dag||_F > 1e-12 * ||M||_F``.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    _check_dimension(mat.shape[0])
    if not np.isfinite(mat).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(mat))[0])
        raise ValueError(f"matrix entry {idx} is {mat[idx]}: entries must be finite")
    diff = mat - dag(mat)
    norm = np.linalg.norm(mat)
    bound = 1e-12 * max(norm, 1e-12)
    err = np.linalg.norm(diff)
    if err > bound:
        idx = np.unravel_index(np.argmax(np.abs(diff)), diff.shape)
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {np.abs(diff[idx]):.3e} "
            f"at entry {idx} (Frobenius deviation {err:.3e} > {bound:.3e})"
        )
    return mat


@dataclass(eq=False)
class SpectralData:
    """Clustered eigendecomposition of a Hermitian operator.

    Attributes:
        energies: strictly increasing level energies, one per cluster.
        basis: unitary whose columns are eigenvectors ordered by energy;
            within a degenerate level the column choice is the one returned
            by the dense eigensolver.
        level_of_column: level index for each basis column.
        cluster_tol: absolute gap below which eigenvalues merged.
    """

    energies: np.ndarray
    basis: np.ndarray
    level_of_column: np.ndarray
    cluster_tol: float

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def n_levels(self) -> int:
        return len(self.energies)

    def multiplicity(self, level: int) -> int:
        return int(np.sum(self.level_of_column == level))

    @property
    def match_tol(self) -> float:
        # Frequency/energy matching uses a slightly looser tolerance than the
        # clustering itself so that differences of clustered energies still hit.
        return max(self.cluster_tol, 1e-12)

    @cached_property
    def projectors(self) -> tuple:
        """Orthogonal projector per level (lab basis), built from the basis
        columns of that level on first use."""
        blocks = (self.basis[:, self.level_of_column == k] for k in range(self.n_levels))
        return tuple(b @ dag(b) for b in blocks)

    def validate(self) -> None:
        """Assert that the basis is unitary, so the level projectors are
        complete and orthogonal."""
        d = self.dim
        if np.linalg.norm(dag(self.basis) @ self.basis - np.eye(d)) > 1e-12 * d:
            raise ValueError("spectral basis is not unitary")


def spectral_decompose(
    hamiltonian: np.ndarray, cluster_tol: float | None = None
) -> SpectralData:
    """Eigenlevels of a Hermitian matrix with degeneracy clustering.

    Eigenvalues closer than ``cluster_tol`` (default: 1e-9 times the spectral
    range) are merged into one level whose projector spans the corresponding
    eigenvectors.  Levels are returned in strictly increasing order.  A
    non-finite ``cluster_tol`` raises ``ValueError``.
    """
    if cluster_tol is not None and not math.isfinite(cluster_tol):
        raise ValueError(f"cluster_tol must be finite, got {cluster_tol}")
    h = validate_hermitian(hamiltonian)
    vals, vecs = np.linalg.eigh(h)
    spread = float(vals[-1] - vals[0]) if len(vals) > 1 else 0.0
    if cluster_tol is None:
        cluster_tol = max(DEFAULT_CLUSTER_SCALE * spread, 1e-12)

    # a gap wider than cluster_tol starts a new level
    level_of_column = np.zeros(len(vals), dtype=int)
    np.cumsum(vals[1:] - vals[:-1] > cluster_tol, out=level_of_column[1:])

    energies = [
        float(np.mean(vals[level_of_column == lev]))
        for lev in range(level_of_column[-1] + 1 if len(vals) else 0)
    ]
    data = SpectralData(
        energies=np.asarray(energies),
        basis=vecs,
        level_of_column=level_of_column,
        cluster_tol=float(cluster_tol),
    )
    data.validate()
    return data


@dataclass(eq=False)
class BohrSet:
    """Transition frequencies of a spectrum and their level pairs.

    ``frequencies`` is sorted, contains 0, and is closed under negation.
    ``pairs[k]`` lists the ``(target, source)`` level-index pairs realising
    ``frequencies[k]``: the component map sends ``X`` to
    ``sum P[target] X P[source]`` with ``E[source] - E[target] = w``.
    """

    frequencies: np.ndarray
    pairs: tuple
    match_tol: float

    def __len__(self) -> int:
        return len(self.frequencies)

    def index_of(self, omega: float) -> int | None:
        k = int(_first_within(self.frequencies, omega, self.match_tol))
        return k if k >= 0 else None


def _cluster_starts(xs: np.ndarray, tol: float) -> np.ndarray:
    """Positions in sorted ``xs`` where a new frequency cluster begins.

    A value joins the current cluster while it lies within ``tol`` of the
    cluster's first value.  A gap wider than ``tol`` always starts a new
    cluster and a run of close gaps spanning at most ``tol`` is one, both
    found by array operations; only a longer run is scanned element-wise.
    """
    heads = np.flatnonzero(np.diff(xs, prepend=-np.inf) > tol)
    ends = np.append(heads[1:], len(xs))
    wide = xs[ends - 1] - xs[heads] > tol
    starts = [heads]
    for head, end in zip(heads[wide].tolist(), ends[wide].tolist()):
        for i in range(head + 1, end):
            if xs[i] - xs[head] > tol:
                head = i
                starts.append([i])
    return np.sort(np.concatenate(starts))


def bohr_frequencies(spec: SpectralData) -> BohrSet:
    """All level differences of ``spec``, with their realising level pairs.

    The sorted differences are clustered as :func:`_cluster_starts` says, and
    each cluster's first value is its frequency ``w_k``; every difference is
    labelled once, with its cluster.  ``pairs[k]`` holds the pairs whose
    difference lies within ``match_tol`` of ``w_k``: cluster ``k`` and its
    lower fringe, the members of cluster ``k - 1`` within ``match_tol`` below
    ``w_k``.  No other difference reaches ``w_k``, in floating point too:
    cluster ``k`` lies within ``match_tol`` above ``w_k``, consecutive
    frequencies are more than ``match_tol`` apart, and rounded subtraction
    is monotone.  A fringe pair is listed under two frequencies.
    """
    en = spec.energies
    n = len(en)
    tol = spec.match_tol
    diffs = np.subtract.outer(en, en).ravel()  # position src * n + tgt
    order = np.argsort(diffs, kind="stable")
    xs = diffs[order]
    starts = _cluster_starts(xs, tol)
    freqs = xs[starts]
    # every difference joins its cluster, and the next one's fringe
    label = np.cumsum(np.bincount(starts, minlength=len(xs))) - 1
    fringe = np.append(freqs[1:], np.inf)[label] - xs <= tol
    owner = np.concatenate([label, label[fringe] + 1])
    pos = np.concatenate([order, order[fringe]])
    src, tgt = np.divmod(pos[np.lexsort((pos, owner))], n)
    flat = list(zip(tgt.tolist(), src.tolist()))
    bounds = np.cumsum(np.bincount(owner, minlength=len(freqs))).tolist()
    pairs = tuple(tuple(flat[a:b]) for a, b in zip([0, *bounds], bounds))
    return BohrSet(frequencies=freqs, pairs=pairs, match_tol=tol)


def _gaps(spec: SpectralData) -> np.ndarray:
    # [a, b]: E_b - E_a over the eigenbasis columns
    col_energy = spec.energies[spec.level_of_column]
    return col_energy[np.newaxis, :] - col_energy[:, np.newaxis]


def _unique(values) -> np.ndarray:
    """The sorted distinct values, as ``np.unique(values)``; asking for the
    counts keeps numpy 2.4 from importing ``numpy.ma`` (7-16 ms) to rule out
    a masked array."""
    return np.unique(values, return_counts=True)[0]


def _first_within(values: np.ndarray, x, tol: float) -> np.ndarray:
    """Index of the first of the sorted ``values`` within ``tol`` of each ``x``
    (``|v - x| <= tol``), -1 where there is none."""
    k = np.searchsorted(values, np.asarray(x) - tol)
    out = np.full(np.shape(k), -1)
    # x - tol rounded down can put a value at k that is not within tol; the
    # later assignment wins, so the first hit does
    for c in (k + 1, k):
        c = np.minimum(c, len(values) - 1)
        out = np.where(np.abs(values[c] - x) <= tol, c, out)
    return out


def frequency_mask(spec: SpectralData, omega: float) -> np.ndarray:
    """Eigenbasis entries ``[a, b]`` with ``|E_b - E_a - omega| <= match_tol``."""
    return np.abs(_gaps(spec) - omega) <= spec.match_tol


def frequency_index(spec: SpectralData, bohr: BohrSet) -> np.ndarray:
    """Bohr-set index of every eigenbasis entry, -1 where none applies.

    Entry ``[a, b]`` gets the first ``k`` for which
    ``frequency_mask(spec, bohr.frequencies[k])`` keeps it, so the component
    at ``bohr.frequencies[k]`` is the coupling masked by ``== k``.  For the
    Bohr set of ``spec`` every entry has one: the cluster its level
    difference is labelled with in :func:`bohr_frequencies`.  The mask of
    ``k + 1`` keeps the entry too when its level pair lies in the lower
    fringe of ``k + 1``, and no other mask does; it is filed under ``k``
    alone.
    """
    return _first_within(bohr.frequencies, _gaps(spec), spec.match_tol)


def e_omega(
    x: np.ndarray,
    omega: float,
    spec: SpectralData,
    bohr: BohrSet | None = None,
) -> np.ndarray:
    """Frequency component of ``x`` at transition frequency ``omega``.

    ``E_w(X) = sum_{E - w in spectrum} P[E - w] X P[E]``; rotates as
    ``exp(-i w t)`` under the free evolution.  Formed in the eigenbasis ``V``
    as ``V ((V^dag X V) * frequency_mask(spec, w)) V^dag``.  Frequencies not
    in the transition set (within the matching tolerance) give the zero
    operator.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (spec.dim, spec.dim):
        raise ValueError(f"operator shape {x.shape} does not match dim {spec.dim}")
    if bohr is None:
        bohr = bohr_frequencies(spec)
    k = bohr.index_of(omega)
    if k is None:
        return np.zeros_like(x)
    v = spec.basis
    return v @ ((dag(v) @ x @ v) * frequency_mask(spec, bohr.frequencies[k])) @ dag(v)


def commutant_membership(x: np.ndarray, spec: SpectralData) -> tuple[bool, float]:
    """Whether ``x`` commutes with every spectral projector of ``spec``.

    Returns ``(member, residual)`` with residual the largest trace norm of a
    commutator ``[x, P]`` over the spectral projectors, a member when it is
    at most 1e-10.
    """
    x = np.asarray(x, dtype=complex)
    residual = 0.0
    for p in spec.projectors:
        comm = x @ p - p @ x
        residual = max(residual, float(np.linalg.svd(comm, compute_uv=False).sum()))
    return residual <= 1e-10, residual
