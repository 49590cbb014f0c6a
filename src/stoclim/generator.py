"""Markovian generator of the reduced dynamics, in both pictures.

The generator is assembled channel by channel: each positive transition
frequency w carries lowering operators ``A_j = E_w(D_j)`` (one per system
coupling ``D_j``), an emission rate matrix ``gamma_minus`` and an absorption
rate matrix ``gamma_plus`` over coupling indices, plus a Hermitian shift
Hamiltonian collected from the imaginary reservoir constants of every
frequency.  In the Heisenberg picture::

    L(X) = i[H_shift, X]
         + sum_w sum_ij gamma_minus[i,j] (A_i^dag X A_j - {A_i^dag A_j, X}/2)
         + sum_w sum_ij gamma_plus[i,j]  (A_j X A_i^dag - {A_j A_i^dag, X}/2)

The plus channel pairs its indices in the opposite order: the absorption
constants carry the conjugate form-factor product relative to emission, so
the raising operator built from coupling j goes with the constant's second
index.  With real form factors the two orders coincide; with complex ones
only this order keeps the Gibbs state stationary.

and the Schroedinger-picture adjoint acts on density matrices with the jump
operators sandwiching the state.  That adjoint is stored once, as a sparse
matrix in the energy eigenbasis; the dense matrix and the actions in both
pictures are views of it.  The module also provides the first-order
structure maps (commutators with the frequency components) whose products
reproduce the deviation of ``L`` from being a derivation -- the product-rule
identity used to pin down the cross-coupling index pairing -- and closed-form
off-diagonal decay rates for non-degenerate systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse

from .bath import BathDomainError, CorrelationTable
from .operators import (
    BohrSet,
    SpectralData,
    bohr_frequencies,
    dag,
    e_omega,
    validate_hermitian,
)

__all__ = [
    "NonGenericError",
    "DissipationChannel",
    "Generator",
    "StructureMapSet",
    "GenericityReport",
    "build_drift",
    "build_generator",
    "apply_heisenberg",
    "apply_schroedinger",
    "offdiag_rate",
    "genericity_check",
    "leibniz_defect",
    "vectorize",
    "unvectorize",
]


class NonGenericError(ValueError):
    """Raised when a closed form needs a non-degenerate, unambiguous spectrum."""


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorisation (columns concatenated top to bottom)."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    return np.asarray(vec, dtype=complex).reshape((dim, dim), order="F")


def _vec_index(row: np.ndarray, col: np.ndarray, dim: int) -> np.ndarray:
    # vectorised positions of |row_k><col_l| for every pair (k, l)
    return np.add.outer(row, dim * col)


@dataclass(eq=False)
class DissipationChannel:
    """One positive-frequency dissipation channel."""

    omega: float
    lowering: tuple  # E_w(D_j) per coupling, lab basis
    gamma_minus: np.ndarray  # (n, n) Hermitian PSD: emission rates
    gamma_plus: np.ndarray  # (n, n) Hermitian PSD: absorption rates

    @cached_property
    def k_minus(self) -> np.ndarray:
        """``sum_ij gamma_minus[i,j] A_i^dag A_j`` (PSD)."""
        return self._quad_form(self.gamma_minus, lower_first=True)

    @cached_property
    def k_plus(self) -> np.ndarray:
        """``sum_ij gamma_plus[i,j] A_j A_i^dag`` (PSD)."""
        return self._quad_form(self.gamma_plus, lower_first=False)

    def _quad_form(self, rates: np.ndarray, lower_first: bool) -> np.ndarray:
        d = self.lowering[0].shape[0]
        out = np.zeros((d, d), dtype=complex)
        for i, a_i in enumerate(self.lowering):
            for j, a_j in enumerate(self.lowering):
                r = rates[i, j]
                if r == 0.0:
                    continue
                if lower_first:
                    out += r * (dag(a_i) @ a_j)
                else:
                    out += r * (a_j @ dag(a_i))
        return out


@dataclass(eq=False)
class Generator:
    """Frequency-resolved Markovian generator.

    Holds the spectral data of the free Hamiltonian, the dissipation
    channels, and the Hermitian shift Hamiltonian.  The Schroedinger-picture
    superoperator is assembled once, lazily, as a sparse matrix in the
    energy eigenbasis (:attr:`superoperator`); the dense lab-basis matrix
    and the actions in both pictures are views of it (column-stacking
    convention throughout).
    """

    spec: SpectralData
    channels: tuple
    h_shift: np.ndarray

    @property
    def dim(self) -> int:
        return self.spec.dim

    @cached_property
    def superoperator(self) -> sparse.csr_matrix:
        """Schroedinger-picture generator in the energy eigenbasis (CSR).

        Acts on ``vectorize(V^dag rho V)`` with ``V = spec.basis``.  There a
        frequency-w lowering operator lives on the level pairs whose energy
        difference is w, and the shift Hamiltonian and the anticommutator
        terms, which commute with the free Hamiltonian, on the
        level-diagonal blocks; entries outside these blocks are rounding and
        are dropped.  The non-jump part is ``-i H_eff rho + i rho H_eff^dag``
        with ``H_eff = h_shift - (i/2) sum_w (k_minus + k_plus)``.
        """
        d = self.dim
        v = self.spec.basis
        col_energy = self.spec.energies[self.spec.level_of_column]
        # gap[a, b] = E_b - E_a, the frequency carried by |a><b|
        gap = col_energy[np.newaxis, :] - col_energy[:, np.newaxis]
        tol = self.spec.match_tol
        rows, cols, vals = [], [], []
        k_tot = np.zeros((d, d), dtype=complex)
        for ch in self.channels:
            tgt, src = np.nonzero(np.abs(gap - ch.omega) <= tol)
            low = np.array([(dag(v) @ a @ v)[tgt, src] for a in ch.lowering])
            # level pairs no coupling connects (exact zeros, e.g. in a
            # permutation eigenbasis) carry no entries
            keep = np.any(low != 0.0, axis=0)
            tgt, src, low = tgt[keep], src[keep], low[:, keep]
            # emission A_j rho A_i^dag and absorption A_i^dag rho A_j
            rows += [_vec_index(tgt, tgt, d), _vec_index(src, src, d)]
            cols += [_vec_index(src, src, d), _vec_index(tgt, tgt, d)]
            vals += [
                low.T @ ch.gamma_minus.T @ low.conj(),
                low.conj().T @ ch.gamma_plus @ low,
            ]
            k_tot += ch.k_minus + ch.k_plus
        h_eff = dag(v) @ (self.h_shift - 0.5j * k_tot) @ v
        m, p = np.nonzero((np.abs(gap) <= tol) & (h_eff != 0.0))
        h = h_eff[m, p][:, np.newaxis]
        n = np.arange(d)
        rows += [_vec_index(m, n, d), _vec_index(n, m, d).T]
        cols += [_vec_index(p, n, d), _vec_index(n, p, d).T]
        vals += [np.broadcast_to(z, (len(h), d)) for z in (-1j * h, 1j * h.conj())]
        data, r, c = (np.concatenate([x.ravel() for x in xs]) for xs in (vals, rows, cols))
        out = sparse.csr_matrix((data, (r, c)), shape=(d * d, d * d))
        out.eliminate_zeros()
        return out

    @cached_property
    def dense_adjoint(self) -> np.ndarray:
        """Dense lab-basis matrix of the Schroedinger-picture generator."""
        v = self.spec.basis
        # vectorize(V X V^dag) = kron(conj(V), V) @ vectorize(X)
        rot = sparse.kron(sparse.csr_matrix(v.conj()), sparse.csr_matrix(v))
        return (rot @ self.superoperator @ rot.conj().T).toarray()

    def norm_scale(self) -> float:
        """Rough magnitude of the generator (largest rate plus shift)."""
        scale = float(np.linalg.norm(self.h_shift))
        for ch in self.channels:
            scale += float(
                np.abs(ch.gamma_minus).max(initial=0.0)
                + np.abs(ch.gamma_plus).max(initial=0.0)
            )
        return max(scale, 1.0)


def build_generator(
    spec: SpectralData,
    couplings: Sequence[np.ndarray],
    table: CorrelationTable,
    bohr: BohrSet | None = None,
) -> Generator:
    """Assemble the generator from spectral data, couplings and rate table."""
    if bohr is None:
        bohr = bohr_frequencies(spec)
    couplings = [validate_hermitian(d) for d in couplings]
    n = len(couplings)
    d = spec.dim
    channels = []
    h_shift = np.zeros((d, d), dtype=complex)
    for k, w in enumerate(bohr.frequencies):
        comps = tuple(e_omega(dop, w, spec, bohr) for dop in couplings)
        m = table.minus[table.index_of(w)]
        p = table.plus[table.index_of(w)]
        # Hermitian part of the constants -> rates, anti-Hermitian -> shifts;
        # for real form factors these reduce to 2*Re and Im entrywise.
        sh_m = (m - dag(m)) / 2j
        sh_p = (p - dag(p)) / 2j
        if np.any(sh_m != 0.0) or np.any(sh_p != 0.0):
            for i in range(n):
                for j in range(n):
                    if sh_m[i, j] != 0.0:
                        h_shift += sh_m[i, j] * (dag(comps[i]) @ comps[j])
                    if sh_p[i, j] != 0.0:
                        h_shift -= sh_p[i, j] * (comps[j] @ dag(comps[i]))
        if w > bohr.match_tol:
            gm = m + dag(m)
            gp = p + dag(p)
            for name, rates in (("gamma_minus", gm), ("gamma_plus", gp)):
                lo = float(np.linalg.eigvalsh(rates).min())
                if lo < -1e-12 * np.abs(rates).max():
                    raise BathDomainError(
                        f"{name} at omega={float(w)!r} has eigenvalue {lo:.6g}; "
                        "a generator with negative rates is not completely positive"
                    )
            # frequencies whose components all vanish (no level pair realises
            # the transition through any coupling) contribute nothing
            if (np.any(gm != 0.0) or np.any(gp != 0.0)) and any(
                np.any(c) for c in comps
            ):
                channels.append(
                    DissipationChannel(
                        omega=float(w),
                        lowering=comps,
                        gamma_minus=gm,
                        gamma_plus=gp,
                    )
                )
    herm_err = np.linalg.norm(h_shift - dag(h_shift))
    if herm_err > 1e-10 * max(1.0, np.linalg.norm(h_shift)):
        raise ValueError(f"shift Hamiltonian not Hermitian (deviation {herm_err:.3e})")
    h_shift = 0.5 * (h_shift + dag(h_shift))
    return Generator(spec=spec, channels=tuple(channels), h_shift=h_shift)


def build_drift(
    spec: SpectralData,
    couplings: Sequence[np.ndarray],
    table: CorrelationTable,
    bohr: BohrSet | None = None,
) -> np.ndarray:
    """Drift operator of the associated quantum Langevin equation.

    ``G = sum_{ij,w} [ c-_ij(w) E_w(D_i)^dag E_w(D_j)
                      + conj(c+_ij(w)) E_w(D_i) E_w(D_j)^dag ]``
    where c-+ are the complex reservoir constants.  Its Hermitian part is
    half the total damping; the anti-Hermitian part generates the shift.
    """
    if bohr is None:
        bohr = bohr_frequencies(spec)
    couplings = [validate_hermitian(d) for d in couplings]
    d = spec.dim
    out = np.zeros((d, d), dtype=complex)
    for w in bohr.frequencies:
        comps = [e_omega(dop, w, spec, bohr) for dop in couplings]
        m = table.minus[table.index_of(w)]
        p = table.plus[table.index_of(w)]
        for i in range(len(couplings)):
            for j in range(len(couplings)):
                if m[i, j] != 0.0:
                    out += m[i, j] * (dag(comps[i]) @ comps[j])
                if p[i, j] != 0.0:
                    out += np.conj(p[i, j]) * (comps[i] @ dag(comps[j]))
    return out


def _eigen_action(gen: Generator, superop, x: np.ndarray) -> np.ndarray:
    v = gen.spec.basis
    y = superop @ vectorize(dag(v) @ np.asarray(x, dtype=complex) @ v)
    return v @ unvectorize(y, gen.dim) @ dag(v)


def apply_heisenberg(gen: Generator, x: np.ndarray) -> np.ndarray:
    """Generator action on an observable (Hilbert-Schmidt adjoint)."""
    return _eigen_action(gen, gen.superoperator.conj().T, x)


def apply_adjoint(gen: Generator, rho: np.ndarray) -> np.ndarray:
    """Schroedinger-picture action on an arbitrary matrix (no state checks)."""
    return _eigen_action(gen, gen.superoperator, rho)


def apply_schroedinger(gen: Generator, rho: np.ndarray) -> np.ndarray:
    """Generator action on a density matrix (validates the state first)."""
    from .evolution import validate_density_matrix

    validate_density_matrix(rho)
    return apply_adjoint(gen, rho)


@dataclass
class GenericityReport:
    """Outcome of the non-degeneracy / unique-transition-pair check."""

    degenerate_levels: list
    ambiguous_frequencies: list

    @property
    def is_generic(self) -> bool:
        return not self.degenerate_levels and not self.ambiguous_frequencies


def genericity_check(spec: SpectralData, bohr: BohrSet | None = None) -> GenericityReport:
    """Check that every level is simple and every non-zero transition
    frequency is realised by exactly one level pair."""
    if bohr is None:
        bohr = bohr_frequencies(spec)
    degenerate = [
        (float(spec.energies[k]), spec.multiplicity(k))
        for k in range(spec.n_levels)
        if spec.multiplicity(k) > 1
    ]
    ambiguous = [
        (float(w), len(bohr.pairs[k]))
        for k, w in enumerate(bohr.frequencies)
        if abs(w) > bohr.match_tol and len(bohr.pairs[k]) > 1
    ]
    return GenericityReport(degenerate_levels=degenerate, ambiguous_frequencies=ambiguous)


def offdiag_rate(gen: Generator, mu: int, nu: int) -> complex:
    """Closed-form decay coefficient of the matrix unit ``|mu><nu|``.

    For a generic (non-degenerate, unambiguous) spectrum each off-diagonal
    matrix unit in the eigenbasis is an eigenvector of the adjoint
    generator; this returns its eigenvalue

        A = -i (h_mu - h_nu) - (out_mu + out_nu) / 2

    with ``h`` the diagonal shift energies and ``out`` the total outflow
    rates.  Raises :class:`NonGenericError` when the closed form does not
    apply (use the dense form instead).
    """
    report = genericity_check(gen.spec)
    if not report.is_generic:
        raise NonGenericError(
            "off-diagonal closed form needs a generic spectrum; "
            f"degenerate levels: {report.degenerate_levels}, "
            f"ambiguous frequencies: {report.ambiguous_frequencies}"
        )
    if mu == nu:
        raise ValueError("off-diagonal rate needs two distinct level indices")
    v = gen.spec.basis
    h_diag = np.real(np.diag(dag(v) @ gen.h_shift @ v))
    k_tot = np.zeros((gen.dim, gen.dim), dtype=complex)
    for ch in gen.channels:
        k_tot += ch.k_minus + ch.k_plus
    k_diag = np.real(np.diag(dag(v) @ k_tot @ v))
    return complex(
        -1j * (h_diag[mu] - h_diag[nu]) - 0.5 * (k_diag[mu] + k_diag[nu])
    )


@dataclass(eq=False)
class StructureMapSet:
    """First-order structure maps attached to a generator.

    ``theta_minus(x, j, w) = -i[x, E_w(D_j)^dag]`` and
    ``theta_plus(x, j, w) = -i[x, E_w(D_j)]`` are the coefficient maps of the
    reservoir increments in the associated flow equation; their pairwise
    products weighted by the channel rates measure the failure of the
    generator to be a derivation.
    """

    generator: Generator

    def theta_minus(self, x: np.ndarray, j: int, channel: DissipationChannel) -> np.ndarray:
        a = dag(channel.lowering[j])
        return -1j * (x @ a - a @ x)

    def theta_plus(self, x: np.ndarray, j: int, channel: DissipationChannel) -> np.ndarray:
        a = channel.lowering[j]
        return -1j * (x @ a - a @ x)

    def theta0(self, x: np.ndarray) -> np.ndarray:
        return apply_heisenberg(self.generator, x)


def leibniz_defect(maps: StructureMapSet, x: np.ndarray, y: np.ndarray) -> float:
    """Frobenius norm of the product-rule defect.

    ``L(XY) - L(X)Y - X L(Y)`` minus the rate-weighted structure-map
    products; identically zero (up to rounding) for the pairing used here.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    gen = maps.generator
    lhs = (
        maps.theta0(x @ y) - maps.theta0(x) @ y - x @ maps.theta0(y)
    )
    corr = np.zeros_like(lhs)
    for ch in gen.channels:
        n = len(ch.lowering)
        for i in range(n):
            for j in range(n):
                gm = ch.gamma_minus[i, j]
                gp = ch.gamma_plus[i, j]
                if gm != 0.0:
                    corr += gm * (
                        maps.theta_minus(x, i, ch) @ maps.theta_plus(y, j, ch)
                    )
                if gp != 0.0:
                    corr += gp * (
                        maps.theta_plus(x, j, ch) @ maps.theta_minus(y, i, ch)
                    )
    return float(np.linalg.norm(lhs - corr))
