"""Markovian generator of the reduced dynamics, in both pictures.

The generator is a sum over channels: each positive transition
frequency w carries lowering operators ``A_j = E_w(D_j)`` (one per system
coupling ``D_j``), an emission rate matrix ``gamma_minus`` and an absorption
rate matrix ``gamma_plus`` over coupling indices, plus a Hermitian shift
Hamiltonian collected from the imaginary reservoir constants of every
frequency.  In the Heisenberg picture::

    L(X) = i[H_shift, X]
         + sum_w sum_ij gamma_minus[i,j] (A_i^dag X A_j - {A_i^dag A_j, X}/2)
         + sum_w sum_ij gamma_plus[i,j]  (A_j X A_i^dag - {A_j A_i^dag, X}/2)

and the Schroedinger-picture adjoint acts on density matrices with the jump
operators sandwiching the state.  On both branches the raising operator of
coupling i goes with the constant's first index, because the absorption
constants carry the conjugate form-factor product; with complex form
factors only this pairing keeps the Gibbs state stationary.  It is written
once, in :func:`_pair_sum`, which every coupling-pair sum goes through.

The drift ``G = i H_shift + (1/2) sum_w (K_minus + K_plus)``, with
``K_minus`` and ``K_plus`` the channels' emission and absorption sums of
``A^dag A`` and ``A A^dag``, gives the superoperator's effective Hamiltonian
``-iG`` and the closed-form off-diagonal decay rates of non-degenerate
systems.

Everything is held in the energy eigenbasis ``V``, and assembled for all
Bohr frequencies at once.  Each coupling is rotated once,
``C_j = V^dag D_j V``; one (d, d) map,
:func:`~stoclim.operators.frequency_index`, says which frequency each entry
of ``C_j`` belongs to, so each ``A_j`` is ``C_j`` restricted to the entries
of its frequency.  The reservoir constants are gathered as (F, n, n) stacks
over the Bohr set and checked positive in one batched ``eigvalsh`` per
branch.  The entries of each frequency are paired once, in
:func:`_jump_terms`: a jump term pairs any two of them, and the damping
sums ``A_i^dag A_j`` and ``A_j A_i^dag`` are a reduction of the jump terms,
their Heisenberg dual at the identity (trace preservation): the terms that
land on a diagonal, added at their source.  ``build_generator`` takes the
shift Hamiltonian from one such pass over the shift constants, and a
generator's one pass over its channels gives both the superoperator's jump
part and the drift.  Lab-basis operators are rotations ``V X V^dag`` of
this data; :attr:`Generator.channels` are views of the stacks.  The sparse
eigenbasis superoperator is held as numpy triples, which the actions in both
pictures multiply directly; scipy sees it only through the CSR view and the
dense lab-basis export.  The first-order structure maps (commutators with
the frequency components) reproduce, through their rate-weighted products,
the deviation of ``L`` from being a derivation: the product-rule identity
that pins down the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._sparse import Triples, summed, to_scipy
from .bath import BathDomainError, CorrelationTable
from .operators import (
    BohrSet,
    SpectralData,
    _unique,
    bohr_frequencies,
    dag,
    frequency_index,
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


def _pair_sum(rates: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``sum_ij rates[..., i, j] left[..., i, :, :] @ right[..., j, :, :]``.

    ``left`` and ``right`` are operator stacks with the coupling index before
    the two matrix axes, and leading axes broadcast.  An operator may be a
    column or a row vector of matrix elements, whose products pair the
    entries of a frequency block (:func:`_blocks`).  The channel index pairing is
    decided here.  With ``a`` the stacked lowering operators of a channel and
    ``a_dag`` their adjoints, emission terms are ``(gamma, a_dag, a)``, i.e.
    ``sum_ij gamma[i,j] A_i^dag A_j``, and absorption terms are
    ``(gamma.T, a, a_dag)``, i.e. ``sum_ij gamma[i,j] A_j A_i^dag``: the
    raising operator of coupling i goes with the constant's first index on
    both branches.
    """
    # one product of [L_1 ... L_n] with the stacked sum_j rates[i,j] R_j
    rated = np.einsum("...ij,...jbc->...ibc", rates, right)
    n, a, b = left.shape[-3:]
    lefts = np.moveaxis(left, -3, -2).reshape(*left.shape[:-3], a, n * b)
    return lefts @ rated.reshape(*rated.shape[:-3], n * b, rated.shape[-1])


def _blocks(components: np.ndarray, key: np.ndarray):
    """Entries of ``components`` (n, d, d) with equal ``key >= 0`` (over the
    flat entries), one block size at a time: yields ``(pos, col, row)`` with
    ``pos`` the (G, s) flat positions of G blocks of s entries and the
    couplings' elements there as column (G, n, s, 1) and row (G, n, 1, s)
    vectors, whose products pair the entries of a block."""
    c = components.reshape(len(components), -1)
    pos = np.flatnonzero(key >= 0)
    pos = pos[np.argsort(key[pos], kind="stable")]
    start = np.flatnonzero(np.diff(key[pos], prepend=-1))
    size = np.diff(start, append=len(pos))
    for s in _unique(size):
        idx = pos[start[size == s, np.newaxis] + np.arange(s)]
        col = c[:, idx].transpose(1, 0, 2)[..., np.newaxis]
        yield idx, col, col.swapaxes(-1, -2)


def _t(stack: np.ndarray) -> np.ndarray:
    return stack.swapaxes(-1, -2)


def _jump_terms(components, group, minus, plus) -> tuple:
    """Jump terms of the channels ``group`` sorts the entries into, and their
    damping sums, from one product per pair of entries of a channel.

    ``A_i`` is the coupling ``components[i]`` restricted to the entries with
    ``group == k`` (-1: none), weighted by ``minus[k]`` and ``plus[k]``.
    Returns the eigenbasis superoperator entries ``(rows, cols, values)``,
    as lists of arrays, of the emission terms ``A_j rho A_i^dag`` and the
    absorption terms ``A_i^dag rho A_j``, then the damping sums ``sum_k
    sum_ij minus[k,i,j] A_i^dag A_j`` and ``sum_k sum_ij plus[k,i,j] A_j
    A_i^dag`` as one (2, d, d) array.  These are the jump terms' Heisenberg
    dual at the identity: each branch's terms that land on a diagonal
    ``|a><a|``, added at their source (a vectorised ``[a, b]`` is the
    row-major ``[b, a]``).
    """
    d = components.shape[1]
    tgt, src = np.indices((d, d)).reshape(2, -1)
    rows, cols, vals = [], [], []
    damping = np.zeros((2, d * d), dtype=complex)
    for pos, col, row in _blocks(components, group.ravel()):
        k = group.ravel()[pos[:, 0]]
        # emission maps |src_y><src_x| to |tgt_y><tgt_x| for the entries x, y
        # of a channel, and absorption maps it back
        x, y = pos[:, :, np.newaxis], pos[:, np.newaxis, :]
        targets, sources = tgt[y] + d * tgt[x], src[y] + d * src[x]
        terms = (
            (targets, sources, _pair_sum(minus[k], col.conj(), row)),
            (sources, targets, _pair_sum(_t(plus[k]), col, row.conj())),
        )
        for out, (r, c, v) in zip(damping, terms):
            on_diagonal = r % (d + 1) == 0
            np.add.at(out, c[on_diagonal], v[on_diagonal])
            rows.append(r)
            cols.append(c)
            vals.append(v)
    return rows, cols, vals, damping.reshape(2, d, d)


@dataclass(eq=False)
class DissipationChannel:
    """One positive-frequency dissipation channel."""

    omega: float
    components: np.ndarray  # (n, d, d): E_w(D_j) per coupling, eigenbasis
    gamma_minus: np.ndarray  # (n, n) Hermitian PSD: emission rates
    gamma_plus: np.ndarray  # (n, n) Hermitian PSD: absorption rates
    basis: np.ndarray  # V: an eigenbasis X is V X V^dag in the lab basis

    @cached_property
    def _damping(self) -> np.ndarray:
        # (k_minus, k_plus) in the eigenbasis; every entry a coupling reaches pairs
        group = np.where(np.any(self.components != 0.0, axis=0), 0, -1)
        return _jump_terms(self.components, group, self.gamma_minus[None], self.gamma_plus[None])[3]

    @cached_property
    def lowering(self) -> tuple:
        """``E_w(D_j)`` per coupling, lab basis."""
        return tuple(self.basis @ self.components @ dag(self.basis))

    @property
    def k_minus(self) -> np.ndarray:
        """``sum_ij gamma_minus[i,j] A_i^dag A_j`` (PSD, lab basis)."""
        return self.basis @ self._damping[0] @ dag(self.basis)

    @property
    def k_plus(self) -> np.ndarray:
        """``sum_ij gamma_plus[i,j] A_j A_i^dag`` (PSD, lab basis)."""
        return self.basis @ self._damping[1] @ dag(self.basis)


@dataclass(eq=False)
class Generator:
    """Frequency-resolved Markovian generator.

    Holds the spectral data of the free Hamiltonian, the Hermitian shift
    Hamiltonian and the dissipation channels as stacks: the rotated
    couplings ``C_j``, the channel of every eigenbasis entry, and the
    channels' frequencies and rate matrices.  The component of coupling j
    on channel k is ``C_j`` masked by ``channel_of == k``; :attr:`channels`
    are views of the stacks.  The Schroedinger-picture superoperator is
    assembled once, lazily, in the energy eigenbasis, as the summed,
    zero-free (data, row, col) triples that the solvers read and the actions
    in both pictures multiply with numpy (column-stacking convention
    throughout).  :attr:`superoperator`, a scipy CSR view of them, and the
    dense lab-basis matrix :attr:`dense_adjoint` are the only parts of a
    generator that import scipy.
    """

    spec: SpectralData
    shift: np.ndarray  # (d, d): shift Hamiltonian, eigenbasis
    components: np.ndarray  # (n, d, d): C_j = V^dag D_j V
    channel_of: np.ndarray  # (d, d): channel of each eigenbasis entry, -1 for none
    # (entries that every coupling leaves at zero belong to none)
    omegas: np.ndarray  # (K,): channel frequencies
    gamma_minus: np.ndarray  # (K, n, n) Hermitian PSD: emission rates
    gamma_plus: np.ndarray  # (K, n, n) Hermitian PSD: absorption rates

    @property
    def dim(self) -> int:
        return self.spec.dim

    @cached_property
    def channels(self) -> tuple:
        """One :class:`DissipationChannel` per channel, in frequency order."""
        v, c = self.spec.basis, self.components
        return tuple(
            DissipationChannel(float(w), c * (self.channel_of == k), gm, gp, v)
            for k, (w, gm, gp) in enumerate(zip(self.omegas, self.gamma_minus, self.gamma_plus))
        )

    @cached_property
    def h_shift(self) -> np.ndarray:
        """Hermitian shift Hamiltonian (lab basis)."""
        return self.spec.basis @ self.shift @ dag(self.spec.basis)

    @cached_property
    def superoperator(self) -> "scipy.sparse.csr_matrix":
        """Schroedinger-picture generator in the energy eigenbasis (CSR).

        Acts on ``vectorize(V^dag rho V)`` with ``V = spec.basis``, the
        basis the channels and the drift are held in.  The non-jump part is
        ``-i H_eff rho + i rho H_eff^dag`` with ``H_eff = -i G`` for the
        drift ``G``.  A scipy view of the triples the solvers read, built
        on first access.
        """
        return to_scipy(self._triples, "csr")

    @cached_property
    def _jumps(self) -> tuple:
        """The channels' jump terms and damping sums, from one pass of
        :func:`_jump_terms`; the drift reads the sums, and :attr:`_triples`
        the terms, after which they are dropped."""
        return _jump_terms(self.components, self.channel_of, self.gamma_minus, self.gamma_plus)

    @cached_property
    def _triples(self) -> Triples:
        """The eigenbasis superoperator as summed, zero-free triples."""
        d = self.dim
        h_eff = -1j * self._eigen_drift
        rows, cols, vals, _ = self._jumps
        # the drift holds the pass's damping sums; its jump terms end here
        del self.__dict__["_jumps"]
        m, p = np.nonzero(h_eff != 0.0)
        h = h_eff[m, p][:, np.newaxis]
        n = np.arange(d)
        rows = rows + [_vec_index(m, n, d), _vec_index(n, m, d).T]
        cols = cols + [_vec_index(p, n, d), _vec_index(n, p, d).T]
        vals = vals + [np.broadcast_to(z, (len(h), d)) for z in (-1j * h, 1j * h.conj())]
        data, r, c = (np.concatenate([x.ravel() for x in xs]) for xs in (vals, rows, cols))
        return summed(data, r, c, (d * d, d * d))

    @cached_property
    def _split(self):
        """The triples' connected components, shared by evolve and stationary_state."""
        from .evolution import _Components
        return _Components(self._triples)

    @cached_property
    def _eigen_drift(self) -> np.ndarray:
        """``G = i shift + (1/2) sum_w (k_minus + k_plus)`` (eigenbasis)."""
        k_minus, k_plus = self._jumps[3]
        return 1j * self.shift + 0.5 * (k_minus + k_plus)

    @cached_property
    def _drift(self) -> np.ndarray:
        return self.spec.basis @ self._eigen_drift @ dag(self.spec.basis)

    @cached_property
    def dense_adjoint(self) -> np.ndarray:
        """Dense lab-basis matrix of the Schroedinger-picture generator."""
        from scipy import sparse

        v = self.spec.basis
        # vectorize(V X V^dag) = kron(conj(V), V) @ vectorize(X)
        rot = sparse.kron(sparse.csr_matrix(v.conj()), sparse.csr_matrix(v))
        return (rot @ self.superoperator @ rot.conj().T).toarray()

    def norm_scale(self) -> float:
        """Rough magnitude of the generator (largest rate plus shift)."""
        peaks = np.abs(np.concatenate((self.gamma_minus, self.gamma_plus))).max(axis=(1, 2))
        return max(float(np.linalg.norm(self.shift) + peaks.sum()), 1.0)


def build_generator(
    spec: SpectralData,
    couplings: Sequence[np.ndarray],
    table: CorrelationTable,
    bohr: BohrSet | None = None,
) -> Generator:
    """Assemble the generator from spectral data, couplings and rate table.

    Every Bohr frequency at once: the table constants are gathered for the
    whole Bohr set, both rate stacks are checked positive semi-definite, and
    :func:`~stoclim.operators.frequency_index` says which frequency each
    eigenbasis entry of a coupling belongs to.  A negative or non-finite
    rate matrix raises :class:`BathDomainError` naming the lowest such
    frequency (emission first).  A channel is a frequency above
    ``match_tol`` with a non-zero rate and a non-vanishing component.
    """
    if bohr is None:
        bohr = bohr_frequencies(spec)
    v = spec.basis
    rotated = dag(v) @ np.array([validate_hermitian(d) for d in couplings]) @ v
    freqs = bohr.frequencies
    k = table.index_of(freqs)
    m, p = table.minus[k], table.plus[k]
    # Hermitian part of the constants -> rates, anti-Hermitian -> shifts;
    # for real form factors these reduce to 2*Re and Im entrywise.
    sh_m, sh_p = (m - _t(m).conj()) / 2j, (p - _t(p).conj()) / 2j
    gm, gp = m + _t(m).conj(), p + _t(p).conj()
    rated = freqs > bohr.match_tol
    low = np.full((len(freqs), 2), np.nan)
    floor = np.empty((len(freqs), 2))
    for b, (c, rates) in enumerate(((m, gm), (p, gp))):
        # eigvalsh does not propagate NaN, so test finiteness first
        finite = rated & np.isfinite(rates).all(axis=(1, 2))
        low[finite, b] = np.linalg.eigvalsh(rates[finite]).min(axis=1)
        # c + c^dag rounds at the scale of the whole constant, shift
        # included, so the floor is relative to the constants
        floor[:, b] = -1e-12 * np.abs(c).max(axis=(1, 2))
    bad = rated[:, None] & ~(low >= floor)
    if bad.any():
        f, b = np.argwhere(bad)[0]
        raise BathDomainError(
            f"{('gamma_minus', 'gamma_plus')[b]} at omega={float(freqs[f])!r} has eigenvalue "
            f"{low[f, b]:.6g}; a generator with negative rates is not completely positive"
        )
    has_shift = np.any(sh_m != 0.0, axis=(1, 2)) | np.any(sh_p != 0.0, axis=(1, 2))
    has_rate = rated & (np.any(gm != 0.0, axis=(1, 2)) | np.any(gp != 0.0, axis=(1, 2)))
    # level pairs no coupling connects (exact zeros, e.g. in a permutation
    # eigenbasis) belong to no frequency: they add nothing
    index = np.where(np.any(rotated != 0.0, axis=0), frequency_index(spec, bohr), -1)
    s_m, s_p = _jump_terms(rotated, np.where(has_shift[index], index, -1), sh_m, sh_p)[3]
    shift = s_m - s_p
    # frequencies whose components all vanish carry no channel
    realised = np.bincount(index[index >= 0], minlength=len(freqs)) > 0
    chans = np.flatnonzero(has_rate & realised)
    number = np.full(len(freqs), -1)
    number[chans] = np.arange(len(chans))
    herm_err = np.linalg.norm(shift - dag(shift))
    if herm_err > 1e-10 * max(1.0, np.linalg.norm(shift)):
        raise ValueError(f"shift Hamiltonian not Hermitian (deviation {herm_err:.3e})")
    return Generator(
        spec=spec,
        shift=0.5 * (shift + dag(shift)),
        components=rotated,
        channel_of=np.where(index >= 0, number[index], -1),
        omegas=freqs[chans],
        gamma_minus=gm[chans],
        gamma_plus=gp[chans],
    )


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
    This is the drift of :func:`build_generator`'s result, so the same
    rate-matrix checks apply; it equals the sum above whenever the table,
    like every table from :func:`correlation_table`, holds no rates at
    non-positive frequencies.
    """
    return build_generator(spec, couplings, table, bohr)._drift


def _eigen_action(gen: Generator, x: np.ndarray, adjoint: bool) -> np.ndarray:
    """``S x``, or ``S^dag x`` with ``adjoint``, for the eigenbasis triples S
    and a lab-basis ``x``; each entry adds its terms in the order of the
    triples."""
    v, s = gen.spec.basis, gen._triples
    data, src, tgt = (s.data.conj(), s.row, s.col) if adjoint else (s.data, s.col, s.row)
    terms = data * vectorize(dag(v) @ np.asarray(x, dtype=complex) @ v)[src]
    y = np.empty(gen.dim**2, dtype=complex)
    y.real, y.imag = np.bincount(tgt, terms.real, len(y)), np.bincount(tgt, terms.imag, len(y))
    return v @ unvectorize(y, gen.dim) @ dag(v)


def apply_heisenberg(gen: Generator, x: np.ndarray) -> np.ndarray:
    """Generator action on an observable (Hilbert-Schmidt adjoint)."""
    return _eigen_action(gen, x, adjoint=True)


def apply_adjoint(gen: Generator, rho: np.ndarray) -> np.ndarray:
    """Schroedinger-picture action on an arbitrary matrix (no state checks)."""
    return _eigen_action(gen, rho, adjoint=False)


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

        A = -i (h_mu - h_nu) - (out_mu + out_nu) / 2 = -(g_mu + conj(g_nu))

    with ``h`` the diagonal shift energies, ``out`` the total outflow
    rates and ``g = i h + out / 2`` the eigenbasis diagonal of the drift.
    Raises :class:`NonGenericError` when the closed form does not apply (use
    the dense form instead).
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
    g = np.diag(gen._eigen_drift)
    return complex(-(g[mu] + np.conj(g[nu])))


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

    @staticmethod
    def theta_minus(x: np.ndarray, j: int, channel: DissipationChannel) -> np.ndarray:
        a = dag(channel.lowering[j])
        return -1j * (x @ a - a @ x)

    @staticmethod
    def theta_plus(x: np.ndarray, j: int, channel: DissipationChannel) -> np.ndarray:
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
    lhs = maps.theta0(x @ y) - maps.theta0(x) @ y - x @ maps.theta0(y)
    corr = np.zeros_like(lhs)

    def stack(theta, z, ch):
        return np.array([theta(z, j, ch) for j in range(len(ch.lowering))])

    # theta_minus carries A^dag and theta_plus carries A, so the two terms
    # pair like emission and absorption
    for ch in gen.channels:
        corr += _pair_sum(
            ch.gamma_minus, stack(maps.theta_minus, x, ch), stack(maps.theta_plus, y, ch)
        ) + _pair_sum(
            ch.gamma_plus.T, stack(maps.theta_plus, x, ch), stack(maps.theta_minus, y, ch)
        )
    return float(np.linalg.norm(lhs - corr))
