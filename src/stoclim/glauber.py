"""Kinetic Ising chains: single-spin-flip dynamics from a thermal reservoir.

A chain of +-1 spins with nearest-neighbour exchange couples to the
reservoir through sigma^x at every site.  The Hamiltonian is diagonal in
the configuration basis, so each flip releases (or absorbs) a definite
energy set by the two neighbouring spins, and the golden-rule channels
become classical single-spin-flip jump rates: Glauber-type kinetics with
detailed balance at the reservoir temperature.

Two routes are provided and agree where they overlap: a purely classical
jump process over the 2^n configurations (no Hilbert-space objects, works
past the dense dimension cap) and the full quantum generator obtained by
frequency decomposition of the sigma^x couplings: the general pipeline on
:func:`ising_system`, each site with its own reservoir copy
(:func:`_site_table`, the table ``stoclim rates`` prints for the spin
shorthand).  The rate of flipping site r depends only on r and the spins
(s_{r-1}, s_r, s_{r+1}), so the classical route holds its rate matrix as
an n x 8 local flip-rate table: the solvers ask it for the columns they
need, and the full 2^n-state matrix is assembled only when it is read.
That route builds no (2^n x n) spin table: it reads each configuration as
its basis index, whose bits are the spins, so the table comes from the 8
settings of each site's neighbourhood, the reflection and rotation images
of the indices from shifts and masks, and the energies, on first read,
from the bits of each bond.  A flip whose neighbours cancel
(e_{r-1} = -e_{r+1}) is energy-neutral and has exactly zero rate, as the
generator drops the frequency 0 (under the default density the rate of a
flip releasing w tends to 8 pi^2 / beta as w -> 0+, not to 0); on rings
whose length is a multiple of four this freezes the period-four
configuration ++-- completely, while the strictly alternating pattern
+-+- has every flip downhill and relaxes fast.

The ``ti_*`` closed forms for the translation-invariant ring book a bulk
flip against aligned neighbours at released frequency 2J -- half the
configuration-energy change 4J, which is the convention the measured
(generator) route uses.  Both scalings are exactly linear in the ring
length for the all-up/all-down coherence decay, which is what the size
scan checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._sparse import Triples
from .bath import (
    BathConfigurationError,
    BathDomainError,
    BathSpec,
    CorrelationTable,
    absorption_rate,
    correlation_table,
    emission_rate,
)
from .evolution import ClassicalKineticSystem, _RATE_TOL
from .generator import Generator, apply_adjoint, build_generator
from .operators import (
    BohrSet,
    _check_dimension,
    bohr_frequencies,
    matrix_unit,
    spectral_decompose,
)

__all__ = [
    "MAX_CLASSICAL_SITES",
    "SpinChainSpec",
    "ScalingResult",
    "spin_configurations",
    "configuration_index",
    "configuration_energy",
    "configuration_energies",
    "configuration_magnetizations",
    "flip_frequency",
    "energy_release",
    "frozen_sites",
    "blocked_configuration",
    "total_flip_rate",
    "ising_system",
    "classical_glauber_generator",
    "local_e_omega",
    "quantum_glauber_generator",
    "pair_decay_coefficient",
    "ti_rate_constant",
    "ti_flip_rates",
    "ti_offdiagonal_rate",
    "n_scaling_experiment",
]

#: the classical route enumerates configurations up to this many sites
MAX_CLASSICAL_SITES = 20

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass
class SpinChainSpec:
    """Geometry and exchange couplings of an Ising chain.

    Attributes:
        n_sites: number of spins.
        coupling: exchange constant; a scalar applies to every bond, a
            sequence gives one value per bond.  An open chain has n-1
            bonds between consecutive sites; a ring has n bonds, the last
            closing site n-1 to site 0.
        boundary: "open" or "periodic".

    A two-site ring keeps both of its bonds, so its configuration energy
    is -2*J*e0*e1; this preserves the bookkeeping identity that every flip
    changes the energy by twice its released frequency.
    """

    n_sites: int
    coupling: float | Sequence[float] = 1.0
    boundary: str = "open"

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be at least 1, got {self.n_sites}")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.n_sites == 1:
            n_bonds = 0
        elif self.boundary == "open":
            n_bonds = self.n_sites - 1
        else:
            n_bonds = self.n_sites
        if np.isscalar(self.coupling):
            self.coupling = (float(self.coupling),) * n_bonds
        else:
            vals = tuple(float(j) for j in self.coupling)
            if len(vals) != n_bonds:
                raise ValueError(
                    f"got {len(vals)} couplings for a chain with {n_bonds} bonds"
                )
            self.coupling = vals
        if not all(math.isfinite(j) for j in self.coupling):
            raise ValueError(f"couplings must be finite, got {self.coupling}")

    @property
    def n_bonds(self) -> int:
        return len(self.coupling)

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    def bond_sites(self) -> tuple:
        """Site pairs (a, b) per bond, aligned with ``coupling``."""
        n = self.n_sites
        return tuple((r, (r + 1) % n) for r in range(self.n_bonds))

    def left_bond(self, r: int) -> tuple[int, float] | None:
        """(neighbour site, coupling) on the r-1 side; None at an open edge."""
        self._check_site(r)
        if self.n_bonds == 0:
            return None
        if self.boundary == "open":
            return (r - 1, self.coupling[r - 1]) if r >= 1 else None
        k = (r - 1) % self.n_sites
        return (k, self.coupling[k])

    def right_bond(self, r: int) -> tuple[int, float] | None:
        """(neighbour site, coupling) on the r+1 side; None at an open edge."""
        self._check_site(r)
        if self.n_bonds == 0:
            return None
        if self.boundary == "open":
            return (r + 1, self.coupling[r]) if r < self.n_sites - 1 else None
        return ((r + 1) % self.n_sites, self.coupling[r])

    def _check_site(self, r: int) -> None:
        if not 0 <= r < self.n_sites:
            raise ValueError(f"site {r} outside 0..{self.n_sites - 1}")


def _bits(configs: np.ndarray, n_sites: int) -> np.ndarray:
    # bit of site q (1: spin down) in each configuration, one column per site
    return (configs[:, np.newaxis] >> (n_sites - 1 - np.arange(n_sites))) & 1


def _n_configurations(n_sites: int) -> int:
    """2^n; ``ValueError`` past the enumeration cap."""
    if n_sites > MAX_CLASSICAL_SITES:
        raise ValueError(
            f"{n_sites} sites exceed the enumeration cap {MAX_CLASSICAL_SITES}"
        )
    return 2**n_sites


def spin_configurations(n_sites: int) -> np.ndarray:
    """All 2^n spin configurations as rows of +-1, in basis order.

    Row k matches the k-th tensor-product basis vector with site 0 the
    most significant factor: bit 0 means spin +1, bit 1 means spin -1, so
    row 0 is all-up and the last row all-down.
    """
    return (1 - 2 * _bits(np.arange(_n_configurations(n_sites)), n_sites)).astype(np.int8)


def _reflected(n_sites: int) -> np.ndarray:
    """Image of each configuration under the reflection r -> n-1-r: its bits
    reversed, read as the two halves' reversals swapped."""
    low = n_sites // 2
    high = n_sites - low
    # each value of the high half reversed; the low half has as many bits or
    # one fewer, and a value below 2^(k-1) reversed over k-1 bits is its
    # k-bit reversal shifted down by one
    table = _bits(np.arange(2**high), high) @ (1 << np.arange(high))
    return (table[:, np.newaxis] | ((table[: 2**low] >> (high - low)) << high)).ravel()


def _rotated(n_sites: int) -> np.ndarray:
    """Image of each configuration under the rotation r -> r+1: the last bit
    moves to the front, ``(c >> 1) | ((c & 1) << (n-1))``, so even c go to
    c >> 1 and odd c to the same with the first bit set."""
    half = np.arange(2 ** (n_sites - 1))
    out = np.empty(2 * len(half), dtype=half.dtype)
    out[0::2] = half
    np.bitwise_or(half, 1 << (n_sites - 1), out=out[1::2])
    return out


def configuration_index(sigma: Sequence[int]) -> int:
    """Basis index of one configuration (row inverse of spin_configurations)."""
    out = 0
    for e in np.asarray(sigma):
        if e not in (1, -1):
            raise ValueError(f"spin values must be +-1, got {e}")
        out = (out << 1) | (e < 0)
    return out


def configuration_energy(cs: SpinChainSpec, sigma: Sequence[int]) -> float:
    """Ising energy -sum_bonds J * e_a * e_b; stacked ``sigma[..., site]`` give an array."""
    s = np.asarray(sigma, dtype=float)
    e = np.zeros(s.shape[:-1])
    for (a, b), j in zip(cs.bond_sites(), cs.coupling):
        e -= j * s[..., a] * s[..., b]
    return e if e.ndim else float(e)


def configuration_energies(cs: SpinChainSpec) -> np.ndarray:
    """Energies of all configurations, basis order.

    Read off the basis indices, as :func:`configuration_energy` of
    :func:`spin_configurations` bit for bit: bond by bond, each subtracts J
    where its two bits agree and -J where they differ.
    """
    return _energies(cs.n_sites, zip(cs.bond_sites(), cs.coupling))


def _energies(n_sites: int, bonds) -> np.ndarray:
    """:func:`configuration_energies` from ((a, b), J) per bond."""
    configs = np.arange(_n_configurations(n_sites))
    # bit n-1-b is s_b xor s_{b-1}: set where bond (b-1, b) is a domain wall
    walls = configs ^ _rotated(n_sites)
    e = np.zeros(len(configs))
    for (_, b), j in bonds:
        e -= np.where(walls & (1 << (n_sites - 1 - b)), -j, j)
    return e


def configuration_magnetizations(cs: SpinChainSpec) -> np.ndarray:
    """Mean spin of each configuration, basis order: ``(n - 2 N_down) / n``,
    the down-spin counts doubled up site by site (the second half of the
    configurations is the first with site 0 down)."""
    n = cs.n_sites
    size = _n_configurations(n)
    down = np.zeros(1, dtype=np.int64)
    while len(down) < size:
        down = np.concatenate([down, down + 1])
    return (n - 2 * down) / n


def flip_frequency(cs: SpinChainSpec, sigma: Sequence[int], r: int) -> float:
    """Frequency released by flipping site r: J_left*e_{r-1} + J_right*e_{r+1}.

    Missing neighbours at an open edge contribute nothing.  The
    configuration-energy change of the flip is minus twice the site spin
    times this value, so cancelling neighbours (equal couplings, opposite
    spins) make the flip energy-neutral: the dissipative channel is silent
    no matter how the site itself points.  Configurations stacked along
    leading axes (``sigma[..., site]``) give an array of frequencies.
    """
    s = np.asarray(sigma)
    out = np.zeros(s.shape[:-1])
    for bond in (cs.left_bond(r), cs.right_bond(r)):
        if bond is not None:
            out += bond[1] * s[..., bond[0]]
    return out if out.ndim else float(out)


def energy_release(cs: SpinChainSpec, sigma: Sequence[int], r: int) -> float:
    """E(sigma) - E(sigma with site r flipped), computed locally.

    Positive means the flip goes downhill.  Local evaluation keeps the
    zero of an energy-neutral flip exact instead of a difference of two
    rounded configuration energies.  Stacked configurations as in
    :func:`flip_frequency`.
    """
    s = np.asarray(sigma)
    out = -2.0 * s[..., r] * flip_frequency(cs, s, r)
    return out if out.ndim else float(out)


def frozen_sites(cs: SpinChainSpec, sigma: Sequence[int]) -> np.ndarray:
    """Boolean mask of sites whose flip releases exactly zero energy."""
    return np.array(
        [flip_frequency(cs, sigma, r) == 0.0 for r in range(cs.n_sites)]
    )


def blocked_configuration(n_sites: int) -> np.ndarray:
    """The fully blocked ring configuration ++--++--...

    Freezing every site needs its two neighbours to cancel, e_{r+2} =
    -e_r at each r, which forces the period-four pattern; the pattern
    closes into a ring only when the length is a multiple of four.  Other
    lengths -- including 6, 10, ... -- admit no fully blocked
    configuration at all, and raise.
    """
    if n_sites % 4 != 0:
        raise ValueError(
            f"no fully blocked configuration on a ring of {n_sites} sites: "
            "neighbour cancellation forces the period-four pattern ++--, "
            "which closes up only when 4 divides the length"
        )
    return np.tile(np.array([1, 1, -1, -1], dtype=np.int8), n_sites // 4)


def _flip_rate(bath: BathSpec, released: float, site: int) -> float:
    # golden-rule rate of one flip: emission when energy is released,
    # absorption when it is taken up, exactly zero when neutral
    if released > 0.0:
        rate = emission_rate(bath, released, site)
    elif released < 0.0:
        rate = absorption_rate(bath, -released, site)
    else:
        return 0.0
    if not 0.0 <= rate < math.inf:
        raise BathDomainError(
            f"flip rate {rate!r} at site {site} for released energy {released!r}: "
            "rates must be finite and non-negative"
        )
    return rate


def _check_form_factors(cs: SpinChainSpec, bath: BathSpec) -> None:
    nf = bath.n_form_factors()
    if nf is not None and nf != cs.n_sites:
        raise BathConfigurationError(
            f"{cs.n_sites} sites but {nf} form factors configured"
        )


def total_flip_rate(cs: SpinChainSpec, bath: BathSpec, sigma: Sequence[int]) -> float:
    """Sum of the outgoing flip rates of one configuration."""
    _check_form_factors(cs, bath)
    return sum(
        _flip_rate(bath, energy_release(cs, sigma, r), r) for r in range(cs.n_sites)
    )


def _site_operator(op: np.ndarray, r: int, n: int) -> np.ndarray:
    return np.kron(np.kron(np.eye(2**r), op), np.eye(2 ** (n - r - 1)))


def ising_system(cs: SpinChainSpec) -> tuple[np.ndarray, list]:
    """Tensor-product Hamiltonian and the per-site flip couplings.

    Returns ``H = -sum_bonds J Z_a Z_b``, the diagonal matrix of
    configuration_energies in the configuration basis, and one coupling
    operator per site, sigma^x at that site.
    """
    _check_dimension(cs.dim)
    n = cs.n_sites
    couplings = [_site_operator(_PAULI_X, r, n) for r in range(n)]
    return np.diag(configuration_energies(cs)), couplings


def _neighbours(cs: SpinChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sites (s_{r-1}, r, s_{r+1}) around each site r, one row per site, and
    the couplings of its (left, right) bonds, as ``left_bond`` and
    ``right_bond`` give them: bond (a, b) is the right bond of a and the
    left bond of b.  Site -1 and coupling 0 for a neighbour missing at an
    open edge."""
    a, b = np.array(cs.bond_sites(), dtype=int).reshape(-1, 2).T
    near = np.full((cs.n_sites, 3), -1)
    near[:, 1] = np.arange(cs.n_sites)
    coupling = np.zeros((cs.n_sites, 2))
    near[a, 2], coupling[a, 1] = b, cs.coupling
    near[b, 0], coupling[b, 0] = a, cs.coupling
    return near, coupling


def _local_patterns(bits: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Pattern ``4 b_{r-1} + 2 b_r + b_{r+1}`` of every site r (columns) from
    the bits b of each configuration (rows; 1: spin down), ``near`` from
    :func:`_neighbours`; a missing neighbour reads as 0."""
    left, right = near[:, 0], near[:, 2]
    return 4 * (bits[:, left] & (left >= 0)) + 2 * bits + (bits[:, right] & (right >= 0))


def _rated(bath: BathSpec, released: np.ndarray) -> np.ndarray:
    """Flip rate of each site (row) at each of its released energies.

    Each distinct (site, released energy) is rated once, each distinct
    energy once when no site has a form factor of its own; they are asked
    site by site, each site's energies in ascending order, so the first
    rate that fails names the site and energy a scan of the sites meets
    first.
    """
    shared = bath.n_form_factors() is None
    rows = released.tolist()
    rates = {}
    for r, row in enumerate(rows):
        for e in sorted(set(row)):
            if (key := e if shared else (r, e)) not in rates:
                rates[key] = _flip_rate(bath, e, r)
    return np.array([[rates[e if shared else (r, e)] for e in row] for r, row in enumerate(rows)])


class _GlauberChain(ClassicalKineticSystem):
    """The jump process of a spin chain, held as its local flip-rate table.

    ``table[r, pattern]`` is the rate of flipping site r when the bits of
    (s_{r-1}, s_r, s_{r+1}) read ``pattern`` (see :func:`_local_patterns`);
    patterns that never occur at r hold 0, and ``near`` holds the sites
    each pattern reads (:func:`_neighbours`).  Columns of K are computed
    from it on request, and the full triples only on first access; so are
    the configuration energies, from ``bonds``, ((a, b), J) per bond.
    """

    def __init__(self, table: np.ndarray, near: np.ndarray, bonds: tuple,
                 symmetries: tuple) -> None:
        self.table, self.near, self.bonds = table, near, bonds
        self.symmetries = symmetries

    @property
    def size(self) -> int:
        return 2 ** len(self.table)

    @cached_property
    def energies(self) -> np.ndarray:
        return _energies(len(self.table), self.bonds)

    @cached_property
    def _triples(self) -> Triples:
        return Triples(*self._columns(np.arange(self.size)), (self.size, self.size))

    def _columns(self, states: np.ndarray) -> tuple:
        n = len(self.table)
        sites = np.arange(n)
        flips = states[:, np.newaxis] ^ (1 << (n - 1 - sites))
        # flipping a down spin (bit 1) leads to a smaller configuration
        down = flips < states[:, np.newaxis]
        rates = self.table.ravel()[8 * sites + _local_patterns(down, self.near)]
        # in row order come the flips of the down spins by ascending site,
        # then those of the up spins by descending site; below[:, r] counts
        # the down spins up to r
        below = down.cumsum(axis=1)
        at = np.arange(len(states))[:, np.newaxis], np.where(down, below - 1, n - 1 - sites + below)
        flips[at], rates[at] = flips.copy(), rates.copy()
        # each column's outflow adds its rates in row order, the zero rates of
        # energy-neutral flips included, by the pairwise reduceat of a CSC column sum
        outflow = np.add.reduceat(rates.ravel(), np.arange(0, rates.size, n))
        # the diagonal entry goes after the flips to smaller configurations
        diagonal = np.arange(n + 1) == below[:, -1:]
        rows, vals = np.empty((len(states), n + 1), dtype=int), np.empty((len(states), n + 1))
        rows[diagonal], vals[diagonal] = states, -outflow
        rows[~diagonal], vals[~diagonal] = flips.ravel(), rates.ravel()
        keep = np.flatnonzero(vals)
        return vals.ravel()[keep], rows.ravel()[keep], np.repeat(states, n + 1)[keep]


def classical_glauber_generator(
    cs: SpinChainSpec, bath: BathSpec
) -> ClassicalKineticSystem:
    """Single-spin-flip jump process over the 2^n configurations.

    The rate of flipping site r is the golden-rule rate of the channel at
    the released energy (emission downhill, absorption uphill, exactly
    zero for energy-neutral flips), with the site's own form factor; a
    negative or non-finite rate raises ``BathDomainError``.  The released
    energy, computed as in :func:`energy_release`, depends only on r and
    the spins (s_{r-1}, s_r, s_{r+1}), so the process is held as an n x 8
    table of rates, built in one pass over the sites and the 8 settings of
    their neighbourhoods, each distinct (site, released energy) rated once,
    or each distinct energy once when no site has a form factor of its own.
    ``evolve`` reads from it only the columns of K it needs, and
    ``energies`` is computed on first read; the full K
    (``rate_matrix``, :meth:`~ClassicalKineticSystem.validate`,
    ``stationary``) is assembled on first access, one sparse matrix with
    columns summing to zero (``dp/dt = K p``).  Energy-neutral flips have zero
    rate, so K can split into disconnected components (9 on the 12-ring,
    the all-up one with 1,848 states); the solvers treat each on its own.

    Two candidate symmetries move each site r to s[r]: the reflection
    r -> n-1-r and, on periodic chains, the rotation r -> r+1.  Each is kept
    in ``symmetries`` only if K is invariant under it, read off the table:
    flipping s[r] in the image of a configuration must have the rate of
    flipping r in it, where the image's pattern at s[r] is the pattern at r
    with its neighbour bits swapped by the reflection and kept by the
    rotation.  That holds for uniform couplings and equal form factors and
    fails for random bonds or per-site form factors; an invariant start,
    such as the all-up ground configuration, then evolves on the orbits (118
    of them in the 12-ring's all-up component).  A kept symmetry's
    permutation, the image of each configuration, is made from the basis
    indices by shifts and masks.
    """
    _check_form_factors(cs, bath)
    n = cs.n_sites
    _n_configurations(n)  # refuses chains past the enumeration cap
    near, coupling = _neighbours(cs)
    # site r's neighbourhood set in each of the 8 ways, as configurations: a
    # slot's bits go to the sites they name, so on the two-site ring, whose
    # neighbours are one site, both neighbour bits are set together
    slots = (np.arange(8)[:, np.newaxis] >> np.arange(2, -1, -1)) & 1
    local = np.bitwise_or.reduce(slots * np.where(near >= 0, 1 << (n - 1 - near), 0)[:, np.newaxis], axis=2)
    # the bits of (s_{r-1}, s_r, s_{r+1}) that each sets, a missing neighbour's 0
    bits = (local[..., np.newaxis] >> (n - 1 - near[:, np.newaxis])) & 1
    spins = 1 - 2 * bits
    # the released energy, as energy_release computes it
    frequency = coupling[:, :1] * spins[..., 0] + coupling[:, 1:] * spins[..., 2]
    released = -2.0 * spins[..., 1] * frequency
    table = np.zeros((n, 8))
    table[np.arange(n)[:, np.newaxis], bits @ [4, 2, 1]] = _rated(bath, released)
    # the reflection swaps the neighbour bits of each pattern, the rotation
    # keeps them; either takes the patterns that occur at r to those that
    # occur at s[r], so the zeros of the others meet zeros
    patterns = np.arange(8)
    candidates = (
        (n - 1 - np.arange(n), (patterns & 2) | (patterns >> 2) | ((patterns & 1) << 2), _reflected),
        ((np.arange(n) + 1) % n, patterns, _rotated),
    )[: 1 + (cs.boundary == "periodic")]
    tol = _RATE_TOL * max(1.0, table.max())
    # the image of a configuration under the site map s has the spin of site r at s[r]
    symmetries = tuple(image(n) for s, swap, image in candidates
                       if (np.abs(table[s][:, swap] - table) <= tol).all())
    return _GlauberChain(table, near, tuple(zip(cs.bond_sites(), cs.coupling)), symmetries)


def local_e_omega(cs: SpinChainSpec, r: int, omega: float) -> np.ndarray:
    """Frequency component of the site-r flip, assembled locally.

    Flips site r in every configuration whose :func:`energy_release` at r
    is ``omega`` (within a tolerance relative to the couplings), so the
    operator is supported on sites {r-1, r, r+1}.  Agrees with the general
    spectral route applied to the sigma^x coupling.
    """
    d = cs.dim
    _check_dimension(d)
    cs._check_site(r)
    n = cs.n_sites
    scale = max([1.0] + [abs(j) for j in cs.coupling])
    tol = 1e-9 * max(scale, abs(omega))
    released = energy_release(cs, spin_configurations(n), r)
    configs = np.flatnonzero(np.abs(released - omega) <= tol)
    out = np.zeros((d, d))
    out[configs ^ (1 << (n - 1 - r)), configs] = 1.0
    return out


def _site_table(cs: SpinChainSpec, bath: BathSpec, bohr: BohrSet) -> CorrelationTable:
    """Reservoir table of the chain's sigma^x couplings on a Bohr set, each site
    with its own reservoir copy: the constants between two different sites
    are 0, the others those of :func:`~stoclim.bath.correlation_table`."""
    table = correlation_table(bath, bohr, n_couplings=cs.n_sites)
    own = np.eye(cs.n_sites, dtype=bool)
    return CorrelationTable(
        table.frequencies,
        np.where(own, table.minus, 0.0),
        np.where(own, table.plus, 0.0),
        table.match_tol,
    )


def quantum_glauber_generator(cs: SpinChainSpec, bath: BathSpec) -> Generator:
    """Full quantum generator of the dissipative chain.

    The general pipeline on :func:`ising_system`, with each site talking to
    its own reservoir copy (:func:`_site_table`): the population block then
    reproduces the classical kinetics exactly.  The chain with one shared
    reservoir is the general pipeline with :func:`correlation_table` as it
    is; its cross terms survive, distinct equal-energy configurations share
    collective channels, and coherences between them relax at
    population-like speed instead of the closed-form pair rate.
    """
    _check_form_factors(cs, bath)
    h, couplings = ising_system(cs)
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    return build_generator(spec, couplings, _site_table(cs, bath, bohr), bohr)


def pair_decay_coefficient(gen: Generator, mu: int, nu: int) -> complex:
    """Instantaneous decay coefficient of the basis element |mu><nu|.

    The (mu, nu) entry of the generator applied to the matrix unit.  For
    a diagonal Hamiltonian every jump moves both configurations somewhere
    else, so no feedback term touches this entry and the coefficient is
    exact even between degenerate levels (where the closed-form
    off-diagonal law does not apply).
    """
    unit = matrix_unit(gen.dim, mu, nu)
    return complex(apply_adjoint(gen, unit)[mu, nu])


def ti_rate_constant(bath: BathSpec, j_coupling: float) -> float:
    """Vacuum flip-rate constant of the translation-invariant ring.

    ``C = 2*pi*j(2J)*|g(2J)|^2``, booked at released frequency 2J (a bulk
    flip against aligned neighbours; the configuration energy changes by
    4J).  With the default mode-density convention this equals
    ``16*pi^2*J*|g(2J)|^2``.
    """
    if j_coupling <= 0:
        raise ValueError("the closed forms need a positive coupling")
    w = 2.0 * j_coupling
    g2 = abs(bath.form_factor(0, w)) ** 2
    return 2.0 * math.pi * bath.dos_factor(w) * g2


def ti_flip_rates(bath: BathSpec, j_coupling: float) -> tuple[float, float]:
    """(downhill, uphill) rates of the uniform ring: the bath's emission and
    absorption rates at released frequency 2J.

    For the thermal bath these are ``C/(1 - exp(-2*beta*J))`` and
    ``C/(exp(2*beta*J) - 1)``, whose ratio uphill/downhill is
    ``exp(-2*beta*J)``.
    """
    if j_coupling <= 0:
        raise ValueError("the closed forms need a positive coupling")
    return emission_rate(bath, 2.0 * j_coupling), absorption_rate(bath, 2.0 * j_coupling)


def ti_offdiagonal_rate(bath: BathSpec, j_coupling: float, n_sites: int) -> float:
    """Closed-form decay coefficient of the all-up/all-down coherence.

    ``-2*C*n*(1 + exp(-2*beta*J))/(1 - exp(-2*beta*J))``: every site
    contributes the same downhill-plus-uphill combination twice, so the
    coefficient is exactly linear in the ring length.
    """
    down, up = ti_flip_rates(bath, j_coupling)
    return -2.0 * n_sites * (down + up)


@dataclass(eq=False)
class ScalingResult:
    """Size scan of the all-up/all-down coherence decay rate."""

    sizes: tuple
    measured: np.ndarray
    closed_form: np.ndarray
    slope: float
    intercept: float
    r_squared: float


def n_scaling_experiment(
    sizes: Sequence[int],
    bath: BathSpec,
    j_coupling: float = 1.0,
) -> ScalingResult:
    """Measure the all-up/all-down decay coefficient across ring sizes.

    For each ring size this builds the quantum generator, reads off the
    decay coefficient of the all-up/all-down pair, and fits a line
    through (size, |Re A|).  ``closed_form`` holds the released-frequency
    convention values, which are exactly linear by construction; the
    measured column books the same flips at the full energy change, so
    the two columns differ in scale but share the linearity.
    """
    sizes = tuple(int(n) for n in sizes)
    if any(n < 2 for n in sizes):
        raise ValueError("ring sizes below 2 have no all-up/all-down pair")
    if len(set(sizes)) < 2:
        raise ValueError(f"a line fit needs at least two distinct ring sizes, got {sizes}")

    def one(n: int) -> float:
        cs = SpinChainSpec(n_sites=n, coupling=j_coupling, boundary="periodic")
        gen = quantum_glauber_generator(cs, bath)
        return abs(pair_decay_coefficient(gen, 0, cs.dim - 1).real)

    measured = np.array([one(n) for n in sizes])
    closed = np.array(
        [abs(ti_offdiagonal_rate(bath, j_coupling, n)) for n in sizes]
    )
    x = np.asarray(sizes, dtype=float)
    slope, intercept = np.polyfit(x, measured, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((measured - fit) ** 2))
    ss_tot = float(np.sum((measured - measured.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingResult(
        sizes=sizes,
        measured=measured,
        closed_form=closed,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
    )
