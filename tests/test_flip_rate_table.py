"""The Glauber chain's local flip-rate table against the assembly it replaced.

``classical_glauber_generator`` holds K as one rate per site and pattern of
(s_{r-1}, s_r, s_{r+1}) and assembles the full triples only on first access.
The oracles here are the earlier constructions over the (2^n x n) spin
table: K over all 2^n configurations at once, with each column put in row
order by a sort, and the table, energies, magnetizations and symmetries read
off the spin table.  The generator now computes all of these from the
configuration integers; the two must agree bit for bit.
"""

import math

import numpy as np
import pytest

from stoclim import (
    BathDomainError,
    BathSpec,
    ClassicalKineticSystem,
    SpinChainSpec,
    classical_glauber_generator,
    configuration_energies,
    configuration_energy,
    configuration_magnetizations,
    energy_release,
    spin_configurations,
)
from stoclim._sparse import summed, to_scipy
from stoclim.evolution import _RATE_TOL
from stoclim.glauber import _flip_rate


def sorted_assembly(cs, bath):
    """K's triples and the kept symmetries, every configuration rated at once
    and each column's flips sorted into row order."""
    n, size = cs.n_sites, cs.dim
    spins = spin_configurations(n)
    configs = np.arange(size)
    flips = configs[:, np.newaxis] ^ (1 << (n - 1 - np.arange(n)))
    rates = np.empty((size, n))
    for r in range(n):
        released = energy_release(cs, spins, r)
        levels = np.unique(released)
        rated = np.array([_flip_rate(bath, e, r) for e in levels.tolist()])
        rates[:, r] = rated[np.searchsorted(levels, released)]
    maps = np.array([n - 1 - np.arange(n), (np.arange(n) + 1) % n][: 1 + (cs.boundary == "periodic")])
    perms = (1 << (n - 1 - maps)) @ (spins < 0).T
    flat, tol = rates.ravel(), _RATE_TOL * max(1.0, rates.sum(axis=1).max())
    symmetries = [p for p, s in zip(perms, maps)
                  if all(np.abs(flat[n * p + s[r]] - rates[:, r]).max() <= tol for r in range(n))]
    order = np.argsort(flips, axis=1)
    flips, rates = np.take_along_axis(flips, order, axis=1), np.take_along_axis(rates, order, axis=1)
    outflow = np.add.reduceat(rates.ravel(), np.arange(0, size * n, n))
    diagonal = np.arange(n + 1) == (flips < configs[:, np.newaxis]).sum(axis=1, keepdims=True)
    rows, vals = np.empty((size, n + 1), dtype=int), np.empty((size, n + 1))
    rows[diagonal], vals[diagonal] = configs, -outflow
    rows[~diagonal], vals[~diagonal] = flips.ravel(), rates.ravel()
    return summed(vals.ravel(), rows.ravel(), np.repeat(configs, n + 1), (size, size)), symmetries


def cases(n):
    """Open and periodic chains with uniform, random and mirror-symmetric
    bonds, at beta 1 and 3, with no, equal and per-site form factors."""
    rng = np.random.default_rng(60 + n)
    for boundary in ("open", "periodic"):
        n_bonds = SpinChainSpec(n_sites=n, boundary=boundary).n_bonds
        x = rng.uniform(0.5, 1.5, n_bonds)
        # the reflection takes bond r to bond n-2-r
        mirror = (x + x[(n - 2 - np.arange(n_bonds)) % max(n_bonds, 1)]) / 2
        widths = rng.uniform(1.0, 3.0, n)
        for coupling in (1.0, tuple(x), tuple(mirror)):
            cs = SpinChainSpec(n_sites=n, coupling=coupling, boundary=boundary)
            for beta in (1.0, 3.0):
                for form_factors in (
                    None,
                    [lambda w: math.exp(-w / 2.0)] * n,
                    [lambda w, s=s: math.exp(-w / s) for s in widths],
                ):
                    yield cs, BathSpec(beta=beta, form_factors=form_factors)


@pytest.mark.parametrize("n", range(1, 11))
def test_table_gives_the_sorted_assembly_bit_for_bit(n):
    kept = 0
    for cs, bath in cases(n):
        cks = classical_glauber_generator(cs, bath)
        assert "_triples" not in vars(cks)
        want, symmetries = sorted_assembly(cs, bath)
        got = cks._triples
        assert got.shape == want.shape
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b) and a.dtype == b.dtype
        assert len(cks.symmetries) == len(symmetries)
        assert all(np.array_equal(p, q) for p, q in zip(cks.symmetries, symmetries))
        kept += len(symmetries)
        cks.validate()
    assert kept


def spin_table_construction(cs, bath):
    """The rate table, energies, magnetizations and kept symmetries read off
    the (2^n x n) spin table: each site rated at the released energy of every
    configuration, each of its distinct energies once, and each candidate
    site map's permutation made from the table's down-spin bits."""
    n = cs.n_sites
    spins = spin_configurations(n)
    down = (spins < 0).astype(int)
    table = np.zeros((n, 8))
    for r in range(n):
        pattern = 2 * down[:, r]
        for weight, bond in ((4, cs.left_bond(r)), (1, cs.right_bond(r))):
            if bond is not None:
                pattern = pattern + weight * down[:, bond[0]]
        released = energy_release(cs, spins, r)
        levels = np.unique(released)
        rated = np.array([_flip_rate(bath, e, r) for e in levels.tolist()])
        table[r, pattern] = rated[np.searchsorted(levels, released)]
    maps = np.array([n - 1 - np.arange(n), (np.arange(n) + 1) % n][: 1 + (cs.boundary == "periodic")])
    perms = (1 << (n - 1 - maps)) @ down.T
    # the reflection swaps a pattern's neighbour bits, the rotation keeps them
    patterns = np.arange(8)
    images = ((patterns & 2) | (patterns >> 2) | ((patterns & 1) << 2), patterns)
    tol = _RATE_TOL * max(1.0, table.max())
    symmetries = [p for p, s, image in zip(perms, maps, images)
                  if (np.abs(table[s][:, image] - table) <= tol).all()]
    return table, configuration_energy(cs, spins), spins.mean(axis=1), symmetries


def tied_cases(n):
    """Signed whole-number and zero bonds, whose released energies repeat
    from site to site, at beta 1 and infinity, with no and per-site form
    factors."""
    rng = np.random.default_rng(80 + n)
    for boundary in ("open", "periodic"):
        n_bonds = SpinChainSpec(n_sites=n, boundary=boundary).n_bonds
        for coupling in (tuple(rng.integers(-2, 3, n_bonds).astype(float)), (0.0,) * n_bonds, -0.5):
            cs = SpinChainSpec(n_sites=n, coupling=coupling, boundary=boundary)
            for beta in (1.0, math.inf):
                for form_factors in (None, [lambda w, s=s: 1.0 / (1.0 + s * w) for s in range(n)]):
                    yield cs, BathSpec(beta=beta, form_factors=form_factors)


@pytest.mark.parametrize("n", range(1, 11))
def test_configuration_integers_give_the_spin_table_construction_bit_for_bit(n):
    for cs, bath in (*cases(n), *tied_cases(n)):
        cks = classical_glauber_generator(cs, bath)
        assert "energies" not in vars(cks)
        table, energies, magnetizations, symmetries = spin_table_construction(cs, bath)
        assert cks.table.dtype == table.dtype and cks.table.tobytes() == table.tobytes()
        for got in (cks.energies, configuration_energies(cs)):
            assert got.dtype == energies.dtype and got.tobytes() == energies.tobytes()
        got = configuration_magnetizations(cs)
        assert got.dtype == magnetizations.dtype and got.tobytes() == magnetizations.tobytes()
        assert len(cks.symmetries) == len(symmetries)
        for p, q in zip(cks.symmetries, symmetries):
            assert p.dtype == np.int64 and np.array_equal(p, q)
        want = to_scipy(sorted_assembly(cs, bath)[0], "csc")
        k = cks.rate_matrix
        for a in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(k, a), getattr(want, a))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("coupling", ["uniform", "random"])
def test_evolve_never_assembles_the_full_rate_matrix(boundary, coupling):
    n = 8
    n_bonds = SpinChainSpec(n_sites=n, boundary=boundary).n_bonds
    bonds = 1.0 if coupling == "uniform" else tuple(np.random.default_rng(3).uniform(0.5, 1.5, n_bonds))
    cs = SpinChainSpec(n_sites=n, coupling=bonds, boundary=boundary)
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    p0 = np.zeros(cks.size)
    p0[0] = 1.0
    times = np.linspace(0.0, 1.0, 11)
    got = cks.evolve(p0, times)
    assert "_triples" not in vars(cks)
    # the same trajectory from the assembled K, read column by column
    k = cks._triples
    assert np.array_equal(got, ClassicalKineticSystem(cks.energies, k, cks.symmetries).evolve(p0, times))


def test_rates_that_never_occur_are_not_asked_for():
    # on the two-site ring both neighbours of a site are the other site, so
    # only equal neighbour spins occur: the released energies are +-2.5, and
    # the +-1.5 of opposite neighbour spins is never rated
    calls = []

    def density(w):
        calls.append(w)
        return 1.0

    cs = SpinChainSpec(n_sites=2, coupling=(1.0, 0.25), boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0, mode_density=density))
    assert calls and all(abs(abs(w) - 2.5) < 1e-12 for w in calls)
    cks.validate()
    with pytest.raises(BathDomainError, match="at site 0"):
        classical_glauber_generator(cs, BathSpec(beta=1.0, mode_density=lambda w: -1.0))
