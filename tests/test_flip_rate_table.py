"""The Glauber chain's local flip-rate table against the assembly it replaced.

``classical_glauber_generator`` holds K as one rate per site and pattern of
(s_{r-1}, s_r, s_{r+1}) and assembles the full triples only on first access.
The oracle here is the earlier construction over all 2^n configurations at
once, with each column put in row order by a sort; the two must agree bit
for bit, symmetries included.
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
    energy_release,
    spin_configurations,
)
from stoclim._sparse import summed
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
