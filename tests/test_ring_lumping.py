"""Classical ring kinetics propagated on symmetry orbits.

A uniform ring's rate matrix is invariant under the one-site rotation and the
reflection r -> n-1-r, and a start they fix lumps exactly onto orbit sums.
The lumped trajectories are checked against the unreduced path (the same rate
matrix declared with no symmetries) and against a 40-digit reference; rings
whose symmetry fails, and starts that are not invariant, fall back to the
unreduced result.
"""

import math

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components

from stoclim import (
    BathSpec,
    ClassicalKineticSystem,
    SpinChainSpec,
    classical_glauber_generator,
    configuration_energies,
    configuration_magnetizations,
)
from stoclim import evolution
from stoclim.evolution import _RATE_TOL, _symmetry_defect


def unreduced(cks):
    return ClassicalKineticSystem(cks.energies, cks.rate_matrix)


def delta(size, index):
    p0 = np.zeros(size)
    p0[index] = 1.0
    return p0


def ring_orbits(n):
    """Orbit label per configuration under rotations and the reflection,
    from the smallest index over the group's images."""
    idx = np.arange(2**n)
    mirror = np.zeros_like(idx)
    for r in range(n):
        mirror |= ((idx >> r) & 1) << (n - 1 - r)
    rep = idx.copy()
    for x in (idx, mirror):
        for r in range(n):
            rep = np.minimum(rep, ((x << r) | (x >> (n - r))) & (2**n - 1))
    return np.unique(rep, return_inverse=True)[1]


@pytest.fixture
def dense_shapes(monkeypatch):
    shapes = []
    real = evolution.expm
    monkeypatch.setattr(evolution, "expm", lambda a: shapes.append(a.shape[-1]) or real(a))
    return shapes


@pytest.mark.parametrize(
    "n,t_max,points,orbits", [(8, 10.0, 100, 20), (10, 10.0, 100, 47), (12, 0.1, 20, 118)]
)
def test_lumped_matches_unreduced(n, t_max, points, orbits, dense_shapes):
    cs = SpinChainSpec(n_sites=n, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    assert len(cks.symmetries) == 2
    p0, times = delta(cks.size, 0), np.linspace(0.0, t_max, points)
    got = cks.evolve(p0, times)
    # the all-up start's component steps on its orbits
    assert dense_shapes == [orbits]
    want = unreduced(cks).evolve(p0, times)
    assert got.shape == want.shape == (points, cs.dim)
    for obs in (configuration_magnetizations(cs), configuration_energies(cs)):
        assert np.abs(got @ obs - want @ obs).max() <= 1e-12


def test_lumped_error_against_a_40_digit_reference():
    # beta = 3 on [0, 1e3]: the slowest relaxation rate is 5e-8, so the
    # trajectory is stepped 99 times without reaching equilibrium
    mp = pytest.importorskip("mpmath")
    n, beta = 8, 3.0
    cs = SpinChainSpec(n_sites=n, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=beta))
    k = cks.rate_matrix.toarray()
    times = np.linspace(0.0, 1e3, 100)
    orbit = ring_orbits(n)
    _, comp = connected_components(k != 0, connection="weak")
    members = np.flatnonzero(comp == comp[0])
    labels = np.unique(orbit[members])
    pos = {c: i for i, c in enumerate(labels)}
    # the lumped component at 40 digits from the off-diagonal rates of one
    # member per orbit; the diagonal is minus the exact outflow
    mp.mp.dps = 40
    q = mp.zeros(len(labels), len(labels))
    for c in labels:
        a = members[orbit[members] == c][0]
        for b in np.flatnonzero(k[:, a]):
            if b != a:
                q[pos[orbit[b]], pos[c]] += mp.mpf(k[b, a])
                q[pos[c], pos[c]] -= mp.mpf(k[b, a])
    step = mp.expm(q * mp.mpf(times[1]))
    x = mp.matrix(len(labels), 1)
    x[pos[orbit[0]]] = 1
    ref = []
    for _ in times:
        ref.append([float(v) for v in x])
        x = step * x
    ref = np.array(ref)

    def error(dist):
        sums = np.array([np.bincount(orbit, weights=p)[labels] for p in dist])
        return np.abs(sums - ref).max()

    p0 = delta(cks.size, 0)
    lumped, plain = error(cks.evolve(p0, times)), error(unreduced(cks).evolve(p0, times))
    assert lumped <= 1e-10
    assert lumped <= plain


def test_sixteen_ring_steps_on_956_orbits(dense_shapes):
    cs = SpinChainSpec(n_sites=16, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    dist = cks.evolve(delta(cks.size, 0), np.linspace(0.0, 10.0, 100))
    assert dense_shapes == [956]
    assert np.abs(dist.sum(axis=1) - 1.0).max() <= 1e-10
    assert np.abs(dist @ configuration_magnetizations(cs)).max() <= 1.0


def test_random_bonds_keep_no_symmetry():
    rng = np.random.default_rng(11)
    cs = SpinChainSpec(n_sites=8, coupling=tuple(rng.uniform(0.5, 1.5, 8)), boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    assert cks.symmetries == ()
    p0, times = delta(cks.size, 0), np.linspace(0.0, 1.0, 11)
    assert np.array_equal(cks.evolve(p0, times), unreduced(cks).evolve(p0, times))


def test_per_site_form_factors_keep_no_symmetry():
    widths = np.linspace(1.0, 3.0, 6)
    bath = BathSpec(beta=1.0, form_factors=[lambda w, s=s: math.exp(-w / s) for s in widths])
    cs = SpinChainSpec(n_sites=6, coupling=1.0, boundary="periodic")
    assert classical_glauber_generator(cs, bath).symmetries == ()
    # equal form factors on every site keep both
    same = BathSpec(beta=1.0, form_factors=[lambda w: math.exp(-w / 2.0)] * 6)
    assert len(classical_glauber_generator(cs, same).symmetries) == 2


def test_open_chain_keeps_only_the_reflection(dense_shapes):
    n = 8
    cs = SpinChainSpec(n_sites=n, coupling=1.0, boundary="open")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    (mirror,) = cks.symmetries
    # site 0 down only <-> site n-1 down only
    assert mirror[2 ** (n - 1)] == 1 and mirror[1] == 2 ** (n - 1)
    p0, times = delta(cks.size, 0), np.linspace(0.0, 10.0, 100)
    got = cks.evolve(p0, times)
    (lumped,) = dense_shapes
    want = unreduced(cks).evolve(p0, times)
    assert dense_shapes == [lumped, cs.dim] and lumped < cs.dim
    for obs in (configuration_magnetizations(cs), configuration_energies(cs)):
        assert np.abs(got @ obs - want @ obs).max() <= 1e-12


def test_start_fixed_by_the_reflection_only():
    # sites 0 and n-1 down: a palindrome that no rotation fixes
    n = 8
    cs = SpinChainSpec(n_sites=n, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    p0, times = delta(cks.size, 2 ** (n - 1) + 1), np.linspace(0.0, 10.0, 100)
    got, want = cks.evolve(p0, times), unreduced(cks).evolve(p0, times)
    assert np.abs(got - want).max() <= 1e-12
    assert np.array_equal(got[0], p0)


def test_non_invariant_start_takes_the_unreduced_sparse_path(monkeypatch):
    calls = []
    real = scipy.sparse.linalg.expm_multiply
    monkeypatch.setattr(
        scipy.sparse.linalg, "expm_multiply", lambda a, v: calls.append(a.shape[0]) or real(a, v)
    )
    cs = SpinChainSpec(n_sites=12, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    # configuration 1: the last site down, fixed by neither symmetry
    p0, times = delta(cks.size, 1), np.linspace(0.0, 0.05, 3)
    got = cks.evolve(p0, times)
    assert calls == [1848, 1848]
    calls.clear()
    assert np.array_equal(got, unreduced(cks).evolve(p0, times))
    assert calls == [1848, 1848]


def test_wrongly_declared_symmetry_is_rejected():
    rng = np.random.default_rng(12)
    cs = SpinChainSpec(n_sites=6, coupling=tuple(rng.uniform(0.5, 1.5, 6)), boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    idx = np.arange(cks.size)
    rotation = (idx >> 1) | ((idx & 1) << 5)
    for perm in (rotation, idx[:-1], np.zeros_like(idx), idx.astype(float)):
        bad = ClassicalKineticSystem(cks.energies, cks.rate_matrix, (idx, perm))
        with pytest.raises(ValueError, match="not invariant under symmetry 1"):
            bad.validate()
    # the identity holds for any rate matrix
    ClassicalKineticSystem(cks.energies, cks.rate_matrix, (idx,)).validate()


def candidate_symmetries(n, boundary):
    """The reflection r -> n-1-r and, on a ring, the rotation r -> r+1, as
    index permutations built bit by bit."""
    idx = np.arange(2**n)
    mirror = np.zeros_like(idx)
    for r in range(n):
        mirror |= ((idx >> r) & 1) << (n - 1 - r)
    rotation = (idx >> 1) | ((idx & 1) << (n - 1))
    return [mirror] + ([rotation] if boundary == "periodic" else [])


@pytest.mark.parametrize("n", range(2, 11))
def test_kept_symmetries_are_those_the_invariance_check_keeps(n):
    rng = np.random.default_rng(40 + n)
    kept = rejected = 0
    for boundary in ("open", "periodic"):
        n_bonds = SpinChainSpec(n_sites=n, boundary=boundary).n_bonds
        x = rng.uniform(0.5, 1.5, n_bonds)
        # the reflection takes bond r to bond n-2-r
        bonds = (1.0, tuple(x), tuple((x + x[(n - 2 - np.arange(n_bonds)) % n_bonds]) / 2))
        widths = rng.uniform(1.0, 3.0, n)
        baths = (
            BathSpec(beta=1.0, form_factors=[lambda w: math.exp(-w / 2.0)] * n),
            BathSpec(beta=1.0, form_factors=[lambda w, s=s: math.exp(-w / s) for s in widths]),
        )
        for coupling in bonds:
            cs = SpinChainSpec(n_sites=n, coupling=coupling, boundary=boundary)
            for bath in baths:
                cks = classical_glauber_generator(cs, bath)
                want = [p for p in candidate_symmetries(n, boundary)
                        if _symmetry_defect(cks._triples, p) <= _RATE_TOL]
                assert len(cks.symmetries) == len(want)
                assert all(np.array_equal(p, q) for p, q in zip(cks.symmetries, want))
                kept += len(want)
                rejected += len(candidate_symmetries(n, boundary)) - len(want)
    assert kept and (rejected or n == 2)


@pytest.mark.parametrize("n,beta,t_max", [(12, 1.0, 0.1), (8, 3.0, 10.0)])
def test_lumping_reads_one_column_per_orbit(n, beta, t_max, monkeypatch):
    cs = SpinChainSpec(n_sites=n, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=beta))
    passed = []
    real = evolution.summed

    def spy(data, row, col, shape):
        passed.append((len(data), shape))
        return real(data, row, col, shape)

    with monkeypatch.context() as m:
        m.setattr(evolution, "summed", spy)
        p0, times = delta(cks.size, 0), np.linspace(0.0, t_max, 20)
        got = cks.evolve(p0, times)
    orbits = ring_orbits(n).max() + 1
    # every column of K holds at most n flips and the diagonal
    assert passed[0][1] == (orbits, orbits)
    assert passed[0][0] <= (n + 1) * orbits < cks.rate_matrix.nnz
    assert np.abs(got - unreduced(cks).evolve(p0, times)).max() <= 1e-12
