"""The connected-component solvers behind ``evolve``, ``stationary_state`` and
the classical kinetics, checked against whole-matrix dense references."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy import sparse
from scipy.linalg import expm, null_space

from stoclim import (
    BathSpec,
    ClassicalKineticSystem,
    SpinChainSpec,
    bohr_frequencies,
    build_generator,
    classical_glauber_generator,
    correlation_table,
    evolve,
    quantum_glauber_generator,
    spectral_decompose,
    stationary_state,
)
from stoclim import evolution
from stoclim._sparse import as_triples
from stoclim.evolution import _Components
from stoclim.generator import unvectorize, vectorize
from stoclim.operators import dag

SHIFTED = BathSpec(beta=1.0, kernel="quadrature", uv_cutoff=50.0, lamb_shift=True)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + dag(a))


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a @ dag(a) / np.trace(a @ dag(a)).real


def make_generator(h, couplings, bath):
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    table = correlation_table(bath, bohr, len(couplings))
    return build_generator(spec, couplings, table, bohr)


def rotated_generic():
    # d = 17 with a rotated Hamiltonian and Lamb shifts: ergodic, every
    # coherence its own 1 x 1 block
    rng = np.random.default_rng(2105)
    d = 17
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    h = u @ np.diag(np.sort(rng.uniform(0.0, 4.0, d))) @ dag(u)
    return make_generator(h, [0.1 * random_hermitian(rng, d)], SHIFTED)


def generators():
    for n in (4, 5):
        cs = SpinChainSpec(n_sites=n, coupling=1.0, boundary="periodic")
        for independent in (True, False):
            gen = quantum_glauber_generator(cs, BathSpec(beta=1.0), independent)
            yield pytest.param(gen, id=f"{n}-ring-independent-{independent}")
    yield pytest.param(rotated_generic(), id="d17-rotated-lamb")


@pytest.mark.parametrize("gen", generators())
def test_evolve_matches_dense_exponential_of_the_whole_superoperator(gen):
    rng = np.random.default_rng(gen.dim)
    rho0 = random_density(rng, gen.dim)
    times = np.array([0.0, 0.013, 0.31, 2.0])
    lsup = gen.superoperator.toarray()
    v = gen.spec.basis
    x0 = vectorize(dag(v) @ rho0 @ v)
    traj = evolve(gen, rho0, times)
    for t, rho in zip(times, traj.states):
        want = v @ unvectorize(expm(lsup * t) @ x0, gen.dim) @ dag(v)
        assert np.abs(rho - want).max() <= 1e-12, t


def span_projector(vectors):
    q = np.linalg.qr(np.column_stack(vectors))[0]
    return q @ dag(q)


def assert_same_null_space(m, rcond):
    got = _Components(as_triples(m, m.dtype)).null_space(rcond)
    want = null_space(m.toarray(), rcond=rcond)
    assert len(got) == want.shape[1]
    assert np.abs(span_projector(got) - want @ dag(want)).max() <= 1e-10
    return len(got)


def test_null_space_of_an_ergodic_generator():
    assert assert_same_null_space(rotated_generic().superoperator, 1e-9) == 1


def test_null_space_with_untouched_coherences():
    # H = diag(0, 1, 2.5), one coupling between levels 0 and 1, beta = inf:
    # |0><2| and |2><0| are touched by no channel and no shift
    spec = spectral_decompose(np.diag([0.0, 1.0, 2.5]).astype(complex))
    bohr = bohr_frequencies(spec)
    coupling = np.zeros((3, 3), dtype=complex)
    coupling[0, 1] = coupling[1, 0] = 1.0
    bath = BathSpec(beta=math.inf)
    gen = build_generator(spec, [coupling], correlation_table(bath, bohr, 1), bohr)
    assert assert_same_null_space(gen.superoperator, 1e-9) == 4
    assert len(stationary_state(gen).basis) == 4


def test_null_space_threshold_is_relative_to_the_whole_matrix():
    # a second component whose rates are 1e-12 of the first: both of its
    # singular values fall below 1e-10 of the largest, as in a dense solve
    fast = np.array([[-1.0, 2.0], [1.0, -2.0]])
    k = sparse.csc_matrix(sparse.block_diag([fast, 1e-12 * fast]))
    assert assert_same_null_space(k, 1e-10) == 3
    cks = ClassicalKineticSystem(energies=np.zeros(4), rate_matrix=k)
    with pytest.raises(RuntimeError, match=r"not unique \(dim 3\)"):
        cks.stationary()


def test_large_components_are_never_densified(monkeypatch):
    shapes = []
    real = evolution.expm
    monkeypatch.setattr(evolution, "expm", lambda a: shapes.append(a.shape) or real(a))
    cs = SpinChainSpec(n_sites=12, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    # a spread-out start touches every component, the 1,848-state one included
    p0 = np.full(cs.dim, 1.0 / cs.dim)
    dist = cks.evolve(p0, np.linspace(0.0, 0.05, 3))
    assert shapes and max(s[-1] for s in shapes) <= evolution.DENSE_KINETIC_STATES
    assert np.abs(dist.sum(axis=1) - 1.0).max() <= 1e-12


def test_large_components_step_with_expm_multiply(monkeypatch):
    # a start that no ring symmetry fixes propagates on the 1,848-state
    # component itself, past the dense size
    sizes = []
    real = scipy.sparse.linalg.expm_multiply
    monkeypatch.setattr(
        scipy.sparse.linalg, "expm_multiply", lambda a, v: sizes.append(a.shape[0]) or real(a, v)
    )
    cs = SpinChainSpec(n_sites=12, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    p0 = np.zeros(cs.dim)
    p0[[1, 2, 3]] = [0.5, 0.3, 0.2]
    dist = cks.evolve(p0, np.linspace(0.0, 0.05, 3))
    assert sizes == [1848, 1848]
    assert np.abs(dist.sum(axis=1) - 1.0).max() <= 1e-12
    assert dist.min() >= -1e-15
