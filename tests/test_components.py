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
    ising_system,
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
            if independent:
                gen = quantum_glauber_generator(cs, BathSpec(beta=1.0))
            else:
                # one shared reservoir: the general pipeline on the chain's system
                gen = make_generator(*ising_system(cs), BathSpec(beta=1.0))
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


def svd_null_space(comps, rcond):
    """The null space with an SVD of every block, 1 x 1 blocks included."""
    blocks = comps._blocks(np.arange(len(comps.sizes)), np.inf)
    svds = [(idx, *np.linalg.svd(block)[1:]) for idx, block in blocks]
    tol = rcond * max(sv.max() for _, sv, _ in svds)
    out = []
    for idx, sv, vh in svds:
        for comp, row in zip(*np.nonzero(sv <= tol)):
            out.append(np.zeros(len(comps.label), dtype=vh.dtype))
            out[-1][idx[comp]] = vh[comp, row].conj()
    return out


def random_square(rng, s, dtype):
    a = rng.standard_normal((s, s))
    return a + 1j * rng.standard_normal((s, s)) if dtype == complex else a


def block_diagonal(rng, sizes, dtype, tol):
    """A permuted block-diagonal matrix: a 1 x 1 block 1024 (the largest
    singular value), dense blocks of the given sizes, every other one of rank
    one less, and 1 x 1 blocks 0, +-tol, +-tol * (1 + 2**-52) and, complex,
    +-i tol and 0.3 + 0.4i."""
    singles = [0.0, tol, -tol, tol * (1 + 2**-52), -tol * (1 + 2**-52)]
    if dtype == complex:
        singles += [1j * tol, -1j * tol, 0.3 + 0.4j]
    blocks = [np.array([[1024.0]])] + [np.array([[x]]) for x in singles]
    for k, s in enumerate(sizes):
        a, b = random_square(rng, s, dtype), random_square(rng, s, dtype)
        if k % 2:
            a[:, -1] = 0.0  # rank s - 1, still dense
            a = a @ b
        blocks.append(a / (10 * s))
    n = sum(len(b) for b in blocks)
    perm, m, start = rng.permutation(n), np.zeros((n, n), dtype=dtype), 0
    for b in blocks:
        idx = perm[start : start + len(b)]
        m[np.ix_(idx, idx)] = b
        start += len(b)
    return m


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("seed", range(6))
def test_null_space_matches_an_svd_of_every_block(seed, dtype):
    # 1 x 1 blocks take |a| without an SVD; nullities and spans must be those
    # of an SVD of every block, also for entries exactly at the threshold
    rng = np.random.default_rng(seed)
    rcond = 2.0**-30
    sizes = rng.choice([1, 2, 3, 5], size=6).tolist()
    comps = _Components(as_triples(block_diagonal(rng, sizes, dtype, rcond * 1024.0), dtype))
    assert 1 in comps.sizes and comps.sizes.max() > 1
    for r in (rcond, 1e-9, 1e-7):
        got, want = comps.null_space(r), svd_null_space(comps, r)
        assert len(got) == len(want) > 0
        assert np.abs(span_projector(got) - span_projector(want)).max() <= 1e-12
    # 0 and the entries exactly at +-tol are null, one ulp above is not; every
    # other dense block has one null vector
    at_tol = 5 if dtype == complex else 3
    assert len(comps.null_space(rcond)) == at_tol + len(sizes) // 2


def test_untouched_coherences_keep_their_basis():
    # the nullity-4 example of stationary_state: the 1 x 1 blocks give the
    # same operator basis as an SVD of every block
    spec = spectral_decompose(np.diag([0.0, 1.0, 2.5]).astype(complex))
    bohr = bohr_frequencies(spec)
    coupling = np.zeros((3, 3), dtype=complex)
    coupling[0, 1] = coupling[1, 0] = 1.0
    gen = build_generator(spec, [coupling], correlation_table(BathSpec(beta=math.inf), bohr, 1), bohr)
    v = spec.basis
    want = [v @ unvectorize(x, 3) @ dag(v) for x in svd_null_space(_Components(gen._triples), 1e-9)]
    got = stationary_state(gen).basis
    assert len(got) == len(want) == 4
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-15


def test_evolve_and_stationary_state_share_one_component_split(monkeypatch):
    calls = []
    real = evolution.components
    monkeypatch.setattr(evolution, "components", lambda *args: calls.append(args[0]) or real(*args))
    gen = rotated_generic()
    rho0 = random_density(np.random.default_rng(3), gen.dim)
    evolve(gen, rho0, np.linspace(0.0, 1.0, 5))
    assert stationary_state(gen).ergodic
    assert calls == [gen.dim**2]
