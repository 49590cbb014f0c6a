"""The sparse eigenbasis superoperator and the views built on it."""

import numpy as np
from scipy.linalg import expm

from stoclim import (
    BathSpec,
    bohr_frequencies,
    build_generator,
    correlation_table,
    evolve,
    offdiag_rate,
    spectral_decompose,
    stationary_state,
)
from stoclim.generator import apply_adjoint, apply_heisenberg, unvectorize, vectorize
from stoclim.operators import dag


def reference_dense_adjoint(gen):
    """Lab-basis generator summed channel by channel from Kronecker products."""

    def left_right(left, right):
        # matrix of rho -> left @ rho @ right under column stacking
        return np.kron(right.T, left)

    d = gen.dim
    eye = np.eye(d, dtype=complex)
    h = gen.h_shift
    out = np.zeros((d * d, d * d), dtype=complex)
    if np.any(h):
        out -= 1j * (left_right(h, eye) - left_right(eye, h))
    for ch in gen.channels:
        nonzero = [bool(np.any(a)) for a in ch.lowering]
        for i, a_i in enumerate(ch.lowering):
            for j, a_j in enumerate(ch.lowering):
                if not (nonzero[i] and nonzero[j]):
                    continue
                gm = ch.gamma_minus[i, j]
                gp = ch.gamma_plus[i, j]
                if gm != 0.0:
                    out += gm * left_right(a_j, dag(a_i))
                if gp != 0.0:
                    out += gp * left_right(dag(a_i), a_j)
        for k in (ch.k_minus, ch.k_plus):
            if np.any(k):
                out -= 0.5 * (left_right(k, eye) + left_right(eye, k))
    return out


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def make_generator(h, couplings, bath):
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    table = correlation_table(bath, bohr, len(couplings))
    return build_generator(spec, couplings, table, bohr)


SHIFTED = BathSpec(beta=1.0, kernel="quadrature", uv_cutoff=50.0, lamb_shift=True)


def test_dense_adjoint_matches_kronecker_sum_on_rotated_hamiltonians():
    rng = np.random.default_rng(2101)
    for d in range(2, 7):
        gen = make_generator(
            random_hermitian(rng, d), [random_hermitian(rng, d) for _ in range(2)], SHIFTED
        )
        ref = reference_dense_adjoint(gen)
        err = np.abs(gen.dense_adjoint - ref).max() / np.abs(ref).max()
        assert err <= 1e-14, (d, err)


def test_dense_adjoint_matches_kronecker_sum_on_diagonal_hamiltonians():
    # the eigenbasis is the lab basis, so no rotation rounding enters: the
    # sparsity pattern is identical and the entries differ only through the
    # order in which the channel sums are added
    rng = np.random.default_rng(2102)
    for d in range(2, 7):
        h = np.diag(np.sort(rng.uniform(0.0, 3.0, d))).astype(complex)
        gen = make_generator(h, [random_hermitian(rng, d)], SHIFTED)
        ref = reference_dense_adjoint(gen)
        dense = gen.dense_adjoint
        assert np.array_equal(dense != 0.0, ref != 0.0)
        assert np.abs(dense - ref).max() <= np.finfo(float).eps * np.abs(ref).max()


def test_superoperator_is_diagonal_on_coherences_of_a_generic_spectrum():
    # each coherence |mu><nu| is an eigenvector with the closed-form rate
    rng = np.random.default_rng(2103)
    d = 5
    gen = make_generator(random_hermitian(rng, d), [random_hermitian(rng, d)], SHIFTED)
    lsup = gen.superoperator.toarray()
    for mu in range(d):
        for nu in range(d):
            if mu == nu:
                continue
            col = lsup[:, mu + d * nu]
            assert np.count_nonzero(col) == 1
            rate = offdiag_rate(gen, mu, nu)
            assert abs(col[mu + d * nu] - rate) <= 1e-12 * abs(rate)


def test_actions_match_dense_views():
    rng = np.random.default_rng(2104)
    d = 4
    gen = make_generator(random_hermitian(rng, d), [random_hermitian(rng, d)], SHIFTED)
    ref = reference_dense_adjoint(gen)
    scale = np.abs(ref).max()
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    schroedinger = unvectorize(ref @ vectorize(x), d)
    heisenberg = unvectorize(ref.conj().T @ vectorize(x), d)
    assert np.abs(apply_adjoint(gen, x) - schroedinger).max() <= 1e-13 * scale
    assert np.abs(apply_heisenberg(gen, x) - heisenberg).max() <= 1e-13 * scale


def test_evolve_beyond_sixteen_levels_matches_dense_exponential():
    rng = np.random.default_rng(2105)
    d = 17
    u = random_unitary(rng, d)
    h = u @ np.diag(np.sort(rng.uniform(0.0, 4.0, d))) @ dag(u)
    gen = make_generator(h, [0.1 * random_hermitian(rng, d)], BathSpec(beta=1.0))
    ref = reference_dense_adjoint(gen)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho0 = a @ dag(a) / np.trace(a @ dag(a)).real
    times = np.array([0.0, 0.013, 0.05, 0.31, 0.4, 1.7, 2.0])
    traj = evolve(gen, rho0, times)
    for t, rho in zip(times, traj.states):
        want = unvectorize(expm(ref * t) @ vectorize(rho0), d)
        assert np.abs(rho - want).max() <= 1e-12, t


def test_stationary_state_basis_is_in_the_lab_basis():
    # band-filtered bath without the spontaneous channel: two level groups
    # that cannot exchange population, seen through a rotated Hamiltonian
    rng = np.random.default_rng(2106)
    u = random_unitary(rng, 3)
    h = u @ np.diag([0.0, 0.7, 5.0]) @ dag(u)
    d_op = u @ (np.ones((3, 3)) - np.eye(3)) @ dag(u)
    bath = BathSpec(beta=1.0, filter_max=2.0, spontaneous_emission=False)
    gen = make_generator(h, [d_op], bath)
    ref = reference_dense_adjoint(gen)
    res = stationary_state(gen)
    assert not res.ergodic and len(res.basis) == 2
    gram = np.array([[np.vdot(a, b) for b in res.basis] for a in res.basis])
    assert np.abs(gram - np.eye(2)).max() <= 1e-12
    for op in res.basis:
        assert np.abs(ref @ vectorize(op)).max() <= 1e-10 * np.abs(ref).max()
        # stationary operators commute with the free Hamiltonian
        assert np.abs(h @ op - op @ h).max() <= 1e-10
