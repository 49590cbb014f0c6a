"""Trajectories, stationary states, classical kinetics, fitting helpers."""

import math

import numpy as np
import pytest
import scipy.sparse as sparse

from stoclim import (
    BathSpec,
    ClassicalKineticSystem,
    bohr_frequencies,
    build_generator,
    correlation_table,
    decay_fit,
    detailed_balance_residual,
    evolve,
    gibbs_distribution,
    gibbs_state,
    spectral_decompose,
    stationary_state,
    trace_distance,
    validate_density_matrix,
)
from stoclim.evolution import _Components, diagonal_restriction
from stoclim.generator import apply_schroedinger, unvectorize, vectorize
from stoclim.operators import dag


def random_hermitian(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (a + a.conj().T)


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def two_level_generator(beta=1.0, delta=1.0):
    spec = spectral_decompose(np.diag([0.0, delta]).astype(complex))
    bohr = bohr_frequencies(spec)
    bath = BathSpec(beta=beta)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return build_generator(spec, [sx], correlation_table(bath, bohr, 1), bohr), spec


def test_two_level_relaxation_closed_form():
    gen, spec = two_level_generator()
    ch = gen.channels[0]
    gm = float(ch.gamma_minus[0, 0].real)
    gp = float(ch.gamma_plus[0, 0].real)
    rate = gm + gp
    p_inf = gp / rate
    rho0 = np.array([[0.4, 0.3], [0.3, 0.6]], dtype=complex)
    times = np.linspace(0.0, 3.0 / rate, 9)
    traj = evolve(gen, rho0, times)
    pops = traj.populations()
    for t, pe in zip(times, pops[:, 1]):
        want = p_inf + (0.6 - p_inf) * math.exp(-rate * t)
        assert abs(pe - want) < 1e-10
    # coherence decays at half the population rate
    z = traj.matrix_element(0, 1)
    for t, zt in zip(times, z):
        assert abs(abs(zt) - 0.3 * math.exp(-0.5 * rate * t)) < 1e-10


def test_trajectory_structural_invariants():
    rng = np.random.default_rng(61)
    for _ in range(8):
        d = int(rng.integers(2, 6))
        h = random_hermitian(rng, d)
        spec = spectral_decompose(h)
        bohr = bohr_frequencies(spec)
        gen = build_generator(
            spec,
            [random_hermitian(rng, d)],
            correlation_table(BathSpec(beta=1.0), bohr, 1),
            bohr,
        )
        rho0 = random_density(rng, d)
        horizon = 3.0 / gen.norm_scale()
        traj = evolve(gen, rho0, np.linspace(0.0, horizon, 7))
        for rho in traj.states:
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert abs(np.trace(rho).imag) < 1e-10
            assert np.abs(rho - dag(rho)).max() < 1e-10
            assert np.linalg.eigvalsh(0.5 * (rho + dag(rho))).min() > -1e-10


def test_evolve_returns_samples_as_propagated():
    # no Hermitisation and no division by the trace: each sample is the
    # propagated eigenbasis vector, to the last bit, and the lab-basis
    # states are one rotation of the stack
    rng = np.random.default_rng(63)
    d = 4
    spec = spectral_decompose(random_hermitian(rng, d))
    bohr = bohr_frequencies(spec)
    gen = build_generator(
        spec,
        [random_hermitian(rng, d)],
        correlation_table(BathSpec(beta=0.8), bohr, 1),
        bohr,
    )
    rho0 = random_density(rng, d)
    times = np.linspace(0.0, 3.0 / gen.norm_scale(), 9)
    traj = evolve(gen, rho0, times)
    v = spec.basis
    vecs = _Components(gen._triples).propagate(vectorize(dag(v) @ rho0 @ v), times)
    assert traj.samples.shape == (len(times), d, d)
    for sample, x in zip(traj.samples, vecs):
        assert np.array_equal(sample, unvectorize(x, d))
    assert np.array_equal(traj.basis, v)
    assert np.array_equal(traj.states, v @ traj.samples @ dag(v))


def test_trajectory_views_match_per_sample_rotations():
    rng = np.random.default_rng(64)
    d = 4
    spec = spectral_decompose(random_hermitian(rng, d))
    bohr = bohr_frequencies(spec)
    gen = build_generator(
        spec,
        [random_hermitian(rng, d)],
        correlation_table(BathSpec(beta=0.8), bohr, 1),
        bohr,
    )
    traj = evolve(gen, random_density(rng, d), np.linspace(0.0, 3.0 / gen.norm_scale(), 7))
    unitary, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    for basis in (None, np.eye(d, dtype=complex), unitary):
        b = np.eye(d) if basis is None else basis
        rotated = np.array([dag(b) @ rho @ b for rho in traj.states])
        pops = traj.populations(basis)
        assert pops.shape == (len(traj.times), d)
        assert np.abs(pops - np.real(np.diagonal(rotated, axis1=1, axis2=2))).max() < 1e-14
        for mu, nu in ((0, 0), (1, 3), (3, 2)):
            elem = traj.matrix_element(mu, nu, basis)
            assert np.abs(elem - rotated[:, mu, nu]).max() < 1e-14


def kinetic_route(times):
    k = np.array([[-1.0, 2.0], [1.0, -2.0]])
    return ClassicalKineticSystem(energies=np.zeros(2), rate_matrix=k).evolve([1.0, 0.0], times)


def quantum_route(times):
    gen, _ = two_level_generator()
    return evolve(gen, np.diag([0.3, 0.7]).astype(complex), times).samples


@pytest.mark.parametrize("route", [kinetic_route, quantum_route])
def test_both_solvers_sample_at_exactly_the_given_times(route):
    # no t = 0 is added, a repeated time repeats its sample, and stepping
    # from 0 to the first time is the same step either way
    out = route([0.5, 0.5, 1.0])
    assert len(out) == 3
    assert np.array_equal(out[0], out[1])
    assert np.array_equal(out[1:], route([0.0, 0.5, 1.0])[1:])


@pytest.mark.parametrize("route", [kinetic_route, quantum_route])
@pytest.mark.parametrize(
    "times, message",
    [
        ([], "non-empty 1-d"),
        ([[0.0, 1.0]], "non-empty 1-d"),
        ([0.0, math.nan], "non-finite time"),
        ([0.0, math.inf], "non-finite time"),
        ([-0.5, 1.0], "negative first time -0.5"),
        ([0.0, 1.0, 0.5], "got 0.5 after 1.0"),
    ],
)
def test_both_solvers_refuse_the_same_bad_times(route, times, message):
    with pytest.raises(ValueError, match=message):
        route(times)


def test_gibbs_convergence():
    rng = np.random.default_rng(62)
    for _ in range(6):
        d = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.4, 1.5))
        h = random_hermitian(rng, d)
        spec = spectral_decompose(h)
        bohr = bohr_frequencies(spec)
        gen = build_generator(
            spec,
            [random_hermitian(rng, d)],
            correlation_table(BathSpec(beta=beta), bohr, 1),
            bohr,
        )
        rho_g = gibbs_state(beta, spec)
        rho0 = random_density(rng, d)
        # horizon: 25 e-folds of the slowest decaying mode
        lam = np.linalg.eigvals(gen.dense_adjoint)
        gap = min(-lam.real[lam.real < -1e-9 * gen.norm_scale()])
        traj = evolve(gen, rho0, [0.0, 25.0 / gap])
        assert trace_distance(traj.states[-1], rho_g) < 1e-8
        resid = np.abs(apply_schroedinger(gen, rho_g)).max()
        assert resid < 1e-12 * gen.norm_scale()


def test_evolve_deterministic_and_grid_insensitive():
    gen, _ = two_level_generator()
    rho0 = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
    t_end = 0.02
    a = evolve(gen, rho0, np.linspace(0.0, t_end, 5)).states[-1]
    b = evolve(gen, rho0, np.linspace(0.0, t_end, 5)).states[-1]
    c = evolve(gen, rho0, np.linspace(0.0, t_end, 17)).states[-1]
    assert np.abs(a - b).max() == 0.0
    assert np.abs(a - c).max() < 1e-10


def test_large_dimension_integrator_path():
    # above the dense-exponential cutoff the solver switches to an ODE
    # integrator; conservation laws must survive the switch
    rng = np.random.default_rng(63)
    d = 18
    energies = np.sort(rng.uniform(0.0, 4.0, size=d))
    spec = spectral_decompose(np.diag(energies).astype(complex))
    bohr = bohr_frequencies(spec)
    coupling = random_hermitian(rng, d, scale=0.3)
    gen = build_generator(
        spec, [coupling], correlation_table(BathSpec(beta=1.0), bohr, 1), bohr
    )
    rho0 = random_density(rng, d)
    horizon = 0.5 / gen.norm_scale()
    traj = evolve(gen, rho0, np.linspace(0.0, horizon, 4))
    for rho in traj.states:
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.abs(rho - dag(rho)).max() < 1e-8
    # thermal state is a fixed point on this path too
    rho_g = gibbs_state(1.0, spec)
    tg = evolve(gen, rho_g, [0.0, horizon]).states[-1]
    assert trace_distance(tg, rho_g) < 1e-7


def test_validate_density_matrix():
    validate_density_matrix(np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_stationary_state_ergodic():
    gen, spec = two_level_generator(beta=0.7)
    res = stationary_state(gen)
    assert res.ergodic
    assert trace_distance(res.state, gibbs_state(0.7, spec)) < 1e-10


def test_stationary_state_nonergodic_sector():
    # band-filtered bath with the spontaneous channel off: the two level
    # groups cannot exchange population, so the null space has dimension 2
    spec = spectral_decompose(np.diag([0.0, 0.7, 5.0]).astype(complex))
    bohr = bohr_frequencies(spec)
    d_op = np.ones((3, 3), dtype=complex) - np.eye(3)
    bath = BathSpec(beta=1.0, filter_max=2.0, spontaneous_emission=False)
    gen = build_generator(spec, [d_op], correlation_table(bath, bohr, 1), bohr)
    res = stationary_state(gen)
    assert not res.ergodic
    assert res.state is None
    assert len(res.basis) == 2


def test_kinetic_two_state_closed_form():
    down, up = 3.0, 1.0
    k = np.array([[-up, down], [up, -down]])
    cks = ClassicalKineticSystem(energies=np.array([0.0, 1.0]), rate_matrix=k)
    cks.validate()
    p = cks.evolve(np.array([1.0, 0.0]), [0.0, 0.1, 1.0, 10.0])
    rate = down + up
    p1_inf = up / rate
    for t, row in zip([0.0, 0.1, 1.0, 10.0], p):
        want = p1_inf - p1_inf * math.exp(-rate * t)
        assert abs(row[1] - want) < 1e-12
        assert abs(row.sum() - 1.0) < 1e-12
    stat = cks.stationary()
    assert np.abs(stat - np.array([down / rate, up / rate])).max() < 1e-12


def test_kinetic_validation_errors():
    bad_off = np.array([[-1.0, -0.5], [1.0, 0.5]])
    cks = ClassicalKineticSystem(energies=np.zeros(2), rate_matrix=bad_off)
    with pytest.raises(ValueError):
        cks.validate()
    bad_sum = np.array([[-1.0, 2.0], [1.0, -1.0]])
    cks = ClassicalKineticSystem(energies=np.zeros(2), rate_matrix=bad_sum)
    with pytest.raises(ValueError):
        cks.validate()


def test_kinetic_sparse_path():
    k = np.array(
        [
            [-1.0, 2.0, 0.0],
            [1.0, -3.0, 0.5],
            [0.0, 1.0, -0.5],
        ]
    )
    dense = ClassicalKineticSystem(energies=np.zeros(3), rate_matrix=k)
    sp = ClassicalKineticSystem(energies=np.zeros(3), rate_matrix=sparse.csc_matrix(k))
    sp.validate()
    p0 = np.array([1.0, 0.0, 0.0])
    times = [0.0, 0.3, 2.0]
    a = dense.evolve(p0, times)
    b = sp.evolve(p0, times)
    assert np.abs(a - b).max() < 1e-10
    assert np.abs(dense.stationary() - sp.stationary()).max() < 1e-10


def test_detailed_balance_residual():
    gen, spec = two_level_generator(beta=1.0)
    cks = diagonal_restriction(gen)
    p_g = gibbs_distribution(1.0, cks.energies)
    assert detailed_balance_residual(cks, p_g) < 1e-12 * gen.norm_scale()
    # corrupting one rate shows up as a finite violation
    k = cks.rate_matrix.toarray()
    k[1, 0] *= 1.5
    k[0, 0] = k[1, 1] = 0.0
    np.fill_diagonal(k, -k.sum(axis=0))
    broken = ClassicalKineticSystem(energies=cks.energies, rate_matrix=k)
    broken.validate()
    assert detailed_balance_residual(broken, p_g) > 1.0


def test_gibbs_state_degenerate_weighting():
    # two-fold ground level must carry twice the weight of each excited state
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    spec = spectral_decompose(h)
    rho = gibbs_state(1.0, spec)
    z = 2.0 + math.exp(-1.0)
    assert abs(rho[0, 0].real - 1.0 / z) < 1e-14
    assert abs(rho[1, 1].real - 1.0 / z) < 1e-14
    assert abs(rho[2, 2].real - math.exp(-1.0) / z) < 1e-14
    # zero temperature projects on the ground level
    rho0 = gibbs_state(math.inf, spec)
    assert np.allclose(rho0, np.diag([0.5, 0.5, 0.0]))


def test_gibbs_distribution_matches_state():
    energies = np.array([0.0, 0.3, 1.7])
    p = gibbs_distribution(0.9, energies)
    spec = spectral_decompose(np.diag(energies).astype(complex))
    rho = gibbs_state(0.9, spec)
    assert np.abs(p - np.diag(rho).real).max() < 1e-14
    assert abs(p.sum() - 1.0) < 1e-14


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == 0.0
    c = np.diag([0.6, 0.4]).astype(complex)
    assert trace_distance(a, c) == pytest.approx(0.4)
    assert trace_distance(c, a) == pytest.approx(0.4)


def test_diagonal_restriction_holds_a_float_csc():
    gen, spec = two_level_generator(beta=1.0)
    k = diagonal_restriction(gen).rate_matrix
    assert isinstance(k, sparse.csc_matrix) and k.dtype == np.float64
    ch = gen.channels[0]
    down, up = ch.gamma_minus[0, 0].real, ch.gamma_plus[0, 0].real
    assert np.array_equal(k.toarray(), [[-up, down], [up, -down]])


def test_diagonal_restriction_basis_choice():
    gen, spec = two_level_generator(beta=1.0)
    eig = diagonal_restriction(gen)
    lab = diagonal_restriction(gen, basis=np.eye(2, dtype=complex))
    # diagonal Hamiltonian: both bases describe the same jump process
    assert np.abs(eig.rate_matrix.toarray() - lab.rate_matrix.toarray()).max() < 1e-12
    assert np.allclose(eig.energies, [0.0, 1.0])
    ch = gen.channels[0]
    k = eig.rate_matrix.toarray()
    assert k[0, 1] == pytest.approx(ch.gamma_minus[0, 0].real)
    assert k[1, 0] == pytest.approx(ch.gamma_plus[0, 0].real)


def test_decay_fit_recovers_complex_rate():
    from stoclim.evolution import Trajectory

    a = complex(-2.3, 4.1)
    times = np.linspace(0.0, 1.2, 25)
    z0 = 0.31 - 0.12j
    states = []
    for t in times:
        rho = np.zeros((2, 2), dtype=complex)
        rho[0, 0] = 0.5
        rho[1, 1] = 0.5
        rho[0, 1] = z0 * np.exp(a * t)
        rho[1, 0] = np.conj(rho[0, 1])
        states.append(rho)
    traj = Trajectory(times=times, samples=np.array(states), basis=np.eye(2, dtype=complex))
    fitted, resid = decay_fit(traj, 0, 1, basis=np.eye(2, dtype=complex))
    assert abs(fitted - a) < 1e-9
    assert resid < 1e-10


def test_decay_fit_rejects_empty_element():
    from stoclim.evolution import Trajectory

    times = np.linspace(0.0, 1.0, 10)
    states = np.array([np.diag([0.5, 0.5]).astype(complex) for _ in times])
    traj = Trajectory(times=times, samples=states, basis=np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        decay_fit(traj, 0, 1, basis=np.eye(2, dtype=complex))
