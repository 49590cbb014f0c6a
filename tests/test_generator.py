"""Frequency-resolved generator: channel structure, GKSL invariants, shifts."""

import math

import numpy as np
import pytest

from stoclim import (
    BathSpec,
    StructureMapSet,
    bohr_frequencies,
    build_generator,
    correlation_table,
    e_omega,
    gibbs_state,
    leibniz_defect,
    matrix_unit,
    offdiag_rate,
    spectral_decompose,
)
from stoclim.generator import (
    NonGenericError,
    apply_heisenberg,
    apply_schroedinger,
    build_drift,
    unvectorize,
    vectorize,
)
from stoclim.operators import dag


def random_hermitian(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (a + a.conj().T)


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_generator(rng, d, n_couplings=1, beta=1.0, lamb_shift=False):
    h = random_hermitian(rng, d)
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    couplings = [random_hermitian(rng, d) for _ in range(n_couplings)]
    kernel = "quadrature" if lamb_shift else "analytic"
    bath = BathSpec(beta=beta, kernel=kernel, uv_cutoff=50.0, lamb_shift=lamb_shift)
    table = correlation_table(bath, bohr, n_couplings)
    return build_generator(spec, couplings, table, bohr), spec, bath


def two_level(beta=1.0, delta=1.0, lamb_shift=False):
    spec = spectral_decompose(np.diag([0.0, delta]).astype(complex))
    bohr = bohr_frequencies(spec)
    kernel = "quadrature" if lamb_shift else "analytic"
    bath = BathSpec(beta=beta, kernel=kernel, uv_cutoff=50.0, lamb_shift=lamb_shift)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    table = correlation_table(bath, bohr, 1)
    return build_generator(spec, [sx], table, bohr), spec, bath


def test_two_level_channel_structure():
    gen, spec, bath = two_level()
    assert len(gen.channels) == 1
    ch = gen.channels[0]
    assert ch.omega == pytest.approx(1.0)
    # lowering operator is the slice of sigma_x at the gap
    assert np.allclose(ch.lowering[0], np.array([[0, 1], [0, 0]]))
    want_minus = 8.0 * math.pi**2 * math.e / (math.e - 1.0)
    want_plus = 8.0 * math.pi**2 / (math.e - 1.0)
    assert ch.gamma_minus[0, 0].real == pytest.approx(want_minus, rel=1e-12)
    assert ch.gamma_plus[0, 0].real == pytest.approx(want_plus, rel=1e-12)
    assert np.abs(gen.h_shift).max() == 0.0
    # escape operators
    assert np.allclose(ch.k_minus, want_minus * np.diag([0.0, 1.0]))
    assert np.allclose(ch.k_plus, want_plus * np.diag([1.0, 0.0]))


def test_trace_and_hermiticity_preserved():
    rng = np.random.default_rng(41)
    for _ in range(15):
        d = int(rng.integers(2, 6))
        gen, _, _ = random_generator(rng, d)
        rho = random_density(rng, d)
        drho = apply_schroedinger(gen, rho)
        assert abs(np.trace(drho)) < 1e-10 * gen.norm_scale()
        assert np.abs(drho - dag(drho)).max() < 1e-10 * gen.norm_scale()
        # identity is conserved by the Heisenberg picture
        did = apply_heisenberg(gen, np.eye(d, dtype=complex))
        assert np.abs(did).max() < 1e-10 * gen.norm_scale()


def test_heisenberg_schroedinger_duality():
    rng = np.random.default_rng(42)
    for _ in range(15):
        d = int(rng.integers(2, 6))
        gen, _, _ = random_generator(rng, d)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = random_density(rng, d)
        lhs = np.trace(apply_heisenberg(gen, x) @ rho)
        rhs = np.trace(x @ apply_schroedinger(gen, rho))
        assert abs(lhs - rhs) < 1e-9 * gen.norm_scale()


def test_dense_adjoint_matches_action():
    rng = np.random.default_rng(43)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        gen, _, _ = random_generator(rng, d)
        rho = random_density(rng, d)
        via_dense = unvectorize(gen.dense_adjoint @ vectorize(rho), d)
        direct = apply_schroedinger(gen, rho)
        assert np.abs(via_dense - direct).max() < 1e-10 * gen.norm_scale()


def test_free_evolution_covariance():
    # the generator commutes with conjugation by the free propagator
    rng = np.random.default_rng(44)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        h = random_hermitian(rng, d)
        spec = spectral_decompose(h)
        bohr = bohr_frequencies(spec)
        bath = BathSpec(beta=1.0)
        table = correlation_table(bath, bohr, 1)
        gen = build_generator(spec, [random_hermitian(rng, d)], table, bohr)
        t = float(rng.uniform(0.2, 1.5))
        vals, vecs = np.linalg.eigh(h)
        u = vecs @ np.diag(np.exp(-1j * vals * t)) @ vecs.conj().T
        rho = random_density(rng, d)
        a = apply_schroedinger(gen, u @ rho @ dag(u))
        b = u @ apply_schroedinger(gen, rho) @ dag(u)
        assert np.abs(a - b).max() < 1e-9 * gen.norm_scale()


def test_gibbs_state_is_stationary():
    rng = np.random.default_rng(45)
    for _ in range(12):
        d = int(rng.integers(2, 6))
        beta = float(rng.uniform(0.3, 2.0))
        gen, spec, _ = random_generator(rng, d, beta=beta)
        rho_g = gibbs_state(beta, spec)
        resid = apply_schroedinger(gen, rho_g)
        assert np.abs(resid).max() < 1e-11 * gen.norm_scale()


def test_rate_matrices_hermitian_psd():
    rng = np.random.default_rng(46)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        gen, _, _ = random_generator(rng, d, n_couplings=n)
        for ch in gen.channels:
            for mat in (ch.gamma_minus, ch.gamma_plus):
                assert np.abs(mat - mat.conj().T).max() < 1e-12 * gen.norm_scale()
                assert np.linalg.eigvalsh(mat).min() > -1e-12 * gen.norm_scale()


def test_channel_lowering_operators_lower():
    rng = np.random.default_rng(47)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        gen, spec, _ = random_generator(rng, d)
        h = sum(e * p for e, p in zip(spec.energies, spec.projectors))
        for ch in gen.channels:
            assert ch.omega > 0
            for a in ch.lowering:
                # [H, A] = -omega A for a lowering eigenoperator
                comm = h @ a - a @ h
                assert np.abs(comm + ch.omega * a).max() < 1e-8 * max(
                    1.0, np.abs(a).max()
                )


def test_semigroup_preserves_positivity():
    from scipy.linalg import expm

    rng = np.random.default_rng(48)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        gen, _, _ = random_generator(rng, d)
        scale = gen.norm_scale()
        prop = expm(gen.dense_adjoint * (1.0 / scale))
        rho = random_density(rng, d)
        out = unvectorize(prop @ vectorize(rho), d)
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(0.5 * (out + dag(out))).min() > -1e-10


def test_offdiag_closed_form_matches_generator_element():
    rng = np.random.default_rng(49)
    for _ in range(12):
        # random generic spectra: distinct, incommensurate gaps
        d = int(rng.integers(2, 6))
        gen, spec, _ = random_generator(rng, d)
        basis = spec.basis
        for mu in range(d):
            for nu in range(d):
                if mu == nu:
                    continue
                a = offdiag_rate(gen, mu, nu)
                # matrix element of the Heisenberg generator on |mu><nu|
                e = basis[:, mu : mu + 1] @ basis[:, nu : nu + 1].conj().T
                lhs = apply_heisenberg(gen, e)
                elem = (basis[:, mu].conj() @ lhs @ basis[:, nu])
                assert abs(a - elem) < 1e-9 * gen.norm_scale()
                assert a.real <= 1e-12 * gen.norm_scale()


def test_offdiag_conjugate_symmetry():
    rng = np.random.default_rng(50)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        gen, _, _ = random_generator(rng, d)
        a01 = offdiag_rate(gen, 0, 1)
        a10 = offdiag_rate(gen, 1, 0)
        assert abs(a01 - np.conj(a10)) < 1e-10 * gen.norm_scale()


def test_offdiag_rejects_nongeneric_spectra():
    spec = spectral_decompose(np.diag([0.0, 1.0, 2.0]).astype(complex))
    bohr = bohr_frequencies(spec)
    table = correlation_table(BathSpec(beta=1.0), bohr, 1)
    x = np.ones((3, 3), dtype=complex) - np.eye(3)
    gen = build_generator(spec, [x], table, bohr)
    with pytest.raises(NonGenericError):
        offdiag_rate(gen, 0, 2)


def test_leibniz_defect_small():
    rng = np.random.default_rng(51)
    for d in (2, 3, 4):
        gen, _, _ = random_generator(rng, d)
        maps = StructureMapSet(gen)
        for _ in range(20):
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert leibniz_defect(maps, x, y) <= 1e-10


def test_level_shift_hamiltonian():
    gen, spec, _ = two_level(lamb_shift=True)
    h = gen.h_shift
    assert np.abs(h - dag(h)).max() < 1e-12 * max(1.0, np.abs(h).max())
    assert np.abs(h).max() > 0.0
    # diagonal in the energy eigenbasis for a two-level system
    assert abs(h[0, 1]) == 0.0
    # the shift does not perturb the populations' fixed point structure:
    # trace preservation survives
    rng = np.random.default_rng(52)
    rho = random_density(rng, 2)
    assert abs(np.trace(apply_schroedinger(gen, rho))) < 1e-9 * gen.norm_scale()


def test_drift_splits_into_damping_and_shift():
    rng = np.random.default_rng(53)
    for trial in range(6):
        d = int(rng.integers(2, 5))
        h = random_hermitian(rng, d)
        spec = spectral_decompose(h)
        bohr = bohr_frequencies(spec)
        bath = BathSpec(
            beta=1.0, kernel="quadrature", uv_cutoff=50.0, lamb_shift=(trial % 2 == 0)
        )
        couplings = [random_hermitian(rng, d)]
        table = correlation_table(bath, bohr, 1)
        gen = build_generator(spec, couplings, table, bohr)
        drift = build_drift(spec, couplings, table, bohr)
        total_damping = np.zeros((d, d), dtype=complex)
        for ch in gen.channels:
            total_damping += ch.k_minus + ch.k_plus
        herm = 0.5 * (drift + dag(drift))
        anti = (drift - dag(drift)) / 2j
        assert np.abs(herm - 0.5 * total_damping).max() < 1e-9 * gen.norm_scale()
        assert np.abs(anti - gen.h_shift).max() < 1e-9 * gen.norm_scale()


def test_channel_damping_is_the_dense_product_of_its_lowering_operators():
    # k_minus and k_plus are reductions of the channel's jump terms; in a
    # degenerate spectrum a channel pairs entries of several level pairs
    rng = np.random.default_rng(57)
    u = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    h = u @ np.diag([0.0, 0.0, 1.0, 1.0, 2.0, 3.0]) @ dag(u)
    spec = spectral_decompose(0.5 * (h + dag(h)))
    bohr = bohr_frequencies(spec)
    bath = BathSpec(
        beta=0.7,
        kernel="quadrature",
        uv_cutoff=50.0,
        lamb_shift=True,
        form_factors=[lambda w: 1.0 + 0.4j * w, lambda w: 0.7 - 0.2j * w * w],
    )
    couplings = [random_hermitian(rng, 6), random_hermitian(rng, 6)]
    gen = build_generator(spec, couplings, correlation_table(bath, bohr, 2), bohr)
    for ch in gen.channels:
        a = np.array(ch.lowering)
        want_minus = np.einsum("ij,iba,jbc->ac", ch.gamma_minus, a.conj(), a)
        want_plus = np.einsum("ij,jab,icb->ac", ch.gamma_plus, a, a.conj())
        scale = gen.norm_scale() * max(1.0, np.abs(a).max()) ** 2
        assert np.abs(ch.k_minus - want_minus).max() < 1e-13 * scale
        assert np.abs(ch.k_plus - want_plus).max() < 1e-13 * scale
    total = sum(ch.k_minus + ch.k_plus for ch in gen.channels)
    herm = 0.5 * (gen._drift + dag(gen._drift))
    assert np.abs(herm - 0.5 * total).max() < 1e-13 * gen.norm_scale()


def test_multi_coupling_complex_form_factors():
    # complex-valued form factors make the cross-rate matrices genuinely
    # complex; Hermiticity, positivity, and Gibbs stationarity must survive
    spec = spectral_decompose(np.diag([0.0, 0.9, 2.1]).astype(complex))
    bohr = bohr_frequencies(spec)
    g0 = lambda w: 1.0 + 0.4j * w
    g1 = lambda w: 0.7 - 0.2j * w * w
    bath = BathSpec(beta=0.8, form_factors=[g0, g1])
    rng = np.random.default_rng(54)
    couplings = [random_hermitian(rng, 3), random_hermitian(rng, 3)]
    table = correlation_table(bath, bohr, 2)
    gen = build_generator(spec, couplings, table, bohr)
    for ch in gen.channels:
        for mat in (ch.gamma_minus, ch.gamma_plus):
            assert np.abs(mat - mat.conj().T).max() < 1e-10 * gen.norm_scale()
            assert np.linalg.eigvalsh(mat).min() > -1e-10 * gen.norm_scale()
        assert np.abs(ch.gamma_minus[0, 1].imag) > 0.0
    rho_g = gibbs_state(0.8, spec)
    assert np.abs(apply_schroedinger(gen, rho_g)).max() < 1e-11 * gen.norm_scale()
    rho = random_density(rng, 3)
    assert abs(np.trace(apply_schroedinger(gen, rho))) < 1e-10 * gen.norm_scale()


def test_eigenoperator_slices_feed_the_channels():
    rng = np.random.default_rng(55)
    d = 4
    gen, spec, _ = random_generator(rng, d)
    bohr = bohr_frequencies(spec)
    # channel lowering operators are exactly the coupling slices; rebuild one
    for ch in gen.channels:
        a = ch.lowering[0]
        again = e_omega(a, ch.omega, spec, bohr)
        assert np.abs(again - a).max() < 1e-10 * max(1.0, np.abs(a).max())


def test_vectorize_roundtrip():
    rng = np.random.default_rng(56)
    for d in (2, 3, 5):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.abs(unvectorize(vectorize(x), d) - x).max() == 0.0
    e = matrix_unit(3, 1, 2)
    v = vectorize(e)
    assert v[np.flatnonzero(v)[0]] == 1.0


def test_positivity_floor_scales_with_shift_constants():
    # at low temperature the absorption rates are tiny next to the level
    # shifts, and the complex cross-pair shifts of two couplings leave
    # rounding of order eps * |shift| in the rank-one rate matrix; the
    # positivity check must not read that rounding as a negative rate
    rng = np.random.default_rng(0)
    for _ in range(10):
        h = np.diag(np.cumsum([0.0, *rng.uniform(1.5, 3.0, 2)])).astype(complex)
        couplings = [random_hermitian(rng, 3), random_hermitian(rng, 3)]
        slopes = rng.uniform(-1.0, 1.0, 2)
        bath = BathSpec(
            beta=8.0,
            kernel="quadrature",
            uv_cutoff=50.0,
            lamb_shift=True,
            form_factors=[lambda w, c=c: 1.0 + 1j * c * w for c in slopes],
        )
        spec = spectral_decompose(h)
        bohr = bohr_frequencies(spec)
        table = correlation_table(bath, bohr, 2)
        gen = build_generator(spec, couplings, table, bohr)
        rho_g = gibbs_state(8.0, spec)
        assert np.abs(apply_schroedinger(gen, rho_g)).max() < 1e-11 * gen.norm_scale()
