"""The reservoir table and the generator, assembled over all Bohr frequencies
at once, against the per-frequency loops they replace."""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

import stoclim.bath
import stoclim.generator
from stoclim import (
    BathDomainError,
    BathSpec,
    CorrelationTable,
    SpinChainSpec,
    TabulatedProfile,
    apply_heisenberg,
    bohr_frequencies,
    build_generator,
    correlation_table,
    diagonal_restriction,
    evolve,
    filtered_density,
    frequency_index,
    frequency_mask,
    ising_system,
    pv_lamb_shift,
    quantum_glauber_generator,
    spectral_decompose,
    stationary_state,
    unvectorize,
    vectorize,
)
from stoclim.generator import apply_adjoint


def reference_table(bath, bohr, n):
    """One frequency at a time, one scalar shift per pair, branch and frequency."""
    cutoff = math.inf if bath.uv_cutoff is None else bath.uv_cutoff
    spont = 1.0 if bath.spontaneous_emission else 0.0
    minus, plus = [], []
    for w in bohr.frequencies:
        m, p = np.zeros((2, n, n), dtype=complex)
        if 0 < w < cutoff:
            g = np.array([bath.form_factor(i, w) for i in range(n)])
            shell = math.pi * bath.dos_factor(w) * np.outer(g.conj(), g)
            m[:] = shell * (filtered_density(bath, w) + spont)
            p[:] = shell * filtered_density(bath, w)
            if bath.lamb_shift:
                for c, branch in ((m, "minus"), (p, "plus")):
                    for i, j in combinations_with_replacement(range(n), 2):
                        s = pv_lamb_shift(bath, w, (i, j), branch=branch)
                        c[i, j] += 1j * s
                        if i != j:
                            c[j, i] += 1j * np.conj(s)
        for name, c in (("minus", m), ("plus", p)):
            if not np.isfinite(c).all():
                i, j = np.argwhere(~np.isfinite(c))[0]
                raise BathDomainError(
                    f"{name} constant of coupling pair ({i}, {j}) at omega={float(w)!r} "
                    f"is {c[i, j]}: mode density and form factors must be finite"
                )
        minus.append(m)
        plus.append(p)
    return np.array(minus), np.array(plus)


def reference_generator(spec, couplings, table, bohr):
    """One frequency at a time, each component a masked coupling, sums written
    term by term.  Returns the channels (omega, components, gamma_minus,
    gamma_plus), the shift, the drift and the dense superoperator, all in the
    eigenbasis."""
    v = spec.basis
    rotated = v.conj().T @ np.array(couplings, dtype=complex) @ v
    n, d = len(couplings), spec.dim
    channels, shift = [], np.zeros((d, d), dtype=complex)
    for w in bohr.frequencies:
        k = table.index_of(float(w))
        m, p = table.minus[k], table.plus[k]
        if w > bohr.match_tol:
            for name, c in (("gamma_minus", m), ("gamma_plus", p)):
                rates = c + c.conj().T
                lo = np.linalg.eigvalsh(rates).min() if np.isfinite(rates).all() else np.nan
                if not lo >= -1e-12 * np.abs(c).max():
                    raise BathDomainError(
                        f"{name} at omega={float(w)!r} has eigenvalue {lo:.6g}; "
                        "a generator with negative rates is not completely positive"
                    )
        a = rotated * frequency_mask(spec, w)
        for i in range(n):
            for j in range(n):
                sh_m = (m[i, j] - np.conj(m[j, i])) / 2j
                sh_p = (p[i, j] - np.conj(p[j, i])) / 2j
                shift += sh_m * a[i].conj().T @ a[j] - sh_p * a[j] @ a[i].conj().T
        gm, gp = m + m.conj().T, p + p.conj().T
        if w > bohr.match_tol and np.any(a) and (np.any(gm) or np.any(gp)):
            channels.append((float(w), a, gm, gp))
    shift = 0.5 * (shift + shift.conj().T)
    damping = np.zeros((d, d), dtype=complex)
    eye = np.eye(d)
    superop = np.zeros((d * d, d * d), dtype=complex)
    for _, a, gm, gp in channels:
        for i in range(n):
            for j in range(n):
                a_i_dag = a[i].conj().T
                damping += gm[i, j] * a_i_dag @ a[j] + gp[i, j] * a[j] @ a_i_dag
                # vectorize(X rho Y) = kron(Y.T, X) vectorize(rho)
                superop += gm[i, j] * np.kron(a_i_dag.T, a[j])
                superop += gp[i, j] * np.kron(a[j].T, a_i_dag)
    drift = 1j * shift + 0.5 * damping
    superop -= np.kron(eye, drift) + np.kron(drift.conj(), eye)
    return channels, shift, drift, superop


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def rotated_system(rng, levels, n_couplings):
    u = random_unitary(rng, len(levels))
    h = (u * np.asarray(levels)) @ u.conj().T
    return h, [random_hermitian(rng, len(levels)) for _ in range(n_couplings)]


def generic_complex():
    # a doubly degenerate level and a repeated gap put several entries on a
    # channel, and complex couplings tell their pairs (x, y) and (y, x) apart
    levels = [0.0, 0.45, 0.45, 1.2, 1.65, 3.3]
    h, couplings = rotated_system(np.random.default_rng(71), levels, 3)
    bath = BathSpec(
        beta=0.8,
        kernel="quadrature",
        uv_cutoff=30.0,
        lamb_shift=True,
        form_factors=[
            lambda w: 1.0 + 0.4j * w,
            lambda w: 0.7 - 0.2j * w * w,
            lambda w: np.exp(-0.1j * w),
        ],
    )
    return h, couplings, bath


def tabulated():
    h, couplings = rotated_system(np.random.default_rng(72), [0.0, 0.6, 1.7, 2.9], 2)
    rho = np.array([0.0, 0.5, 1.1, 2.0, 4.0, 20.0])
    bath = BathSpec(
        beta=1.3,
        kernel="quadrature",
        uv_cutoff=20.0,
        lamb_shift=True,
        filter_max=2.5,
        mode_density=TabulatedProfile(rho, np.array([0.0, 0.9, 0.6, 0.4, 0.2, 0.0])),
        form_factors=[
            TabulatedProfile(rho, np.array([1.0, 0.8 + 0.1j, 0.7, 0.5 - 0.2j, 0.3, 0.1])),
            TabulatedProfile(rho, np.array([0.5, 0.6, 0.9j, 0.4, 0.2 + 0.2j, 0.0])),
        ],
    )
    return h, couplings, bath


def scalar_only():
    h, couplings = rotated_system(np.random.default_rng(73), [0.0, 0.4, 1.1, 2.6], 1)
    bath = BathSpec(
        beta=1.0,
        kernel="quadrature",
        uv_cutoff=30.0,
        lamb_shift=True,
        form_factors=[lambda r: math.exp(-r / 10.0)],
        mode_density=lambda r: 1.0 / math.expm1(r),
    )
    return h, couplings, bath


def ring():
    h, couplings = ising_system(SpinChainSpec(n_sites=4, coupling=1.0, boundary="periodic"))
    return h, couplings, BathSpec(beta=1.0)


SYSTEMS = {
    "generic_complex": generic_complex,
    "tabulated": tabulated,
    "scalar_only": scalar_only,
}


def scale_of(x):
    return max(np.abs(x).max(), 1e-300)


def assert_generator_matches(gen, spec, couplings, table, bohr):
    ref_channels, ref_shift, ref_drift, ref_superop = reference_generator(
        spec, couplings, table, bohr
    )
    assert [ch.omega for ch in gen.channels] == [w for w, *_ in ref_channels]
    comp_scale = scale_of(np.array(couplings))
    for ch, (_, a, gm, gp) in zip(gen.channels, ref_channels):
        assert np.abs(ch.components - a).max() <= 1e-13 * comp_scale
        rate_scale = scale_of(np.array([gm, gp]))
        assert np.abs(ch.gamma_minus - gm).max() <= 1e-13 * rate_scale
        assert np.abs(ch.gamma_plus - gp).max() <= 1e-13 * rate_scale
    assert np.abs(gen.shift - ref_shift).max() <= 1e-13 * scale_of(ref_drift)
    assert np.abs(gen._eigen_drift - ref_drift).max() <= 1e-13 * scale_of(ref_drift)
    got = gen.superoperator.toarray()
    assert np.abs(got - ref_superop).max() <= 1e-13 * scale_of(ref_superop)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_table_and_generator_match_the_frequency_loop(name):
    h, couplings, bath = SYSTEMS[name]()
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    table = correlation_table(bath, bohr, len(couplings))
    ref_minus, ref_plus = reference_table(bath, bohr, len(couplings))
    assert table.minus.shape == ref_minus.shape
    for got, want in ((table.minus, ref_minus), (table.plus, ref_plus)):
        assert np.abs(got - want).max() <= 1e-13 * scale_of(want)
    # the shifts are present, so the comparison covers them
    assert np.abs(ref_minus.imag).max() > 1e-3 * scale_of(ref_minus)
    gen = build_generator(spec, couplings, table, bohr)
    assert np.abs(gen.shift).max() > 0.0
    assert_generator_matches(gen, spec, couplings, table, bohr)


@pytest.mark.parametrize("independent_sites", [True, False])
def test_degenerate_ring_matches_the_frequency_loop(independent_sites):
    h, couplings, bath = ring()
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    assert spec.n_levels < spec.dim
    cs = SpinChainSpec(n_sites=4, coupling=1.0, boundary="periodic")
    gen = quantum_glauber_generator(cs, bath, independent_sites=independent_sites)
    table = correlation_table(bath, bohr, len(couplings))
    if independent_sites:
        own = np.eye(len(couplings), dtype=bool)
        table = CorrelationTable(
            table.frequencies, table.minus * own, table.plus * own, table.match_tol
        )
    assert_generator_matches(gen, spec, couplings, table, bohr)


@pytest.mark.parametrize("name", sorted(SYSTEMS) + ["ring"])
def test_frequency_index_is_the_mask_rule(name):
    h = (SYSTEMS.get(name) or ring)()[0]
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    index = frequency_index(spec, bohr)
    for k, w in enumerate(bohr.frequencies):
        assert np.array_equal(index == k, frequency_mask(spec, w))


def test_non_finite_constant_names_the_same_frequency_and_pair():
    # coupling 1 is infinite from 0.5 up, coupling 0 not finite from 1.0 up:
    # the first bad constant is the (0, 1) entry at the lowest gap above 0.5
    bath = BathSpec(
        beta=1.0,
        form_factors=[
            lambda w: np.where(w > 1.0, np.nan, 1.0),
            lambda w: np.where(w > 0.5, np.inf, 0.5),
        ],
    )
    spec = spectral_decompose(np.diag([0.0, 0.3, 0.9, 1.6]).astype(complex))
    bohr = bohr_frequencies(spec)
    with pytest.raises(BathDomainError) as want:
        reference_table(bath, bohr, 2)
    with pytest.raises(BathDomainError) as got:
        correlation_table(bath, bohr, 2)
    assert str(got.value) == str(want.value)
    assert "coupling pair (0, 1) at omega=0.6" in str(got.value)


@pytest.mark.parametrize("bad", ["indefinite", "nan"])
def test_negative_rate_names_the_same_frequency(bad):
    spec = spectral_decompose(np.diag([0.0, 0.3, 0.9, 1.6]).astype(complex))
    bohr = bohr_frequencies(spec)
    sx = np.zeros((4, 4), dtype=complex)
    sx[0, 1:] = sx[1:, 0] = sx[1, 2] = sx[2, 1] = 1.0
    table = correlation_table(BathSpec(beta=1.0), bohr, 2)
    wrong = np.array([[1.0, 2.0], [2.0, 1.0]]) if bad == "indefinite" else np.diag([np.nan, 1.0])
    # absorption at 0.6 and emission at 0.9 are both wrong: the lower frequency is named
    table.plus[bohr.index_of(0.6)] = wrong
    table.minus[bohr.index_of(0.9)] = wrong
    with pytest.raises(BathDomainError) as want:
        reference_generator(spec, [sx, sx.T.copy()], table, bohr)
    with pytest.raises(BathDomainError) as got:
        build_generator(spec, [sx, sx.T.copy()], table, bohr)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("gamma_plus at omega=0.6")


def generic_17():
    rng = np.random.default_rng(74)
    levels = np.cumsum(rng.uniform(0.1, 0.3, size=17))
    spec = spectral_decompose(np.diag(levels).astype(complex))
    coupling = random_hermitian(rng, 17)
    bath = BathSpec(beta=1.0, kernel="quadrature", uv_cutoff=50.0, lamb_shift=True)
    return spec, coupling, bath


def test_no_per_frequency_loops(monkeypatch):
    # a d = 17 generic spectrum has 273 Bohr frequencies; batched assembly takes
    # one principal value per pair and branch and one eigvalsh per branch
    spec, coupling, bath = generic_17()
    bohr = bohr_frequencies(spec)
    assert len(bohr) == 17 * 16 + 1
    counts = {"pv": 0, "eigvalsh": 0}
    pv, eigvalsh = stoclim.bath.principal_value_integral, np.linalg.eigvalsh

    def counted_pv(*args, **kwargs):
        counts["pv"] += 1
        return pv(*args, **kwargs)

    def counted_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(stoclim.bath, "principal_value_integral", counted_pv)
    table = correlation_table(bath, bohr, 1)
    assert counts["pv"] <= 2
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    gen = build_generator(spec, [coupling], table, bohr)
    assert counts["eigvalsh"] <= 2
    assert len(gen.channels) == 136


def test_each_generator_pairs_the_entries_of_its_channels_once(monkeypatch):
    # build_generator pairs the entries of each frequency once, for the shift;
    # the generator pairs its channels' entries once more, and that one pass
    # gives both the jump terms and the drift's damping sums
    spec, coupling, bath = generic_17()
    bohr = bohr_frequencies(spec)
    table = correlation_table(bath, bohr, 1)
    passes = []
    blocks = stoclim.generator._blocks

    def counted_blocks(*args):
        passes.append(args)
        return blocks(*args)

    monkeypatch.setattr(stoclim.generator, "_blocks", counted_blocks)
    gen = build_generator(spec, [coupling], table, bohr)
    assert len(passes) == 1
    evolve(gen, np.diag(np.eye(17)[0]).astype(complex), np.linspace(0.0, 2.0, 5))
    stationary_state(gen)
    diagonal_restriction(gen)
    assert len(passes) == 2
    # the drift and the triples share that pass, whichever is read first
    for first in ("_eigen_drift", "_triples"):
        del gen.__dict__["_triples"], gen.__dict__["_eigen_drift"]
        getattr(gen, first)
        gen._eigen_drift, gen._triples
    assert len(passes) == 4
    assert "_jumps" not in gen.__dict__


def test_lookup_survives_rounding_of_the_tolerance_edge():
    # 2.3 - 1e-12 rounds below the exact difference: the value it lands on is
    # more than the tolerance away, and the next one is the first within it
    x, tol = 2.3, 1e-12
    zero = np.zeros((2, 1, 1))
    table = CorrelationTable([x - tol, x + 0.5 * tol], zero, zero, tol)
    assert abs((x - tol) - x) > tol
    assert table.index_of(x) == 1
    assert np.array_equal(table.index_of(np.array([x, x - tol])), [1, 0])


def test_population_block_in_a_rotated_degenerate_basis():
    # a basis that mixes the degenerate pair: each population projector has
    # four entries, paired from two entries of a column of the rotation
    h, couplings, _ = generic_complex()
    bath = BathSpec(beta=0.8, kernel="quadrature", uv_cutoff=30.0, lamb_shift=True)
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    gen = build_generator(spec, couplings, correlation_table(bath, bohr, 3), bohr)
    mix = np.eye(spec.dim, dtype=complex)
    mix[1:3, 1:3] = random_unitary(np.random.default_rng(75), 2)
    basis = spec.basis @ mix
    d = spec.dim
    # the dense d^2 x d population block, column a = vectorize(|r_a><r_a|)
    pops = (mix[:, np.newaxis, :] * mix.conj()[np.newaxis, :, :]).reshape(d * d, d, order="F")
    want = np.real(pops.conj().T @ gen.superoperator.toarray() @ pops)
    np.fill_diagonal(want, 0.0)
    np.fill_diagonal(want, -want.sum(axis=0))
    got = diagonal_restriction(gen, basis=basis).rate_matrix.toarray()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_population_block_with_large_shifts_in_a_rotated_degenerate_basis():
    # the complex form factors make |H_shift| about 9e6, so the rate between
    # the two mixed states of the degenerate level, zero in exact arithmetic,
    # rounds to about -1e-9: below the old absolute floor of -1e-10, far
    # inside 1e-10 of the largest rate (about 8e3)
    h, couplings, bath = generic_complex()
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    gen = build_generator(spec, couplings, correlation_table(bath, bohr, 3), bohr)
    assert np.abs(gen.h_shift).max() > 1e6
    mix = np.eye(spec.dim, dtype=complex)
    mix[1:3, 1:3] = random_unitary(np.random.default_rng(75), 2)
    k = diagonal_restriction(gen, basis=spec.basis @ mix).rate_matrix.toarray()
    assert -1e-8 < min(k[1, 2], k[2, 1]) < -1e-10


def generic_17_generator():
    spec, coupling, bath = generic_17()
    bohr = bohr_frequencies(spec)
    return build_generator(spec, [coupling], correlation_table(bath, bohr, 1), bohr)


def ring_generator():
    cs = SpinChainSpec(n_sites=4, coupling=1.0, boundary="periodic")
    return quantum_glauber_generator(cs, ring()[2])


ORACLE_SYSTEMS = {"generic_17": generic_17_generator, "ring": ring_generator}


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_actions_match_the_csr_view(name):
    # the actions multiply the triples; the CSR view and its conjugate
    # transpose are the oracle
    gen = ORACLE_SYSTEMS[name]()
    d, v = gen.dim, gen.spec.basis
    rng = np.random.default_rng(76)
    x, y = (random_hermitian(rng, d) + 1j * rng.standard_normal((d, d)) for _ in range(2))
    s = gen.superoperator
    for action, view in ((apply_adjoint, s), (apply_heisenberg, s.conj().T)):
        want = v @ unvectorize(view @ vectorize(v.conj().T @ x @ v), d) @ v.conj().T
        assert np.abs(action(gen, x) - want).max() <= 1e-15 * np.abs(want).max()
    # Hilbert-Schmidt duality: <Y, L(X)> = <L*(Y), X>
    lx = apply_adjoint(gen, x)
    dual = np.vdot(apply_heisenberg(gen, y), x)
    assert abs(np.vdot(y, lx) - dual) <= 1e-12 * np.linalg.norm(lx) * np.linalg.norm(y)


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_population_block_in_the_eigenbasis_is_the_dense_product(name):
    # in the eigenbasis each population projector is one matrix unit, so the
    # block is exactly the superoperator's population entries
    gen = ORACLE_SYSTEMS[name]()
    d = gen.dim
    diag = np.arange(d) * (d + 1)
    want = gen.superoperator.toarray()[np.ix_(diag, diag)].real
    np.fill_diagonal(want, 0.0)
    np.fill_diagonal(want, -want.sum(axis=0))
    assert np.array_equal(diagonal_restriction(gen).rate_matrix.toarray(), want)
