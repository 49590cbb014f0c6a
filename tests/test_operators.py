"""Spectral decomposition, frequency lattice, and eigenoperator slicing."""

import numpy as np
import pytest

from stoclim import (
    bohr_frequencies,
    commutant_membership,
    e_omega,
    genericity_check,
    matrix_unit,
    spectral_decompose,
)
from stoclim import glauber
from stoclim.glauber import SpinChainSpec, ising_system, local_e_omega
from stoclim.operators import MAX_DIMENSION, dag, frequency_index, validate_hermitian


def random_hermitian(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (a + a.conj().T)


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_two_level_spectrum():
    spec = spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
    assert spec.dim == 2
    assert spec.n_levels == 2
    assert np.allclose(spec.energies, [0.0, 1.0])
    assert spec.multiplicity(0) == 1 and spec.multiplicity(1) == 1
    p0, p1 = spec.projectors
    assert np.allclose(p0, np.diag([1.0, 0.0]))
    assert np.allclose(p1, np.diag([0.0, 1.0]))


def test_projectors_orthogonal_and_complete():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        spec = spectral_decompose(random_hermitian(rng, d))
        total = np.zeros((d, d), dtype=complex)
        for a, pa in enumerate(spec.projectors):
            total += pa
            # idempotent
            assert np.abs(pa @ pa - pa).max() < 1e-10
            for b, pb in enumerate(spec.projectors):
                if a != b:
                    assert np.abs(pa @ pb).max() < 1e-10
        assert np.abs(total - np.eye(d)).max() < 1e-10


def test_projectors_rebuild_hamiltonian():
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        h = random_hermitian(rng, d)
        spec = spectral_decompose(h)
        rebuilt = sum(
            e * p for e, p in zip(spec.energies, spec.projectors)
        )
        assert np.abs(rebuilt - h).max() < 1e-9 * max(1.0, np.abs(h).max())


def test_near_degenerate_levels_cluster():
    # two eigenvalues separated by far less than the cluster tolerance
    h = np.diag([0.0, 1.0, 1.0 + 1e-13]).astype(complex)
    spec = spectral_decompose(h)
    assert spec.n_levels == 2
    assert spec.multiplicity(1) == 2


def test_cluster_tol_override():
    h = np.diag([0.0, 1.0, 1.001]).astype(complex)
    assert spectral_decompose(h).n_levels == 3
    assert spectral_decompose(h, cluster_tol=0.01).n_levels == 2
    # 0 merges exact ties only; a negative tolerance would split a level
    tie = np.diag([0.0, 0.0, 1.0]).astype(complex)
    assert spectral_decompose(tie, cluster_tol=0.0).multiplicity(0) == 2
    for bad in (-1.0, -1e-300):
        with pytest.raises(ValueError, match="cluster_tol must be finite and non-negative"):
            spectral_decompose(tie, cluster_tol=bad)


def test_dimension_cap():
    with pytest.raises(ValueError):
        spectral_decompose(np.eye(MAX_DIMENSION + 1, dtype=complex))


def test_every_dense_route_refuses_past_the_cap_with_one_message(monkeypatch):
    cs = SpinChainSpec(n_sites=7, coupling=1.0, boundary="periodic")
    # the chain's couplings must not be built before the refusal
    monkeypatch.setattr(glauber, "_site_operator", None)
    routes = (
        lambda: validate_hermitian(np.eye(2**7)),
        lambda: ising_system(cs),
        lambda: local_e_omega(cs, 0, 2.0),
    )
    for route in routes:
        with pytest.raises(ValueError) as info:
            route()
        assert str(info.value) == f"dimension 128 exceeds the dense cap {MAX_DIMENSION}"


def test_non_hermitian_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        spectral_decompose(bad)
    with pytest.raises(ValueError):
        validate_hermitian(bad)


def test_frequency_lattice_symmetric_with_zero():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        spec = spectral_decompose(random_hermitian(rng, d))
        bohr = bohr_frequencies(spec)
        freqs = np.asarray(bohr.frequencies)
        assert 0.0 in freqs
        # closed under negation
        for w in freqs:
            assert np.min(np.abs(freqs + w)) < bohr.match_tol
        assert np.all(np.diff(freqs) > 0)


def test_frequency_pairs_match_level_gaps():
    rng = np.random.default_rng(14)
    for _ in range(15):
        d = int(rng.integers(2, 7))
        spec = spectral_decompose(random_hermitian(rng, d))
        bohr = bohr_frequencies(spec)
        for w, pairs in zip(bohr.frequencies, bohr.pairs):
            assert len(pairs) > 0
            for tgt, src in pairs:
                gap = spec.energies[src] - spec.energies[tgt]
                assert abs(gap - w) < bohr.match_tol


def test_eigenoperator_slices_sum_to_identity_map():
    rng = np.random.default_rng(15)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        spec = spectral_decompose(random_hermitian(rng, d))
        bohr = bohr_frequencies(spec)
        x = random_matrix(rng, d)
        total = np.zeros_like(x)
        for w in bohr.frequencies:
            total += e_omega(x, w, spec, bohr)
        assert np.abs(total - x).max() < 1e-10 * max(1.0, np.abs(x).max())


def test_eigenoperator_slices_are_orthogonal_projections():
    rng = np.random.default_rng(16)
    for _ in range(15):
        d = int(rng.integers(2, 6))
        spec = spectral_decompose(random_hermitian(rng, d))
        bohr = bohr_frequencies(spec)
        x = random_matrix(rng, d)
        for w in bohr.frequencies:
            xw = e_omega(x, w, spec, bohr)
            # idempotent on its own output
            assert np.abs(e_omega(xw, w, spec, bohr) - xw).max() < 1e-10
            for v in bohr.frequencies:
                if abs(v - w) > bohr.match_tol:
                    assert np.abs(e_omega(xw, v, spec, bohr)).max() < 1e-10


def test_eigenoperator_free_evolution_phase():
    # slicing at frequency w picks out the component that rotates as
    # exp(-i w t) under conjugation by exp(i H t)
    rng = np.random.default_rng(17)
    for _ in range(15):
        d = int(rng.integers(2, 6))
        h = random_hermitian(rng, d)
        spec = spectral_decompose(h)
        bohr = bohr_frequencies(spec)
        x = random_matrix(rng, d)
        t = float(rng.uniform(0.1, 2.0))
        vals, vecs = np.linalg.eigh(h)
        u = vecs @ np.diag(np.exp(1j * vals * t)) @ vecs.conj().T
        for w in bohr.frequencies:
            xw = e_omega(x, w, spec, bohr)
            rotated = u @ xw @ u.conj().T
            assert np.abs(rotated - np.exp(-1j * w * t) * xw).max() < 1e-8


def test_eigenoperator_adjoint_flips_frequency():
    rng = np.random.default_rng(18)
    for _ in range(15):
        d = int(rng.integers(2, 6))
        spec = spectral_decompose(random_hermitian(rng, d))
        bohr = bohr_frequencies(spec)
        x = random_matrix(rng, d)
        for w in bohr.frequencies:
            left = dag(e_omega(x, w, spec, bohr))
            right = e_omega(dag(x), -w, spec, bohr)
            assert np.abs(left - right).max() < 1e-10


def test_zero_frequency_slice_commutes():
    rng = np.random.default_rng(19)
    for _ in range(15):
        d = int(rng.integers(2, 6))
        h = random_hermitian(rng, d)
        spec = spectral_decompose(h)
        x0 = e_omega(random_matrix(rng, d), 0.0, spec)
        assert np.abs(h @ x0 - x0 @ h).max() < 1e-8
        ok, residual = commutant_membership(x0, spec)
        assert ok
        assert residual < 1e-10


def test_commutant_membership_detects_offdiagonal():
    spec = spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
    ok, residual = commutant_membership(np.array([[0, 1], [1, 0]], dtype=complex), spec)
    assert not ok
    assert residual > 0.5


def test_matrix_unit():
    e = matrix_unit(3, 0, 2)
    assert e.shape == (3, 3)
    assert e[0, 2] == 1.0
    assert np.count_nonzero(e) == 1
    assert np.abs(dag(e) - matrix_unit(3, 2, 0)).max() == 0.0


def test_genericity_verdicts():
    # distinct gaps -> generic
    rep = genericity_check(spectral_decompose(np.diag([0.0, 1.0, 2.5]).astype(complex)))
    assert rep.is_generic
    assert rep.degenerate_levels == []
    assert rep.ambiguous_frequencies == []
    # equal spacing: the unit gap shows up twice
    rep = genericity_check(spectral_decompose(np.diag([0.0, 1.0, 2.0]).astype(complex)))
    assert not rep.is_generic
    assert any(abs(w - 1.0) < 1e-9 and k == 2 for w, k in rep.ambiguous_frequencies)
    # repeated eigenvalue
    rep = genericity_check(spectral_decompose(np.diag([0.0, 0.0, 1.0]).astype(complex)))
    assert not rep.is_generic
    assert any(m == 2 for _, m in rep.degenerate_levels)


def test_spectral_data_validate_roundtrip():
    rng = np.random.default_rng(20)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        spec = spectral_decompose(random_hermitian(rng, d))
        spec.validate()


def test_spectral_data_validate_rejects_a_non_unitary_basis():
    spec = spectral_decompose(random_hermitian(np.random.default_rng(21), 4))
    spec.basis = spec.basis.copy()
    spec.basis[0, 0] += 1e-9
    with pytest.raises(ValueError, match="not unitary"):
        spec.validate()


def loop_bohr_frequencies(energies, tol):
    """Reference: the pairwise loop over sorted level differences, each
    level pair filed under the first frequency within ``tol`` of its
    difference."""
    n = len(energies)
    diffs = sorted(energies[a] - energies[b] for a in range(n) for b in range(n))
    freqs = []
    for w in diffs:
        if not freqs or (w - freqs[-1]) > tol:
            freqs.append(w)
    pairs = [[] for _ in freqs]
    for src in range(n):
        for tgt in range(n):
            x = energies[src] - energies[tgt]
            k = next(k for k, w in enumerate(freqs) if abs(x - w) <= tol)
            pairs[k].append((tgt, src))
    return np.asarray(freqs), tuple(tuple(p) for p in pairs)


def test_frequency_set_matches_pairwise_loop():
    # generic levels, integer (highly degenerate) gaps, and steps a fraction
    # of the matching tolerance apart, whose differences chain across it
    rng = np.random.default_rng(93)
    tol = 1e-9
    ladders = [
        np.sort(rng.uniform(0.0, 3.0, 13)),
        np.arange(9, dtype=float),
        np.cumsum(rng.choice([0.3, 0.3 + 0.6 * tol, 0.3 + 1.2 * tol, 0.7], 12)),
    ]
    for energies in ladders:
        h = np.diag(energies).astype(complex)
        spec = spectral_decompose(h, cluster_tol=tol)
        bohr = bohr_frequencies(spec)
        freqs, pairs = loop_bohr_frequencies(spec.energies, spec.match_tol)
        assert np.array_equal(bohr.frequencies, freqs)
        assert bohr.pairs == pairs


def scan_ladders(rng, count):
    """Seeded ladders: generic levels, integer and quarter-integer ladders
    (exact degeneracies), and steps that differ by fractions or whole
    multiples of the tolerance, whose differences chain across it."""
    for k in range(count):
        n, tol = int(rng.integers(2, 16)), float(10.0 ** rng.uniform(-11, -4))
        kind = k % 5
        if kind == 0:
            energies = rng.uniform(0.0, 3.0, n)
        elif kind == 1:
            energies = rng.integers(0, 7, n) * 0.25
        elif kind == 2:
            energies = np.arange(n) + np.cumsum(rng.choice([0.3, 0.45, 0.5, 1.0], n)) * tol
        elif kind == 3:
            energies = np.arange(n) * 0.5 + rng.integers(-2, 3, n) * tol
        else:
            energies = np.round(rng.uniform(0.0, 2.0, n), 1) + rng.uniform(0.0, 1.5, n) * tol
        yield np.sort(energies), tol


def test_frequency_set_matches_pairwise_loop_on_a_seeded_scan():
    wide = 0
    for energies, tol in scan_ladders(np.random.default_rng(2207), 60):
        spec = spectral_decompose(np.diag(energies).astype(complex), cluster_tol=tol)
        bohr = bohr_frequencies(spec)
        freqs, pairs = loop_bohr_frequencies(spec.energies, spec.match_tol)
        assert np.array_equal(bohr.frequencies, freqs)
        assert bohr.pairs == pairs
        # more clusters than gaps wider than tol: a run was scanned element-wise
        diffs = np.sort(np.subtract.outer(spec.energies, spec.energies).ravel())
        wide += len(freqs) > np.count_nonzero(np.diff(diffs) > spec.match_tol) + 1
    assert wide >= 5


# (2, 1) lies within match_tol of two frequencies, 1 and 1 + 1.8e-9
FRINGED = (np.array([0.0, 1.0, 2.0 + 0.9e-9, 3.0 + 2.7e-9]), 1e-9)


def fringe_count(spec, bohr):
    """Level differences within ``match_tol`` of two Bohr frequencies."""
    diffs = np.subtract.outer(spec.energies, spec.energies).ravel()
    near = np.abs(diffs[:, None] - bohr.frequencies[None, :]) <= spec.match_tol
    return int(np.count_nonzero(near.sum(axis=1) > 1))


def test_frequency_index_files_each_entry_under_a_bohr_pair():
    # the generator gives each eigenbasis entry to the channel frequency_index
    # names, so that frequency must list the entry's level pair, and no other
    # may, also where the pair's difference is within match_tol of two
    near_two = 0
    for energies, tol in [FRINGED, *scan_ladders(np.random.default_rng(2207), 60)]:
        spec = spectral_decompose(np.diag(energies).astype(complex), cluster_tol=tol)
        bohr = bohr_frequencies(spec)
        lev = spec.level_of_column
        for (a, b), k in np.ndenumerate(frequency_index(spec, bohr)):
            assert k >= 0 and (lev[a], lev[b]) in bohr.pairs[k]
        listed = sorted(pair for pairs in bohr.pairs for pair in pairs)
        n = spec.n_levels
        assert listed == [(tgt, src) for tgt in range(n) for src in range(n)]
        near_two += fringe_count(spec, bohr)
    assert near_two >= 2


def test_components_at_the_bohr_frequencies_add_up_to_the_operator():
    # sum_w E_w(X) = X: each eigenbasis entry lies in exactly one component,
    # also where its level difference is within match_tol of two frequencies
    rng = np.random.default_rng(2208)
    ladders_near_two = 0
    for energies, tol in [FRINGED, *scan_ladders(np.random.default_rng(2207), 400)]:
        spec = spectral_decompose(np.diag(energies).astype(complex), cluster_tol=tol)
        bohr = bohr_frequencies(spec)
        x = random_matrix(rng, spec.dim)
        total = sum(e_omega(x, w, spec, bohr) for w in bohr.frequencies)
        assert np.linalg.norm(total - x) <= 1e-12 * np.linalg.norm(x)
        ladders_near_two += fringe_count(spec, bohr) > 0
    assert ladders_near_two >= 100
