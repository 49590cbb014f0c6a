"""Frequency components by the eigenbasis mask against the projector sum."""

import numpy as np
import pytest

from stoclim import (
    BathSpec,
    bohr_frequencies,
    build_generator,
    correlation_table,
    e_omega,
    frequency_mask,
    spectral_decompose,
)


def projector_sum(x, omega, spec, bohr):
    """``sum P[tgt] X P[src]`` over the level pairs realising ``omega``."""
    out = np.zeros_like(x)
    k = bohr.index_of(omega)
    if k is None:
        return out
    for tgt, src in bohr.pairs[k]:
        out += spec.projectors[tgt] @ x @ spec.projectors[src]
    return out


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a + a.conj().T


def hamiltonian(kind, rng):
    if kind == "degenerate":
        # a 2x2 block tensored with the identity: two exactly threefold levels
        return np.kron(random_hermitian(rng, 2), np.eye(3))
    if kind == "generic":
        levels = np.cumsum(rng.uniform(0.3, 1.0, size=6))
    else:
        # gaps of 1e-11, below the default clustering tolerance 1e-9 * 2.5
        levels = np.array([0.0, 1e-11, 1.0, 1.0 + 2e-11, 1.0 + 3e-11, 2.5])
    u = random_unitary(rng, 6)
    return (u * levels) @ u.conj().T


@pytest.mark.parametrize(
    "kind, n_levels, seed", [("generic", 6, 0), ("degenerate", 2, 1), ("clustered", 3, 2)]
)
def test_mask_matches_projector_sum(kind, n_levels, seed):
    rng = np.random.default_rng(seed)
    spec = spectral_decompose(hamiltonian(kind, rng))
    assert spec.n_levels == n_levels
    bohr = bohr_frequencies(spec)
    couplings = [random_hermitian(rng, spec.dim) for _ in range(2)]
    scale = max(np.abs(c).max() for c in couplings)
    for w in bohr.frequencies:
        for c in couplings:
            ref = projector_sum(c, w, spec, bohr)
            assert np.abs(e_omega(c, w, spec, bohr) - ref).max() <= 1e-13 * scale
    gen = build_generator(spec, couplings, correlation_table(BathSpec(beta=1.0), bohr, 2), bohr)
    assert len(gen.channels) == np.sum(bohr.frequencies > bohr.match_tol)
    for ch in gen.channels:
        for c, low in zip(couplings, ch.lowering):
            assert np.abs(low - projector_sum(c, ch.omega, spec, bohr)).max() <= 1e-13 * scale


def test_mask_selects_level_pairs_of_the_frequency():
    spec = spectral_decompose(np.diag([0.0, 1.0, 1.0, 3.0]).astype(complex))
    mask = frequency_mask(spec, 1.0)
    # columns 1 and 2 share the level at 1.0; only level 0 lies 1.0 below it
    want = np.zeros((4, 4), dtype=bool)
    want[0, 1] = want[0, 2] = True
    assert np.array_equal(mask, want)
    # frequency 0 keeps the level-diagonal blocks
    level = spec.level_of_column
    assert np.array_equal(frequency_mask(spec, 0.0), level[:, None] == level[None, :])
