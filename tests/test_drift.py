"""The drift against a per-frequency double loop over coupling pairs."""

import numpy as np
import pytest

from stoclim import (
    BathDomainError,
    BathSpec,
    CorrelationTable,
    bohr_frequencies,
    build_generator,
    correlation_table,
    e_omega,
    spectral_decompose,
)
from stoclim.generator import build_drift
from stoclim.operators import dag


def reference_drift(spec, couplings, table, bohr):
    """``sum_w sum_ij c-_ij A_i^dag A_j + conj(c+_ij) A_i A_j^dag``, term by term."""
    d = spec.dim
    out = np.zeros((d, d), dtype=complex)
    for w in bohr.frequencies:
        comps = [e_omega(c, w, spec, bohr) for c in couplings]
        m = table.minus_at(w)
        p = table.plus_at(w)
        for i, a_i in enumerate(comps):
            for j, a_j in enumerate(comps):
                out += m[i, j] * (dag(a_i) @ a_j)
                out += np.conj(p[i, j]) * (a_i @ dag(a_j))
    return out


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


# complex form factors make the cross-rate matrices non-symmetric, so an
# emission/absorption index pairing written the wrong way round shows up
COMPLEX_SHIFTED = BathSpec(
    beta=0.8,
    kernel="quadrature",
    uv_cutoff=50.0,
    lamb_shift=True,
    form_factors=[lambda w: 1.0 + 0.4j * w, lambda w: 0.7 - 0.2j * w * w],
)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_drift_shift_and_damping_match_the_pair_loop(d):
    rng = np.random.default_rng(4100 + d)
    h = random_hermitian(rng, d)
    couplings = [random_hermitian(rng, d), random_hermitian(rng, d)]
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    table = correlation_table(COMPLEX_SHIFTED, bohr, 2)
    gen = build_generator(spec, couplings, table, bohr)
    ref = reference_drift(spec, couplings, table, bohr)
    scale = np.abs(ref).max()
    damping = 0.5 * sum(ch.k_minus + ch.k_plus for ch in gen.channels)
    assert np.abs(build_drift(spec, couplings, table, bohr) - ref).max() <= 1e-13 * scale
    assert np.abs(gen.h_shift - (ref - dag(ref)) / 2j).max() <= 1e-13 * scale
    assert np.abs(damping - 0.5 * (ref + dag(ref))).max() <= 1e-13 * scale
    # the shift is present and the pairing is exercised off the diagonal
    assert np.abs(gen.h_shift).max() > 1e-3 * scale
    assert any(abs(ch.gamma_minus[0, 1].imag) > 0.0 for ch in gen.channels)


def test_build_drift_rejects_negative_rates():
    spec = spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
    bohr = bohr_frequencies(spec)
    bath = BathSpec(beta=1.0, mode_density=lambda rho: -0.5)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    table = correlation_table(bath, bohr, 1)
    with pytest.raises(BathDomainError, match="gamma_plus at omega=1.0"):
        build_drift(spec, [sx], table, bohr)


def test_build_generator_rejects_nan_rates():
    # a hand-built table: eigvalsh would report finite eigenvalues for a
    # NaN matrix, so the positivity check must not rely on it alone
    spec = spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
    bohr = bohr_frequencies(spec)
    zero = np.zeros((2, 2), dtype=complex)
    bad = np.diag([np.nan, 1.0]).astype(complex)
    table = CorrelationTable(
        frequencies=np.array(bohr.frequencies),
        minus=tuple(bad if w > 0 else zero for w in bohr.frequencies),
        plus=tuple(zero for _ in bohr.frequencies),
        match_tol=bohr.match_tol,
    )
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(BathDomainError, match="gamma_minus at omega=1.0 has eigenvalue nan"):
        build_generator(spec, [sx, sx], table, bohr)
