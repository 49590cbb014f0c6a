"""Today's zero-frequency convention, stated as tests; no output depends on them.

The generator drops every Bohr frequency at or below ``match_tol``, ``w = 0``
included, and ``correlation_table`` stores 0 there.  Under the default
``paper`` density (4 pi w) the golden-rule rates have the finite limit
8 pi^2 / beta as ``w -> 0+``; under ``physical`` (4 pi w^2) they tend to 0.
So under ``paper`` the rate jumps from about 8 pi^2 / beta to exactly 0 at
``w = 0``: an energy-neutral spin flip is frozen only on an exact tie of
its bonds, and a coupling diagonal in the eigenbasis gives no pure
dephasing.  These tests pin that convention at beta = 1.
"""

import math

import numpy as np
import pytest

from stoclim import (
    BathSpec,
    SpinChainSpec,
    absorption_rate,
    bohr_frequencies,
    build_generator,
    correlation_table,
    emission_rate,
    offdiag_rate,
    spectral_decompose,
    total_flip_rate,
)

LIMIT = 8.0 * math.pi**2  # 2 pi * 4 pi w * N(w) as w -> 0+, at beta = 1
BLOCKED = [1, 1, -1, -1]


@pytest.mark.parametrize("omega", [1e-3, 1e-6, 1e-9])
def test_rates_tend_to_eight_pi_squared_over_beta_under_the_paper_density(omega):
    bath = BathSpec(beta=1.0)
    for rate in (emission_rate(bath, omega), absorption_rate(bath, omega)):
        # N(w) = 1/(beta w) -+ 1/2 + O(w): the relative offset is beta w / 2
        assert abs(rate - LIMIT) <= LIMIT * omega
    assert round(emission_rate(bath, 1e-6), 3) == round(absorption_rate(bath, 1e-6), 3) == 78.957
    assert emission_rate(bath, 0.0) == absorption_rate(bath, 0.0) == 0.0


@pytest.mark.parametrize("omega", [1e-3, 1e-6, 1e-9])
def test_rates_tend_to_zero_under_the_physical_density(omega):
    bath = BathSpec(beta=1.0, dos="physical")
    for rate in (emission_rate(bath, omega), absorption_rate(bath, omega)):
        assert abs(rate - LIMIT * omega) <= LIMIT * omega * omega
    assert f"{emission_rate(bath, 1e-6):.1e}" == "7.9e-05"


def test_table_stores_zero_at_zero_frequency():
    spec = spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
    bohr = bohr_frequencies(spec)
    table = correlation_table(BathSpec(beta=1.0), bohr)
    assert list(bohr.frequencies) == [-1.0, 0.0, 1.0]
    assert not table.minus_at(0.0).any() and not table.plus_at(0.0).any()


def test_neutral_flips_of_the_blocked_ring_are_frozen_only_on_an_exact_tie():
    bath = BathSpec(beta=1.0)
    tie = SpinChainSpec(n_sites=4, coupling=[1.0, 1.0, 1.0, 1.0], boundary="periodic")
    assert total_flip_rate(tie, bath, BLOCKED) == 0.0
    # a 1e-9 change of the last bond lets sites 0 and 3 release 2e-9 each
    near = SpinChainSpec(n_sites=4, coupling=[1.0, 1.0, 1.0, 1.0 + 1e-9], boundary="periodic")
    rate = total_flip_rate(near, bath, BLOCKED)
    assert abs(rate - 2.0 * LIMIT) <= 1e-6 * LIMIT
    assert round(rate, 3) == 157.914
    # under the physical density the same jump is of the order of the change
    near = SpinChainSpec(n_sites=4, coupling=[1.0, 1.0, 1.0, 1.0 + 1e-6], boundary="periodic")
    rate = total_flip_rate(near, BathSpec(beta=1.0, dos="physical"), BLOCKED)
    assert abs(rate - 2.0 * LIMIT * 2e-6) <= 1e-5 * rate


def test_sigma_z_coupled_qubit_has_no_channel_and_no_dephasing():
    spec = spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
    bohr = bohr_frequencies(spec)
    table = correlation_table(BathSpec(beta=1.0), bohr)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    gen = build_generator(spec, [0.1 * sigma_z], table, bohr)
    assert len(gen.omegas) == 0 and len(gen.channels) == 0
    assert offdiag_rate(gen, 0, 1) == 0.0
    # its diagonal adds nothing to the sigma^x coherence rate either
    both = offdiag_rate(build_generator(spec, [0.1 * (sigma_x + sigma_z)], table, bohr), 0, 1)
    alone = offdiag_rate(build_generator(spec, [0.1 * sigma_x], table, bohr), 0, 1)
    assert both == alone
    assert round(both.real, 3) == -0.854
