"""Reservoir rate constants: closed forms, quadrature kernel, level shifts."""

import math

import numpy as np
import pytest

from stoclim import (
    BathSpec,
    absorption_rate,
    bohr_frequencies,
    correlation_table,
    emission_rate,
    filtered_density,
    high_temperature_limit,
    principal_value_integral,
    pv_lamb_shift,
    spectral_decompose,
)
from stoclim.bath import BathConfigurationError, BathDomainError


def bohr_for_gap(delta):
    spec = spectral_decompose(np.diag([0.0, delta]).astype(complex))
    return bohr_frequencies(spec)


def thermal_n(beta, w):
    return 1.0 / math.expm1(beta * w)


def test_unit_gap_rate_constants():
    # independent closed form: Re = pi * (4 pi w) * (N + 1 | N) at w = 1,
    # beta = 1, so Re- = 4 pi^2 e/(e-1) and Re+ = 4 pi^2 /(e-1)
    table = correlation_table(BathSpec(beta=1.0), bohr_for_gap(1.0))
    re_minus = table.minus_at(1.0)[0, 0].real
    re_plus = table.plus_at(1.0)[0, 0].real
    want_minus = 4.0 * math.pi**2 * math.e / (math.e - 1.0)
    want_plus = 4.0 * math.pi**2 / (math.e - 1.0)
    assert abs(re_minus - want_minus) < 1e-12 * want_minus
    assert abs(re_plus - want_plus) < 1e-12 * want_plus
    assert abs(re_minus - 62.45393707415341) < 1e-10
    assert abs(re_plus - 22.97551946979598) < 1e-10
    # purely real without a level-shift request
    assert table.minus_at(1.0)[0, 0].imag == 0.0
    assert table.plus_at(1.0)[0, 0].imag == 0.0


def test_nonpositive_frequencies_are_silent():
    table = correlation_table(BathSpec(beta=1.0), bohr_for_gap(1.0))
    assert np.abs(table.minus_at(0.0)).max() == 0.0
    assert np.abs(table.plus_at(0.0)).max() == 0.0
    assert np.abs(table.minus_at(-1.0)).max() == 0.0
    assert np.abs(table.plus_at(-1.0)).max() == 0.0


def test_kms_ratio_on_grid():
    # emission / absorption = exp(beta w) pointwise
    rng = np.random.default_rng(31)
    for _ in range(20):
        beta = float(rng.uniform(0.2, 3.0))
        w = float(rng.uniform(0.05, 4.0))
        bath = BathSpec(beta=beta)
        em = emission_rate(bath, w)
        ab = absorption_rate(bath, w)
        assert ab > 0.0
        ratio = em / ab
        want = math.exp(beta * w)
        assert abs(ratio - want) < 1e-10 * want


def test_scalar_rates_match_table():
    # the damping matrices are twice the Hermitian part of the table
    # entries, which is exactly the full scalar rate for one real coupling
    bath = BathSpec(beta=0.7)
    bohr = bohr_for_gap(1.3)
    table = correlation_table(bath, bohr)
    gm = table.gamma_minus(1.3)[0, 0].real
    gp = table.gamma_plus(1.3)[0, 0].real
    assert abs(gm - emission_rate(bath, 1.3)) < 1e-12 * gm
    assert abs(gp - absorption_rate(bath, 1.3)) < 1e-12 * gp
    assert abs(gm - 2.0 * table.minus_at(1.3)[0, 0].real) < 1e-12 * gm


def test_mode_density_conventions_differ_by_frequency_factor():
    rng = np.random.default_rng(32)
    for _ in range(10):
        w = float(rng.uniform(0.1, 5.0))
        linear = emission_rate(BathSpec(beta=1.0, dos="paper"), w)
        quadratic = emission_rate(BathSpec(beta=1.0, dos="physical"), w)
        assert abs(quadratic - w * linear) < 1e-12 * max(1.0, quadratic)


def test_high_temperature_limit():
    # for beta w -> 0 the absorption constant approaches 4 pi^2 / beta
    for beta in (0.5, 1.0, 2.0):
        want = 4.0 * math.pi**2 / beta
        got = high_temperature_limit(BathSpec(beta=beta), 1e-8)
        assert abs(got - want) < 1e-10 * want
    for bw in (1e-2, 1e-3, 1e-4):
        bath = BathSpec(beta=1.0)
        re_plus = absorption_rate(bath, bw) / 2.0
        limit = 4.0 * math.pi**2
        # relative departure from the limiting value is of order beta w
        assert abs(re_plus - limit) / limit < bw
        want = math.pi * 4.0 * math.pi * bw * thermal_n(1.0, bw)
        assert abs(re_plus - want) < 1e-10 * want


def test_quadrature_kernel_matches_analytic():
    rng = np.random.default_rng(33)
    for _ in range(8):
        beta = float(rng.uniform(0.3, 2.0))
        w = float(rng.uniform(0.2, 3.0))
        analytic = emission_rate(BathSpec(beta=beta), w)
        quad = emission_rate(BathSpec(beta=beta, kernel="quadrature"), w)
        assert abs(quad - analytic) < 1e-8 * max(1.0, analytic)


def test_uv_cutoff_closes_the_shell():
    bath = BathSpec(beta=1.0, uv_cutoff=2.0)
    assert emission_rate(bath, 1.9) > 0.0
    assert emission_rate(bath, 2.0) == 0.0
    assert emission_rate(bath, 2.5) == 0.0
    assert absorption_rate(bath, 2.5) == 0.0


def test_band_filter_zeroes_occupation_only():
    # the filter empties modes above omega_max but leaves the vacuum
    # fluctuation part of the emission channel alone
    bath = BathSpec(beta=1.0, filter_max=1.0)
    assert filtered_density(bath, 0.5) == pytest.approx(thermal_n(1.0, 0.5), rel=1e-12)
    assert filtered_density(bath, 1.5) == 0.0
    assert absorption_rate(bath, 1.5) == 0.0
    spontaneous = emission_rate(bath, 1.5)
    want = 2.0 * math.pi * 4.0 * math.pi * 1.5  # N + 1 with N = 0
    assert abs(spontaneous - want) < 1e-12 * want


def test_spontaneous_emission_switch():
    bath = BathSpec(beta=1.0, spontaneous_emission=False)
    w = 0.8
    em = emission_rate(bath, w)
    ab = absorption_rate(bath, w)
    assert abs(em - ab) < 1e-12 * ab
    # and the fully silenced band
    silent = BathSpec(beta=1.0, filter_max=1.0, spontaneous_emission=False)
    assert emission_rate(silent, 1.5) == 0.0
    assert emission_rate(silent, 0.5) > 0.0


def test_zero_temperature():
    bath = BathSpec(beta=math.inf)
    w = 1.0
    assert absorption_rate(bath, w) == 0.0
    want = 2.0 * math.pi * 4.0 * math.pi * w  # pure vacuum emission
    assert abs(emission_rate(bath, w) - want) < 1e-12 * want


def test_form_factor_weighting():
    g = lambda w: 1.0 / (1.0 + w * w)
    bath = BathSpec(beta=1.0, form_factors=[g])
    flat = BathSpec(beta=1.0)
    w = 1.7
    got = emission_rate(bath, w)
    want = abs(g(w)) ** 2 * emission_rate(flat, w)
    assert abs(got - want) < 1e-12 * want


def test_custom_mode_density():
    # occupation profile with no thermal interpretation: rates must follow it
    prof = lambda w: 0.25
    bath = BathSpec(beta=1.0, mode_density=prof)
    w = 1.1
    want_ab = 2.0 * math.pi * 4.0 * math.pi * w * 0.25
    want_em = 2.0 * math.pi * 4.0 * math.pi * w * 1.25
    assert abs(absorption_rate(bath, w) - want_ab) < 1e-12 * want_ab
    assert abs(emission_rate(bath, w) - want_em) < 1e-12 * want_em


def test_cross_pair_table_hermitian():
    # two coupling operators with distinct form factors: the 2x2 rate
    # matrices at each frequency must be Hermitian and positive
    g0 = lambda w: 1.0
    g1 = lambda w: 0.5 + 0.3 * w
    bath = BathSpec(beta=1.0, form_factors=[g0, g1])
    table = correlation_table(bath, bohr_for_gap(1.0), n_couplings=2)
    gm = table.gamma_minus(1.0)
    gp = table.gamma_plus(1.0)
    for mat in (gm, gp):
        assert np.abs(mat - mat.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(mat).min() > -1e-12
    # rank one: built from a single scalar bath mode
    assert abs(gm[0, 1] ** 2 - gm[0, 0] * gm[1, 1]) < 1e-10 * abs(gm[0, 0] * gm[1, 1])


def test_principal_value_integral_oracles():
    # 1/(x-1) over [0, 2] cancels by symmetry; over [0, 3] it leaves log 2
    assert abs(principal_value_integral(lambda x: 1.0, 0.0, 2.0, 1.0)) < 1e-9
    got = principal_value_integral(lambda x: 1.0, 0.0, 3.0, 1.0)
    assert abs(got - math.log(2.0)) < 1e-8
    # x/(x-1) = 1 + 1/(x-1): the regular part integrates to the interval length
    got = principal_value_integral(lambda x: x, 0.0, 2.0, 1.0)
    assert abs(got - 2.0) < 1e-8
    # smooth numerator with known antiderivative:
    # PV int_0^2 exp(x)/(x-1) dx = e * PV int_{-1}^{1} exp(u)/u du = e * 2*Shi(1)
    shi1 = 1.0572508753757285  # sum_{k odd} 1/(k * k!)
    got = principal_value_integral(lambda x: math.exp(x), 0.0, 2.0, 1.0)
    assert abs(got - 2.0 * math.e * shi1) < 1e-7


def test_level_shift_needs_quadrature_kernel():
    # the kernel selects nothing; the default bath has no uv_cutoff
    with pytest.raises(BathConfigurationError):
        pv_lamb_shift(BathSpec(beta=1.0), 1.0)


def test_kernel_selects_nothing():
    # both kernels take the same rates and principal values; neither gates
    # level shifts or the high-temperature limit
    spec = spectral_decompose(np.diag([0.0, 0.4, 1.1, 2.5]).astype(complex))
    bohr = bohr_frequencies(spec)
    tables = [
        correlation_table(
            BathSpec(beta=0.7, kernel=kernel, uv_cutoff=20.0, lamb_shift=True), bohr, 2
        )
        for kernel in ("analytic", "quadrature")
    ]
    assert np.abs(tables[0].minus.imag).max() > 0.0
    for a, b in zip(tables[0].__dict__.values(), tables[1].__dict__.values()):
        assert np.array_equal(a, b)
    shifts = [pv_lamb_shift(BathSpec(beta=1.0, kernel=k, uv_cutoff=20.0), 1.0)
              for k in ("analytic", "quadrature")]
    assert shifts[0] == shifts[1]
    for kernel in ("analytic", "quadrature"):
        assert high_temperature_limit(BathSpec(beta=0.5, kernel=kernel), 1e-3) == 8.0 * math.pi**2


def test_level_shift_finite_inside_band():
    bath = BathSpec(beta=1.0, kernel="quadrature", uv_cutoff=50.0, lamb_shift=True)
    val = pv_lamb_shift(bath, 1.0)
    assert np.isfinite(complex(val).real)
    # the shift feeds the imaginary leg of the table
    table = correlation_table(bath, bohr_for_gap(1.0))
    assert table.minus_at(1.0)[0, 0].imag != 0.0


def test_level_shift_infrared_divergence_reported():
    bath = BathSpec(beta=1.0, kernel="quadrature", uv_cutoff=50.0, lamb_shift=True)
    with pytest.raises(BathDomainError):
        pv_lamb_shift(bath, 0.0)


def test_configuration_errors():
    with pytest.raises(BathConfigurationError):
        BathSpec(beta=1.0, kernel="exact")
    with pytest.raises(BathConfigurationError):
        BathSpec(beta=1.0, dos="cubic")
    with pytest.raises(BathConfigurationError):
        BathSpec(beta=0.0)
    with pytest.raises(BathConfigurationError):
        BathSpec(beta=-1.0)
