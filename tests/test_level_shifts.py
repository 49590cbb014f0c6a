"""Principal-value level shifts: pole subtraction, break points, pair symmetry."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import stoclim
import stoclim.bath
from stoclim import (
    BathDomainError,
    BathSpec,
    CorrelationTable,
    bohr_frequencies,
    build_generator,
    correlation_table,
    principal_value_integral,
    pv_lamb_shift,
    spectral_decompose,
)
from stoclim.config import TabulatedProfile

GAUSS_X, GAUSS_W = np.polynomial.legendre.leggauss(20)


def graded_rule(lo, hi):
    """Nodes and weights on (lo, hi): 20-point Gauss-Legendre on cells graded
    geometrically towards both ends, down to 1e-12 of the length but no
    narrower than about 1e4 ulps of the end points."""
    s_min = max(1e-12, 1e4 * np.finfo(float).eps * max(abs(lo), abs(hi)) / (hi - lo))
    s = np.geomspace(s_min, 0.5, 50)
    edges = lo + (hi - lo) * np.unique(np.concatenate([[0.0], s, 1.0 - s, [1.0]]))
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * GAUSS_X).ravel(), (half[:, None] * GAUSS_W).ravel()


def pv_reference(pieces, omega):
    """PV of f(x)/(x - omega) for f smooth on each piece ``(lo, hi, f)``.

    On each piece f is subtracted at the point ``x0`` of the piece nearest to
    omega, which leaves a bounded quotient on a fine graded grid (omega and
    the piece ends are cell edges), and the subtracted part integrates to
    ``f(x0) ln(|hi - omega| / |lo - omega|)``.
    """
    total = 0.0
    for lo, hi, f in pieces:
        x0 = min(max(omega, lo), hi)
        f0 = f(np.array([x0]))[0]
        cuts = [lo, omega, hi] if lo < omega < hi else [lo, hi]
        for a, b in zip(cuts[:-1], cuts[1:]):
            x, w = graded_rule(a, b)
            total += np.sum(w * (f(x) - f0) / (x - omega))
        total += f0 * math.log(abs(hi - omega) / abs(lo - omega))
    return total


@pytest.mark.parametrize("omega", [1e-3, 49.9])
@pytest.mark.parametrize("branch", ["minus", "plus"])
def test_thermal_shift_near_band_ends(omega, branch):
    bath = BathSpec(beta=1.0, kernel="quadrature", uv_cutoff=50.0, lamb_shift=True)
    spont = 1.0 if branch == "minus" else 0.0
    numerator = lambda x: 4.0 * math.pi * x * (1.0 / np.expm1(x) + spont)
    want = -pv_reference([(0.0, 50.0, numerator)], omega)
    assert pv_lamb_shift(bath, omega, branch=branch) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("gap", [3.6637760088773543, 4.0, 2.999999, 3.0000001])
@pytest.mark.parametrize("branch", ["minus", "plus"])
def test_shift_next_to_filter_edge(gap, branch):
    # the filtered density jumps to zero at filter_max: a pole close to the
    # jump used to raise a spurious divergence or return a wrong value
    edge, cutoff = 3.0, 30.0
    bath = BathSpec(
        beta=2.0,
        kernel="quadrature",
        uv_cutoff=cutoff,
        lamb_shift=True,
        filter_max=edge,
        mode_density=lambda r: 0.3 / (1.0 + r),
    )
    spont = 1.0 if branch == "minus" else 0.0
    pieces = [
        (0.0, edge, lambda x: 4.0 * math.pi * x * (0.3 / (1.0 + x) + spont)),
        (edge, cutoff, lambda x: 4.0 * math.pi * x * spont),
    ]
    want = -pv_reference(pieces, gap)
    assert pv_lamb_shift(bath, gap, branch=branch) == pytest.approx(want, rel=1e-11)


def test_jump_at_pole_is_divergent():
    # a jump of the numerator at the pole leaves a logarithmic divergence
    bath = BathSpec(
        beta=2.0, kernel="quadrature", uv_cutoff=30.0, lamb_shift=True, filter_max=3.0
    )
    with pytest.raises(BathDomainError, match="jumps"):
        pv_lamb_shift(bath, 3.0, branch="plus")
    with pytest.raises(BathDomainError, match="jumps"):
        principal_value_integral(lambda x: float(x < 1.0), 0.0, 2.0, 1.0)


def test_pole_on_tabulated_node():
    # a pole on a break point of the numerator: quad never samples it
    kinked = TabulatedProfile(np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.0, 2.0]))
    bath = BathSpec(
        beta=1.0, kernel="quadrature", uv_cutoff=2.0, lamb_shift=True, mode_density=kinked
    )
    pieces = [
        (0.0, 1.0, lambda x: 4.0 * math.pi * x * (2.0 - x)),
        (1.0, 2.0, lambda x: 4.0 * math.pi * x * x),
    ]
    # the numerator is continuous at the node and the pole sits mid-band,
    # so the subtracted logarithm is ln(1/1) = 0
    want = 0.0
    for lo, hi, f in pieces:
        x, w = graded_rule(lo, hi)
        want -= np.sum(w * (f(x) - 4.0 * math.pi) / (x - 1.0))
    assert pv_lamb_shift(bath, 1.0, branch="plus") == pytest.approx(want, rel=1e-11)


def test_shift_blocks_filled_by_conjugation(monkeypatch):
    # two complex form factors: the (j, i) shift is the conjugate of (i, j),
    # so each unordered pair is integrated once, and the three pairs of both
    # branches over all frequencies are one principal-value pass
    form_factors = [lambda r: 1.0 + 0.2j * r, lambda r: 0.5 * np.exp(-0.1j * r)]
    bath = BathSpec(
        beta=1.0,
        kernel="quadrature",
        uv_cutoff=20.0,
        lamb_shift=True,
        form_factors=form_factors,
    )
    spec = spectral_decompose(np.diag([0.0, 0.7, 1.9]))
    bohr = bohr_frequencies(spec)
    rows = []
    real = stoclim.bath._shift_pass

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        rows.append(len(out))
        return out

    monkeypatch.setattr(stoclim.bath, "_shift_pass", counted)
    table = correlation_table(bath, bohr, n_couplings=2)
    assert rows == [2 * 3]
    monkeypatch.undo()
    open_shells = [w for w in bohr.frequencies if 0 < w < 20.0]
    for w in open_shells:
        for shift, branch in ((table.shift_minus(w), "minus"), (table.shift_plus(w), "plus")):
            assert np.array_equal(shift, shift.conj().T)
            for i in range(2):
                for j in range(2):
                    want = pv_lamb_shift(bath, w, (i, j), branch=branch)
                    assert shift[i, j] == pytest.approx(want, rel=1e-13, abs=1e-12)


def test_flat_form_factors_take_one_pass_per_table(monkeypatch):
    # without form factors every coupling pair has the numerator j(rho) W(rho),
    # so three couplings take one pass over the two branches' numerators,
    # not 3 pairs x 2 branches
    bath = BathSpec(beta=1.0, kernel="quadrature", uv_cutoff=20.0, lamb_shift=True)
    bohr = bohr_frequencies(spectral_decompose(np.diag([0.0, 0.7, 1.9, 3.4])))
    rows = []
    real = stoclim.bath._shift_pass

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        rows.append(len(out))
        return out

    monkeypatch.setattr(stoclim.bath, "_shift_pass", counted)
    table = correlation_table(bath, bohr, n_couplings=3)
    assert rows == [2]
    monkeypatch.undo()
    for w in (w for w in bohr.frequencies if 0 < w < 20.0):
        for shift, branch in ((table.shift_minus(w), "minus"), (table.shift_plus(w), "plus")):
            want = pv_lamb_shift(bath, w, (0, 1), branch=branch)
            assert np.array_equal(shift, np.full((3, 3), shift[0, 0]))
            assert shift[0, 0] == pytest.approx(want, rel=1e-13, abs=1e-12)


def test_import_leaves_quadrature_unloaded():
    # no scipy module at all: scipy is imported only where a scipy view of a
    # sparse matrix is asked for, or a component too large for dense steps
    src = os.path.dirname(os.path.dirname(stoclim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, stoclim, stoclim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


def test_no_shift_at_non_positive_frequencies():
    # shifts are principal values at open-shell frequencies only: at w <= 0
    # both constants are exactly 0, and so is what they add to the shift
    bath = BathSpec(
        beta=1.0,
        kernel="quadrature",
        uv_cutoff=20.0,
        lamb_shift=True,
        form_factors=[lambda r: 1.0 + 0.2j * r, lambda r: 0.5 * np.exp(-0.1j * r)],
    )
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    spec = spectral_decompose((q * np.array([0.0, 0.7, 1.9, 3.2])) @ q.conj().T)
    bohr = bohr_frequencies(spec)
    couplings = [q @ np.diag([1.0, -1.0, 2.0, 0.5]) @ q.conj().T, np.ones((4, 4))]
    table = correlation_table(bath, bohr, n_couplings=2)
    low = bohr.frequencies <= 0
    assert not np.any(table.minus[low]) and not np.any(table.plus[low])
    assert np.any(table.minus[~low].imag) and np.any(table.plus[~low].imag)
    only_low = CorrelationTable(
        table.frequencies,
        np.where(low[:, None, None], table.minus, 0.0),
        np.where(low[:, None, None], table.plus, 0.0),
        table.match_tol,
    )
    assert not np.any(build_generator(spec, couplings, only_low, bohr).shift)
    assert np.any(build_generator(spec, couplings, table, bohr).shift)


def per_pair_table(bath, bohr, n_couplings):
    """The reference table: the closed-form damping part, plus one
    pv_lamb_shift call per unordered coupling pair and branch."""
    table = correlation_table(dataclasses.replace(bath, lamb_shift=False), bohr, n_couplings)
    is_open = (bohr.frequencies > 0) & (bohr.frequencies < bath.uv_cutoff)
    w = bohr.frequencies[is_open]
    for branch, c in (("minus", table.minus), ("plus", table.plus)):
        for i, j in itertools.combinations_with_replacement(range(n_couplings), 2):
            s = pv_lamb_shift(bath, w, (i, j), branch=branch)
            c[is_open, i, j] += 1j * s
            if i != j:
                c[is_open, j, i] += 1j * np.conj(s)
    return table


def counted_density(calls):
    def density(r):
        calls.append(np.size(r))
        return 0.3 / (1.0 + r)

    return density


COMPLEX_PROFILES = [
    lambda r: 1.0 + 0.2j * r,
    lambda r: 0.5 * np.exp(-0.1j * r),
    TabulatedProfile(np.linspace(0.0, 20.0, 7), np.linspace(1.0, 0.3, 7) + 0.1j * np.sin(np.arange(7))),
]
REAL_PROFILES = [
    TabulatedProfile(np.linspace(0.0, 20.0, 5), np.array([1.0, 0.7, 1.2, 0.4, 0.9])),
    TabulatedProfile(np.linspace(0.0, 20.0, 4), np.array([0.5, 1.1, 0.8, 0.2])),
]
VANISHING_AT_EDGE = [
    TabulatedProfile(np.array([0.0, 3.0, 20.0]), np.array([1.0, 0.0, 1.0])),
    lambda r: np.ones_like(r),
]
# gaps next to the filter edge at 3.0 leave cells that the check rejects
EDGE_LEVELS = [0.0, 2.999999, 6.0, 9.6637760088773543]


@pytest.mark.parametrize(
    "form_factors, filter_max, levels",
    [
        pytest.param(COMPLEX_PROFILES[:2], None, [0.0, 0.7, 1.9, 3.2], id="complex-2"),
        pytest.param(COMPLEX_PROFILES, 2.5, [0.0, 0.4, 1.3, 2.8, 3.3], id="complex-3-filter-tabulated"),
        pytest.param(REAL_PROFILES, None, [0.0, 1.1, 2.5, 2.6, 7.0], id="real-tabulated-2"),
        pytest.param(None, 3.0, EDGE_LEVELS, id="flat-3-filter-bisects"),
        pytest.param(COMPLEX_PROFILES[:2], 3.0, EDGE_LEVELS, id="complex-2-filter-bisects"),
        # a profile that vanishes at the filter edge: only the pair (1, 1) jumps there
        pytest.param(VANISHING_AT_EDGE, 3.0, EDGE_LEVELS, id="real-2-filter-bisects-apart"),
    ],
)
def test_one_pass_table_equals_the_per_pair_shifts(form_factors, filter_max, levels):
    calls = []
    n = 3 if form_factors is None else len(form_factors)
    bath = BathSpec(
        beta=2.0,
        kernel="quadrature",
        uv_cutoff=20.0,
        lamb_shift=True,
        filter_max=filter_max,
        mode_density=counted_density(calls),
        form_factors=form_factors,
    )
    bohr = bohr_frequencies(spectral_decompose(np.diag(levels).astype(complex)))
    table = correlation_table(bath, bohr, n)
    # the damping part reads the density twice, a pass of one chunk without
    # bisection twice more: on the shared cells and on the cells poles cut
    assert len(calls) > 4 or levels is not EDGE_LEVELS
    want = per_pair_table(bath, bohr, n)
    assert np.array_equal(table.minus, want.minus)
    assert np.array_equal(table.plus, want.plus)


def test_mixed_real_and_complex_form_factors_round_alike():
    # the stack of a real and a complex profile is complex, so the real pairs
    # take complex arithmetic: the same values to rounding
    bath = BathSpec(
        beta=1.0,
        kernel="quadrature",
        uv_cutoff=20.0,
        lamb_shift=True,
        form_factors=[REAL_PROFILES[0], COMPLEX_PROFILES[1]],
    )
    bohr = bohr_frequencies(spectral_decompose(np.diag([0.0, 0.7, 1.9, 3.2, 4.4]).astype(complex)))
    table, want = correlation_table(bath, bohr, 2), per_pair_table(bath, bohr, 2)
    for got, ref in ((table.minus, want.minus), (table.plus, want.plus)):
        assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()
