"""Property tests of the generator's invariants on random systems, of the
principal-value quadrature on random polynomial numerators, and of the
component labels on random graphs."""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from stoclim import (  # noqa: E402
    BathSpec,
    StructureMapSet,
    bohr_frequencies,
    build_generator,
    correlation_table,
    e_omega,
    genericity_check,
    leibniz_defect,
    offdiag_rate,
    principal_value_integral,
    spectral_decompose,
)
from scipy import sparse  # noqa: E402
from scipy.sparse.csgraph import connected_components  # noqa: E402

from stoclim._sparse import components  # noqa: E402
from stoclim.evolution import _Components, gibbs_state  # noqa: E402
from stoclim.generator import NonGenericError, apply_adjoint, unvectorize, vectorize  # noqa: E402
from stoclim.operators import dag  # noqa: E402


def hermitian(parts):
    a = parts[0] + 1j * parts[1]
    return 0.5 * (a + dag(a))


@st.composite
def systems(draw):
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 2))
    entries = arrays(np.float64, (2, d, d), elements=st.floats(-1.0, 1.0))
    h = hermitian(draw(entries))
    couplings = [hermitian(draw(entries)) for _ in range(n)]
    beta = draw(st.floats(0.2, 5.0))
    # complex form factors make the cross-rate matrices non-symmetric
    slopes = [draw(st.floats(-1.0, 1.0)) for _ in range(n)]
    bath = BathSpec(beta=beta, form_factors=[lambda w, c=c: 1.0 + 1j * c * w for c in slopes])
    # Hermitian shift matrices stand in for the principal-value constants
    # (which quadrature would make slow to draw)
    shift_entries = arrays(np.float64, (2, n, n), elements=st.floats(-5.0, 5.0))
    shifts = [hermitian(draw(shift_entries)) for _ in range(2)]
    # below the smallest normal float a value carries fewer significant
    # bits, so the relative bounds below mean nothing there
    probe_entries = arrays(
        np.float64, (2, d, d), elements=st.floats(-1.0, 1.0, allow_subnormal=False)
    )
    probes = [draw(probe_entries) for _ in range(3)]
    return h, couplings, bath, shifts, [p[0] + 1j * p[1] for p in probes]


@given(systems())
def test_generator_invariants(system):
    h, couplings, bath, (s_minus, s_plus), (x, y, z) = system
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    table = correlation_table(bath, bohr, len(couplings))
    # shifts scaled with each constant, so that shifts and rates of every
    # branch are of comparable size
    table = dataclasses.replace(
        table,
        minus=tuple(m + 1j * np.abs(m).max() * s_minus for m in table.minus),
        plus=tuple(p + 1j * np.abs(p).max() * s_plus for p in table.plus),
    )
    gen = build_generator(spec, couplings, table, bohr)
    d = gen.dim
    scale = gen.norm_scale() * max(1.0, float(np.abs(np.asarray(couplings)).max())) ** 2

    # trace preservation and Hermiticity preservation
    assert abs(np.trace(apply_adjoint(gen, x))) <= 1e-12 * scale * np.abs(x).max()
    herm = apply_adjoint(gen, x + dag(x))
    assert np.abs(herm - dag(herm)).max() <= 1e-12 * scale * np.abs(x).max()

    # each coherence's diagonal superoperator entry is the closed-form rate
    pairs = [(mu, nu) for mu in range(d) for nu in range(d) if mu != nu]
    lsup = gen.superoperator
    if genericity_check(spec, bohr).is_generic:
        for mu, nu in pairs:
            entry = lsup[mu + d * nu, mu + d * nu]
            assert abs(offdiag_rate(gen, mu, nu) - entry) <= 1e-12 * scale
    else:
        with pytest.raises(NonGenericError):
            offdiag_rate(gen, *pairs[0])

    # product rule for normalised observables
    assume(min(np.linalg.norm(y), np.linalg.norm(z)) > 1e-6)
    y_n = y / np.linalg.norm(y)
    z_n = z / np.linalg.norm(z)
    assert leibniz_defect(StructureMapSet(gen), y_n, z_n) <= 1e-10


@given(systems())
def test_components_lie_in_one_bohr_sector(system):
    # covariance: L commutes with the free evolution, so no entry of the
    # eigenbasis superoperator joins coherences of different Bohr frequency
    h, couplings, bath, _, _ = system
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    table = correlation_table(bath, bohr, len(couplings))
    lsup = build_generator(spec, couplings, table, bohr).superoperator
    n_comp, label = connected_components(lsup != 0, connection="weak")
    # vectorize stacks columns: entry (a, b) sits at a + d * b
    energy = spec.energies[spec.level_of_column]
    freq = np.subtract.outer(energy, energy).reshape(-1)
    for c in range(n_comp):
        in_comp = freq[label == c]
        assert in_comp.max() - in_comp.min() <= bohr.match_tol, c


@given(systems())
def test_components_add_up_to_the_operator(system):
    # sum_w E_w(X) = X over the Bohr frequencies: each level pair is one
    # frequency's, so no eigenbasis entry is counted twice or dropped
    h, couplings, _, _, probes = system
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    assert sum(len(p) for p in bohr.pairs) == spec.n_levels**2
    for x in [*couplings, *probes]:
        total = sum(e_omega(x, w, spec, bohr) for w in bohr.frequencies)
        assert np.linalg.norm(total - x) <= 1e-12 * np.linalg.norm(x)


@given(systems())
def test_propagator_is_completely_positive_and_trace_preserving(system):
    # the Choi matrix sum_ij |i><j| (x) Phi_t(|i><j|) of the propagated map
    # is PSD exactly when Phi_t is completely positive (Choi 1975); the
    # eigenbasis superoperator is the map up to a unitary change of basis
    h, couplings, bath, (s_minus, s_plus), _ = system
    spec = spectral_decompose(h)
    assume(spec.dim <= 4)
    bohr = bohr_frequencies(spec)
    table = correlation_table(bath, bohr, len(couplings))
    table = dataclasses.replace(
        table,
        minus=tuple(m + 1j * np.abs(m).max() * s_minus for m in table.minus),
        plus=tuple(p + 1j * np.abs(p).max() * s_plus for p in table.plus),
    )
    gen = build_generator(spec, couplings, table, bohr)
    d = gen.dim
    blocks = _Components(gen._triples)
    units = np.eye(d * d).reshape(d, d, d, d)
    images = np.array(
        [
            [[unvectorize(x, d) for x in blocks.propagate(vectorize(units[i, j]), [0.0, 0.1, 1.0])[1:]]
             for j in range(d)]
            for i in range(d)
        ]
    )
    for k in range(2):
        phi = images[:, :, k]
        choi = phi.transpose(0, 2, 1, 3).reshape(d * d, d * d)
        assert np.abs(choi - dag(choi)).max() <= 1e-12
        assert np.linalg.eigvalsh(0.5 * (choi + dag(choi))).min() >= -1e-10
        assert np.abs(np.trace(phi, axis1=2, axis2=3) - np.eye(d)).max() <= 1e-12


@given(systems())
def test_gibbs_state_is_stationary_and_rates_satisfy_kms(system):
    # detailed balance: the KMS ratio gamma_plus = exp(-beta w) gamma_minus
    # holds channel by channel, so the Gibbs state is stationary; the shifts
    # commute with H and leave it stationary too
    h, couplings, bath, (s_minus, s_plus), _ = system
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    table = correlation_table(bath, bohr, len(couplings))
    table = dataclasses.replace(
        table,
        minus=tuple(m + 1j * np.abs(m).max() * s_minus for m in table.minus),
        plus=tuple(p + 1j * np.abs(p).max() * s_plus for p in table.plus),
    )
    gen = build_generator(spec, couplings, table, bohr)
    scale = gen.norm_scale() * max(1.0, float(np.abs(np.asarray(couplings)).max())) ** 2
    for w, gm, gp in zip(gen.omegas, gen.gamma_minus, gen.gamma_plus):
        assert np.abs(gp - np.exp(-bath.beta * w) * gm).max() <= 1e-12 * np.abs(gm).max()
    assert np.abs(apply_adjoint(gen, gibbs_state(bath.beta, spec))).max() <= 1e-12 * scale


@given(
    coeffs=arrays(np.float64, 4, elements=st.floats(-10.0, 10.0)),
    a=st.floats(-5.0, 5.0),
    length=st.floats(0.1, 10.0),
    u=st.floats(0.01, 0.99),
)
def test_principal_value_of_cubic(coeffs, a, length, u):
    # p(x)/(x - c) = q(x) + p(c)/(x - c) with q the polynomial quotient, so
    # the principal value is int q + p(c) ln((b - c)/(c - a)) in closed form
    P = np.polynomial.Polynomial
    p = P(coeffs)
    b, c = a + length, a + u * length
    q = (p - p(c)) // P([-c, 1.0])
    log = math.log((b - c) / (c - a))
    exact = q.integ()(b) - q.integ()(a) + p(c) * log
    got = principal_value_integral(p, a, b, c)
    # the rounding of p near the pole is of order eps * |p|, so the error is
    # measured against the size of both terms rather than their sum
    scale = length * np.abs(q(np.linspace(a, b, 101))).max() + abs(p(c)) * (1.0 + abs(log))
    assert abs(got - exact) <= 1e-12 * max(scale, 1e-300)


@st.composite
def graphs(draw):
    # nodes that no edge touches, self-loops and an empty edge list included
    n = draw(st.integers(1, 40))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))
    return n, np.array([e[0] for e in edges], dtype=int), np.array([e[1] for e in edges], dtype=int)


@given(graphs())
@example((3, np.array([], dtype=int), np.array([], dtype=int)))
@example((4, np.array([2, 1]), np.array([2, 1])))
@example((6, np.array([5, 4, 3, 2, 1]), np.array([4, 3, 2, 1, 0])))
def test_component_labels_match_scipy(graph):
    n, row, col = graph
    adjacency = sparse.coo_matrix((np.ones(len(row)), (row, col)), shape=(n, n))
    count, want = connected_components(adjacency, connection="weak")
    got = components(n, row, col)
    assert np.array_equal(got, want)
    assert got.max() + 1 == count
