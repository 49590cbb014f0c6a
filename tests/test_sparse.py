"""The package's sparse triples against scipy as the oracle: component labels,
the summing of duplicate entries, and the differences the symmetry check
takes."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from stoclim import (
    BathSpec,
    SpinChainSpec,
    bohr_frequencies,
    build_generator,
    classical_glauber_generator,
    correlation_table,
    quantum_glauber_generator,
    spectral_decompose,
)
from stoclim import generator
from stoclim._sparse import as_triples, components, max_difference, summed


def scipy_labels(m):
    return connected_components(m != 0, connection="weak")[1]


@pytest.mark.parametrize("n_sites", range(4, 17))
def test_ring_rate_matrix_components_match_scipy(n_sites):
    cs = SpinChainSpec(n_sites=n_sites, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    k = cks._triples
    assert np.array_equal(components(cks.size, k.row, k.col), scipy_labels(cks.rate_matrix))


def test_quantum_ring_superoperator_components_match_scipy():
    gen = quantum_glauber_generator(
        SpinChainSpec(n_sites=4, coupling=1.0, boundary="periodic"), BathSpec(beta=1.0)
    )
    s = gen._triples
    labels = components(s.shape[0], s.row, s.col)
    assert np.array_equal(labels, scipy_labels(gen.superoperator))
    assert labels.max() > 0


def open_generic_style_generator():
    # 17 generic levels, one coupling with equal moduli and random phases,
    # and principal-value shifts, as in the benchmark's open_generic input
    d = 17
    rng = np.random.default_rng(3)
    levels = np.cumsum(rng.uniform(0.1, 0.3, d))
    phase = np.triu(np.exp(2j * np.pi * rng.uniform(size=(d, d))), 1)
    coupling = (phase + phase.conj().T) * (0.3 / np.sqrt(d * (d - 1)))
    spec = spectral_decompose(np.diag(levels).astype(complex))
    bohr = bohr_frequencies(spec)
    bath = BathSpec(beta=1.0, kernel="quadrature", uv_cutoff=50.0, lamb_shift=True)
    return build_generator(spec, [coupling], correlation_table(bath, bohr, 1), bohr)


@pytest.mark.parametrize(
    "make",
    [
        open_generic_style_generator,
        lambda: quantum_glauber_generator(
            SpinChainSpec(n_sites=5, coupling=1.0, boundary="periodic"), BathSpec(beta=1.0)
        ),
    ],
    ids=["generic-17", "ring-5"],
)
def test_superoperator_view_equals_scipy_summing_of_the_same_entries(monkeypatch, make):
    entries = []
    monkeypatch.setattr(
        generator, "summed", lambda *args: entries.append(args) or summed(*args)
    )
    gen = make()
    view = gen.superoperator
    (data, rows, cols, shape), = entries
    want = sparse.csr_matrix((data, (rows, cols)), shape=shape)
    want.eliminate_zeros()
    assert isinstance(view, sparse.csr_matrix)
    assert (view != want).nnz == 0
    assert view.nnz == want.nnz


def test_summed_adds_duplicates_in_the_order_given_and_drops_zeros():
    # 1e16 + 1 + 1 is 1e16 left to right, but 1e16 + 2 the other way round
    t = summed(
        np.array([1e16, 1.0, 3.0, 1.0, -3.0, 0.0]),
        np.array([0, 0, 1, 0, 1, 2]),
        np.array([1, 1, 0, 1, 0, 2]),
        (3, 3),
    )
    assert t.data.tolist() == [1e16]
    assert (t.row.tolist(), t.col.tolist()) == ([0], [1])


def looped_sum(data, row, col, shape):
    """Duplicates added run by run in a Python loop over the run lengths."""
    key = col.astype(np.int64) * shape[0] + row
    order = np.argsort(key, kind="stable")
    key, data = key[order], data[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))
    run = np.diff(start, append=len(key))
    out = data[start]
    for j in range(1, run.max(initial=1)):
        live = np.flatnonzero(run > j)
        out[live] += data[start[live] + j]
    keep = np.flatnonzero(out)
    return out[keep], row[order[start]][keep], col[order[start]][keep]


@pytest.mark.parametrize("dtype", [float, complex])
def test_summed_is_bit_identical_to_adding_each_run_in_a_loop(dtype):
    rng = np.random.default_rng(21)
    # runs of 1 to 50 entries at shuffled positions, magnitudes over 30 decades
    runs = rng.integers(1, 51, 300)
    pos = rng.permutation(40 * 40)[: len(runs)]
    key = rng.permutation(np.repeat(pos, runs))
    data = rng.standard_normal(len(key)) * 10.0 ** rng.integers(-15, 16, len(key))
    if dtype is complex:
        data = data + 1j * rng.standard_normal(len(key)) * 10.0 ** rng.integers(-15, 16, len(key))
    row, col = key % 40, key // 40
    t = summed(data, row, col, (40, 40))
    want = looped_sum(data, row, col, (40, 40))
    assert runs.max() == 50 and t.data.dtype == dtype
    for got, ref in zip(t[:3], want):
        assert np.array_equal(got, ref)


def test_max_difference_sees_entries_on_either_side():
    rng = np.random.default_rng(5)
    a = np.where(rng.random((6, 6)) < 0.4, rng.standard_normal((6, 6)), 0.0)
    b = np.where(rng.random((6, 6)) < 0.4, rng.standard_normal((6, 6)), 0.0)
    ta, tb = as_triples(a, float), as_triples(sparse.csc_matrix(b), float)
    assert max_difference(ta, tb.data, tb.row, tb.col) == np.abs(a - b).max()
    assert max_difference(ta, ta.data[::-1], ta.row[::-1], ta.col[::-1]) == 0.0
