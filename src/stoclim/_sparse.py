"""The package's one sparse form: summed, zero-free (data, row, col) triples.

A sparse matrix is held as :class:`Triples`, its non-zero entries in
column-major order (by column, then by row), each position once.  The
solvers read these arrays with numpy alone; scipy sees them only through
:func:`to_scipy`, which imports it on first use, so importing the package
loads no scipy module.  Weakly connected components are found here as well,
by hooking and pointer jumping (Shiloach & Vishkin, J. Algorithms 3, 57,
1982).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Triples(NamedTuple):
    """Entry ``data[e]`` at ``(row[e], col[e])`` of a ``shape`` matrix: every
    non-zero entry once, in column-major order."""

    data: np.ndarray
    row: np.ndarray
    col: np.ndarray
    shape: tuple


def summed(data, row, col, shape: tuple) -> Triples:
    """Triples of a list of entries: entries at one position are added left
    to right in the order given, after a stable sort, as scipy's COO
    constructors add them, and sums that are zero are dropped.  Entries
    already in column-major order, each position once, are not sorted."""
    data, row, col = np.asarray(data), np.asarray(row), np.asarray(col)
    # column-major position of each entry
    key = np.asarray(col, dtype=np.int64) * shape[0] + row
    if not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        key, data = key[order], data[order]
        first = np.diff(key, prepend=-1) != 0
        start, run = np.flatnonzero(first), np.cumsum(first) - 1
        # one bincount adds each run left to right, real and imaginary parts apart
        out = np.bincount(run, data.real).astype(data.dtype)
        if np.iscomplexobj(data):
            out.imag = np.bincount(run, data.imag)
        data, row, col = out, row[order[start]], col[order[start]]
    keep = np.flatnonzero(data)
    return Triples(data[keep], row[keep], col[keep], tuple(shape))


def as_triples(m, dtype) -> Triples:
    """Triples of a dense array or a scipy sparse matrix, cast to ``dtype``.

    A sparse matrix is read through its ``tocoo`` method, so scipy is not
    imported here; stored zeros are dropped.
    """
    if hasattr(m, "tocoo"):
        coo = m.tocoo()
        return summed(coo.data.astype(dtype), coo.row, coo.col, coo.shape)
    m = np.asarray(m, dtype=dtype)
    col, row = np.nonzero(m.T)
    return Triples(m[row, col], row, col, m.shape)


def max_difference(t: Triples, data, row, col) -> float:
    """``max |T - M|`` over all positions, for M given by its entries
    ``data[e]`` at ``(row[e], col[e])``, each position once."""
    rows, cols = np.concatenate([t.row, row]), np.concatenate([t.col, col])
    diff = summed(np.concatenate([t.data, -np.asarray(data)]), rows, cols, t.shape).data
    return float(np.abs(diff).max(initial=0.0))


def components(n: int, row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Weakly connected components of the graph on ``n`` nodes with the
    edges ``row[e]`` -- ``col[e]``: the label of each node, the components
    numbered in the order of their smallest members (as scipy's
    ``connected_components`` numbers them).

    Every node points at a smaller one of its component or at itself.  Each
    round hooks the root of every edge's larger end onto the smaller root,
    then jumps pointers until every node points at a root; the rounds end
    when no edge joins two trees, and then each root is the smallest member
    of its component.
    """
    parent = np.arange(n)
    live = row != col
    row, col = row[live], col[live]
    while len(row):
        a, b = parent[row], parent[col]
        parent[np.maximum(a, b)] = np.minimum(a, b)
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
        live = parent[row] != parent[col]
        row, col = row[live], col[live]
    return np.cumsum(parent == np.arange(n))[parent] - 1


def to_scipy(t: Triples, fmt: str):
    """The triples as a scipy ``"csr"`` or ``"csc"`` matrix, in canonical
    format; imports scipy."""
    from scipy import sparse

    return getattr(sparse, f"{fmt}_matrix")((t.data, (t.row, t.col)), shape=t.shape)
