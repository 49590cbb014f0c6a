"""The closed sectors of the uniform ring's Glauber kinetics, from configuration integers.

A flip whose two neighbours differ is energy-neutral on a uniform ring and
has rate zero, so K splits into components.  Write w_b = [s_b != s_{b+1}]
for the domain wall on bond b, read off a configuration c as the bits of
``c ^ rot(c)``.  A flip with equal neighbours switches the two walls beside
it on or off together; these labels name the components:

* even n: I = sum_b (-1)^b w_b, except that when 4 divides n the
  configurations with |I| = n/2 (the fully blocked ++-- patterns) are each a
  component of their own;
* odd n: (N_up + W/2) mod 2, with W the number of walls.

Only uniform periodic rings are covered: with unequal bonds a flip between
unequal neighbours releases energy and the sectors differ.
"""

import math

import numpy as np
import pytest

from stoclim import BathSpec, SpinChainSpec, classical_glauber_generator
from stoclim._sparse import components


def sector_labels(n: int) -> np.ndarray:
    """One label per configuration, equal exactly within a sector."""
    c = np.arange(2**n)
    # the rotation r -> r+1 moves the last bit to the front; bond b's wall is
    # bit n-2-b of w, the closing bond's bit n-1, so bit p is a bond of p's parity
    walls = c ^ ((c >> 1) | ((c & 1) << (n - 1)))
    bit = [(walls >> p) & 1 for p in range(n)]
    if n % 2 == 0:
        imbalance = sum(b if p % 2 == 0 else -b for p, b in enumerate(bit))
        return np.where(np.abs(imbalance) == n // 2, n + c, imbalance)
    n_up = n - sum((c >> p) & 1 for p in range(n))
    return (n_up + sum(bit) // 2) % 2


@pytest.mark.parametrize("n", range(3, 15))
def test_sector_labels_are_the_components_of_k(n):
    cks = classical_glauber_generator(SpinChainSpec(n_sites=n, coupling=1.0, boundary="periodic"),
                                      BathSpec(beta=1.0))
    k = cks._triples
    found = components(cks.size, k.row, k.col)
    labels = sector_labels(n)
    # one to one: each label is one component and each component one label
    n_pairs = len(np.unique(labels * cks.size + found))
    assert len(np.unique(labels)) == len(np.unique(found)) == n_pairs
    sizes = np.bincount(found)
    if n % 2:
        assert sizes.tolist() == [2 ** (n - 1)] * 2
    else:
        assert len(sizes) == n // 2 + (3 if n % 4 == 0 else 0)
        assert (sizes == 1).sum() == (4 if n % 4 == 0 else 0)
        # the all-up configuration has no walls, so I = 0: as many walls on
        # even bonds as on odd ones, C(n, n/2) wall sets of two configurations each
        assert sizes[found[0]] == 2 * math.comb(n, n // 2)
