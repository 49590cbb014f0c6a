"""Seeded determinism of the inputs and sanity of the independent references."""

import numpy as np
import pytest
from scipy import sparse

import stoclim
from inputs import MAKERS, make_case, ring_rate_matrix, rotation_classes


def _same_ref(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if sparse.issparse(x):
            x, y = x.toarray(), y.toarray()
        if not np.array_equal(np.asarray(x), np.asarray(y), equal_nan=True):
            return False
    return True


@pytest.mark.parametrize("workload", sorted(MAKERS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a = make_case(workload, 7, str(tmp_path / "a"))
    b = make_case(workload, 7, str(tmp_path / "b"))
    with open(a.config_path, "rb") as fa, open(b.config_path, "rb") as fb:
        assert fa.read() == fb.read()
    assert a.cli_args == b.cli_args
    assert _same_ref(a.ref, b.ref)
    assert _same_ref(a.params, b.params)


@pytest.mark.parametrize("workload", ["open_generic", "rates_lamb"])
def test_other_seed_gives_other_system(workload, tmp_path):
    a = make_case(workload, 1, str(tmp_path / "a"))
    b = make_case(workload, 2, str(tmp_path / "b"))
    with open(a.config_path, "rb") as fa, open(b.config_path, "rb") as fb:
        assert fa.read() != fb.read()


def test_ring_reference_matches_library_generator():
    cs = stoclim.SpinChainSpec(n_sites=6, coupling=1.0, boundary="periodic")
    k = stoclim.classical_glauber_generator(cs, stoclim.BathSpec(beta=1.0)).rate_matrix
    ref = ring_rate_matrix(6).toarray()
    assert np.max(np.abs(np.asarray(k) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_rotation_classes_of_a_four_ring():
    labels = rotation_classes(4)
    # necklaces of 4 binary beads: 0000 0001 0011 0101 0111 1111
    assert labels.max() + 1 == 6
    assert labels[0b0001] == labels[0b0010] == labels[0b0100] == labels[0b1000]
    assert labels[0b0101] == labels[0b1010] != labels[0b0011]
