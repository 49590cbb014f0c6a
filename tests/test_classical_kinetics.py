"""Classical single-spin-flip kinetics: vectorised assembly against a scalar
reference, sample-to-sample propagation, and input validation."""

import json
import math
import pickle

import numpy as np
import pytest
import scipy.sparse as sparse

from stoclim import (
    BathDomainError,
    BathSpec,
    ClassicalKineticSystem,
    SpinChainSpec,
    absorption_rate,
    classical_glauber_generator,
    emission_rate,
    energy_release,
    gibbs_distribution,
    spin_configurations,
)
from stoclim import cli, evolution


def reference_rate_matrix(cs, bath):
    """Scalar loop over configurations and sites, one golden-rule rate each."""
    n = cs.n_sites
    configs = spin_configurations(n)
    k = np.zeros((2**n, 2**n))
    for a, sigma in enumerate(configs):
        for r in range(n):
            released = energy_release(cs, sigma, r)
            if released > 0.0:
                rate = emission_rate(bath, released, r)
            elif released < 0.0:
                rate = absorption_rate(bath, -released, r)
            else:
                rate = 0.0
            k[a ^ (1 << (n - 1 - r)), a] += rate
    k[np.diag_indices(2**n)] = -k.sum(axis=0)
    return k


def chains():
    rng = np.random.default_rng(20)
    for n in range(1, 11):
        for boundary in ("open", "periodic"):
            n_bonds = SpinChainSpec(n_sites=n, boundary=boundary).n_bonds
            yield SpinChainSpec(n_sites=n, coupling=1.0, boundary=boundary), None
            couplings = tuple(rng.uniform(-1.5, 1.5, n_bonds))
            widths = rng.uniform(1.0, 4.0, n)
            form_factors = [lambda rho, w=w: math.exp(-rho / w) for w in widths]
            yield (
                SpinChainSpec(n_sites=n, coupling=couplings, boundary=boundary),
                form_factors,
            )


def test_assembly_matches_scalar_reference():
    for cs, form_factors in chains():
        bath = BathSpec(beta=0.8, form_factors=form_factors)
        k = classical_glauber_generator(cs, bath).rate_matrix.toarray()
        ref = reference_rate_matrix(cs, bath)
        off = ~np.eye(cs.dim, dtype=bool)
        assert np.array_equal(k[off], ref[off]), (cs, form_factors)
        diag, want = np.diag(k), np.diag(ref)
        assert np.all(np.abs(diag - want) <= 1e-15 * np.abs(want)), cs


@pytest.mark.parametrize("n_sites", [4, 11])
def test_glauber_rate_matrix_is_one_float_csc(n_sites):
    # either side of 2^10 configurations: one format at every size
    cs = SpinChainSpec(n_sites=n_sites, coupling=1.0, boundary="periodic")
    bath = BathSpec(beta=0.8)
    k = classical_glauber_generator(cs, bath).rate_matrix
    assert isinstance(k, sparse.csc_matrix) and k.dtype == np.float64
    k, ref = k.toarray(), reference_rate_matrix(cs, bath)
    off = ~np.eye(cs.dim, dtype=bool)
    assert np.array_equal(k[off], ref[off])
    assert np.all(np.abs(np.diag(k) - np.diag(ref)) <= 1e-15 * np.abs(np.diag(ref)))


def test_constructor_holds_a_dense_rate_matrix_as_float_csc():
    k = np.array([[-1, 2, 0], [1, -3, 5], [0, 1, -5]])
    cks = ClassicalKineticSystem(energies=np.zeros(3), rate_matrix=k)
    assert isinstance(cks.rate_matrix, sparse.csc_matrix)
    assert cks.rate_matrix.dtype == np.float64
    assert np.array_equal(cks.rate_matrix.toarray(), k)
    # numpy reads the CSC as the dense array, as it read the dense form
    assert np.array_equal(np.asarray(cks.rate_matrix), k)
    assert np.asarray(cks.rate_matrix, dtype=complex).dtype == complex
    assert cks.size == 3
    # the view, built on first access, pickles with the system
    back = pickle.loads(pickle.dumps(cks))
    assert type(back.rate_matrix) is type(cks.rate_matrix)
    assert np.array_equal(np.asarray(back.rate_matrix), k)


def test_no_stored_zeros():
    # frozen configurations carry no diagonal entry
    cs = SpinChainSpec(n_sites=8, coupling=1.0, boundary="periodic")
    k = classical_glauber_generator(cs, BathSpec(beta=1.0)).rate_matrix
    assert np.all(k.data != 0.0)


def symmetrised_reference(k, weights, p0, times):
    # detailed balance makes P^{-1/2} K P^{1/2} symmetric, P the weights
    half = np.sqrt(weights)
    sym = k * half[np.newaxis, :] / half[:, np.newaxis]
    lam, u = np.linalg.eigh(0.5 * (sym + sym.T))
    coeffs = u.T @ (p0 / half)
    return np.array([half * (u @ (np.exp(lam * t) * coeffs)) for t in times])


@pytest.mark.parametrize("beta,t_max,tol", [(1.0, 10.0, 1e-12), (3.0, 1000.0, 1e-9)])
def test_eight_ring_trajectory_matches_symmetrised_reference(beta, t_max, tol):
    cs = SpinChainSpec(n_sites=8, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=beta))
    p0 = np.zeros(cs.dim)
    p0[0] = 1.0
    times = np.linspace(0.0, t_max, 100)
    ref = symmetrised_reference(
        cks.rate_matrix.toarray(), gibbs_distribution(beta, cks.energies), p0, times
    )
    got = cks.evolve(p0, times)
    assert got.shape == (100, cs.dim)
    assert np.abs(got - ref).max() < tol


def test_even_grid_forms_one_dense_propagator(monkeypatch):
    # the dense path's cost must not grow with the horizon
    calls = []
    real = evolution.expm
    monkeypatch.setattr(evolution, "expm", lambda a: calls.append(1) or real(a))
    cs = SpinChainSpec(n_sites=6, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=3.0))
    p0 = np.zeros(cs.dim)
    p0[0] = 1.0
    for t_max in (0.1, 10.0, 1e3, 1e5):
        calls.clear()
        cks.evolve(p0, np.linspace(0.0, t_max, 100))
        assert len(calls) == 1, t_max
    calls.clear()
    cks.evolve(p0, [0.0, 0.1, 0.2, 0.4, 0.6])
    assert len(calls) == 2


def test_sparse_stepping_matches_symmetrised_reference():
    # one state past the dense size, so evolve steps with expm_multiply
    n = evolution.DENSE_KINETIC_STATES + 1
    rng = np.random.default_rng(7)
    weights = rng.uniform(0.5, 2.0, n)
    weights /= weights.sum()
    a = sparse.random(n, n, density=4.0 / n, random_state=rng, format="csc") * 50.0
    sym = sparse.triu(a, 1) + sparse.triu(a, 1).T
    half = np.sqrt(weights)
    off = sparse.diags(half) @ sym @ sparse.diags(1.0 / half)
    k = sparse.csc_matrix(off - sparse.diags(np.asarray(off.sum(axis=0)).ravel()))
    cks = ClassicalKineticSystem(energies=np.zeros(n), rate_matrix=k)
    cks.validate()
    p0 = np.zeros(n)
    p0[0] = 1.0
    times = np.linspace(0.0, 0.5, 20)
    ref = symmetrised_reference(k.toarray(), weights, p0, times)
    assert np.abs(cks.evolve(p0, times) - ref).max() < 1e-12


def test_evolve_rejects_negative_or_unsorted_times():
    cs = SpinChainSpec(n_sites=3, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    p0 = np.zeros(8)
    p0[0] = 1.0
    for times in ([0.2, 0.1, -0.1], [-0.1, 0.0], [0.0, 0.3, 0.2], [0.0, math.nan], [math.inf]):
        with pytest.raises(ValueError, match="non-negative and non-decreasing"):
            cks.evolve(p0, times)
    # a repeated sample is a zero step, and t = 0 returns p0
    dist = cks.evolve(p0, [0.0, 0.1, 0.1])
    assert np.array_equal(dist[0], p0)
    assert np.array_equal(dist[1], dist[2])


def test_validate_rejects_nan_rate():
    k = np.array([[-1.0, 2.0], [1.0, -2.0]])
    k[1, 0] = math.nan
    cks = ClassicalKineticSystem(energies=np.zeros(2), rate_matrix=k)
    with pytest.raises(ValueError, match="non-finite"):
        cks.validate()


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_validate_floor_is_relative_to_the_largest_rate(scale):
    # rounding below 1e-10 of the largest rate passes, a real negative rate fails
    def system(off):
        k = scale * np.array([[-1.0, off], [1.0, -off]])
        return ClassicalKineticSystem(energies=np.zeros(2), rate_matrix=k)

    system(-0.9e-10).validate()
    for off in (-1.1e-10, -1e-3):
        with pytest.raises(ValueError, match="negative off-diagonal rate"):
            system(off).validate()


@pytest.mark.parametrize("n_sites", [4, 11])
def test_negative_mode_density_names_site_and_energy(n_sites):
    bath = BathSpec(beta=1.0, mode_density=lambda rho: -0.5)
    cs = SpinChainSpec(n_sites=n_sites, coupling=1.0, boundary="periodic")
    with pytest.raises(BathDomainError, match=r"at site 0 for released energy -4\.0"):
        classical_glauber_generator(cs, bath)


def test_nonfinite_mode_density_rejected():
    bath = BathSpec(beta=1.0, mode_density=lambda rho: math.nan)
    cs = SpinChainSpec(n_sites=3, coupling=1.0, boundary="open")
    with pytest.raises(BathDomainError, match="finite and non-negative"):
        classical_glauber_generator(cs, bath)


def test_cli_glauber_negative_mode_density_exits_2(tmp_path, capsys):
    (tmp_path / "dens.csv").write_text("0,-0.5\n10,-0.5\n")
    doc = {
        "spin": {"sites": 11, "J": 1.0, "boundary": "periodic"},
        "bath": {"beta": 1.0, "mode_density": "dens.csv"},
    }
    cfg = tmp_path / "ring.json"
    cfg.write_text(json.dumps(doc))
    code = cli.main(
        ["glauber", "--config", str(cfg), "--sites", "11", "--boundary", "periodic",
         "--t-max", "0.1", "--points", "3"]
    )
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "config error: flip rate" in out.err
    assert "at site 0 for released energy -4.0" in out.err
