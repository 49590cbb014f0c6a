"""Spin-chain kinetics: flip rates, kinetic constraints, quantum agreement."""

import math
import tracemalloc

import numpy as np
import pytest

from stoclim import (
    BathSpec,
    SpinChainSpec,
    absorption_rate,
    blocked_configuration,
    bohr_frequencies,
    build_generator,
    classical_glauber_generator,
    configuration_energies,
    configuration_energy,
    configuration_index,
    correlation_table,
    e_omega,
    emission_rate,
    energy_release,
    evolve,
    flip_frequency,
    frozen_sites,
    gibbs_distribution,
    ising_system,
    local_e_omega,
    n_scaling_experiment,
    pair_decay_coefficient,
    quantum_glauber_generator,
    spectral_decompose,
    spin_configurations,
    ti_flip_rates,
    ti_offdiagonal_rate,
    ti_rate_constant,
    total_flip_rate,
)
from stoclim.evolution import detailed_balance_residual, diagonal_restriction
from stoclim.generator import apply_schroedinger
from stoclim.glauber import MAX_CLASSICAL_SITES
from stoclim.operators import dag


def flip(sigma, r):
    out = np.array(sigma, dtype=np.int8).copy()
    out[r] = -out[r]
    return out


def test_configuration_enumeration():
    for n in (1, 2, 3, 5):
        confs = spin_configurations(n)
        assert confs.shape == (2**n, n)
        assert set(np.unique(confs)) <= {-1, 1}
        # first row all up, last row all down, index round-trips
        assert np.all(confs[0] == 1)
        assert np.all(confs[-1] == -1)
        for a in range(2**n):
            assert configuration_index(confs[a]) == a


def test_configuration_energy_oracles():
    open2 = SpinChainSpec(n_sites=2, coupling=1.0, boundary="open")
    assert configuration_energy(open2, [1, 1]) == -1.0
    assert configuration_energy(open2, [1, -1]) == 1.0
    ring3 = SpinChainSpec(n_sites=3, coupling=1.0, boundary="periodic")
    assert configuration_energy(ring3, [1, 1, 1]) == -3.0
    assert configuration_energy(ring3, [1, 1, -1]) == 1.0
    en = configuration_energies(ring3)
    confs = spin_configurations(3)
    for a in range(8):
        assert en[a] == configuration_energy(ring3, confs[a])


def test_two_site_ring_is_a_double_bond():
    ring2 = SpinChainSpec(n_sites=2, coupling=1.0, boundary="periodic")
    assert configuration_energy(ring2, [1, 1]) == -2.0
    assert configuration_energy(ring2, [1, -1]) == 2.0
    en = configuration_energies(ring2)
    assert np.allclose(en, [-2.0, 2.0, 2.0, -2.0])


def test_energy_release_matches_direct_difference():
    rng = np.random.default_rng(71)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        boundary = "periodic" if rng.integers(2) else "open"
        j = float(rng.uniform(0.3, 2.0))
        cs = SpinChainSpec(n_sites=n, coupling=j, boundary=boundary)
        sigma = rng.choice([-1, 1], size=n).astype(np.int8)
        r = int(rng.integers(n))
        released = energy_release(cs, sigma, r)
        direct = configuration_energy(cs, sigma) - configuration_energy(
            cs, flip(sigma, r)
        )
        assert abs(released - direct) < 1e-12
        # the release is twice the local field times the centre spin
        assert abs(released + 2.0 * sigma[r] * flip_frequency(cs, sigma, r)) < 1e-12


def test_frozen_sites_mean_antialigned_neighbours():
    ring4 = SpinChainSpec(n_sites=4, coupling=1.0, boundary="periodic")
    # period-4 pattern: every site sees one up and one down neighbour
    assert np.all(frozen_sites(ring4, [1, 1, -1, -1]))
    # strictly alternating: both neighbours agree with each other, so every
    # flip exchanges energy and no site is frozen
    assert not np.any(frozen_sites(ring4, [1, -1, 1, -1]))
    open3 = SpinChainSpec(n_sites=3, coupling=1.0, boundary="open")
    fro = frozen_sites(open3, [1, -1, -1])
    # centre spin sees +1 and -1: frozen; edge spins never are (single bond)
    assert list(fro) == [False, True, False]


def test_blocked_configuration_zero_total_rate():
    bath = BathSpec(beta=0.8)
    for n in (4, 8):
        cs = SpinChainSpec(n_sites=n, coupling=1.0, boundary="periodic")
        sigma = blocked_configuration(n)
        assert np.all(frozen_sites(cs, sigma))
        assert total_flip_rate(cs, bath, sigma) == 0.0
    for n in (5, 6):
        with pytest.raises(ValueError):
            blocked_configuration(n)


def test_six_ring_has_no_blocked_configuration():
    # freezing site r needs sigma[r-1] = -sigma[r+1]; chaining that rule
    # around an odd multiple of 2 forces sigma[0] = -sigma[0]
    cs = SpinChainSpec(n_sites=6, coupling=1.0, boundary="periodic")
    bath = BathSpec(beta=0.8)
    for sigma in spin_configurations(6):
        fro = frozen_sites(cs, sigma)
        assert not np.all(fro)
        # per-site statement: frozen exactly when the neighbours disagree
        for r in range(6):
            assert fro[r] == (sigma[r - 1] == -sigma[(r + 1) % 6])
        assert total_flip_rate(cs, bath, sigma) > 0.0


def test_alternating_even_ring_flips_downhill():
    # the fully staggered state is the energy ceiling of the ferromagnet:
    # each flip releases 4J, so its total rate is n times the downhill rate
    bath = BathSpec(beta=1.0)
    for n in (4, 6):
        cs = SpinChainSpec(n_sites=n, coupling=1.0, boundary="periodic")
        sigma = np.array([1, -1] * (n // 2), dtype=np.int8)
        for r in range(n):
            assert energy_release(cs, sigma, r) == 4.0
        rate = total_flip_rate(cs, bath, sigma)
        # emission booked at the full energy change 4J
        from stoclim import emission_rate

        assert abs(rate - n * emission_rate(bath, 4.0)) < 1e-12 * rate


def test_all_up_total_rate_closed_form():
    bath = BathSpec(beta=1.0)
    for n in (3, 4, 5):
        cs = SpinChainSpec(n_sites=n, coupling=1.0, boundary="periodic")
        rate = total_flip_rate(cs, bath, np.ones(n, dtype=np.int8))
        want = n * absorption_rate(bath, 4.0)
        assert abs(rate - want) < 1e-12 * want


def test_classical_generator_structure():
    bath = BathSpec(beta=0.6)
    cs = SpinChainSpec(n_sites=4, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, bath)
    k = cks.rate_matrix.toarray()
    assert k.shape == (16, 16)
    cks.validate()
    confs = spin_configurations(4)
    for a in range(16):
        for b in range(16):
            if a == b:
                continue
            hamming = int(np.sum(confs[a] != confs[b]))
            if hamming != 1:
                assert k[b, a] == 0.0
    # every rate against its reverse satisfies the thermal ratio
    en = configuration_energies(cs)
    for a in range(16):
        for b in range(16):
            if a != b and k[b, a] > 0.0 and k[a, b] > 0.0:
                lhs = k[b, a] / k[a, b]
                want = math.exp(-0.6 * (en[b] - en[a]))
                assert abs(lhs - want) < 1e-10 * want


def test_classical_gibbs_is_stationary():
    rng = np.random.default_rng(72)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        boundary = "periodic" if rng.integers(2) else "open"
        beta = float(rng.uniform(0.3, 1.5))
        cs = SpinChainSpec(n_sites=n, coupling=1.0, boundary=boundary)
        cks = classical_glauber_generator(cs, BathSpec(beta=beta))
        k = cks.rate_matrix.toarray()
        p_g = gibbs_distribution(beta, cks.energies)
        scale = np.abs(k).max()
        assert np.abs(k @ p_g).max() < 1e-12 * scale
        assert detailed_balance_residual(cks, p_g) < 1e-12 * scale


def test_quantum_population_block_equals_classical():
    bath = BathSpec(beta=1.0)
    for n in (3, 4):
        cs = SpinChainSpec(n_sites=n, coupling=1.0, boundary="periodic")
        gen = quantum_glauber_generator(cs, bath)
        cks = classical_glauber_generator(cs, bath)
        rest = diagonal_restriction(gen, basis=np.eye(2**n, dtype=complex))
        diff = np.abs(rest.rate_matrix.toarray() - cks.rate_matrix.toarray())
        assert diff.max() < 1e-12 * np.abs(cks.rate_matrix.toarray()).max()


def test_quantum_trajectory_matches_classical_populations():
    bath = BathSpec(beta=1.0)
    cs = SpinChainSpec(n_sites=3, coupling=1.0, boundary="periodic")
    gen = quantum_glauber_generator(cs, bath)
    cks = classical_glauber_generator(cs, bath)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    times = np.linspace(0.0, 0.05, 6)
    pops = evolve(gen, rho0, times).populations(basis=np.eye(8, dtype=complex))
    p0 = np.zeros(8)
    p0[0] = 1.0
    dist = cks.evolve(p0, times)
    assert np.abs(pops - dist).max() < 1e-10
    # diagonal initial data stays diagonal: no coherence is generated
    final = evolve(gen, rho0, times).states[-1]
    assert np.abs(final - np.diag(np.diag(final))).max() < 1e-12


def test_local_slicing_matches_global():
    for boundary, n in (("open", 3), ("periodic", 2), ("periodic", 4)):
        cs = SpinChainSpec(n_sites=n, coupling=1.0, boundary=boundary)
        h, couplings = ising_system(cs)
        spec = spectral_decompose(h)
        from stoclim import bohr_frequencies

        bohr = bohr_frequencies(spec)
        for r in range(n):
            for w in bohr.frequencies:
                loc = local_e_omega(cs, r, float(w))
                ref = e_omega(couplings[r], float(w), spec, bohr)
                assert np.abs(loc - ref).max() < 1e-12


def test_local_slicing_unrealizable_frequency_is_zero():
    cs = SpinChainSpec(n_sites=3, coupling=1.0, boundary="open")
    assert np.abs(local_e_omega(cs, 0, 3.0)).max() == 0.0


def test_ising_system_matches_energies():
    for boundary in ("open", "periodic"):
        cs = SpinChainSpec(n_sites=3, coupling=0.8, boundary=boundary)
        h, couplings = ising_system(cs)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
        assert np.allclose(np.diag(h).real, configuration_energies(cs))
        # each coupling operator flips exactly its own site
        confs = spin_configurations(3)
        for r, x in enumerate(couplings):
            for a in range(8):
                b = configuration_index(flip(confs[a], r))
                assert x[b, a] == 1.0
            assert np.count_nonzero(x) == 8


def test_ti_closed_forms():
    bath = BathSpec(beta=0.9)
    j = 1.3
    c = ti_rate_constant(bath, j)
    want_c = 16.0 * math.pi**2 * j
    assert abs(c - want_c) < 1e-12 * want_c
    down, up = ti_flip_rates(bath, j)
    n_occ = 1.0 / math.expm1(2.0 * 0.9 * j)
    assert abs(down - c * (n_occ + 1.0)) < 1e-12 * down
    assert abs(up - c * n_occ) < 1e-12 * up
    assert abs(up / down - math.exp(-2.0 * 0.9 * j)) < 1e-12
    for n in (2, 5, 9):
        assert ti_offdiagonal_rate(bath, j, n) == pytest.approx(
            -2.0 * n * (down + up), rel=1e-14
        )
    with pytest.raises(ValueError):
        ti_rate_constant(bath, -1.0)


def test_ti_flip_rates_are_the_bath_rates_at_twice_the_coupling():
    # the closed forms read the bath's own rates, so spontaneous emission,
    # the pass band and the uv cutoff all act on them
    baths = [
        BathSpec(beta=1.0),
        BathSpec(beta=1.0, spontaneous_emission=False),
        BathSpec(beta=0.5, filter_max=1.5),
        BathSpec(beta=1.0, uv_cutoff=1.5),
    ]
    rates = [ti_flip_rates(bath, 1.0) for bath in baths]
    for bath, got in zip(baths, rates):
        assert got == (emission_rate(bath, 2.0), absorption_rate(bath, 2.0))
    # no spontaneous part: downhill is the thermal rate, like uphill
    assert rates[1] == (rates[0][1], rates[0][1])
    # the band stops below 2J: no thermal quanta, spontaneous emission only
    assert rates[2][0] > 0.0 and rates[2][1] == 0.0
    assert rates[3] == (0.0, 0.0)


def test_pair_decay_exactly_linear_in_size():
    bath = BathSpec(beta=1.0)
    per_site = absorption_rate(bath, 4.0)
    for n in (2, 3, 4, 5):
        cs = SpinChainSpec(n_sites=n, coupling=1.0, boundary="periodic")
        gen = quantum_glauber_generator(cs, bath)
        a = pair_decay_coefficient(gen, 0, cs.dim - 1)
        # all-up and all-down each leak through n uphill flips at 4J;
        # the coherence decays at the mean of the two escape rates
        assert abs(-a.real - n * per_site) < 1e-10 * n * per_site
        assert abs(a.imag) < 1e-10 * per_site


def test_scaling_experiment():
    bath = BathSpec(beta=1.0)
    res = n_scaling_experiment([2, 3, 4, 5], bath)
    assert res.r_squared > 0.999999
    per_site = absorption_rate(bath, 4.0)
    assert abs(res.slope - per_site) < 1e-9 * per_site
    assert abs(res.intercept) < 1e-9 * per_site
    # closed-form column is linear too and shares the sign convention
    ratios = res.closed_form / np.asarray(res.sizes, dtype=float)
    assert np.abs(ratios - ratios[0]).max() < 1e-10 * ratios[0]
    with pytest.raises(ValueError):
        n_scaling_experiment([1, 2], bath)


def test_quantum_generator_thermalizes():
    bath = BathSpec(beta=0.7)
    cs = SpinChainSpec(n_sites=3, coupling=1.0, boundary="open")
    gen = quantum_glauber_generator(cs, bath)
    h, _ = ising_system(cs)
    from stoclim import gibbs_state

    rho_g = gibbs_state(0.7, gen.spec)
    assert np.abs(apply_schroedinger(gen, rho_g)).max() < 1e-11 * gen.norm_scale()


def test_shared_bath_modes_keep_invariants():
    # with cross-site correlations enabled the generator grows off-diagonal
    # rate entries but must stay trace preserving and thermal
    bath = BathSpec(beta=1.0)
    cs = SpinChainSpec(n_sites=3, coupling=1.0, boundary="periodic")
    # one shared reservoir: the general pipeline on the chain's system
    h, couplings = ising_system(cs)
    spec = spectral_decompose(h)
    bohr = bohr_frequencies(spec)
    gen = build_generator(spec, couplings, correlation_table(bath, bohr, cs.n_sites), bohr)
    got_cross = any(
        np.abs(ch.gamma_minus - np.diag(np.diag(ch.gamma_minus))).max() > 0.0
        for ch in gen.channels
    )
    assert got_cross
    rng = np.random.default_rng(73)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    assert abs(np.trace(apply_schroedinger(gen, rho))) < 1e-10 * gen.norm_scale()
    from stoclim import gibbs_state

    rho_g = gibbs_state(1.0, gen.spec)
    assert np.abs(apply_schroedinger(gen, rho_g)).max() < 1e-11 * gen.norm_scale()


def test_spin_chain_spec_validation():
    with pytest.raises(ValueError):
        SpinChainSpec(n_sites=0)
    with pytest.raises(ValueError):
        SpinChainSpec(n_sites=3, boundary="twisted")
    # the quantum route is capped by the dense-operator dimension limit
    with pytest.raises(ValueError):
        quantum_glauber_generator(SpinChainSpec(n_sites=7), BathSpec(beta=1.0))
    cs = SpinChainSpec(n_sites=4, coupling=1.0, boundary="open")
    assert cs.n_bonds == 3
    ring = SpinChainSpec(n_sites=4, coupling=1.0, boundary="periodic")
    assert ring.n_bonds == 4
    assert ring.dim == 16


def test_sparse_classical_generator():
    # past 2^10 configurations, where evolve steps with expm_multiply
    cs = SpinChainSpec(n_sites=11, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=0.5))
    assert cks.size == 2048
    k = cks.rate_matrix
    colsum = np.abs(np.asarray(k.sum(axis=0))).max()
    assert colsum < 1e-9 * np.abs(k.toarray()).max()
    p_g = gibbs_distribution(0.5, cks.energies)
    assert np.abs(k @ p_g).max() < 1e-12 * np.abs(k.toarray()).max()


def test_classical_route_builds_no_spin_table(monkeypatch, tmp_path):
    # the classical route reads configurations as basis indices: the
    # generator, evolve and the glauber command never ask for the spin table
    import stoclim.glauber
    from stoclim import cli

    def refuse(n):
        raise AssertionError(f"the spin table of {n} sites was built")

    monkeypatch.setattr(stoclim.glauber, "spin_configurations", refuse)
    cs = SpinChainSpec(n_sites=6, coupling=[1.0, 0.5, 1.5, 1.0, 2.0, 0.7], boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    p0 = np.zeros(cks.size)
    p0[0] = 1.0
    dist = cks.evolve(p0, [0.0, 0.5, 1.0])
    energies = cks.energies
    out = tmp_path / "ring.csv"
    code = cli.main(["glauber", "--sites", "6", "--coupling", "1.0", "--boundary", "periodic",
                     "--beta", "1", "--mode", "classical", "--t-max", "1", "--points", "3",
                     "--out", str(out)])
    assert code == 0 and len(out.read_text().splitlines()) == 4
    monkeypatch.undo()
    spins = spin_configurations(6)
    assert energies.tobytes() == configuration_energy(cs, spins).tobytes()
    assert dist.shape == (3, 64)
    # the 16-ring's generator holds its two kept permutations and a transient
    # half-length index array; the int64 arrays made from a spin table take
    # 8 MB each
    cs16 = SpinChainSpec(n_sites=16, coupling=1.0, boundary="periodic")
    tracemalloc.start()
    try:
        cks16 = classical_glauber_generator(cs16, BathSpec(beta=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cks16.symmetries) == 2
    assert peak <= 4 * 2**16 * np.dtype(np.int64).itemsize


@pytest.mark.parametrize("sites,boundary,start", [(6, "periodic", 0), (4, "open", 5)])
def test_offdiag_l1_is_the_sum_of_the_off_diagonal_moduli(sites, boundary, start, tmp_path):
    # the column used to be the difference of two sums, which rounding made
    # as low as -2.2e-16 on the 6-ring
    from stoclim import cli

    out = tmp_path / "ring.csv"
    code = cli.main(["glauber", "--sites", str(sites), "--boundary", boundary, "--beta", "1",
                     "--mode", "quantum", "--t-max", "10", "--points", "41",
                     "--initial-configuration", str(start), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[-1] == "offdiag_l1"
    l1 = np.array([float(line.split(",")[-1]) for line in lines[1:]])
    cs = SpinChainSpec(n_sites=sites, coupling=1.0, boundary=boundary)
    rho0 = np.zeros((cs.dim, cs.dim), dtype=complex)
    rho0[start, start] = 1.0
    states = evolve(quantum_glauber_generator(cs, BathSpec(beta=1.0)), rho0,
                    np.linspace(0.0, 10.0, 41)).states
    assert (l1 >= 0.0).all()
    assert np.array_equal(l1, np.abs(states[:, ~np.eye(cs.dim, dtype=bool)]).sum(axis=1))


def test_classical_site_cap():
    with pytest.raises(ValueError):
        classical_glauber_generator(
            SpinChainSpec(n_sites=MAX_CLASSICAL_SITES + 1), BathSpec(beta=1.0)
        )


def random_bond_chain(rng, n, boundary):
    n_bonds = SpinChainSpec(n_sites=n, boundary=boundary).n_bonds
    return SpinChainSpec(
        n_sites=n, coupling=rng.uniform(-2.0, 2.0, n_bonds).tolist(), boundary=boundary
    )


def test_stacked_flip_energies_match_scalar_calls():
    # the classical generator rates every configuration at once through the
    # stacked form, so it must agree with the one-configuration form bit for
    # bit, signed zeros included
    rng = np.random.default_rng(72)
    for n, boundary in ((1, "open"), (2, "periodic"), (5, "open"), (6, "periodic")):
        cs = random_bond_chain(rng, n, boundary)
        spins = spin_configurations(n)
        for r in range(n):
            for rule in (flip_frequency, energy_release):
                want = np.array([rule(cs, sigma, r) for sigma in spins])
                assert all(type(rule(cs, sigma, r)) is float for sigma in spins[:2])
                assert rule(cs, spins, r).tobytes() == want.tobytes()
                stacked = rule(cs, spins.reshape(2, -1, n), r)
                assert stacked.shape == (2, 2 ** (n - 1))
                assert stacked.tobytes() == want.tobytes()


def test_ising_hamiltonian_is_the_energy_diagonal():
    rng = np.random.default_rng(73)
    for n, boundary in ((1, "open"), (2, "periodic"), (4, "open"), (5, "periodic")):
        cs = random_bond_chain(rng, n, boundary)
        h, _ = ising_system(cs)
        assert h.dtype == np.float64
        assert np.array_equal(h, np.diag(configuration_energies(cs)))


def reference_local_e_omega(cs, r, omega):
    """Site by site: neighbour projectors times the half-flip at r, summed
    over the neighbour and centre spins that release ``omega``."""
    proj = {1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])}
    # the half-flip |-s><s| of the centre spin s
    half_flip = {
        1: np.array([[0.0, 0.0], [1.0, 0.0]]),
        -1: np.array([[0.0, 1.0], [0.0, 0.0]]),
    }
    tol = 1e-9 * max(max([1.0] + [abs(j) for j in cs.coupling]), abs(omega))
    lb, rb = cs.left_bond(r), cs.right_bond(r)
    out = np.zeros((cs.dim, cs.dim))
    for s_left in (1, -1) if lb else (None,):
        for s_right in (1, -1) if rb else (None,):
            released = 0.0
            for bond, s in ((lb, s_left), (rb, s_right)):
                if bond:
                    released += bond[1] * s
            for s_centre in (1, -1):
                if abs(-2.0 * s_centre * released - omega) > tol:
                    continue
                ops = {r: half_flip[s_centre]}
                for bond, s in ((lb, s_left), (rb, s_right)):
                    if bond:
                        ops[bond[0]] = ops.get(bond[0], np.eye(2)) @ proj[s]
                term = np.ones((1, 1))
                for site in range(cs.n_sites):
                    term = np.kron(term, ops.get(site, np.eye(2)))
                out += term
    return out


def test_local_e_omega_matches_site_by_site_reference():
    rng = np.random.default_rng(31)
    for n in range(1, 6):
        for boundary in ("open", "periodic"):
            n_bonds = SpinChainSpec(n_sites=n, boundary=boundary).n_bonds
            for coupling in (1.0, tuple(rng.uniform(-1.5, 1.5, n_bonds))):
                cs = SpinChainSpec(n_sites=n, coupling=coupling, boundary=boundary)
                spins = spin_configurations(n)
                for r in range(n):
                    for w in {0.0, 2.0, *energy_release(cs, spins, r).tolist()}:
                        assert np.array_equal(
                            local_e_omega(cs, r, w), reference_local_e_omega(cs, r, w)
                        ), (cs, r, w)
