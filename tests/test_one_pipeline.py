"""One pipeline for every config: the spin shorthand's ``spectrum`` and
``rates`` are the steps its generator is built from.

A spin config goes through the same steps as an explicit Hamiltonian: the
spectrum of ``ising_system``, its Bohr set, then a reservoir table in which
each site has its own reservoir copy.  ``rates`` prints that table, cross-site
constants 0, and ``glauber --mode quantum`` builds its generator from it too.
"""

import json
import warnings

import numpy as np
import pytest

from stoclim import (
    BathSpec,
    SpinChainSpec,
    bohr_frequencies,
    cli,
    ising_system,
    quantum_glauber_generator,
    spectral_decompose,
)

CHAINS = {
    "open-3-chain": {"sites": 3, "J": [1.0, 1.1], "boundary": "open"},
    "periodic-4-ring": {"sites": 4, "J": 1.0, "boundary": "periodic"},
}
BETA = 0.8


def run(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, capsys.readouterr()


def write(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def chain(spin):
    cs = SpinChainSpec(n_sites=spin["sites"], coupling=spin["J"], boundary=spin["boundary"])
    return cs, quantum_glauber_generator(cs, BathSpec(beta=BETA))


def complex_stack(rows):
    return np.array(rows)[..., 0] + 1j * np.array(rows)[..., 1]


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_rates_print_the_table_the_generator_is_built_from(name, tmp_path, capsys):
    spin = CHAINS[name]
    cs, gen = chain(spin)
    path = write(tmp_path, {"spin": spin, "bath": {"beta": BETA}})
    code, out = run(["rates", "--json", "--config", path], capsys)
    assert (code, out.err) == (0, "")
    doc = json.loads(out.out)
    minus, plus = complex_stack(doc["minus"]), complex_stack(doc["plus"])
    assert minus.shape[1:] == (cs.n_sites, cs.n_sites)
    cross = ~np.eye(cs.n_sites, dtype=bool)
    assert not minus[:, cross].any() and not plus[:, cross].any()
    assert minus[:, ~cross].any()
    # each channel's rate matrices are the printed constants' Hermitian parts
    freqs = np.array(doc["frequencies"])
    assert len(gen.omegas) > 0
    for ch in gen.channels:
        (k,) = np.flatnonzero(freqs == ch.omega)
        assert np.array_equal(ch.gamma_minus, minus[k] + minus[k].conj().T)
        assert np.array_equal(ch.gamma_plus, plus[k] + plus[k].conj().T)
    # the CLI's generator is the library's
    code, out = run(["generator", "--config", path], capsys)
    assert (code, out.err) == (0, "")
    exported = json.loads(out.out)
    assert [c["omega"] for c in exported["channels"]] == [float(w) for w in gen.omegas]
    for c, k in zip(exported["channels"], gen.gamma_minus):
        assert np.array_equal(complex_stack(c["gamma_minus"]), k)


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_spectrum_is_the_generators_spectrum(name, tmp_path, capsys):
    spin = CHAINS[name]
    cs, gen = chain(spin)
    path = write(tmp_path, {"spin": spin, "bath": {"beta": BETA}})
    code, out = run(["spectrum", "--json", "--config", path], capsys)
    assert (code, out.err) == (0, "")
    doc = json.loads(out.out)
    spec = gen.spec
    assert doc["energies"] == [float(e) for e in spec.energies]
    assert doc["multiplicities"] == [spec.multiplicity(k) for k in range(spec.n_levels)]
    assert doc["frequencies"] == [float(w) for w in bohr_frequencies(spec).frequencies]
    # the same spectrum as the general pipeline's on the chain's Hamiltonian
    assert np.array_equal(spectral_decompose(ising_system(cs)[0]).energies, spec.energies)


COMMANDS = [
    ["spectrum"],
    ["rates"],
    ["generator"],
    ["evolve"],
    ["glauber"],
    ["glauber", "--mode", "quantum"],
    ["check", "--suite", "detailed-balance"],
    ["check", "--suite", "leibniz"],
    ["check", "--suite", "positivity"],
    ["check", "--suite", "scaling"],
]


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_cluster_tol_next_to_spin_is_refused_by_name(name, tmp_path, capsys):
    # the 3-chain with J = [1.0, 1.1] has 4 levels; a tolerance of 0.5 would
    # merge two of them in the spectrum and in no generator
    path = write(tmp_path, {"spin": CHAINS[name], "cluster_tol": 0.5, "bath": {"beta": BETA}})
    for command in COMMANDS:
        code, out = run([*command, "--config", path], capsys)
        assert code == 2, command
        assert out.out == ""
        assert out.err.startswith("config error: cluster_tol: not allowed with the spin shorthand")
