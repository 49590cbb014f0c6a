"""The package's batched matrix exponential, ``evolution.expm``.

scipy's ``expm`` (Al-Mohy & Higham 2009) is a more elaborate algorithm than
the kernel's 1-norm rule (Higham 2005) and serves here only as an oracle;
the package calls numpy's BLAS and LAPACK alone.  A 40-digit ``mpmath``
exponential checks one stiff Glauber block, and an overflowing step is
followed from the kernel to the command line.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.sparse.csgraph import connected_components

from stoclim import (
    BathSpec,
    ClassicalKineticSystem,
    SpinChainSpec,
    classical_glauber_generator,
    configuration_energies,
    gibbs_distribution,
    quantum_glauber_generator,
)
from stoclim import evolution
from stoclim.evolution import evolve, expm

NORMS = (1e-3, 1e-2, 1e-1, 0.5, 1.0, 1e1, 1e2, 1e3)


def random_stack(rng, n, norms, complex_):
    """Blocks of the given 1-norms, each shifted so that its rightmost
    eigenvalue sits at zero and its exponential stays bounded."""
    a = rng.standard_normal((len(norms), n, n))
    if complex_:
        a = a + 1j * rng.standard_normal(a.shape)
    a *= (np.asarray(norms) / np.abs(a).sum(axis=1).max(axis=-1))[:, np.newaxis, np.newaxis]
    return a - np.linalg.eigvals(a).real.max(axis=-1)[:, np.newaxis, np.newaxis] * np.eye(n)


def agrees_with_scipy(a, got):
    """Entrywise agreement relative to each block's largest entry, within 64
    units of rounding times its 1-norm, which bounds the conditioning of exp
    from below; the oracle is itself off by up to 2e-12 on one 2 x 2 block
    of norm 1e3, against 2e-14 for the kernel (checked with 50 digits)."""
    want = scipy_expm(a)
    err = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    return np.all(err <= 64 * np.finfo(float).eps * np.maximum(1.0, np.abs(a).sum(axis=1).max(axis=-1)))


def rate_matrix(rng, n, scale):
    off = rng.uniform(0.0, scale, (n, n))
    np.fill_diagonal(off, 0.0)
    return off - np.diag(off.sum(axis=0))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", [1, 2, 17, 118])
@pytest.mark.parametrize("norm", NORMS)
def test_matches_scipy_on_random_stacks(n, norm, complex_):
    rng = np.random.default_rng([n, NORMS.index(norm), complex_])
    a = random_stack(rng, n, [norm] * 3, complex_)
    got = expm(a)
    assert got.shape == a.shape and got.dtype == (complex if complex_ else float)
    assert agrees_with_scipy(a, got)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", [2, 17, 118])
def test_mixed_norms_in_one_stack(n, complex_):
    # one Padé degree serves the stack; each block takes its own squarings
    rng = np.random.default_rng([n, complex_])
    a = random_stack(rng, n, NORMS, complex_)
    got = expm(a)
    assert agrees_with_scipy(a, got)
    for block, one in zip(a, got):
        assert np.abs(expm(block) - one).max() <= 1e-13 * np.abs(one).max()


def test_stiff_glauber_block_against_a_40_digit_reference(monkeypatch):
    # the lumped all-up component of the 8-ring at beta = 3, stepped by
    # 1e3 / 99: rates from 5e-8 to 1e0, 1-norm 5e4
    mp = pytest.importorskip("mpmath")
    blocks = []
    real = evolution.expm
    monkeypatch.setattr(evolution, "expm", lambda a: blocks.append(a) or real(a))
    cs = SpinChainSpec(n_sites=8, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=3.0))
    cks.evolve(np.eye(cks.size)[0], np.linspace(0.0, 1e3, 100))
    ((block,),) = blocks
    assert block.shape == (20, 20) and np.abs(block).sum(axis=0).max() > 1e4
    mp.mp.dps = 40
    ref = np.array(mp.expm(mp.matrix(block.tolist())).tolist(), dtype=float)
    assert np.abs(real(block[np.newaxis])[0] - ref).max() <= 1e-14


def test_zero_matrix_gives_the_identity():
    for dtype in (float, complex):
        got = expm(np.zeros((3, 5, 5), dtype=dtype))
        assert got.dtype == dtype
        assert np.array_equal(got, np.broadcast_to(np.eye(5), (3, 5, 5)))


def test_one_by_one_stack_is_the_scalar_exponential():
    rng = np.random.default_rng(3)
    a = (rng.standard_normal(50) + 1j * rng.standard_normal(50)) * np.logspace(-3, 2, 50)
    a = a[:, np.newaxis, np.newaxis]
    assert np.array_equal(expm(a), np.exp(a))
    assert np.array_equal(expm(a.real), np.exp(a.real))


@pytest.mark.parametrize("step", [1e-3, 1.0, 1e3, 1e300])
def test_zero_column_sums_give_unit_column_sums(step):
    rng = np.random.default_rng(5)
    k = np.stack([rate_matrix(rng, 40, 1.0), rate_matrix(rng, 40, 1e-6)])
    # a complex block whose columns sum to zero, as a population block of a
    # trace-preserving generator may in a rotated basis
    s = rng.standard_normal((40, 40))
    c = rate_matrix(rng, 40, 1.0) + 0.1j * (s - s.sum(axis=0) / 40)
    for a in (k * step, c[np.newaxis] * step):
        prop = expm(a)
        assert np.isfinite(prop).all()
        assert np.abs(prop.sum(axis=1) - 1.0).max() <= 1e-14


def test_overflowing_step_converges_to_the_component_gibbs_distribution():
    # t = 1e300 takes about 1,000 squarings; the powers of the unscaled block
    # would overflow and give NaN
    cs = SpinChainSpec(n_sites=4, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    p0 = np.eye(cks.size)[0]
    for system in (cks, ClassicalKineticSystem(cks.energies, cks.rate_matrix)):
        dist = system.evolve(p0, [0.0, 1e4, 1e300])
        assert np.isfinite(dist).all()
        assert np.abs(dist.sum(axis=1) - 1.0).max() <= 1e-14
        assert np.abs(dist[2] - dist[1]).max() <= 1e-12
    # flips that cost no energy have no rate, so the start's component keeps
    # its own Gibbs weights
    _, comp = connected_components(cks.rate_matrix != 0, connection="weak")
    want = np.where(comp == comp[0], gibbs_distribution(1.0, cks.energies), 0.0)
    assert np.abs(dist[2] - want / want.sum()).max() <= 1e-12


def test_non_finite_step_raises_a_named_error():
    cs = SpinChainSpec(n_sites=4, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    with pytest.raises(RuntimeError, match="non-finite entries"), np.errstate(over="ignore"):
        cks.evolve(np.eye(cks.size)[0], [0.0, 1e307])
    with pytest.raises(RuntimeError, match="overflowed"), np.errstate(over="ignore"):
        expm(np.array([[[800.0, 0.0], [1.0, 0.0]]]))


def glauber_rows(cli, capsys, *args):
    code = cli.main(["glauber", "--sites", "4", "--boundary", "periodic", "--beta", "1", *args])
    out, err = capsys.readouterr()
    return code, [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]], err


def test_cli_overflowing_horizon(capsys):
    from stoclim import cli

    cs = SpinChainSpec(n_sites=4, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    energy = cks.evolve(np.eye(cks.size)[0], [0.0, 1e300])[1] @ configuration_energies(cs)
    for mode in ("classical", "quantum"):
        code, rows, _ = glauber_rows(cli, capsys, "--t-max", "1e300", "--points", "3", "--mode", mode)
        assert code == 0, mode
        assert np.isfinite(rows).all()
        assert abs(rows[-1][2] - energy) <= 1e-12, mode
    # a step whose block overflows is a numerical error, on both routes
    for mode in ("classical", "quantum"):
        with np.errstate(over="ignore"):
            code, rows, err = glauber_rows(cli, capsys, "--t-max", "1e307", "--points", "3", "--mode", mode)
        assert code == 3 and rows == [], mode
        assert err.startswith("numerical error: matrix exponential"), mode


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_overflowing_step_prints_only_the_named_error(capsys, mode):
    # forming M dt overflows; the kernel, not numpy, reports it
    from stoclim import cli

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rows, err = glauber_rows(cli, capsys, "--t-max", "1e307", "--points", "3", "--mode", mode)
    assert code == 3 and rows == []
    assert err.startswith("numerical error:") and len(err.splitlines()) == 1, err


@pytest.fixture
def traffic(monkeypatch):
    """The stacks that the propagators hand to ``evolution.expm``."""
    blocks = []
    real = evolution.expm
    monkeypatch.setattr(evolution, "expm", lambda a: blocks.append(a.copy()) or real(a))
    return blocks


def test_quantum_ring_blocks_match_scipy(traffic):
    cs = SpinChainSpec(n_sites=4, coupling=1.0, boundary="periodic")
    gen = quantum_glauber_generator(cs, BathSpec(beta=1.0))
    rng = np.random.default_rng(7)
    g = rng.standard_normal((cs.dim, cs.dim)) + 1j * rng.standard_normal((cs.dim, cs.dim))
    rho = g @ g.conj().T
    evolve(gen, rho / np.trace(rho), np.linspace(0.0, 10.0, 11))
    assert len({a.shape[-1] for a in traffic}) >= 3
    assert all(np.iscomplexobj(a) for a in traffic)
    for a in traffic:
        assert agrees_with_scipy(a, expm(a)), a.shape


def test_lumped_12_ring_block_matches_scipy(traffic):
    cs = SpinChainSpec(n_sites=12, coupling=1.0, boundary="periodic")
    cks = classical_glauber_generator(cs, BathSpec(beta=1.0))
    p0 = np.zeros(cks.size)
    p0[0] = 1.0
    cks.evolve(p0, np.linspace(0.0, 10.0, 100))
    (a,) = traffic
    assert a.shape == (1, 118, 118)
    assert agrees_with_scipy(a, expm(a))
