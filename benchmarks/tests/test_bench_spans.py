"""Span recording and self-time arithmetic of the tracer."""

import math

import numpy as np
import pytest

import stoclim
import stoclim.evolution
from spans import ROOT, Tracer, covered, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 5.0), (3.0, 7.0)]) == 6.0
    assert covered(0.0, 10.0, [(1.0, 2.0), (4.0, 6.0)]) == 3.0
    assert covered(2.0, 8.0, [(0.0, 3.0), (7.0, 12.0)]) == 2.0
    assert covered(0.0, 10.0, [(1.0, 9.0), (2.0, 3.0)]) == 8.0


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def pipeline():
        tracer.call("a", lambda: None)
        tracer.call("b", lambda: tracer.call("c", lambda: None))

    tracer.install = tracer.uninstall = lambda: None  # no library patching here
    _, duration = tracer.run_pass("p0", pipeline)
    names = [s.name for s in tracer.spans]
    assert names == [ROOT, "a", "b", "c"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]
    assert duration == 10.0
    assert self_times(tracer.spans) == [4.0, 2.0, 3.0, 1.0]
    assert sum(self_times(tracer.spans)) == duration


def test_traced_pass_nests_library_calls_and_restores():
    original = stoclim.evolution.evolve
    cs = stoclim.SpinChainSpec(n_sites=2, coupling=1.0, boundary="open")
    bath = stoclim.BathSpec(beta=1.0)
    tracer = Tracer()

    def pipeline():
        gen = stoclim.quantum_glauber_generator(cs, bath)
        rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        return stoclim.evolve(gen, rho0, np.linspace(0.0, 0.1, 3))

    traj, duration = tracer.run_pass("p0", pipeline)
    assert len(traj.states) == 3
    assert stoclim.evolution.evolve is original
    assert stoclim.evolve is original
    by_name = {s.name: k for k, s in enumerate(tracer.spans)}
    quantum = by_name["glauber.quantum_generator"]
    for child in ("operators.spectral_decompose", "operators.bohr_frequencies",
                  "bath.correlation_table", "generator.build_generator"):
        assert tracer.spans[by_name[child]].parent == quantum
    # d = 4 takes the matrix-exponential path, which builds the dense form
    assert tracer.spans[by_name["generator.dense_adjoint"]].parent == by_name["evolution.evolve"]
    selfs = self_times(tracer.spans)
    assert all(t >= 0.0 for t in selfs)
    assert math.fsum(selfs) == pytest.approx(duration, rel=1e-9)


def test_counted_calls_are_counted_per_pass():
    bath = stoclim.BathSpec(beta=1.0, kernel="quadrature", uv_cutoff=20.0, lamb_shift=True)
    spec = stoclim.spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
    bohr = stoclim.bohr_frequencies(spec)
    tracer = Tracer()
    tracer.run_pass("p0", stoclim.correlation_table, bath, bohr, 2)
    # one positive frequency, 2 x 2 coupling pairs, two branches
    assert tracer.counts[("p0", "bath.pv_integrals")] == 8
    assert stoclim.bath.pv_lamb_shift.__module__ == "stoclim.bath"
    assert not hasattr(stoclim.bath.pv_lamb_shift, "__wrapped__")
