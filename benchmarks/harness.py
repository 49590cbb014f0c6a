"""Closed-loop measurement of one workload: set-up, library passes, CLI runs.

One client, one process per workload: a pass starts only after the previous
one has finished and been checked.  End-to-end numbers come from untraced
runs (``--trace 0``); ``--trace 1`` measures untraced and traced passes in
the same process and reports the per-layer split from the spans.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy import sparse

from inputs import Case, make_case
from spans import ROOT, TRACED_CALLS, Tracer, self_times
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK = REPO / ".bench_work"

CLI_TIMEOUT_S = 60.0
#: library passes per round; each round also runs one set-up probe and one CLI run
PASSES_PER_ROUND = 2
MIN_ROUNDS = 3

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import stoclim, stoclim.cli\n"
    "t1 = time.perf_counter()\n"
    "import sys\n"
    "stoclim.load_config(sys.argv[1])\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)

#: per-layer metrics and their units, in report order
LAYER_UNITS = {
    "operators.spectral_decompose_s": "s",
    "operators.bohr_frequencies_s": "s",
    "operators.n_frequencies": "count",
    "bath.correlation_table_s": "s",
    "bath.pv_integrals": "count",
    "bath.pv_rel_err": "1",
    "generator.build_generator_s": "s",
    "generator.n_channels": "count",
    "generator.dense_adjoint_s": "s",
    "generator.dense_nnz": "count",
    "generator.dense_bytes": "bytes",
    "generator.apply_adjoint_s": "s",
    "generator.apply_adjoint_calls": "count",
    "evolution.evolve_s": "s",
    "evolution.traj_err": "1",
    "evolution.stationary_state_s": "s",
    "evolution.stationary_err": "1",
    "evolution.diagonal_restriction_s": "s",
    "evolution.kinetic_evolve_s": "s",
    "glauber.classical_generator_s": "s",
    "glauber.rate_nnz": "count",
    "glauber.quantum_generator_s": "s",
    "config.load_config_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.main_self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.solve_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.span_coverage": "1",
}

#: span names whose summed self time per pass is a per-layer metric
SELF_TIME_SPANS = [
    name for _, _, name in TRACED_CALLS
    if name not in ("generator.apply_adjoint", "config.load_config", "cli.main")
]


@dataclass
class Ledger:
    """Attempted and failed operations of one run (passes and CLI runs)."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def attempt(self, what: str, fn, *args):
        """Run ``fn``; any exception or failed check counts as a failure.

        Returns ``(ok, value)``.  Every failure is recorded with its reason,
        so one bad pass does not end the closed loop.
        """
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # the loop must keep running; reason recorded
            self.failed += 1
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            if len(self.failures) == 1:
                traceback.print_exc(file=sys.stderr)
            return False, None

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def summary(values: list) -> dict:
    """Median, quartiles and sample count of a list of timings."""
    vals = sorted(values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "min": vals[0], "max": vals[-1], "n": len(vals)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_time(case: Case) -> tuple[float, float]:
    """(import_s, load_config_s) measured inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, case.config_path],
        env=child_env(), cwd=REPO, capture_output=True, text=True,
        timeout=CLI_TIMEOUT_S, check=True,
    )
    imp, load = (float(x) for x in proc.stdout.split())
    return imp, load


def run_cli(case: Case, out_path: Path) -> float:
    """Run the workload's ``stoclim`` command; returns its wall time.

    Raises on a non-zero exit or a timeout (the child is killed and reaped
    by ``subprocess.run``)."""
    cmd = [sys.executable, "-m", "stoclim.cli", *case.cli_args,
           "--config", case.config_path, "--out", str(out_path)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=REPO, capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return dt


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO.parent))
    try:
        proc = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_rev": git_revision(),
    }


class Run:
    """State of one benchmark invocation for one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path = WORK):
        self.workload = WORKLOADS[workload]
        self.seconds = seconds
        self.dir = Path(work) / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.case = make_case(workload, seed, str(self.dir))
        self.ledger = Ledger()
        self.errors: dict = {}
        self.sc = None
        self.cfg = None

    # -- pieces ------------------------------------------------------------

    def load_library(self) -> None:
        self.sc = importlib.import_module("stoclim")
        importlib.import_module("stoclim.cli")
        self.cfg = self.sc.load_config(self.case.config_path)

    def _check(self, out: dict) -> None:
        for key, val in self.workload.check(out, self.case, self.sc, self.cfg).items():
            self.errors[key] = max(self.errors.get(key, 0.0), val)

    def untraced_pass(self):
        def one():
            t0 = time.perf_counter()
            out = self.workload.run_pass(self.sc, self.cfg, self.case)
            dt = time.perf_counter() - t0
            self._check(out)
            return dt

        return self.ledger.attempt("pass", one)[1]

    def cli_subprocess(self):
        out_path = self.dir / "cli_out.csv"

        def one():
            dt = run_cli(self.case, out_path)
            self.workload.check_cli(str(out_path), self.case)
            return dt

        return self.ledger.attempt("cli", one)[1]

    def rounds(self, steps: dict) -> dict:
        """Run ``steps`` (name -> (fn, calls per round)) round-robin: at
        least MIN_ROUNDS full rounds, then until --seconds have passed.

        Interleaving spreads every metric's samples over the whole run, so
        a few seconds of contention from other tenants of the machine shift
        each metric a little instead of one metric a lot.  Returns the
        values each step returned, None (failed attempts) left out.
        """
        samples = {name: [] for name in steps}
        end = time.perf_counter() + self.seconds
        done = 0
        while done < MIN_ROUNDS or time.perf_counter() < end:
            for name, (fn, calls) in steps.items():
                for _ in range(calls):
                    if done >= MIN_ROUNDS and time.perf_counter() >= end:
                        return samples
                    value = fn()
                    if value is not None:
                        samples[name].append(value)
            done += 1
        return samples

    def warm_up(self) -> None:
        """Bytecode cache, lazy imports and first-call costs, untimed.

        Peak RSS is read after this first pass.  Later passes only add
        allocator retention (16 MB steps on ising_quantum at uneven pass
        counts), which would make the figure depend on how many passes fit
        in the run.
        """
        self.load_library()  # also writes the bytecode the set-up probes read
        self.untraced_pass()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- modes ---------------------------------------------------------------

    def measure(self) -> dict:
        """Untraced run: the end-to-end metrics."""
        self.warm_up()
        s = self.rounds({
            "setup_s": (lambda: setup_time(self.case), 1),
            "solve_s": (self.untraced_pass, PASSES_PER_ROUND),
            "cli_s": (self.cli_subprocess, 1),
        })
        s["setup_s"] = [imp + load for imp, load in s["setup_s"]]
        self.samples = s
        return {
            "setup_s": (_median(s["setup_s"]), "s"),
            "solve_s": (_median(s["solve_s"]), "s"),
            "cli_s": (_median(s["cli_s"]), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "ok_ratio": (1.0 - self.ledger.fail_ratio, "1"),
        }

    def measure_traced(self) -> dict:
        """Traced run: per-layer metrics from spans, plus tracing overhead."""
        self.warm_up()
        tracer = Tracer()
        counts: dict = {}
        out_path = self.dir / "cli_main_out.csv"
        argv = [*self.case.cli_args, "--config", self.case.config_path, "--out", str(out_path)]

        pass_ids, cli_ids = itertools.count(), itertools.count()

        def traced():
            pid = f"pass{next(pass_ids)}"
            out, dt = tracer.run_pass(pid, self.workload.run_pass, self.sc, self.cfg, self.case)
            counts[pid] = _pass_counts(tracer, pid)
            self._check(out)
            return dt

        def cli_main():
            pid = f"cli{next(cli_ids)}"
            code, dt = tracer.run_pass(pid, lambda: self.sc.cli.main(argv))
            if code != 0:
                raise RuntimeError(f"stoclim.cli.main exited {code}")
            self.workload.check_cli(str(out_path), self.case)
            return dt

        s = self.rounds({
            "setup": (lambda: setup_time(self.case), 1),
            "trace.untraced_solve_s": (self.untraced_pass, 1),
            "trace.solve_s": (lambda: self.ledger.attempt("traced pass", traced)[1], 1),
            "cli.main_s": (lambda: self.ledger.attempt("cli main", cli_main)[1], 1),
        })
        tracer.write(self.dir / "spans.json")
        metrics = layer_metrics(tracer, counts, self.errors)
        metrics["config.load_config_s"] = _median([load for _, load in s["setup"]])
        metrics["cli.import_s"] = _median([imp for imp, _ in s["setup"]])
        metrics["cli.output_bytes"] = out_path.stat().st_size if out_path.exists() else 0
        metrics["trace.untraced_solve_s"] = _median(s["trace.untraced_solve_s"])
        metrics["trace.overhead_s"] = metrics["trace.solve_s"] - metrics["trace.untraced_solve_s"]
        self.samples = {k: v for k, v in s.items() if k != "setup"}
        return {name: (metrics[name], unit) for name, unit in LAYER_UNITS.items()}


def _median(values: list) -> float:
    return statistics.median(values) if values else float("nan")


def _pass_counts(tracer: Tracer, pid: str) -> dict:
    """Counts derived from the return values kept by the pass's spans; the
    values are released afterwards."""
    out = {"bath.pv_integrals": tracer.counts.get((pid, "bath.pv_integrals"), 0),
           "generator.apply_adjoint_calls": 0}
    for s in tracer.pass_spans(pid):
        r, s.result = s.result, None
        if s.name == "operators.bohr_frequencies":
            out["operators.n_frequencies"] = len(r)
        elif s.name == "generator.build_generator":
            out["generator.n_channels"] = len(r.channels)
        elif s.name == "generator.dense_adjoint":
            out["generator.dense_nnz"] = int(np.count_nonzero(r))
            out["generator.dense_bytes"] = r.shape[0] * r.shape[1] * 16
        elif s.name == "glauber.classical_generator":
            k = r.rate_matrix
            out["glauber.rate_nnz"] = k.nnz if sparse.issparse(k) else int(np.count_nonzero(k))
        elif s.name == "generator.apply_adjoint":
            out["generator.apply_adjoint_calls"] += 1
    return out


def layer_metrics(tracer: Tracer, counts: dict, errors: dict) -> dict:
    """Per-layer metrics: medians over traced passes of summed self times
    per span name, counts and reference errors."""
    selfs = self_times(tracer.spans)
    by_pass: dict = {}
    for s, own in zip(tracer.spans, selfs):
        by_pass.setdefault(s.pass_id, []).append((s, own))
    passes = [pid for pid in by_pass if pid in counts]
    clis = [pid for pid in by_pass if pid.startswith("cli")]

    def med(values):
        return statistics.median(values) if values else 0.0

    m = {}
    for name in SELF_TIME_SPANS:
        m[f"{name}_s"] = med([math.fsum(own for s, own in by_pass[p] if s.name == name) for p in passes])
    m["generator.apply_adjoint_s"] = med(
        [s.duration for p in passes for s, _ in by_pass[p] if s.name == "generator.apply_adjoint"])
    for key in ("operators.n_frequencies", "bath.pv_integrals", "generator.n_channels",
                "generator.dense_nnz", "generator.dense_bytes", "generator.apply_adjoint_calls",
                "glauber.rate_nnz"):
        m[key] = med([counts[p].get(key, 0) for p in passes])
    roots = [[(s, own) for s, own in by_pass[p] if s.name == ROOT][0] for p in passes]
    m["trace.solve_s"] = med([s.duration for s, _ in roots])
    m["trace.unattributed_s"] = med([own for _, own in roots])
    m["trace.span_coverage"] = med([1.0 - own / s.duration for s, own in roots])
    m["cli.main_s"] = med([s.duration for p in clis for s, _ in by_pass[p] if s.name == "cli.main"])
    m["cli.main_self_s"] = med([own for p in clis for s, own in by_pass[p] if s.name == "cli.main"])
    m["evolution.traj_err"] = errors.get("traj_err", 0.0)
    m["evolution.stationary_err"] = errors.get("stationary_err", 0.0)
    m["bath.pv_rel_err"] = errors.get("pv_rel_err", 0.0)
    return m


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment()
    r = Run(workload, seed, seconds, trace)
    metrics = r.measure_traced() if trace else r.measure()
    ledger = r.ledger
    print(f"# workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, vals in r.samples.items():
        if vals:
            s = summary(vals)
            print(f"#   {name}: median {s['median']:.6g} s, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
                  f"min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name} = {value:.6g} {unit}")
    print(f"#   fail_ratio = {ledger.fail_ratio:.6g} ({ledger.failed} of {ledger.attempted} attempts)")
    for reason in ledger.failures[:10]:
        print(f"#   FAILED {reason}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        # a metric no attempt could measure (all failed) is null, not NaN
        "metrics": {name: {"value": None if value != value else value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(r.dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "environment": env, "samples": r.samples,
                   "workload": workload, "seed": seed}, fh, indent=1)
    print(json.dumps(result))
    return 0
