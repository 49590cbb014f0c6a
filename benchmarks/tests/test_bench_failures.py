"""A failing reference check is counted, and the loop goes on."""

import numpy as np

from harness import Ledger, Run


def test_ledger_counts_exceptions_and_keeps_going():
    ledger = Ledger()
    assert ledger.attempt("ok", lambda: 1.5) == (True, 1.5)
    assert ledger.attempt("bad", lambda: 1 / 0) == (False, None)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.fail_ratio == 0.5
    assert "ZeroDivisionError" in ledger.failures[0]


def test_failed_reference_check_counts_in_fail_ratio(tmp_path):
    run = Run("open_generic", 3, 0.0, trace=False, work=tmp_path)
    run.load_library()
    assert run.untraced_pass() is not None
    good = run.case.ref["gibbs"]
    run.case.ref["gibbs"] = np.eye(good.shape[0]) / good.shape[0]
    assert run.untraced_pass() is None
    run.case.ref["gibbs"] = good
    assert run.untraced_pass() is not None
    assert (run.ledger.attempted, run.ledger.failed) == (3, 1)
    assert run.ledger.fail_ratio == 1 / 3
    assert "stationary state" in run.ledger.failures[0]


def test_failed_cli_check_counts_in_fail_ratio(tmp_path):
    run = Run("open_generic", 3, 0.0, trace=False, work=tmp_path)
    run.case.ref["pops_cli"] = run.case.ref["pops_cli"][::-1]
    assert run.cli_subprocess() is None
    assert (run.ledger.attempted, run.ledger.failed) == (1, 1)
    assert "CLI trajectory" in run.ledger.failures[0]
