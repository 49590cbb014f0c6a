#!/usr/bin/env python3
"""Seeded closed-loop benchmark of the stoclim pipeline.

Run from the repository root:

    python3 benchmarks/run.py --workload open_generic --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload, each in its own process, and
prints one summary table.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOAD_NAMES = ("open_generic", "ising_quantum", "ising_classical", "rates_lamb")


def limit_blas_threads() -> None:
    """One BLAS thread per usable CPU; must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def run_all(args) -> int:
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"# {name}: benchmark exited {proc.returncode}")
            return 1
        res = json.loads(lines[-1])
        rows.append((name, res))
    names = list(rows[0][1]["metrics"])
    print("# workload".ljust(18) + "".join(n.rjust(16) for n in names) + "fail_ratio".rjust(12))
    for name, res in rows:
        vals = "".join(f"{res['metrics'][n]['value']:.5g} {res['metrics'][n]['unit']}".rjust(16) for n in names)
        ratio = res["failed"] / res["attempted"]
        print(f"# {name}".ljust(18) + vals + f"{ratio:.3g}".rjust(12))
    print(json.dumps({name: res for name, res in rows}))
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "stoclim" / "__init__.py").is_file():
        print(f"error: no stoclim sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    limit_blas_threads()
    sys.path.insert(0, str(REPO / "src"))
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
