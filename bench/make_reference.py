"""Write the reference CSV of every workload at every xi the seeds can
draw, from the program as it is now.

Usage, from the repository root::

    python3 bench/make_reference.py [WORKLOAD ...]

Run it only when a change to the program's output is intended and
justified; the benchmark counts any other difference as a failure.
"""
from __future__ import annotations

import sys

from run import RUN_DIR, WORKLOADS, XI_CHOICES, cli_argv, reference_path, run_child, sha


def main(names) -> int:
    RUN_DIR.mkdir(exist_ok=True)
    for workload in names or sorted(WORKLOADS):
        for xi in XI_CHOICES:
            run = run_child(["-m", "bernsing.harness.cli", *cli_argv(workload, xi)],
                            RUN_DIR / "reference.out")
            if run.exit_code != 0:
                sys.stderr.write(f"{workload} xi={xi}: exit code {run.exit_code}\n")
                return 1
            path = reference_path(workload, xi)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(run.output)
            print(f"{workload} xi={xi} wall_s={run.wall_s:.3f} sha256={sha(run.output)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
