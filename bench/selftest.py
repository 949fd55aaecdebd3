"""Self-test of the tracer on tiny configurations (n = 64:128, grid 257).

Usage, from the repository root::

    python3 bench/selftest.py

For each configuration it runs the CLI once untraced and twice traced,
each in its own interpreter, and checks that

* every layer gets call spans, and no layer's self time is negative;
* the layers' self times sum to the traced wall time within
  SELF_TIME_SLACK (the bodies of the package ``__init__`` modules,
  ``exceptions`` and ``config`` belong to no layer, and take ~2% of
  the wall time of these tiny runs);
* the CSV written under tracing is byte-identical to the untraced CSV;
* the work counts repeat exactly across the two traced runs.

Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import json
import sys

from run import RUN_DIR, run_child
from tracer import LAYERS

CONFIGS = (
    ["direct", "--xi", "0.5", "--alpha", "1", "--function", "inner-cusp", "--alpha0", "1.5",
     "--grid", "257", "--n", "64:128"],
    ["lemmas", "--xi", "0.5", "--alpha", "1", "--grid", "257", "--n", "64:128"],
)
SELF_TIME_SLACK = 0.05


def traced_run(argv, tag):
    summary_path = RUN_DIR / f"selftest-{tag}.json"
    summary_path.unlink(missing_ok=True)
    run = run_child(["bench/tracer.py", str(summary_path), str(RUN_DIR / f"selftest-{tag}.npz"),
                     "--", *argv], RUN_DIR / f"selftest-{tag}.out")
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else None
    return run, summary


def check_config(argv) -> list[tuple[str, bool, str]]:
    plain = run_child(["-m", "bernsing.harness.cli", *argv], RUN_DIR / "selftest-plain.out")
    first_run, first = traced_run(argv, "a")
    second_run, second = traced_run(argv, "b")
    if first is None or second is None:
        return [("traced runs wrote summaries", False, "missing summary")]
    checks = []
    missing = [name for name in LAYERS if first["layers"][name]["call_spans"] == 0]
    checks.append(("every layer gets call spans", not missing, f"missing: {missing}"))
    negative = [name for name, info in first["layers"].items() if info["self_s"] < 0.0]
    checks.append(("no negative self time", not negative, f"negative: {negative}"))
    share = abs(first["unattributed_s"]) / first["wall_s"]
    checks.append(("self times sum to the traced wall", share <= SELF_TIME_SLACK,
                   f"unattributed {share:.2%} of {first['wall_s']:.3f} s "
                   f"(slack {SELF_TIME_SLACK:.0%})"))
    same = plain.exit_code == first_run.exit_code == second_run.exit_code == 0 \
        and plain.output == first_run.output == second_run.output
    checks.append(("traced CSV byte-identical to untraced", same,
                   f"exit codes {plain.exit_code}/{first_run.exit_code}/{second_run.exit_code}"))
    checks.append(("counts repeat exactly", first["counts"] == second["counts"],
                   json.dumps(first["counts"], sort_keys=True)))
    return checks


def main() -> int:
    RUN_DIR.mkdir(exist_ok=True)
    ok = True
    for argv in CONFIGS:
        for name, passed, detail in check_config(argv):
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {argv[0]}: {name} -- {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
