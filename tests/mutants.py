"""The mutant table: deliberate faults in src/, each with the checks that
must catch it.

    python tests/mutants.py              # every record
    python tests/mutants.py ID [ID ...]  # the named records

For each record the runner copies src/ into a temporary directory,
replaces the record's old text, which must occur exactly once in its
file, by its new text, and runs only the record's catchers against the
copy: its tests in one pytest run, each of which must be reported FAILED
(a parametrized test by at least one of its cases), and its CLI command,
which must exit with the record's code where the unmutated source exits
with another.  A record whose old text no longer occurs fails the run, so
the table is kept in step with the source.  The exit status is 0 only
when every named record is caught.

A record with a CLI catcher is caught by a CLI verdict (exit 0 or 1), or
by a CLI error (exit 2) where the command reports one instead; one without
is caught only by structural tests, and its note says which CLI commands
still pass.  pytest does not collect this file (it is not test_*.py).
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # under src/
    old: str
    new: str
    tests: tuple = ()  # pytest node ids; each must fail on the mutant
    cli: tuple | None = None  # (CLI arguments, the exit code the mutant gives)
    note: str = ""

    @property
    def caught_by(self) -> str:
        if self.cli is None:
            return "structural tests only"
        return "a CLI error" if self.cli[1] == 2 else "a CLI verdict"


MUTANTS = (
    Mutant(
        id="one-decade-ladder",
        file="bernsing/moduli.py",
        old="ratio = 0.01 ** (1.0 / (h_steps - 1))",
        new="ratio = 0.1 ** (1.0 / (h_steps - 1))",
        tests=("tests/test_moduli.py::TestDriverOracle::test_two_decade_ladder",),
        note="every CLI exit code is unchanged; at xi 0.3, alpha 1, inner-root, "
             "beta (1, 1) the curve reads up to 10.8% off",
    ),
    Mutant(
        id="no-step-tube",
        file="bernsing/moduli.py",
        old="REL_STEP_TUBE = 0.25",
        new="REL_STEP_TUBE = 0.0",
        tests=("tests/test_moduli.py::TestWeightedModulus::test_slope_recovers_exponent",
               "tests/test_acceptance.py::TestCriterion7DirectTheorem::test_c7_bounded_ratio",),
        cli=(("direct", "--xi", "0.5", "--alpha", "1"), 1),
        note="4 Tier-1 tests fail",
    ),
    Mutant(
        id="no-running-max",
        file="bernsing/moduli.py",
        old="best = m if best is None else max(best, m)",
        new="best = m",
        tests=("tests/test_moduli.py::TestSecondDifference::test_square_identity",
               "tests/test_moduli.py::TestDriverOracle::test_bits_of_the_per_step_driver",
               "tests/test_moduli.py::TestWeightedModulus::test_monotone_in_t_by_construction"),
        note="lemmas, direct, inverse and rates still exit 0 at xi 0.5 and 0.47; "
             "the modulus-dense numbers move",
    ),
    Mutant(
        id="centre-weight-1",
        file="bernsing/moduli.py",
        old='lambda: 2.0 * f.eval(x))',
        new='lambda: 1.0 * f.eval(x))',
        tests=("tests/test_moduli.py::TestSecondDifference::test_affine_vanishes",),
        cli=(("inverse", "--xi", "0.5", "--alpha", "1"), 1),
        note="14 Tier-1 tests fail besides the driver's oracle tests",
    ),
    Mutant(
        id="dropped-bridge",
        file="bernsing/operator.py",
        old="lambda: fbar(f, k, lattice))",
        new="lambda: np.where(lattice == params.xi, fbar(f, k, lattice),\n"
            "                               f.eval(np.where(lattice == params.xi, 0.0, lattice))))",
        tests=("tests/test_acceptance.py::TestCriterion2OracleEquivalence::test_c2_four_sum_oracle",
               "tests/test_operator.py::TestBuildOperator::test_never_evaluates_f_inside_bridge",
               "tests/test_acceptance.py::TestCriterion10BridgeAblation::test_c10_bridge_ablation"),
        note="the classical operator, f sampled at every lattice point but the one on xi: "
             "14 Tier-1 tests fail, while lemmas, direct and inverse still exit 0 at xi 0.5 "
             "and 0.47",
    ),
    Mutant(
        id="no-exclusion-clause",
        file="bernsing/moduli.py",
        old="& (np.abs(x - xi) > _EXCLUSION_RADIUS)",
        new="",
        tests=("tests/test_moduli.py::TestSecondDifference::test_inadmissible_tube",),
        note="a stencil may be centred on xi; every CLI command at xi 0.5 and 0.47 "
             "prints the same bytes, as refined_grid already drops the tube",
    ),
    Mutant(
        id="band-exponent-10",
        file="bernsing/basis.py",
        old="_BAND_EXPONENT = 40.0",
        new="_BAND_EXPONENT = 10.0",
        tests=("tests/test_basis.py::TestMomentIdentities::test_first_three_moments",),
        note="every CLI command at xi 0.5 and 0.47 still exits 0",
    ),
    Mutant(
        id="sweep-exponent-30",
        file="bernsing/harness/checks.py",
        old="_SWEEP_EXPONENT = 60.0",
        new="_SWEEP_EXPONENT = 30.0",
        tests=("tests/test_basis.py::TestSweepBands::test_weighted_tail_outside_the_band_below_1e24",),
        note="every CLI command at xi 0.5 and 0.47 still exits 0",
    ),
    Mutant(
        id="no-band-mask",
        file="bernsing/basis.py",
        old="        np.copyto(v[:, : e0 - c0], 0.0, where=cols[: e0 - c0] < j0[:, None])\n",
        new="",
        tests=("tests/test_basis.py::TestSweepBands::test_blocks_are_the_full_width_block_on_each_band",),
        note="every CLI command at xi 0.5 and 0.47 still exits 0",
    ),
    Mutant(
        id="table-reset-per-chunk",
        file="bernsing/harness/checks.py",
        old="        table.fill(-math.inf)\n        for c in range(0, x.size, m):\n",
        new="        for c in range(0, x.size, m):\n            table.fill(-math.inf)\n",
        tests=("tests/test_harness.py::TestLemmaSuiteOneSweep::test_any_chunk_gives_the_same_bits",),
        cli=(("lemmas", "--xi", "0.5", "--alpha", "1"), 2),
        note="lemmas reports an error (exit 2: lemma 5's window mass is 0.0), not "
             "a failed check; direct, inverse and rates still exit 0 at xi 0.5 and "
             "0.47",
    ),
    Mutant(
        id="fit-reference-scaled",
        file="bernsing/harness/rates.py",
        old="ref = math.exp(intercept) * s**slope",
        new="ref = 1.001 * math.exp(intercept) * s**slope",
        tests=("tests/test_harness.py::TestFitRate::test_exact_power_law",),
        note="every CLI command at xi 0.5 and 0.47 still exits 0",
    ),
    Mutant(
        id="knots-half-width",
        file="bernsing/blending.py",
        old="    s = math.sqrt(n)\n",
        new="    s = 0.5 * math.sqrt(n)\n",
        tests=("tests/test_acceptance.py::TestCriterion2OracleEquivalence::test_c2_four_sum_oracle",),
        note="every CLI command at xi 0.5 and 0.47 still exits 0",
    ),
    Mutant(
        id="all-clipped-exemption",
        file="bernsing/harness/checks.py",
        old="if scales[n][live[i]] > T_MAX:",
        new="if scales[n][live[i]] > T_MAX >= smallest:",
        tests=("tests/test_cli.py::TestExitCodes::test_direct_with_every_local_scale_clipped",),
        cli=(("direct", "--xi", "0.5", "--alpha", "1", "--function", "smooth-bump",
              "--beta0", "2", "--beta1", "2"), 0),
        note="the clipped-scale failure skipped when every local scale is above "
             "T_MAX: this direct then exits 0 at n 64:1024 and 1 at 64:2048",
    ),
    Mutant(
        id="row-exponent-10",
        file="bernsing/basis.py",
        old="_ROW_EXPONENT = 750.0",
        new="_ROW_EXPONENT = 10.0",
        tests=("tests/test_basis.py::TestExactZeroWindow::test_row_band_edges_equal_full_width",
               "tests/test_basis.py::TestMomentIdentities::test_row_identities"),
        note="every CLI command at xi 0.5 and 0.47 still exits 0",
    ),
    Mutant(
        id="band-variance-without-n",
        file="bernsing/basis.py",
        old="2.0 * r * n * x * (1.0 - x)",
        new="2.0 * r * x * (1.0 - x)",
        tests=("tests/test_basis.py::TestMomentIdentities::test_first_three_moments",),
        note="every CLI command at xi 0.5 and 0.47 still exits 0",
    ),
)


def _run(argv: list, src: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)


def _cli(args: tuple, src: Path) -> int:
    return _run([sys.executable, "-W", "error", "-m", "bernsing.harness.cli", *args],
                src).returncode


def check(m: Mutant) -> list:
    """The reasons m is not caught; empty when every catcher catches it."""
    if not (m.tests or m.cli):
        return ["the record names no catcher"]
    text = (ROOT / "src" / m.file).read_text()
    if text.count(m.old) != 1:
        return [f"its old text occurs {text.count(m.old)} times in src/{m.file}, not once"]
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / m.file).write_text(text.replace(m.old, m.new))
        if m.tests:
            run = _run([sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no",
                        "-p", "no:cacheprovider", *m.tests], src)
            # 1: a test failed.  0 passes the mutant; 2 to 5 are errors,
            # such as a test id that no longer exists
            if run.returncode != 1:
                tail = "\n".join(run.stdout.splitlines()[-15:])
                errors.append(f"pytest exited {run.returncode}, not 1:\n{tail}")
            failed = [line.split()[1] for line in run.stdout.splitlines()
                      if line.startswith("FAILED ")]
            errors += [f"{test} passes on the mutant" for test in m.tests
                       if not any(f == test or f.startswith(test + "[") for f in failed)]
        if m.cli:
            args, code = m.cli
            got = _cli(args, src)
            if got != code:
                errors.append(f"`{' '.join(args)}` exited {got}, not {code}")
    if m.cli and _cli(m.cli[0], ROOT / "src") == m.cli[1]:
        errors.append(f"`{' '.join(m.cli[0])}` exits {m.cli[1]} on the unmutated source too")
    return errors


def main(argv) -> int:
    known = {m.id: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutant ids: {', '.join(unknown)}; known: {', '.join(known)}")
        return 2
    failed = 0
    for m in [known[name] for name in argv] or MUTANTS:
        start = time.perf_counter()
        errors = check(m)
        status = "NOT CAUGHT" if errors else "caught"
        print(f"{m.id}: {status} ({m.caught_by}), {time.perf_counter() - start:.1f} s")
        for error in errors:
            print(f"  {error}")
        failed += bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
