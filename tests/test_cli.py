import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bernsing
from bernsing.harness.cli import _parse_sweep, UsageError, run_cli


BASE = ["--xi", "0.5", "--alpha", "1", "--beta0", "0.5", "--beta1", "0.5"]
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"
_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def assert_numbers_close(got: str, want: str, rel: float) -> None:
    """The same text around the numbers, the same integers, and every
    other number within rel relative of want's."""
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    assert len(g) == len(w)
    for i, (a, b) in enumerate(zip(g, w)):
        if i % 2 == 0 or not any(c in b for c in ".eE"):
            assert a == b, (i, a, b)
        else:
            assert abs(float(a) - float(b)) <= rel * abs(float(b)), (a, b)


class TestSweepParsing:
    def test_n_range(self):
        assert _parse_sweep("n", "64:512") == (64, 128, 256, 512)
        assert _parse_sweep("n", "256") == (256,)

    def test_n_rejects_non_power(self):
        with pytest.raises(UsageError):
            _parse_sweep("n", "60:512")
        with pytest.raises(UsageError):
            _parse_sweep("n", "512:64")

    def test_t_range(self):
        ts = _parse_sweep("t", "0.001953125:0.125")
        assert len(ts) == 7
        assert ts[0] == 0.001953125 and ts[-1] == 0.125

    def test_t_rejects_out_of_range(self):
        with pytest.raises(UsageError):
            _parse_sweep("t", "0.1:0.5")


class TestExitCodes:
    def test_missing_required_flag(self, capsys):
        code = run_cli(["rates", "--alpha", "1", "--n", "64:512"])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]) == 2

    def test_no_arguments(self):
        assert run_cli([]) == 2

    def test_unknown_function(self):
        assert run_cli(["rates", *BASE, "--function", "weird"]) == 2

    def test_inverse_without_exponent(self, capsys):
        code = run_cli(["inverse", *BASE, "--function", "affine", "--n", "64:512"])
        assert code == 2
        assert "exponent" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n", "t"])
    def test_empty_sweep_list(self, key, tmp_path, capsys):
        # an empty list is named as such, not as a value out of range
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"xi": 0.5, "alpha": 1.0, key: []}))
        assert run_cli(["inverse", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}_values must be non-empty\n")

    def test_pass_run(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(["rates", *BASE, "--function", "inner-root",
                        "--n", "64:512", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_fail_run_maps_to_one(self, monkeypatch, tmp_path):
        # a failing verdict must surface as exit code 1
        from bernsing.harness import cli as cli_mod
        from bernsing.harness.rates import RateReport, RateRow

        failing = RateReport(
            scale_name="n",
            rows=(RateRow(64.0, 1.0, 1.0, 1.0),),
            fitted_slope=None,
            slope_stderr=None,
            residuals=(),
            max_ratio=9.0,
            verdict="fail",
            tolerance=2.0,
        )
        monkeypatch.setattr(cli_mod, "direct_check", lambda cfg: failing)
        code = run_cli(["direct", *BASE, "--out", str(tmp_path / "d.csv")])
        assert code == 1


    @pytest.mark.parametrize("command, flag, value, named", [
        ("lemmas", "--beta0", "nan", "step-weight"),
        ("lemmas", "--beta1", "inf", "step-weight"),
        ("direct", "--beta1", "inf", "step-weight"),
        ("rates", "--alpha", "inf", "alpha"),
    ])
    def test_non_finite_parameter(self, command, flag, value, named, capsys):
        args = [command, "--xi", "0.5", "--alpha", "1", "--n", "64:128", flag, value]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert f"error: {named}" in err

    @pytest.mark.parametrize("command, failed", [
        (["lemmas"], "inner-root failed on the grid"),
        (["rates", "--n", "64:128"], "inner-root failed in the error field of degree 64"),
        (["direct", "--n", "64:128"], "inner-root failed in a second difference"),
        (["inverse", "--function", "inner-cusp", "--n", "64:128"],
         "inner-cusp[1] failed in a second difference"),
        (["dump-operator", "--n", "1024:1024"], "inner-root failed at the lattice of degree 1024"),
    ], ids=["lemmas", "rates", "direct", "inverse", "dump-operator"])
    def test_overflow_is_one_error_line(self, command, failed, capsys):
        # inner-root is |x - xi|^(-alpha/2) and inner-cusp[1] is
        # sign(x - xi) |x - xi|^(1 - alpha): at alpha = 500 both overflow
        # near xi, and the weighted values are 0 * inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([*command, "--xi", "0.5", "--alpha", "500"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: evaluation of {failed}: overflow")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [("--beta0", "100"), ("--beta0", "150"),
                                             ("--beta1", "150")])
    def test_large_step_exponent_is_one_error_line(self, flag, value, capsys):
        # lemma 3's phi^-2 overflows: its integral at 100, phi(x)^-2 itself
        # at 150, where a float power used to raise OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["lemmas", "--xi", "0.5", "--alpha", "1", "--n", "64:128",
                            flag, value])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert err.startswith("error: phi^-2 or its integral is not finite")
        assert err.count("\n") == 1
        assert all(f" {name}=" in err for name in ("t", "x", "beta0", "beta1"))

    @pytest.mark.parametrize("alpha, n", [("300", 256), ("500", 64)])
    def test_underflowing_lemma6_bound_is_one_error_line(self, alpha, n, capsys):
        # lemma 6's bound n^((beta - alpha)/2) phi^beta underflows to 0.0,
        # from n = 256 at alpha = 300 and from n = 64 at 500, where lemma
        # 5's window mass underflows too: it is checked before the sweep
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["lemmas", "--xi", "0.5", "--alpha", alpha, "--function", "quadratic",
                            "--grid", "1025"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("error: lemma 6: the bound n^((beta - alpha)/2) phi^beta underflows "
                       f"to 0.0 at n={n}, alpha={alpha}\n")

    def test_vanishing_modulus_is_a_failed_check(self, monkeypatch, capsys):
        # a modulus that vanishes where the error does not makes direct_check
        # raise Degenerate, which the CLI reports as a failed check
        from bernsing.harness import checks

        monkeypatch.setattr(checks, "_tabulated_modulus", lambda *args: np.zeros_like)
        assert run_cli(["direct", *BASE, "--n", "64:128"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("check failed: modulus vanishes at x=")
        assert err.count("\n") == 1

    def test_vanishing_modulus_prints_x_as_a_number(self, monkeypatch, capsys):
        # the point is printed as the clipped-scale message prints it, not
        # as a numpy scalar's repr
        from bernsing.harness import checks

        monkeypatch.setattr(checks, "_tabulated_modulus", lambda *args: np.zeros_like)
        assert run_cli(["direct", *BASE, "--n", "64:128"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("check failed: modulus vanishes at x=7.19686e-10 (n=64) "
                       "where the error does not\n")

    def test_direct_sup_at_a_clipped_scale_is_a_failed_check(self, capsys):
        # at beta0 = 150 the step weight x^150 (1-x)^0.5 is below 1e-40 for
        # x < 0.54, where the local scale reaches 1e52-6e63; the modulus
        # lookup clips it to T_MAX, and the ratio's sup sits there
        args = ["direct", "--xi", "0.5", "--alpha", "1", "--function", "inner-cusp",
                "--alpha0", "1.5", "--beta0", "150", "--n", "64:256"]
        assert run_cli(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("check failed: the ratio's sup at x=0.369873 (n=64) has the local "
                       "scale 5.93e+63, clipped to T_MAX=0.25\n")

    def test_rates_too_short_to_fit(self, tmp_path):
        # three degrees are too few for fit_rate: the rows carry only the
        # measured errors and the report has no slope
        args = ["rates", *BASE, "--function", "inner-root", "--n", "64:256"]
        csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
        assert run_cli(args + ["--out", str(csv_out)]) == 0
        assert run_cli(args + ["--format", "json", "--out", str(json_out)]) == 0
        lines = csv_out.read_text().split("\n")
        assert lines[0] == "n,measured,reference,ratio"
        assert [line.split(",")[0] for line in lines[1:-1]] == ["64", "128", "256"]
        assert all(line.endswith(",0,0") for line in lines[1:-1])
        assert lines[-1] == ""
        report = json.loads(json_out.read_text())
        assert report["fitted_slope"] is None
        assert report["verdict"] == "pass"

    def test_lemmas_too_short_to_fit(self, capsys):
        # two degrees give lemma 5 no slope to fit: its row is a skip, and
        # a skip is not a failure
        assert run_cli(["lemmas", "--xi", "0.5", "--alpha", "1", "--n", "64:128"]) == 0
        out, err = capsys.readouterr()
        assert "lemma5,skip,,need >= 4 degrees for a slope fit\n" in out
        assert err == ""

    def test_lemmas_at_one_degree(self, capsys):
        # one degree gives every trend test a single value: lemma 5 is a
        # skip row and the other lemmas still pass
        assert run_cli(["lemmas", "--xi", "0.5", "--alpha", "1", "--n", "64"]) == 0
        out, err = capsys.readouterr()
        assert "lemma5,skip,,need >= 4 degrees for a slope fit\n" in out
        assert out.count("\n") == 9 and err == ""

    @pytest.mark.parametrize("args, config, message", [
        (["--n", "64:128", "--grid", "1"], None, "uniform grid needs at least 2 points"),
        (["--n", "64:128"], {"format": "xml"}, "format must be 'csv' or 'json', got 'xml'"),
        ([], {"n": [128, 64]}, "n_values must be strictly increasing"),
    ], ids=["grid-1", "format-xml", "n-decreasing"])
    def test_bad_setting_is_one_error_line(self, args, config, message, tmp_path, capsys):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args = [*args, "--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["rates", "--xi", "0.5", "--alpha", "1", *args])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {message}"]

    def test_inverse_too_few_t_values_fails_first(self, monkeypatch, capsys):
        # the modulus fit needs 4 scales; 3 are rejected before the curve
        from bernsing.harness import checks

        def curve(*args):
            raise AssertionError("modulus_curve ran")

        monkeypatch.setattr(checks, "modulus_curve", curve)
        args = ["inverse", "--xi", "0.5", "--alpha", "1", "--function", "inner-cusp",
                "--alpha0", "1", "--t", "0.03125:0.125"]
        assert run_cli(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: need at least 4 t values to fit the modulus rate, "
                       "got 3: 0.03125, 0.0625, 0.125\n")

    def test_unwritable_out(self, capsys):
        args = ["dump-operator", *BASE, "--n", "64:64", "--out", "/nonexistent/dir/x.csv"]
        assert run_cli(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_direct_with_every_local_scale_clipped(self, tmp_path, capsys):
        # with beta0 = beta1 = 2 every local scale is at least 1/4, so the
        # modulus table has a single scale and the ratio's sup sits above
        # it; the verdict does not depend on the sweep's top degree
        out = tmp_path / "d.csv"
        for sweep in ("64:1024", "64:2048"):
            code = run_cli(["direct", "--xi", "0.5", "--alpha", "1", "--function", "smooth-bump",
                            "--n", sweep, "--beta0", "2", "--beta1", "2", "--out", str(out)])
            assert code == 1
            assert capsys.readouterr() == (
                "", "check failed: the ratio's sup at x=0.338135 (n=64) has the local scale "
                    "1.49, clipped to T_MAX=0.25\n")
            assert not out.exists()

    def test_affine_lemmas_use_the_quadratic_witness(self, tmp_path):
        # affine has no curvature to normalise lemmas 7 and 8 by
        rows = {}
        for name in ("affine", "quadratic"):
            out = tmp_path / f"{name}.csv"
            assert run_cli(["lemmas", *BASE, "--function", name, "--n", "64:256",
                            "--grid", "1025", "--out", str(out)]) == 0
            rows[name] = [line for line in out.read_text().split("\n")
                          if line.startswith(("lemma7,", "lemma8,"))]
        assert len(rows["affine"]) == 2
        assert rows["affine"] == rows["quadratic"]


class TestDeterminism:
    def test_rates_byte_identical(self, tmp_path):
        args = ["rates", *BASE, "--function", "inner-root", "--n", "64:512"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("xi", ["0.47", "0.50", "0.53"])
    def test_lemmas_match_reference(self, xi, tmp_path):
        # the weight |x - xi|^alpha of lemmas 5 and 6 depends on xi
        out = tmp_path / "lemmas.csv"
        assert run_cli(["lemmas", "--xi", xi, "--alpha", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == (REFERENCE / "lemma-sweep" / f"xi-{xi}.csv").read_bytes()

    def test_direct_matches_reference(self, tmp_path):
        # direct's error field goes through bernstein_apply, whose segment
        # sum rounds otherwise than the full-width blocks that wrote the
        # reference: the numbers agree to 1e-12 relative (largest change
        # measured over the nine reference xi: 1.3e-15), not to the bit
        out = tmp_path / "direct.csv"
        assert run_cli(["direct", "--xi", "0.50", "--alpha", "1", "--function", "inner-cusp",
                        "--alpha0", "1.5", "--grid", "65537", "--n", "64:128",
                        "--out", str(out)]) == 0
        assert_numbers_close(out.read_text(),
                             (REFERENCE / "modulus-dense" / "xi-0.50.csv").read_text(), 1e-12)

    def test_rates_match_reference(self, tmp_path):
        # bernstein_apply sums each abscissa over the segments that cover
        # its Bernstein band and leaves out at most 2 e^-40 of a row's
        # mass, and its products of ratios round otherwise than the
        # full-width blocks that wrote the reference: the numbers agree to
        # 1e-12 relative (largest change measured over the nine reference
        # xi: 4.1e-15), not to the bit.
        # It runs in this process after whatever degrees earlier tests
        # asked for: the operator sum reads no log-factorial table.
        out = tmp_path / "rates.csv"
        assert run_cli(["rates", "--xi", "0.50", "--alpha", "1", "--function", "inner-root",
                        "--n", "64:16384", "--out", str(out)]) == 0
        assert_numbers_close(out.read_text(),
                             (REFERENCE / "rates-deep" / "xi-0.50.csv").read_text(), 1e-12)

    def test_csv_layout(self, tmp_path):
        out = tmp_path / "r.csv"
        run_cli(["rates", *BASE, "--function", "inner-root", "--n", "64:512",
                 "--out", str(out)])
        text = out.read_text()
        lines = text.split("\n")
        assert lines[0] == "n,measured,reference,ratio"
        assert len(lines) == 6  # header + 4 rows + trailing LF
        assert "\r" not in text


class TestReportFields:
    """The fields each check sets on its JSON report, beyond the rows."""

    @staticmethod
    def _json(capsys, args):
        assert run_cli(args + ["--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_direct_fit_of_the_ratios(self, capsys):
        from bernsing.harness.rates import fit_rate

        report = self._json(capsys, ["direct", *BASE, "--function", "quadratic"])
        rows = report["rows"]
        assert [r["scale"] for r in rows] == [64.0, 128.0, 256.0, 512.0, 1024.0]
        assert report["scale_name"] == "n"
        assert report["tolerance"] == 2.0
        assert report["verdict"] == "pass"
        assert report["max_ratio"] == max(r["ratio"] for r in rows)
        fit = fit_rate([(r["scale"], r["ratio"]) for r in rows], scale_name="n")
        assert report["fitted_slope"] == fit.fitted_slope
        assert report["slope_stderr"] == fit.slope_stderr
        assert report["residuals"] == list(fit.residuals)

    def test_direct_too_short_to_fit(self, capsys):
        report = self._json(capsys, ["direct", *BASE, "--function", "quadratic", "--n", "64:128"])
        assert len(report["rows"]) == 2
        assert report["fitted_slope"] is None
        assert report["slope_stderr"] is None
        assert report["residuals"] == []
        assert report["tolerance"] == 2.0

    def test_inverse_modulus_fit_and_error_spread(self, capsys, params, sw, grid):
        from bernsing.harness import corpus
        from bernsing.harness.config import DEFAULT_T_VALUES
        from bernsing.harness.rates import fit_rate
        from bernsing.moduli import ModulusConfig, modulus_curve

        report = self._json(capsys, ["inverse", *BASE, "--function", "inner-cusp",
                                     "--alpha0", "1.5"])
        measured = [r["measured"] for r in report["rows"]]
        assert len(measured) == 5
        # the rows are over n, the slope fields over t
        assert report["scale_name"] == "n"
        assert report["tolerance"] == 0.15
        assert report["max_ratio"] == max(measured) / min(measured)
        f = corpus("inner-cusp", params, 1.5)
        curve = modulus_curve(f, params, sw, ModulusConfig(x_grid=grid, t_values=DEFAULT_T_VALUES))
        fit = fit_rate(list(zip(DEFAULT_T_VALUES, curve)), scale_name="t")
        assert report["fitted_slope"] == fit.fitted_slope
        assert report["slope_stderr"] == fit.slope_stderr
        assert report["residuals"] == list(fit.residuals)
        assert abs(fit.fitted_slope - 1.5) <= 0.15


class TestConfigFile:
    def test_config_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"xi": 0.3, "n": "128:128"}))
        out = tmp_path / "dump.json"
        code = run_cli([
            "dump-operator", "--xi", "0.5", "--alpha", "1",
            "--config", str(cfg), "--format", "json", "--out", str(out),
        ])
        assert code == 0
        dump = json.loads(out.read_text())
        assert dump["xi"] == 0.3
        assert dump["n"] == 128

    def test_config_supplies_required(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"xi": 0.5, "alpha": 1.0, "n": "64:128"}))
        out = tmp_path / "d.csv"
        code = run_cli(["dump-operator", "--config", str(cfg), "--out", str(out)])
        assert code == 0

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"xi": 0.5, "alpha": 1.0, "zeta": 3}))
        assert run_cli(["lemmas", "--config", str(cfg)]) == 2

    def test_missing_config_file(self):
        assert run_cli(["lemmas", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("content", [
        "5", "null", "true", '"xi"',
        '{"xi": [0.5], "alpha": 1}', '{"beta0": {}}', '{"alpha0": [1]}',
    ])
    def test_malformed_config(self, content, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        args = ["rates", "--xi", "0.5", "--alpha", "1", "--n", "64:64", "--config", str(cfg)]
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_n_list(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"xi": 0.5, "alpha": 1.0, "n": [64, "x"]}))
        assert run_cli(["rates", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_t_list(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"xi": 0.5, "alpha": 1.0, "t": [0.01, "y"]}))
        assert run_cli(["rates", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err


    def test_out_must_be_a_string(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"xi": 0.5, "alpha": 1.0, "n": "64:64", "out": 7}))
        assert run_cli(["dump-operator", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_grid_must_be_an_integer(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"xi": 0.5, "alpha": 1.0, "n": "64:64", "grid": 4097.9}))
        out = tmp_path / "r.csv"
        assert run_cli(["rates", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_oversize_grid_is_a_usage_error(self, tmp_path, capsys):
        # numpy's MemoryError used to escape as a traceback with exit 1.
        # 10**15 points (8e15 bytes) exceed the address space, so the
        # allocation fails at once whatever the overcommit policy.
        out = tmp_path / "r.csv"
        code = run_cli(["rates", "--xi", "0.5", "--alpha", "1", "--n", "64:128",
                        "--grid", str(10**15), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestDumpOperator:
    def test_csv_matches_library(self, params, tmp_path):
        from bernsing import build_operator
        from bernsing.harness import corpus

        out = tmp_path / "dump.csv"
        code = run_cli(["dump-operator", *BASE, "--function", "quadratic",
                        "--n", "64:64", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,t,fbar_sample"
        assert len(lines) == 66
        op = build_operator(corpus("quadratic", params), 64, params)
        k, t, s = lines[17].split(",")
        assert int(k) == 16
        assert float(s) == op.fbar_samples[16]


class TestImports:
    def test_no_command_imports_numpy_ma(self):
        # np.unique imports numpy.ma (about 15 ms of every cold run);
        # the grid and the modulus table dedupe with a sort and a mask
        code = (
            "import os, sys\n"
            "from bernsing.harness.cli import run_cli\n"
            "base = ['--xi', '0.5', '--alpha', '1', '--n', '64:256', '--grid', '257',\n"
            "        '--out', os.devnull]\n"
            "codes = [run_cli([c, *base]) for c in\n"
            "         ('lemmas', 'rates', 'direct', 'inverse', 'dump-operator')]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n"
        )
        # the tree the suite imported, which may be a copy of src/
        env = dict(os.environ, PYTHONPATH=str(Path(bernsing.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.split() == ["[0,", "0,", "0,", "0,", "0]", "False"]
