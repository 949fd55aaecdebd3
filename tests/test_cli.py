import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from bernsing.harness.cli import _parse_sweep, UsageError, run_cli


BASE = ["--xi", "0.5", "--alpha", "1", "--beta0", "0.5", "--beta1", "0.5"]
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"


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

    def test_unwritable_out(self, capsys):
        args = ["dump-operator", *BASE, "--n", "64:64", "--out", "/nonexistent/dir/x.csv"]
        assert run_cli(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_direct_with_every_local_scale_clipped(self, tmp_path):
        # with beta0 = beta1 = 2 every local scale is at least 1/4, so the
        # modulus table has a single scale
        out = tmp_path / "d.csv"
        code = run_cli(["direct", "--xi", "0.5", "--alpha", "1", "--function", "smooth-bump",
                        "--n", "64:1024", "--beta0", "2", "--beta1", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "n,measured,reference,ratio"
        assert len(lines) == 7  # header + 5 rows + trailing LF

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
        out = tmp_path / "direct.csv"
        assert run_cli(["direct", "--xi", "0.50", "--alpha", "1", "--function", "inner-cusp",
                        "--alpha0", "1.5", "--grid", "65537", "--n", "64:128",
                        "--out", str(out)]) == 0
        assert out.read_bytes() == (REFERENCE / "modulus-dense" / "xi-0.50.csv").read_bytes()

    def test_rates_match_reference(self, tmp_path):
        # The deep sweep runs _blocks split across the usable CPUs.  It runs
        # in this process after whatever degrees earlier tests asked for:
        # the log-factorial table grows in fixed segments, so its bits do
        # not depend on them.
        out = tmp_path / "rates.csv"
        assert run_cli(["rates", "--xi", "0.50", "--alpha", "1", "--function", "inner-root",
                        "--n", "64:16384", "--out", str(out)]) == 0
        assert out.read_bytes() == (REFERENCE / "rates-deep" / "xi-0.50.csv").read_bytes()

    def test_csv_layout(self, tmp_path):
        out = tmp_path / "r.csv"
        run_cli(["rates", *BASE, "--function", "inner-root", "--n", "64:512",
                 "--out", str(out)])
        text = out.read_text()
        lines = text.split("\n")
        assert lines[0] == "n,measured,reference,ratio"
        assert len(lines) == 6  # header + 4 rows + trailing LF
        assert "\r" not in text


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
