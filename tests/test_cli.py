import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cjlab.cli import main
from cjlab.io import fmt10


class TestFmt:
    def test_ten_significant_digits(self):
        assert fmt10(1.2345678901234) == "1.23456789"
        assert fmt10(1e-5) == "1e-05"
        assert fmt10(3) == "3"
        assert fmt10(True) == "true"


class TestSpectrumCommand:
    def test_stable_spec_json(self, tmp_path):
        out = tmp_path / "o"
        assert main(["spectrum", "--m", "4", "--n", "4", "--out", str(out)]) == 0
        payload = json.loads((out / "spectrum.json").read_text())
        assert payload["stable"] is True
        assert payload["Lambda_re"][0] == 0.5
        assert set(payload) == {
            "lambdas", "Lambda_re", "Lambda_im", "indicial_roots", "j0", "stable",
        }

    def test_unstable_spec(self, tmp_path):
        out = tmp_path / "o"
        assert main(["spectrum", "--m", "2", "--n", "2", "--out", str(out)]) == 0
        payload = json.loads((out / "spectrum.json").read_text())
        assert payload["stable"] is False

    def test_usage_error_exit_2(self, tmp_path):
        assert main(["spectrum", "--m", "1", "--n", "4", "--out", str(tmp_path)]) == 2

    def test_csv_format(self, tmp_path):
        out = tmp_path / "o"
        assert main(["spectrum", "--m", "3", "--n", "3", "--format", "csv",
                     "--out", str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "j,lambda,Lambda_re,Lambda_im,root_minus,root_plus"

    def test_console_script_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cjlab.cli", "spectrum", "--m", "4", "--n", "4",
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0


class TestConfigFile:
    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 2\nn = 2\ncount = 4\n# comment line\n")
        out = tmp_path / "o"
        assert main(["spectrum", "--config", str(cfg), "--n", "3",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "spectrum.json").read_text())
        assert payload["lambdas"][0] == -3.0  # (2,3): N = 4
        assert len(payload["lambdas"]) == 4

    def test_bad_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("holonomy = 7\n")
        assert main(["spectrum", "--config", str(cfg), "--m", "2", "--n", "2",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command,text", [
        (["spectrum", "--m", "2", "--n", "2"], "count =\n"),
        (["plateau", "--N", "3"], "R =\n"),
    ])
    def test_empty_numeric_value_exits_2(self, command, text, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_malformed_line_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        assert main(["spectrum", "--config", str(cfg), "--m", "2", "--n", "2",
                     "--out", str(tmp_path / "o")]) == 2


class TestBadInputsExit2:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--m", "3", "--n", "3", "--count", "1"],
        ["spectrum", "--m", "3", "--n", "3", "--count", "0"],
        ["spectrum", "--m", "3", "--n", "3", "--count", "-4"],
        ["plateau", "--N", "3", "--R", "nan"],
        ["plateau", "--N", "3", "--R", "inf"],
        ["plateau", "--N", "3", "--R", "1", "--r-max", "nan"],
        ["plateau", "--N", "2", "--R", "1"],
        ["profile", "--m", "2", "--n", "2", "--s-max", "nan"],
        ["profile", "--m", "2", "--n", "2", "--tol", "nan"],
        ["profile", "--m", "2", "--n", "2", "--tol", "-1"],
        ["profile", "--m", "2", "--n", "2", "--grid-step", "nan"],
    ])
    def test_one_line_error(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestImportLayering:
    """The cheap paths (import, spectrum, usage errors) never load scipy,
    and the closed-form plateau path never loads scipy.integrate."""

    SCRIPT = """
import json, sys
def scipy_modules():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
import cjlab, cjlab.cli
steps = {"import": [None, scipy_modules()]}
for name, argv in (("spectrum", ["spectrum", "--m", "4", "--n", "4"]),
                   ("usage_error", ["spectrum", "--m", "1", "--n", "3"])):
    steps[name] = [cjlab.cli.main(argv + ["--out", sys.argv[1]]), scipy_modules()]
steps["plateau"] = [cjlab.cli.main(["plateau", "--N", "5", "--R", "1", "--out", sys.argv[1]]),
                    "scipy.integrate" in sys.modules]
print(json.dumps(steps))
"""

    def test_no_scipy_on_cheap_paths(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path / "o")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        steps = json.loads(proc.stdout.splitlines()[-1])
        assert steps == {"import": [None, []], "spectrum": [0, []], "usage_error": [2, []],
                         "plateau": [0, False]}


class TestIOFailures:
    def test_unwritable_out_exits_3_without_manifest(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub"  # mkdir under a file fails
        assert main(["spectrum", "--m", "2", "--n", "2", "--out", str(out)]) == 3
        assert not out.exists()


class TestJacobiCommand:
    def test_full_run(self, tmp_path):
        out = tmp_path / "o"
        code = main(["jacobi", "--m", "3", "--n", "3", "--s-max", "600",
                     "--grid-step", "2e-4", "--out", str(out)])
        assert code == 0
        assert (out / "profile.csv").exists()
        assert (out / "jacobi.csv").exists()
        report = json.loads((out / "decay_report.json").read_text())
        assert "near_origin" in report
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["checksums"].items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        header = (out / "jacobi.csv").read_text().splitlines()[0]
        assert header == "s,t,p,V,ftilde,psi,dpsi,residual"

    def test_profile_command(self, tmp_path):
        out = tmp_path / "o"
        code = main(["profile", "--m", "2", "--n", "2", "--s-max", "50",
                     "--grid-step", "2e-4", "--out", str(out)])
        assert code == 0
        header = (out / "profile.csv").read_text().splitlines()[0]
        assert header == "s,a,b,phi,alpha,A2,trA3,zeta0,Hres"


class TestPlateauCommand:
    def test_run_and_columns(self, tmp_path):
        out = tmp_path / "o"
        assert main(["plateau", "--N", "3", "--R", "1", "--out", str(out)]) == 0
        lines = (out / "plateau.csv").read_text().splitlines()
        assert lines[0] == "r,v,dv,zeta0,flux_residual"
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        assert metrics["flux_residual_sup"] <= 1e-10
        assert abs(metrics["zeta0_exponent"] - (-1.0)) < 0.02

    def test_bad_geometry_exits_2(self, tmp_path):
        assert main(["plateau", "--N", "3", "--R", "5", "--r-max", "2",
                     "--out", str(tmp_path / "o")]) == 2


class TestReportCommand:
    def test_small_sweep(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("specs = 4,4\n")
        out = tmp_path / "o"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert len(rows) == 1
        row = rows[0]
        assert row["crossings"] == 0
        assert abs(row["fitted_exponent"] - row["predicted_nu_bar"]) < 0.05
        assert (out / "m4n4" / "profile.csv").exists()

    def test_manifest_hashes_every_profile(self, tmp_path):
        out = tmp_path / "o"
        assert main(["report", "--specs", "4,4;5,5", "--out", str(out)]) == 0
        checksums = json.loads((out / "manifest.json").read_text())["checksums"]
        assert set(checksums) == {"report.json", "m4n4/profile.csv", "m5n5/profile.csv"}
        for name, digest in checksums.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_empty_sweep_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("specs =\n")
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_bad_sweep_entry_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("specs = 2,2;9\n")
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
