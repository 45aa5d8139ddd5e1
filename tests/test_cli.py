import ast
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cjlab.cli import CSV_MAX_ROWS, OPTIONS, ConfigError, RunConfig, configure, main
from cjlab.io import fmt10, write_csv, write_json
from cjlab.profile import ShootingConfig
from cjlab.spectra import ConeSpec

ROOT = Path(__file__).resolve().parents[1]


class TestFmt:
    def test_ten_significant_digits(self):
        assert fmt10(1.2345678901234) == "1.23456789"
        assert fmt10(1e-5) == "1e-05"
        assert fmt10(3) == "3"
        assert fmt10(True) == "true"


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308, 1.8e308,
               1e-5, 1.2345678901234, -3.0, 1e16, 123456789012.0]


def _ten_to(k: int, step: int) -> float:
    """10**k (correctly rounded), or its neighbour above (step 1) or below (-1)."""
    return float(np.nextafter(float(f"1e{k}"), step * math.inf)) if step else float(f"1e{k}")


#: Where %.10g switches between fixed and exponent notation.
SWITCH_POINTS = [9.9999999995e-5, 1e-4, 9999999999.5, 1e10]


def _dyadic_tie(i: int, r: int) -> float:
    """The r-th odd multiple of 2**-i (counting from the smallest) whose
    decimal expansion has 11 significant digits: a tie at the 10th."""
    lo, hi = -(-10**10 // 5**i) // 2, (10**11 // 5**i - 1) // 2
    return (2 * (lo + r % (hi - lo + 1)) + 1) / 2**i


#: Floats where a %.10g is easy to get wrong.  A decimal tie at the 10th
#: digit is a number whose exact expansion has 11 significant digits, the
#: last a 5: N + 0.5 for 10-digit N, an 11-digit integer ending in 5 times
#: 10**j (exact while below 2**53), and r/2**i with r*5**i of 11 digits.
#: The float parsed from such a decimal's digits lies within half an ulp of it.
_TIES = st.one_of(
    st.tuples(st.integers(10**9, 10**10 - 1), st.integers(-300, 300)).map(
        lambda t: float(f"{t[0]}5e{t[1]}")),
    st.integers(10**9, 10**10 - 1).map(lambda n: n + 0.5),
    st.tuples(st.integers(10**9, 10**10 - 1), st.integers(0, 4)).map(
        lambda t: float((10 * t[0] + 5) * 10 ** t[1])),
    st.tuples(st.integers(1, 15), st.integers(0, 10**10)).map(lambda t: _dyadic_tie(*t)),
)
HARD_FLOATS = st.tuples(st.sampled_from([1.0, -1.0]), st.one_of(
    st.sampled_from([0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308,
                     2.225073858507201e-308, 1.7976931348623157e308, *SWITCH_POINTS]),
    st.floats(0.0, 2.3e-308),  # subnormals
    st.floats(1.7e308, 1.7976931348623157e308),
    _TIES,
    st.tuples(st.integers(-323, 308), st.integers(-1, 1)).map(lambda t: _ten_to(*t)),
    st.tuples(st.sampled_from(SWITCH_POINTS), st.integers(-3, 3)).map(
        lambda t: float(t[0] + t[1] * np.spacing(t[0]))),
    st.floats(allow_nan=True, allow_infinity=True),
)).map(lambda t: t[0] * t[1])


def _hard_values() -> np.ndarray:
    """A fixed sample of HARD_FLOATS' kinds, with both signs: every power of
    ten and its two neighbours, 200 ties of each kind, and the switch points
    with three neighbours on each side."""
    rng = np.random.default_rng(16)
    n = rng.integers(10**9, 10**10, 200).tolist()
    xs = [_ten_to(k, step) for k in range(-323, 309) for step in (-1, 0, 1)]
    xs += [float(f"{a}5e{b}") for a, b in zip(n, rng.integers(-300, 301, 200).tolist())]
    xs += [a + 0.5 for a in n]
    xs += [float((10 * a + 5) * 10**j) for a, j in zip(n, rng.integers(0, 5, 200).tolist())]
    xs += [_dyadic_tie(i, a) for i, a in zip(rng.integers(1, 16, 200).tolist(), n)]
    xs += [float(x + j * np.spacing(x)) for x in SWITCH_POINTS for j in range(-3, 4)]
    return np.array(xs + [-x for x in xs])


class TestWriteCsv:
    """write_csv against a per-cell rendering: format(x, ".10g") for floating
    columns, fmt10 for the others."""

    @staticmethod
    def oracle(header, columns):
        cells = [[format(float(x), ".10g") for x in c] if np.issubdtype(c.dtype, np.floating)
                 else [fmt10(x) for x in c] for c in columns]
        return "".join(",".join(row) + "\n" for row in [header, *zip(*cells)]).encode()

    @pytest.mark.parametrize("columns", [
        pytest.param([np.array(EDGE_FLOATS), np.array(EDGE_FLOATS[::-1])], id="float64-edges"),
        pytest.param([np.array(EDGE_FLOATS, dtype=np.float32)], id="float32"),
        pytest.param([np.arange(13) - 6, np.arange(13) % 3 == 0, np.array(EDGE_FLOATS)],
                     id="int-bool-float"),
        pytest.param([np.array([]), np.array([], dtype=int)], id="zero-rows"),
        pytest.param([np.random.default_rng(8).standard_normal(500)
                      * 10.0 ** np.random.default_rng(9).integers(-300, 300, 500)], id="random"),
        pytest.param([_hard_values()], id="hard-values"),
    ])
    def test_bytes_match_per_cell_rendering(self, columns, tmp_path):
        header = [f"c{i}" for i in range(len(columns))]
        write_csv(tmp_path / "x.csv", header, columns)
        assert (tmp_path / "x.csv").read_bytes() == self.oracle(header, columns)

    def test_unequal_lengths_raise(self, tmp_path):
        with pytest.raises(ValueError, match="share a length"):
            write_csv(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])

    @staticmethod
    def csv_bytes(columns) -> bytes:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            write_csv(path, [f"c{i}" for i in range(len(columns))], columns)
            return path.read_bytes()

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_sequence_columns_match_array_columns(self, kind):
        """int, bool and float (nan, +-inf) columns as Python sequences."""
        arrays = [np.arange(13) - 6, np.arange(13) % 3 == 0, np.array(EDGE_FLOATS)]
        assert self.csv_bytes([kind(a.tolist()) for a in arrays]) == self.csv_bytes(arrays)
        assert self.csv_bytes([kind(a) for a in arrays]) == self.csv_bytes(arrays)

    def test_range_column_matches_arange(self):
        assert self.csv_bytes([range(-3, 40)]) == self.csv_bytes([np.arange(-3, 40)])

    @given(cells=st.lists(HARD_FLOATS, max_size=60),
           rows=st.sampled_from([0, 1, 5, 1999, 2000, 2001, 4500]),
           ncols=st.integers(1, 4), float32=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_float_arrays_match_the_format_oracle(self, cells, rows, ncols, float32, seed):
        """The vectorised %.10g against format(float(x), ".10g") per cell.  The
        drawn cells land near the start, the 2,000-row block boundaries and the
        end of wide-range random columns."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(rows * ncols) * 10.0 ** rng.integers(-320, 307, rows * ncols)
        if rows:
            at = np.r_[0:rows * ncols:ncols * 2000, rows * ncols - 1]
            at = np.unique(np.clip(at[:, None] + np.arange(-30, 30), 0, rows * ncols - 1))
            at = rng.permutation(at)[:len(cells)]
            x[at] = cells[:len(at)]
        columns = list(x.reshape(rows, ncols).T)
        if float32:
            with np.errstate(over="ignore"):
                columns = [c.astype(np.float32) for c in columns]
        assert self.csv_bytes(columns) == self.oracle([f"c{i}" for i in range(ncols)], columns)

    def test_peak_memory_of_a_profile_csv(self, tmp_path):
        """tracemalloc peak of an 18,197 x 9 float64 write, the profile.csv of
        ``cjl jacobi --grid-step 1e-4`` (every 8th sample; the default grid
        writes all its 14,559).  The bound is the peak of the per-row % writer
        on the same input, so the vectorised one holds no whole-CSV temporaries."""
        rng = np.random.default_rng(0)
        columns = list(rng.standard_normal((9, 18197)) * 10.0 ** rng.integers(-12, 4, (9, 18197)))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "x.csv", [f"c{i}" for i in range(9)], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11.27e6

    def test_peak_memory_is_one_block(self, tmp_path):
        """tracemalloc peak of a 14,559 x 9 float64 write, the profile.csv of
        a default ``cjl jacobi``: about 120 B per cell of one block of
        ``io._BLOCK_ROWS`` = 1,000 rows, so the bound is 1,000 x 9 cells at
        140 B, below the 2.16 MB that 2,000-row blocks take."""
        rng = np.random.default_rng(1)
        columns = list(rng.standard_normal((9, 14559)) * 10.0 ** rng.integers(-12, 4, (9, 14559)))
        write_csv(tmp_path / "warm.csv", ["c"], columns[:1])  # g10's tables are built once
        tracemalloc.start()
        try:
            write_csv(tmp_path / "x.csv", [f"c{i}" for i in range(9)], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1000 * 9 * 140

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_float_lists_match_float_arrays(self, xs):
        want = self.csv_bytes([np.array(xs), np.array(xs[::-1])])
        assert self.csv_bytes([xs, xs[::-1]]) == want
        assert self.csv_bytes([list(np.array(xs)), tuple(xs[::-1])]) == want


@pytest.mark.parametrize("name,write", [
    ("g10.csv", lambda p: write_csv(p, ["x", "y"], [np.linspace(-1.0, 1.0, 4500), np.ones(4500)])),
    ("cells.csv", lambda p: write_csv(p, ["j", "x"], [range(3), [0.5, math.nan, -2.0]])),
    ("data.json", lambda p: write_json(p, {"x": [0.1, math.inf], "n": 3})),
], ids=["g10-csv", "percent-csv", "json"])
def test_writers_return_the_sha256_of_their_file(name, write, tmp_path):
    digest = write(tmp_path / name)
    assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()


class TestWriteJson:
    PYTHON = {"f": 1.2345678901234, "i": 3, "b": True, "nan": math.nan, "inf": -math.inf,
              "half": 0.5, "list": [1e-5, 2.0, math.inf], "ints": [1, -2],
              "nested": {"pair": [0.1, -3.0], "flags": [False, True]}}
    NUMPY = {"f": np.float64(1.2345678901234), "i": np.int64(3), "b": np.bool_(True),
             "nan": np.float64(math.nan), "inf": np.float64(-math.inf), "half": np.float32(0.5),
             "list": np.array([1e-5, 2.0, math.inf]), "ints": np.array([1, -2]),
             "nested": {"pair": (np.float64(0.1), -3.0), "flags": np.array([False, True])}}

    def test_numpy_values_match_python_values(self, tmp_path):
        write_json(tmp_path / "py.json", self.PYTHON)
        write_json(tmp_path / "np.json", self.NUMPY)
        assert (tmp_path / "np.json").read_bytes() == (tmp_path / "py.json").read_bytes()
        assert json.loads((tmp_path / "py.json").read_text()) == {
            **self.PYTHON, "f": 1.23456789, "nan": "nan", "inf": "-inf",
            "list": [1e-5, 2.0, "inf"]}


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

    def test_bytes_are_pinned(self, tmp_path):
        # pure math.sqrt of small integers, so the same bytes on any platform
        out = tmp_path / "o"
        assert main(["spectrum", "--m", "4", "--n", "4", "--count", "12", "--out", str(out)]) == 0
        assert main(["spectrum", "--m", "4", "--n", "4", "--count", "12", "--format", "csv",
                     "--out", str(out)]) == 0
        assert hashlib.sha256((out / "spectrum.json").read_bytes()).hexdigest() == (
            "3a09bbed985090e355e1a14c3235a4435cc8beb02010f0a8feb70aa1d1583e4e")
        assert (out / "spectrum.csv").read_bytes() == b"".join(
            [b"j,lambda,Lambda_re,Lambda_im,root_minus,root_plus\n", b"0,-6,0.5,0,-3,-2\n",
             *(b"%d,0,2.5,0,-5,0\n" % j for j in range(1, 9)),
             *(b"%d,6,3.5,0,-6,1\n" % j for j in range(9, 12))])

    def test_console_script_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cjlab.cli", "spectrum", "--m", "4", "--n", "4",
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=checkout_env(),
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

    @pytest.mark.parametrize("command,text", [
        (["plateau"], "count = 5\n"),
        (["spectrum", "--m", "2", "--n", "2"], "s_max = 5\n"),
        (["report"], "m = 2\n"),
        (["profile", "--m", "2", "--n", "2"], "tol = 1e-12\n"),
    ])
    def test_key_the_command_does_not_read_exits_2(self, command, text, tmp_path, capsys):
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

    def test_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"m = 2\nn = 2 # \xff\n")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read config file")


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
        ["profile", "--m", "2", "--n", "2", "--grid-step", "nan"],
        ["report", "--specs", "2,2", "--eps", "0.5"],
        ["report", "--specs", "4,4", "--grid-step", "0.5"],
        ["jacobi", "--m", "2", "--n", "2", "--s-max", "0.5"],
        ["plateau", "--N", "3", "--R", "1", "--r-max", "50"],
        ["plateau", "--N", "3", "--R", "1", "--r-max", "1e308"],
        ["plateau", "--N", "200", "--R", "1"],
        ["plateau", "--N", "3", "--R", "1e300"],
        ["plateau", "--N", "1" + "0" * 400],
        ["spectrum", "--m", "3", "--n", "3", "--count", "10001"],
        ["spectrum", "--m", "3", "--n", "3", "--format", "xml"],
        ["spectrum", "--m", "3", "--n", "3", "--count=--"],
        ["spectrum", "--m", "1" + "0" * 160, "--n", "2"],
        ["spectrum", "--m", "1" + "0" * 400, "--n", "2"],
        ["report", "--specs", "4,4", "--grid-step", "0.0694"],
        ["profile", "--m", "101", "--n", "2"],
        ["jacobi", "--m", "2", "--n", "1000000"],
        ["report", "--specs", "2,2;2,2"],
        ["plateau", "--N", "3", "--R", "5e-320"],
        ["plateau", "--N", "12", "--R", "1e30"],  # R^(N-1) overflows
        ["plateau", "--N", "3", "--r-max", "1e162"],  # 13 samples in the fit window
        ["profile", "--m", "3", "--n", "2", "--eps", "1e-310"],  # s_max / eps overflows
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning", "error::UserWarning")
    def test_one_line_error(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "atol" not in err[0]  # no option sets it

    @pytest.mark.parametrize("argv", [
        ["plateau", "--count", "5"],
        ["spectrum", "--m", "2", "--n", "2", "--s-max", "5"],
        ["spectrum", "--m", "2", "--n", "2", "--specs", "9,9"],
        ["report", "--m", "2"],
        ["jacobi", "--m", "2", "--n", "2", "--tol", "1e-12"],
        # every integration runs at dop853.RTOL, so no command takes a tolerance
        ["profile", "--m", "2", "--n", "2", "--tol", "nan"],
        ["profile", "--m", "2", "--n", "2", "--tol", "-1"],
        ["report", "--specs", "2,2", "--tol", "nan"],
        ["profile", "--m", "2", "--n", "2", "--tol", "5e-324"],
        ["profile", "--m", "2", "--n", "2", "--tol", "1e-300"],
        ["report", "--specs", "2,2", "--tol", "1e-15"],
    ])
    def test_flag_the_command_does_not_read_exits_2(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 2


#: The options each subcommand reads, besides --config and --help.
READS = {
    "spectrum": {"m", "n", "count", "format", "out"},
    "profile": {"m", "n", "s_max", "eps", "grid_step", "out"},
    "jacobi": {"m", "n", "s_max", "eps", "grid_step", "out"},
    "plateau": {"N", "R", "r_max", "out"},
    "report": {"eps", "grid_step", "format", "specs", "out"},
}


class TestOptionTable:
    @pytest.mark.parametrize("command", sorted(READS))
    def test_help_lists_exactly_the_options_read(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert {o.name for o in OPTIONS if command in o.defaults} == READS[command]
        assert listed == {"--" + k.replace("_", "-") for k in READS[command]} | {"--config", "--help"}

    @pytest.mark.parametrize("argv,code", [([], 2), (["bogus"], 2), (["--help"], 0)])
    def test_every_command_is_a_choice(self, argv, code, capsys):
        """Only the invoked command's options are built, but a missing or
        unknown command, and ``cjl --help``, still list every command."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert "{spectrum,profile,jacobi,plateau,report}" in captured.out + captured.err

    def test_one_default_grid_step(self):
        """profile, jacobi and report integrate on the library's default grid."""
        (grid_step,) = [o for o in OPTIONS if o.name == "grid_step"]
        default = ShootingConfig(spec=ConeSpec(2, 2)).grid_step
        assert grid_step.defaults == dict.fromkeys(("profile", "jacobi", "report"), default)

    def test_each_option_declared_once(self):
        names = [o.name for o in OPTIONS]
        assert len(names) == len(set(names))

    def test_manifest_echoes_resolved_options(self, tmp_path):
        out = tmp_path / "o"
        assert main(["plateau", "--R", "0.5", "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == {"command": "plateau", "N": 3, "R": 0.5, "r_max": 1000.0,
                          "out": str(out)}


#: Typical values of each option, as the text of a flag or config value.
_TYPICAL = {
    "m": st.integers(2, 12), "n": st.integers(2, 12), "N": st.integers(3, 12),
    "count": st.integers(2, 64), "R": st.floats(0.1, 5.0), "r_max": st.floats(200.0, 1e4),
    "s_max": st.floats(2.0, 3000.0), "eps": st.floats(1e-4, 0.05),
    "grid_step": st.floats(1e-4, 1e-2),
    "specs": st.sampled_from(["2,2", "4,4;5,5", "3,3;2,3"]),
    "format": st.sampled_from(["csv", "json"]),
}
#: Bad and extreme ones: non-finite, zero, negative, huge, tiny, malformed.
_EXTREME = {
    int: st.sampled_from([0, 1, -1, -7, 10**6, 10**18]),
    float: st.one_of(st.floats(), st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1e300])),
    str: st.sampled_from(["", ";", "2", "1,3", "2,2;x", "2.5,3", "xml"]),
}
_GARBAGE = st.text(alphabet="0123456789.e-+xn ", max_size=6)


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def invocations(draw, commands=tuple(sorted(READS))):
    """(command, flags, config-file values): a mix of the command's own options."""
    command = draw(st.sampled_from(commands))
    flags, config = {}, {}
    for opt in OPTIONS:
        if command not in opt.defaults or opt.name == "out":
            continue
        typical = _TYPICAL[opt.name].map(_text)
        values = st.one_of(typical, typical, typical, typical,
                           _EXTREME.get(opt.type, _EXTREME[str]).map(_text), _GARBAGE)
        places = [(flags,), (config,), (flags, config)]
        for target in draw(st.sampled_from(places + places + [()])):
            target[opt.name] = draw(values)
    return command, flags, config


def _argv(tmp: str, command: str, flags: dict, config: dict) -> list[str]:
    cfg_file = Path(tmp) / "run.cfg"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    argv = [command, "--config", str(cfg_file), "--out", str(Path(tmp) / "o")]
    return argv + [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]


class TestInputChecking:
    """Every input is checked before a command runs: ``configure`` returns a
    RunConfig or raises ConfigError, and an accepted spectrum or plateau
    run ends with exit 0, 2 or 4, never a traceback or a hang."""

    @given(invocations())
    @settings(max_examples=300, deadline=None)
    def test_configure_returns_a_config_or_raises_config_error(self, invocation):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                assert isinstance(configure(_argv(tmp, *invocation)), RunConfig)
            except ConfigError:
                pass

    @given(invocations(commands=("plateau", "spectrum")))
    @settings(max_examples=150, deadline=None)
    def test_accepted_runs_exit_0_2_or_4_in_bounded_time(self, invocation):
        with tempfile.TemporaryDirectory() as tmp:
            argv = _argv(tmp, *invocation)
            try:
                configure(argv)
            except ConfigError:
                return
            start = time.monotonic()
            assert main(argv) in (0, 2, 4)
            assert time.monotonic() - start < 20.0

    #: eps and grid_step of the end-to-end runs; grid_step is bounded
    #: below to keep each run short
    SHOOTING = {
        "grid_step": st.floats(1e-3, 1.0),
        "eps": st.floats(0.0, 0.1, exclude_min=True, exclude_max=True)}

    @staticmethod
    def exits_0_2_or_4_within_20_s(command, flags):
        with tempfile.TemporaryDirectory() as tmp:
            argv = _argv(tmp, command, {k: _text(v) for k, v in flags.items()}, {})
            start = time.monotonic()
            assert main(argv) in (0, 2, 4)
            assert time.monotonic() - start < 20.0

    @given(st.sampled_from(["profile", "jacobi"]), st.fixed_dictionaries({
        "m": _TYPICAL["m"], "n": _TYPICAL["n"], "s_max": st.floats(2.0, 300.0), **SHOOTING}))
    @settings(max_examples=40, deadline=None)
    def test_profile_and_jacobi_runs_end_to_end(self, command, flags):
        """Accepted profile and jacobi runs go through every stage."""
        self.exits_0_2_or_4_within_20_s(command, {k: v for k, v in flags.items()
                                                  if k in READS[command]})

    @given(st.fixed_dictionaries({"specs": st.lists(
        st.tuples(st.integers(2, 6), st.integers(2, 6)).map("{0[0]},{0[1]}".format),
        min_size=1, max_size=2).map(";".join), **SHOOTING}))
    @settings(max_examples=40, deadline=None)
    def test_report_runs_end_to_end(self, flags):
        """Accepted report draws integrate, fit and write every spec."""
        self.exits_0_2_or_4_within_20_s("report", flags)


def imported_modules(path: Path) -> list[tuple[int, str]]:
    """(line, dotted name) of every module and name ``path`` imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["cjlab" if node.level else "", node.module]))
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names]
    return found


class TestLibraryLayering:
    LIBRARY = ROOT / "src" / "cjlab"

    def test_no_library_module_imports_the_cli(self):
        files = sorted(self.LIBRARY.glob("*.py"))
        assert {path.stem for path in files} == {
            "__init__", "cli", "decay", "dop853", "g10", "io", "jacobi", "plateau", "profile",
            "spectra"}
        offenders = [f"{path.name}:{line}" for path in files
                     for line, name in imported_modules(path)
                     if name == "cjlab.cli" or name.startswith("cjlab.cli.")]
        assert offenders == []

    @pytest.mark.parametrize("module", ["decay", "plateau"])
    def test_fitting_and_plateau_do_not_integrate(self, module):
        """decay and plateau sit below the ODE layer: neither imports profile or jacobi."""
        offenders = [f"{module}.py:{line} {name}"
                     for line, name in imported_modules(self.LIBRARY / f"{module}.py")
                     if name.split(".")[:2] in (["cjlab", "profile"], ["cjlab", "jacobi"])]
        assert offenders == []

    def test_stepper_imports_no_package_module(self):
        """dop853 sits below the profile: it imports no cjlab module."""
        offenders = [f"dop853.py:{line} {name}"
                     for line, name in imported_modules(self.LIBRARY / "dop853.py")
                     if name.split(".")[0] == "cjlab"]
        assert offenders == []

    def test_no_library_module_imports_an_oracle(self):
        """mpmath and scipy are the test suite's references: the package imports neither."""
        offenders = [f"{path.name}:{line} {name}" for path in sorted(self.LIBRARY.glob("*.py"))
                     for line, name in imported_modules(path)
                     if name.split(".")[0] in ("mpmath", "scipy")]
        assert offenders == []


def test_benchmark_sites_resolve():
    """Every call site the benchmark's tracer wraps names a function of its module."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, names in tracing.SITES.items() for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def checkout_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(ROOT / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_fresh(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter on this checkout's ``src``; the
    JSON object that its last stdout line prints."""
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_tracer_records_each_layer(tmp_path):
    """With the benchmark's tracer installed, each command records a span of
    every layer it runs through, so no per-layer metric goes blank when a
    call site changes."""
    got = run_fresh("""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
import cjlab.cli
out = ["--out", sys.argv[2]]
runs = {"jacobi": ["jacobi", "--m", "3", "--n", "3", "--s-max", "300", "--grid-step", "1e-3"],
        "plateau": ["plateau", "--N", "5"],
        "spectrum": ["spectrum", "--m", "4", "--n", "4"]}
spans = {}
for name, argv in runs.items():
    rc = tracer.root(name, cjlab.cli.main, argv + out)
    spans[name] = [rc, sorted({s["name"] for s in tracer.spans})]
print(json.dumps(spans))
""", str(ROOT / "perfbench" / "tracing.py"), str(tmp_path / "o"))
    io = ["io.file_checksums", "io.write_csv", "io.write_json"]
    assert got == {
        "jacobi": [0, ["cli.main", "decay.fit_power_law", *io, "jacobi.decay_diagnostics",
                       "jacobi.emden_fowler_transform", "jacobi.near_origin_behavior",
                       "jacobi.solve_jacobi", "profile.geometry_trace"]],
        "plateau": [0, ["cli.main", "decay.fit_power_law", *io, "plateau.plateau_profile",
                        "plateau.plateau_zeta0"]],
        "spectrum": [0, ["cli.main", "io.file_checksums", "io.write_json",
                         "spectra.indicial_data", "spectra.link_eigenvalues"]],
    }


class TestImportLayering:
    """The cheap paths (import, spectrum, --help, --version and usage
    errors) and the closed-form plateau, evaluated on Python floats, load
    neither numpy nor scipy, and the plateau loads neither the profile nor
    the Jacobi solver.  No command loads scipy: the integrating ones run on
    the package's own stepper, which nothing else loads.  The records of the
    numpy-free paths are named tuples, so they load no dataclasses, and only
    a run that writes files loads json and hashlib."""

    LOADED = """
import json, sys
def loaded():
    return sorted({k.split(".")[0] for k in sys.modules} & {"numpy", "scipy"}
                  | {"cjlab.dop853", "cjlab.jacobi", "cjlab.profile"} & sys.modules.keys())
"""
    SCRIPT = LOADED + """
import cjlab, cjlab.cli
steps = {"import": [None, loaded()]}
out = ["--out", sys.argv[1]]
for name, argv in (("spectrum", ["spectrum", "--m", "4", "--n", "4", *out]),
                   ("spectrum_csv", ["spectrum", "--m", "4", "--n", "4", "--format", "csv", *out]),
                   ("usage_error", ["spectrum", "--m", "1", "--n", "3", *out]),
                   ("empty_sweep", ["report", "--specs", "", *out]),
                   # an error inside the command passes main's numerical handlers
                   ("io_error", ["spectrum", "--m", "4", "--n", "4", "--out", sys.argv[2]]),
                   ("help", ["--help"]),
                   ("version", ["--version"]),
                   ("plateau", ["plateau", "--N", "5", "--R", "1", *out])):
    try:
        rc = cjlab.cli.main(argv)
    except SystemExit as exc:  # argparse ends --help and --version this way
        rc = exc.code
    steps[name] = [rc, loaded()]
print(json.dumps(steps))
"""

    def test_no_scipy_on_cheap_paths(self, tmp_path):
        (tmp_path / "blocked" / "spectrum.json").mkdir(parents=True)
        steps = run_fresh(self.SCRIPT, str(tmp_path / "o"), str(tmp_path / "blocked"))
        assert steps == {"import": [None, []], "spectrum": [0, []], "spectrum_csv": [0, []],
                         "usage_error": [2, []], "empty_sweep": [2, []], "io_error": [3, []],
                         "help": [0, []], "version": [0, []], "plateau": [0, []]}

    def test_plateau_module_loads_no_numpy(self):
        assert run_fresh(self.LOADED + """
import cjlab.plateau
print(json.dumps(loaded()))
""") == []

    @pytest.mark.parametrize("argv,solvers", [
        (["profile", "--m", "3", "--n", "3"], ["cjlab.profile"]),
        (["jacobi", "--m", "3", "--n", "3", "--s-max", "300", "--grid-step", "1e-3"],
         ["cjlab.jacobi", "cjlab.profile"]),
        (["report", "--specs", "2,2"], ["cjlab.profile"]),
    ], ids=["profile", "jacobi", "report"])
    def test_integrating_commands_load_no_scipy(self, argv, solvers, tmp_path):
        steps = run_fresh(self.LOADED + """
import cjlab.cli
rc = cjlab.cli.main(sys.argv[1:])
print(json.dumps([rc, loaded()]))
""", *argv, "--out", str(tmp_path / "o"))
        assert steps == [0, ["cjlab.dop853", *solvers, "numpy"]]

    #: runs one cjl argv; prints its exit code and which of dataclasses,
    #: hashlib and json it loaded (the interpreter's start-up does not count)
    RECORDS = """
import sys
before = set(sys.modules)
import cjlab.cli
try:
    rc = cjlab.cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse ends --help and --version this way
    rc = exc.code
loaded = sorted({"dataclasses", "hashlib", "json"} & (sys.modules.keys() - before))
import json
print(json.dumps([rc, loaded]))
"""

    @pytest.mark.parametrize("argv,want", [
        (["spectrum", "--m", "4", "--n", "4"], [0, ["hashlib", "json"]]),
        (["spectrum", "--m", "4", "--n", "4", "--format", "csv"], [0, ["hashlib", "json"]]),
        (["plateau", "--N", "5", "--R", "1"], [0, ["hashlib", "json"]]),
        (["spectrum", "--m", "1", "--n", "3"], [2, []]),
        (["report", "--specs", ""], [2, []]),
        (["--help"], [0, []]),
        (["--version"], [0, []]),
    ], ids=["spectrum", "spectrum_csv", "plateau", "usage_error", "empty_sweep", "help",
            "version"])
    def test_cheap_paths_load_no_dataclasses(self, argv, want, tmp_path):
        out = [] if argv[0].startswith("--") else ["--out", str(tmp_path / "o")]
        assert run_fresh(self.RECORDS, *argv, *out) == want


class TestLazyLibrary:
    """cli binds the solver library on first use, and a name set on the
    module beforehand (a tracing wrapper, say) is the one its commands call."""

    def test_every_library_name_resolves_before_a_command_runs(self):
        steps = run_fresh("""
import importlib, json, sys
import cjlab.cli as cli
before = "numpy" in sys.modules
wrong = []
for name, (module, attr) in cli._LIBRARY.items():
    want = importlib.import_module(module)
    if getattr(cli, name) is not (want if attr is None else getattr(want, attr)):
        wrong.append(name)
print(json.dumps({"numpy_before": before, "wrong": wrong, "count": len(cli._LIBRARY)}))
""")
        assert steps == {"numpy_before": False, "wrong": [], "count": 15}

    def test_a_wrapper_set_before_first_use_is_called(self, tmp_path):
        steps = run_fresh("""
import json, sys
import cjlab.cli
import cjlab.jacobi
calls = []
def wrapper(cfg, *args, **kwargs):
    calls.append([cfg.spec.m, cfg.spec.n])
    return cjlab.jacobi.solve_jacobi(cfg, *args, **kwargs)
cjlab.cli.solve_jacobi = wrapper
rc = cjlab.cli.main(["jacobi", "--m", "3", "--n", "3", "--s-max", "300", "--grid-step", "1e-3",
                     "--out", sys.argv[1]])
print(json.dumps({"rc": rc, "calls": calls, "kept": cjlab.cli.solve_jacobi is wrapper}))
""", str(tmp_path / "o"))
        assert steps == {"rc": 0, "calls": [[3, 3]], "kept": True}


class TestIOFailures:
    def test_unwritable_out_exits_3_without_manifest(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub"  # mkdir under a file fails
        assert main(["spectrum", "--m", "2", "--n", "2", "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("blocked,reported", [
        (["profile.csv"], "profile.csv"),
        (["jacobi.csv"], "jacobi.csv"),
        (["profile.csv", "jacobi.csv"], "profile.csv"),  # both fail: profile.csv's error
    ])
    def test_jacobi_csv_write_failure_exits_3(self, blocked, reported, tmp_path, capsys):
        """cjl jacobi writes profile.csv, then jacobi.csv: a failed write
        exits 3 with one line, and no thread outlives the run."""
        out = tmp_path / "o"
        for name in blocked:
            (out / name).mkdir(parents=True)  # opening a directory for writing fails
        threads = threading.active_count()
        code = main(["jacobi", "--m", "3", "--n", "3", "--s-max", "300", "--grid-step", "1e-3",
                     "--out", str(out)])
        assert threading.active_count() == threads
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("I/O error:") and reported in err[0]
        assert not (out / "manifest.json").exists()

    def test_jacobi_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main(["jacobi", "--m", "3", "--n", "3", "--s-max", "300",
                     "--out", str(tmp_path / "o")]) == 0


M2N2 = ["--m", "2", "--n", "2"]


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
        assert manifest["metrics"]["psi_atol"] == pytest.approx(1e-20)
        assert manifest["metrics"]["psi_nfev"] > 0
        assert 0.0 < manifest["metrics"]["dpsi_defect"] <= 1e-8

    @staticmethod
    def csv_rows(argv, out):
        assert main([*argv, "--out", str(out)]) == 0
        return [len((out / name).read_text().splitlines()) - 1
                for name in ("jacobi.csv", "profile.csv")]

    def test_default_csvs_hold_every_grid_sample(self, tmp_path):
        argv = ["jacobi", "--m", "3", "--n", "3"]
        samples = len(configure(argv).shooting.grid())
        assert self.csv_rows(argv, tmp_path / "o") == [samples, samples] == [14559, 14559]

    def test_finer_grid_csvs_are_thinned(self, tmp_path):
        """145,576 samples at h = 1e-4: every 8th is written."""
        rows = self.csv_rows(["jacobi", "--m", "3", "--n", "3", "--grid-step", "1e-4"],
                             tmp_path / "o")
        assert rows == [18197, 18197] and max(rows) <= CSV_MAX_ROWS

    @pytest.mark.parametrize("argv,stage", [
        # 16 and 17 samples leave t0 at the first or second one
        *(pytest.param([*M2N2, "--grid-step", h], "breakpoints", id=f"{h}-breakpoints")
          for h in ("1", "0.92")),
        pytest.param([*M2N2, "--grid-step", "0.2"], "near-origin fit", id="0.2-near-origin fit"),
        pytest.param([*M2N2, "--grid-step", "0.5"], "near-origin fit", id="0.5-near-origin fit"),
        pytest.param([*M2N2, "--grid-step", "0.8"], "decay windows", id="0.8-decay windows"),
        # the default near-origin window [10 eps, 100 eps] reaches s = 1
        pytest.param(["--m", "3", "--n", "3", "--eps", "0.02"], "near-origin fit",
                     id="eps0.02-near-origin fit"),
        # p ~ s^{-(n-2)/2} overflows near the axis ...
        *(pytest.param(["--m", "2", "--n", "100", "--eps", eps, "--s-max", "50"],
                       "log-radial transform", id=f"n100-eps{eps}-log-radial")
          for eps in ("1e-7", "1e-8")),
        # ... and p ~ s^{-(N-2)/2} underflows far out, where ftilde = s^2 f / p is inf
        pytest.param(["--m", "2", "--n", "100", "--s-max", "1e7"], "log-radial transform",
                     id="n100-smax1e7-log-radial"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning is a second line
    def test_coarse_grid_exits_4_naming_the_stage(self, argv, stage, tmp_path, capsys):
        assert main(["jacobi", *argv, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and stage in err[0]

    @pytest.mark.parametrize("n,eps", [pytest.param(80, "1e-4", id="n80-eps1e-4"),
                                       pytest.param(100, "1e-6", id="n100-eps1e-6")])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_n_at_small_eps_exits_0_with_finite_outputs(self, n, eps, tmp_path):
        """Here (p / zeta_0)^2 leaves the float range, but only the on-demand
        left pair forms it: psi meets its target and every number written is
        finite."""
        out = tmp_path / "o"
        assert main(["jacobi", "--m", "2", "--n", str(n), "--eps", eps, "--s-max", "50",
                     "--grid-step", "1e-3", "--out", str(out)]) == 0
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        assert metrics["residual_sup"] <= metrics["residual_target"]
        values = [v for value in metrics.values()
                  for v in (value if isinstance(value, list) else [value])]
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
        for name in ("jacobi.csv", "profile.csv"):
            assert np.all(np.isfinite(np.loadtxt(out / name, delimiter=",", skiprows=1)))

    def test_two_ivps_per_run(self, tmp_path, monkeypatch):
        """The profile is integrated once, together with psi; profile.csv is
        written from those samples."""
        from cjlab import dop853 as stepper, jacobi, profile

        calls = []
        run = stepper.dop853
        for module in (profile, jacobi):  # the two callers bind the stepper on import
            monkeypatch.setattr(module, "dop853", lambda *a: calls.append(len(a[1])) or run(*a))
        out = tmp_path / "o"
        assert main(["jacobi", *M2N2, "--s-max", "200", "--out", str(out)]) == 0
        assert calls == [5, 4]  # (a, b, theta, psi, psi'), then the middle pair

    TINY_EPS = [*M2N2, "--eps", "1e-160", "--s-max", "10", "--grid-step", "0.1"]

    @pytest.mark.filterwarnings("error")  # a numpy warning is a second stderr line
    def test_tiny_eps_profile_exits_4_with_one_line(self, tmp_path, capsys):
        """At eps = 1e-160 the curvature overflows near the axis."""
        out = tmp_path / "o"
        assert main(["profile", *self.TINY_EPS, "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical target missed: H-residual")
        # a missed target still ends the run: the manifest covers the data file
        checksums = json.loads((out / "manifest.json").read_text())["checksums"]
        assert checksums == {"profile.csv": hashlib.sha256(
            (out / "profile.csv").read_bytes()).hexdigest()}

    @pytest.mark.filterwarnings("error")
    def test_tiny_eps_jacobi_exits_4_with_one_line(self, tmp_path, capsys):
        """psi's atol 1e-14 eps^2 underflows to 0, so its first step size is
        NaN; the stepper stops there instead of looping on NaN."""
        assert main(["jacobi", *self.TINY_EPS, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["integration failure: psi solve for (m,n)=(2,2) stopped at s=1e-160: "
                       "non-finite step size"]

    def test_profile_h_residual_target(self, tmp_path, capsys):
        """The profile.csv a jacobi run writes meets the H-residual target of
        cjl profile, at eps = 1e-8 too, where a float phi put 1.6e-4 at
        s = eps; a grid too coarse for its finite difference misses it,
        while psi's residual still meets its own target there."""
        argv = ["jacobi", "--m", "3", "--n", "3", "--eps", "1e-8", "--s-max", "300"]
        out = tmp_path / "o"
        assert main([*argv, "--grid-step", "1e-3", "--out", str(out)]) == 0
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        assert metrics["H_residual_sup"] <= 1e-7
        capsys.readouterr()
        out = tmp_path / "coarse"
        assert main([*argv, "--grid-step", "0.05", "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.fullmatch(
            r"numerical target missed: H-residual \S+ exceeds 1e-7", err[0])
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        assert metrics["H_residual_sup"] > 1e-7
        assert metrics["residual_sup"] <= metrics["residual_target"]

    @pytest.mark.parametrize("grid_step,code", [("1e-3", 0), ("1e-2", 0)])
    def test_tiny_eps_psi_solve_finishes(self, grid_step, code, tmp_path, capsys):
        """At eps = 1e-13 the psi solve takes under 10,000 evaluations (with a
        float phi it ran out its 500,000), and meets its residual target on
        the grid h = 1e-2 too, where two centred differences of the psi
        samples read 4.9e-5 against 2.1e-6."""
        out = tmp_path / "o"
        assert main(["jacobi", "--m", "3", "--n", "3", "--eps", "1e-13", "--s-max", "50",
                     "--grid-step", grid_step, "--out", str(out)]) == code
        assert capsys.readouterr().err == ""
        assert json.loads((out / "manifest.json").read_text())["metrics"]["psi_nfev"] < 10_000

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

    @pytest.mark.parametrize("N,R,code", [(3, 5e-310, 0), (140, 1.0, 4)])
    @pytest.mark.filterwarnings("error::RuntimeWarning", "error::UserWarning")
    def test_subnormal_fit_samples_run(self, N, R, code, tmp_path):
        # zeta_0 is subnormal but nonzero in the fit window; the fit still runs
        # (a NaN flux residual exits 4)
        assert main(["plateau", "--N", str(N), "--R", repr(R), "--out", str(tmp_path / "o")]) == code

    @pytest.mark.filterwarnings("error::RuntimeWarning", "error::UserWarning")
    def test_flux_overflow_exits_4_on_nan(self, tmp_path, capsys):
        # past r ~ 1e77, r^(N-1) = r^4 is inf where v' = -q/sqrt(1 - q^2) has
        # underflowed to -0, and inf * -0 is NaN; the scaled form (r/R)^4 v'
        # is the same product there, so it would not remove the NaN
        assert main(["plateau", "--N", "5", "--r-max", "1e100",
                     "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "numerical target missed: flux residual nan exceeds 1.0e-10"]

    def test_bad_geometry_exits_2(self, tmp_path):
        assert main(["plateau", "--N", "3", "--R", "5", "--r-max", "2",
                     "--out", str(tmp_path / "o")]) == 2

    def test_wall_time_covers_the_input_check(self, tmp_path, monkeypatch):
        """The plateau graph is built while the inputs are checked; the
        manifest's wall time counts it."""
        import cjlab.cli

        plateau_profile = cjlab.cli.plateau_profile
        monkeypatch.setattr(cjlab.cli, "plateau_profile",
                            lambda *args: time.sleep(0.2) or plateau_profile(*args))
        out = tmp_path / "o"
        assert main(["plateau", "--N", "3", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["wall_time_s"] >= 0.2


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

    def test_fit_is_an_object_per_row(self, tmp_path):
        out = tmp_path / "o"
        assert main(["report", "--specs", "2,2;4,4", "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert [row["fit"]["oscillatory"] for row in rows] == [True, False]
        for row in rows:
            assert set(row["fit"]) == {"exponent", "log_coeff", "window", "residual_rms",
                                       "oscillatory", "nearest_root", "gap"}

    def test_manifest_hashes_every_profile(self, tmp_path):
        out = tmp_path / "o"
        assert main(["report", "--specs", "4,4;5,5", "--out", str(out)]) == 0
        checksums = json.loads((out / "manifest.json").read_text())["checksums"]
        assert set(checksums) == {"report.json", "m4n4/profile.csv", "m5n5/profile.csv"}
        for name, digest in checksums.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("specs,window", [("4,4", (50.0, 200.0)), ("2,2", (5.0, 3.0e5))])
    def test_fit_window_check_at_its_edge(self, specs, window, tmp_path):
        # the largest grid_step the check accepts leaves the fit 20 samples
        edge = math.log(window[1] / window[0]) / 20
        argv = ["report", "--specs", specs, "--out", str(tmp_path / "o"), "--grid-step"]
        assert main(argv + [repr(edge)]) in (0, 4)
        assert main(argv + [repr(edge * 1.001)]) == 2

    def test_empty_sweep_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("specs =\n")
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_bad_sweep_entry_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("specs = 2,2;9\n")
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
