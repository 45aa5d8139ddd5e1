"""The accepted input range is the tested range: ``ShootingConfig`` takes
m, n <= 100, and a fixed sample of that range runs through the CLI at its
defaults with every numerical target met."""

import tempfile

import pytest

from cjlab.cli import main
from cjlab.profile import MAX_SHOOTING_DIMENSION

#: m and n on a roughly geometric ladder from 2 to MAX_SHOOTING_DIMENSION
LADDER = (2, 3, 5, 8, 11, 16, 25, 40, 64, 100)
#: all pairs of the ladder, plus m = n + 1 specs along the range, where the
#: psi solve is hardest: 107 specs
SAMPLE = tuple((m, n) for m in LADDER for n in LADDER) + (
    (11, 10), (12, 11), (17, 16), (21, 20), (26, 25), (51, 50), (100, 99))


def test_sample_spans_the_accepted_range():
    assert len(set(SAMPLE)) == 107
    assert max(max(spec) for spec in SAMPLE) == MAX_SHOOTING_DIMENSION


def test_report_over_the_sample_exits_0(capsys):
    """Every profile the report writes meets the H-residual target."""
    specs = ";".join(f"{m},{n}" for m, n in SAMPLE)
    with tempfile.TemporaryDirectory() as out:  # 107 profile.csv files, about 160 MB
        code = main(["report", "--specs", specs, "--out", out])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("m,n", [(17, 16), (21, 20), (26, 25), (51, 50), (100, 99)])
def test_jacobi_on_the_m_is_n_plus_1_edge_exits_0(m, n, tmp_path, capsys):
    code = main(["jacobi", "--m", str(m), "--n", str(n), "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err


def test_profile_at_the_n_100_edge_exits_0(tmp_path, capsys):
    code = main(["profile", "--m", "2", "--n", "100", "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
