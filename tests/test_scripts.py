"""Smoke test of the study scripts: each ``main`` runs in-process and returns."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name,argv", [
    ("jacobi_decay_study", ["--m", "3", "--n", "3", "--s-max", "50"]),
    ("plateau_study", []),
])
def test_script_runs(name, argv, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(argv)
    assert capsys.readouterr().out
