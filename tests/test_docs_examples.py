"""Every config in docs/ must run verbatim through the CLI, and the README's Python quick tour as written."""

import json
import re
import shutil
from pathlib import Path

import pytest

from spectralhom.cli import main

DOCS = Path(__file__).parent.parent / "docs"
README = DOCS.parent / "README.md"


_COUNTER = [0]


def _run_from_copy(tmp_path, name, command):
    # copy the docs tree so outputs land in a scratch directory
    _COUNTER[0] += 1
    work = tmp_path / f"docs{_COUNTER[0]}"
    shutil.copytree(DOCS, work)
    assert main([command, str(work / name)]) == 0
    return work


@pytest.mark.parametrize(
    "name",
    [
        "laminate_solve.json",
        "inclusion_dlvp_solve.json",
        "checkerboard_bspline_solve.json",
        "neutral_coated_disk_solve.json",
        "ellipsoid_3d_solve.json",
    ],
)
def test_solve_examples(tmp_path, name, capsys):
    work = _run_from_copy(tmp_path, name, "solve")
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    out = json.loads((work / name).read_text())["output"]
    for artifact in out.values():
        assert (work / artifact).exists()


def test_sweep_example(tmp_path, capsys):
    work = _run_from_copy(tmp_path, "sweep_alpha.json", "sweep-alpha")
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_e_eff"] <= doc["dirichlet_e_eff"]
    assert (work / "out/sweep_report.json").exists()



def test_variational_solves_converge_quickly(tmp_path, capsys):
    # VE on the compatible table takes a few dozen iterations; on the paper's class-sum table
    # off the Dirichlet space it drifted for hundreds (476 on the dlvp inclusion)
    _run_from_copy(tmp_path, "inclusion_dlvp_solve.json", "solve")
    solve = json.loads(capsys.readouterr().out)
    _run_from_copy(tmp_path, "sweep_alpha.json", "sweep-alpha")
    sweep = json.loads(capsys.readouterr().out)
    runs = [solve] + [run for axis in sweep["trace"] for run in axis["evaluations"]]
    runs += [sweep["best_evaluation"], sweep["dirichlet_evaluation"]]
    assert solve["scheme"] == "ve_krylov" and len(runs) == 27
    assert all(run["converged"] and run["iterations"] <= 40 for run in runs)


def test_readme_quick_tour_runs(capsys):
    # the one fenced python block of the README, executed as written
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(tour, str(README), "exec"), {})
    converged, iterations = capsys.readouterr().out.split()[:2]
    assert converged == "True" and int(iterations) > 1
