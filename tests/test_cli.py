import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from spectralhom import PatternMatrix, bspline_rule, cli, geometry, laminate_reference, orthonormalize, read_field, solver
from spectralhom.cli import (
    golden_section,
    main,
    pattern_info,
    run_solve,
    sweep_alpha,
    write_gray_image,
)
from spectralhom.errors import ConfigError
from spectralhom.geometry import IsoPhase, Laminate
from spectralhom.translates import _BSPLINE_MAX_ORDER

from oracles import kept_shifts, omitted_class_share, read_gray_image


def _laminate_config(tmp_path, **overrides):
    config = {
        "pattern_matrix": [[8, 0], [0, 8]],
        "generator": {"kind": "dirichlet"},
        "microstructure": {
            "kind": "laminate",
            "axis": 0,
            "fraction": 0.5,
            "phases": [{"lambda": 1.0, "mu": 1.0}, {"lambda": 2.0, "mu": 2.0}],
        },
        "loading": [1.0, 0.0, 0.0],
        "solver": {"scheme": "ls_fixed_point", "tolerance": 1e-10, "max_iterations": 5000},
        "output": {
            "report": "out/report.json",
            "strain_field": "out/strain.pfld",
            "residuals": "out/residuals.csv",
        },
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def _docs_config(tmp_path, name, **overrides):
    """A docs/ config copied into ``tmp_path``, its outputs landing there."""
    config = json.loads((Path(__file__).parents[1] / "docs" / name).read_text())
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def _write_laminate_reference(tmp_path, matrix_rows, with_strain=True):
    from spectralhom.geometry import write_field

    M = PatternMatrix.from_any(matrix_rows)
    lam = Laminate(axis=0, fraction=0.5, phases=(IsoPhase(1, 1), IsoPhase(2, 2)))
    ref = laminate_reference(lam, M, np.array([1.0, 0.0, 0.0]))
    doc = {"effective_action": ref.effective_action.tolist()}
    if with_strain:
        write_field(tmp_path / "ref_strain.pfld", M, ref.strain)
        doc["strain_field"] = "ref_strain.pfld"
    (tmp_path / "reference.json").write_text(json.dumps(doc))
    return "reference.json"


class TestRunSolve:
    def test_homogeneous_zero_fluctuation(self, tmp_path):
        path = _laminate_config(
            tmp_path,
            microstructure={
                "kind": "laminate",
                "axis": 0,
                "fraction": 0.5,
                "phases": [{"lambda": 2.0, "mu": 2.0}, {"lambda": 2.0, "mu": 2.0}],
            },
        )
        code, doc = run_solve(path)
        assert code == 0
        assert doc["converged"] is True
        # homogeneous: effective action equals the phase stiffness action
        assert abs(doc["effective_action"][0] - 6.0) < 1e-12
        strain = read_field(tmp_path / "out/strain.pfld")[1]
        assert np.abs(strain).max() < 1e-12

    def test_artifacts_written(self, tmp_path):
        ref = _write_laminate_reference(tmp_path, [[8, 0], [0, 8]])
        path = _laminate_config(
            tmp_path,
            reference_values=ref,
            output={
                "report": "out/report.json",
                "strain_field": "out/strain.pfld",
                "residuals": "out/residuals.csv",
                "elog_image": "out/elog.pgm",
            },
        )
        code, doc = run_solve(path)
        assert code == 0
        report = json.loads((tmp_path / "out/report.json").read_text())
        assert report["metrics"]["e_eff"] < 1e-9  # laminate solve is nodally exact
        lines = (tmp_path / "out/residuals.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,residual"
        assert len(lines) == report["iterations"] + 1
        img = read_gray_image(tmp_path / "out/elog.pgm")
        assert img.shape == (8, 8)  # Smith raster of diag(8, 8)

    @pytest.mark.parametrize("with_reference", [False, True], ids=["no-reference", "action-only"])
    def test_elog_image_needs_a_strain_reference(self, tmp_path, with_reference):
        overrides = {"output": {"report": "out/report.json", "elog_image": "out/elog.pgm"}}
        if with_reference:
            overrides["reference_values"] = _write_laminate_reference(tmp_path, [[8, 0], [0, 8]], with_strain=False)
        code, doc = run_solve(_laminate_config(tmp_path, **overrides))
        assert code == 0
        assert doc["artifacts"] == {"elog_image": None}
        assert json.loads((tmp_path / "out/report.json").read_text())["artifacts"] == {"elog_image": None}
        assert not (tmp_path / "out/elog.pgm").exists()

    def test_green_table_truncation_reported(self, tmp_path):
        path = _laminate_config(tmp_path)
        _, doc = run_solve(path)
        assert doc["green"] == {"periods": 0, "tail_estimate": 0.0, "shifts": 1}  # finite Dirichlet support
        path = _laminate_config(tmp_path, generator={"kind": "bspline", "order": 2}, green_periods=3)
        _, doc = run_solve(path)
        report = json.loads((tmp_path / "out/report.json").read_text())
        assert report["green"] == doc["green"]
        assert report["green"]["periods"] == 3
        # the largest share of a stored class's orthonormal weight left outside the shifts summed in |z|_inf <= 3
        rule = orthonormalize(bspline_rule(PatternMatrix.from_any([[8, 0], [0, 8]]), 2))
        shifts = kept_shifts(rule, 3)
        assert report["green"]["shifts"] == len(shifts) < 49
        tail = omitted_class_share(rule, 3, shifts)
        assert abs(report["green"]["tail_estimate"] - tail) < 1e-12
        assert tail > 0.0

    def test_one_class_pattern_reports_no_tail(self, tmp_path):
        # only h = 0 is stored, and its entry is zero: nothing to truncate
        path = _laminate_config(tmp_path, pattern_matrix=[[1, 0], [0, 1]], generator={"kind": "bspline", "order": 2})
        assert main(["solve", str(path)]) == 0
        report = json.loads((tmp_path / "out/report.json").read_text())
        assert report["green"] == {"periods": 8, "tail_estimate": 0.0, "shifts": 0}

    @pytest.mark.parametrize("generator", [{"kind": "bspline", "order": 2}, {"kind": "dlvp", "alpha": [0.4, 0.3]}])
    def test_truncation_below_support_rejected(self, tmp_path, capsys, generator):
        path = _laminate_config(tmp_path, generator=generator, green_periods=0)
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: green table: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_exit_code_on_nonconvergence(self, tmp_path):
        # a checkerboard needs more than two fixed-point sweeps
        path = _laminate_config(
            tmp_path,
            microstructure={
                "kind": "voxel_map",
                "grid": [[0, 1], [1, 0]],
                "phase_table": [{"lambda": 1.0, "mu": 1.0}, {"lambda": 2.0, "mu": 2.0}],
            },
            solver={"scheme": "ls_fixed_point", "tolerance": 1e-12, "max_iterations": 2},
        )
        code, doc = run_solve(path)
        assert code == 2
        assert doc["converged"] is False
        # partial artifacts still exist
        assert (tmp_path / "out/strain.pfld").exists()

    def test_invalid_config_raises(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"pattern_matrix": [[8, 0], [0, 8]]}))
        with pytest.raises(ConfigError):
            run_solve(path)

    def test_stage_errors_carry_stage_names(self, tmp_path):
        path = _laminate_config(tmp_path, generator={"kind": "wavelet"})
        with pytest.raises(ConfigError, match="generator"):
            run_solve(path)
        path = _laminate_config(tmp_path, pattern_matrix=[[1, 1], [1, 1]])
        with pytest.raises(ConfigError, match="pattern matrix"):
            run_solve(path)
        path = _laminate_config(tmp_path, reference_values="missing.json")
        with pytest.raises(ConfigError, match="reference ingestion"):
            run_solve(path)

    def test_refused_allocation_is_a_stage_error(self, tmp_path, capsys, monkeypatch):
        # numpy raises MemoryError when it cannot allocate a field (a 10^12-node pattern does this in stiffness
        # sampling): exit 1 naming the stage, no traceback; raised here without allocating
        def refused(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

        monkeypatch.setattr(geometry, "sample_stiffness", refused)
        path = _laminate_config(tmp_path, pattern_matrix=[[1000000, 0], [0, 1000000]])
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stiffness sampling: Unable to allocate") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, overrides, stage",
        [
            ("solve", {"reference_values": "taken"}, "reference ingestion"),
            ("solve", {"reference_values": "taken_strain.json"}, "reference ingestion"),
            ("solve", {"output": {"report": "taken"}}, "artifacts"),
            ("solve", {"output": {"strain_field": "taken"}}, "artifacts"),
            ("solve", {"output": {"residuals": "taken"}}, "artifacts"),
            (
                "sweep-alpha",
                {"reference_values": "reference.json", "sweep": {"budget": 2}, "output": {"sweep_report": "taken"}},
                "sweep report",
            ),
        ],
        ids=["reference_values", "reference_strain_field", "report", "strain_field", "residuals", "sweep_report"],
    )
    def test_io_errors_name_the_stage(self, tmp_path, capsys, command, overrides, stage):
        # a path read or written after the config is parsed is a directory: exit 1, one line naming the stage
        (tmp_path / "taken").mkdir()
        (tmp_path / "taken_strain.json").write_text(json.dumps({"strain_field": "taken"}))
        _write_laminate_reference(tmp_path, [[8, 0], [0, 8]], with_strain=False)
        path = _laminate_config(tmp_path, **overrides)
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stage}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_determinism_byte_identical(self, tmp_path):
        ref = _write_laminate_reference(tmp_path, [[8, 0], [0, 8]])
        path = _laminate_config(tmp_path, reference_values=ref)
        run_solve(path)
        report1 = json.loads((tmp_path / "out/report.json").read_text())
        strain1 = (tmp_path / "out/strain.pfld").read_bytes()
        run_solve(path)
        report2 = json.loads((tmp_path / "out/report.json").read_text())
        strain2 = (tmp_path / "out/strain.pfld").read_bytes()
        report1.pop("timing")
        report2.pop("timing")
        assert json.dumps(report1, sort_keys=True) == json.dumps(report2, sort_keys=True)
        assert strain1 == strain2

    def test_determinism_across_processes(self, tmp_path):
        import os
        import subprocess
        import sys

        import spectralhom

        ref = _write_laminate_reference(tmp_path, [[8, 0], [0, 8]])
        path = _laminate_config(tmp_path, reference_values=ref)
        # the child must import this checkout whether or not PYTHONPATH names it
        env = dict(os.environ, PYTHONPATH=str(Path(spectralhom.__file__).parents[1]))

        def run_once():
            proc = subprocess.run(
                [sys.executable, "-m", "spectralhom.cli", "solve", str(path)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            report = json.loads((tmp_path / "out/report.json").read_text())
            report.pop("timing")
            return json.dumps(report, sort_keys=True), (tmp_path / "out/strain.pfld").read_bytes()

        assert run_once() == run_once()

    def test_cli_entry_point(self, tmp_path, capsys):
        path = _laminate_config(tmp_path)
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["converged"] is True

    def test_cli_error_exit(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["solve", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_benchmark_tracer_wraps_a_solve(self, tmp_path):
        # perfbench/tracer.py patches package attributes by name: renaming or deleting one fails here
        spec = importlib.util.spec_from_file_location("tracer", Path(__file__).parents[1] / "perfbench" / "tracer.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        originals = (cli.run_solve, solver.apply_stiffness, solver._green_convolve)
        # the complex path (Dirichlet laminate: the loop on the strain) and the real path (docs B-spline checkerboard:
        # the loop with pre-images)
        configs = {
            False: _laminate_config(tmp_path),
            True: _docs_config(tmp_path, "checkerboard_bspline_solve.json"),
        }
        for real, config in configs.items():
            tracer = tracing.Tracer()
            try:
                read_layers = tracing.install(tracer)
                code, doc = cli.run_solve(config)
                layers = read_layers()
            finally:
                tracer.restore()
            assert code == 0
            assert doc["diagnostics"]["real_fields"] is real
            assert (cli.run_solve, solver.apply_stiffness, solver._green_convolve) == originals
            assert layers["cli.solves"] == layers["elasticity.green_table_calls"] == 1
            # b and each later iteration run one convolution, and each refresh two (E <- G C0 E, or zeta_E into E, and
            # the residual)
            convolutions = doc["iterations"] + 2 * doc["diagnostics"]["residual_refreshes"]
            assert sum(doc["diagnostics"]["green_convolutions"].values()) == convolutions
            assert layers["solver.operator_applications"] == convolutions
            # each convolution runs two transforms; on the real path iteration 1 and each refresh also form the
            # pre-image zeta by one inverse transform
            pre_images = 1 + doc["diagnostics"]["residual_refreshes"] if real else 0
            assert layers["pfft.calls"] == 2 * convolutions + pre_images

    def test_diagnostics_report_real_fields(self, tmp_path):
        _, doc = run_solve(_laminate_config(tmp_path))
        assert doc["diagnostics"]["real_fields"] is False  # Dirichlet, even pattern
        _, doc = run_solve(_laminate_config(tmp_path, generator={"kind": "bspline", "order": 2}))
        report = json.loads((tmp_path / "out/report.json").read_text())
        assert report["diagnostics"] == doc["diagnostics"]
        assert report["diagnostics"].keys() == {"real_fields", "residual_refreshes", "green_convolutions"}
        assert report["diagnostics"]["real_fields"] is True
        # the converged tol 1e-10 solve ends on a float64 refresh, which recomputes the last residual
        refreshes = report["diagnostics"]["residual_refreshes"]
        assert 1 <= refreshes < report["iterations"]
        # b and each refresh's two convolutions (the bspline2 table runs the loop with pre-images) run in float64,
        # every later iteration's in float32
        single, double = report["iterations"] - 1, 1 + 2 * refreshes
        assert report["diagnostics"]["green_convolutions"] == {"single": single, "double": double}
        assert report["nyquist_imbalance"] == 0.0

    @pytest.mark.parametrize("scheme", ["ls_fixed_point", "ve_krylov"])
    def test_both_schemes_build_their_table_from_the_raw_rule(self, tmp_path, monkeypatch, scheme):
        # neither table reads the orthonormal class scales, so no solve orthonormalises its rule; VE builds the
        # compatible table (no truncation), never the class-sum table
        def no_paper_table(*args, **kwargs):
            raise AssertionError("ve_krylov built the periodised class-sum table")

        def no_scales(*args, **kwargs):
            raise AssertionError(f"{scheme} orthonormalised its rule")

        if scheme == "ve_krylov":
            monkeypatch.setattr(cli, "periodized_green", no_paper_table)
        monkeypatch.setattr(cli, "orthonormalize", no_scales)
        path = _laminate_config(
            tmp_path, generator={"kind": "bspline", "order": 2}, solver={"scheme": scheme, "tolerance": 1e-10}
        )
        code, doc = run_solve(path)
        assert code == 0 and doc["scheme"] == scheme
        if scheme == "ve_krylov":
            assert doc["green"] == {"periods": None, "tail_estimate": 0.0, "shifts": None}
        else:
            assert doc["green"]["periods"] == 8 and doc["green"]["tail_estimate"] > 0.0
        assert doc["diagnostics"]["real_fields"] is True

    def test_green_periods_rejected_for_ve(self, tmp_path, capsys):
        path = _laminate_config(tmp_path, green_periods=3, solver={"scheme": "ve_krylov"})
        with pytest.raises(ConfigError, match="'green_periods'"):
            run_solve(path)
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config 'green_periods': ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_bspline_order_above_the_limit_rejected(self, tmp_path, capsys):
        order = _BSPLINE_MAX_ORDER + 1  # the first order whose class sums miss 1e-10
        path = _laminate_config(tmp_path, generator={"kind": "bspline", "order": order})
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: generator: B-spline order {order} is above ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


def _with(config, path, value):
    """Copy of ``config`` with the value at the key path ``path`` replaced (None deletes it)."""
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return config


_INCLUSION = {
    "kind": "inclusion",
    "semi_axes": [1.0, 0.8],
    "phases": {"inclusion": {"lambda": 2.0, "mu": 2.0}, "matrix": {"lambda": 1.0, "mu": 1.0}},
}
_NAN = float("nan")
_PHASES = [{"lambda": 1.0, "mu": 1.0}, {"lambda": 2.0, "mu": 2.0}]
_HASHIN = {
    "kind": "hashin_ellipses",
    "core_semi_axes": [0.3, 0.2],
    "coating_semi_axes": [0.5, 0.4472135954999579],
    "phases": {"core": _PHASES[0], "coating": _PHASES[1], "matrix": _PHASES[0]},
}


class TestConfigValidation:
    """Malformed configs exit 1 with a one-line error before any solve."""

    @pytest.mark.parametrize(
        "edits, reference, named",
        [
            ({("solver", "tolerance"): "abc"}, None, "'tolerance'"),
            ({("solver", "max_iterations"): 2.5}, None, "'max_iterations'"),
            ({("solver", "max_iterations"): True}, None, "'max_iterations'"),
            ({("sampling",): "node"}, None, "'sampling'"),
            ({("microstructure", "fraction"): None}, None, "'fraction'"),
            ({("microstructure",): _with(_INCLUSION, ("phases",), None)}, None, "'phases'"),
            ({("generator",): {"kind": "bspline", "order": "x"}}, None, "'order'"),
            ({("generator",): {"kind": "bspline", "order": 2.7}}, None, "'order'"),
            ({("green_periods",): "3"}, None, "'green_periods'"),
            ({("output", "report"): 5}, None, "'report'"),
            ({("pattern_matrix",): "abc"}, None, "pattern matrix"),
            ({("pattern_matrix",): [[[8, 0], [0, 8]]]}, None, "pattern matrix"),
            ({("microstructure",): {"kind": "voxel_map", "grid": [[0, 1], [1]], "phase_table": [
                {"lambda": 1.0, "mu": 1.0}, {"lambda": 2.0, "mu": 2.0}]}}, None, "voxel grid"),
            ({}, {"effective_action": ["a", 0, 0]}, "'effective_action'"),
            ({}, {"effective_action": [_NAN, 0.0, 0.0]}, "'effective_action'"),
            ({}, {"effective_action": [float("inf"), 0.0, 0.0]}, "'effective_action'"),
            ({("reference_stiffness",): {"lambda": 1.0}}, None, "'lambda' and 'mu'"),
            ({("reference_stiffness",): {"mu": 1.0}}, None, "'lambda' and 'mu'"),
            ({("solvr",): {}}, None, "'solvr'"),
            ({("loading",): [_NAN, 0.0, 0.0]}, None, "'loading'"),
            ({("loading",): [float("inf"), 0.0, 0.0]}, None, "'loading'"),
            ({("microstructure", "phases", 1, "mu"): float("inf")}, None, "'mu'"),
            ({("microstructure", "phases", 0, "lambda"): _NAN}, None, "'lambda'"),
            ({("microstructure",): _with(_INCLUSION, ("semi_axes",), [1.0, 0.8, 0.6])}, None, "stiffness sampling"),
            ({("log_error_form",): "product"}, None, "'log_error_form'"),
            ({("loading",): [1.0, 0.0]}, None, "config 'loading': expected 3"),
            ({("loading",): [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]}, None, "config 'loading': expected 3"),
            ({("microstructure",): _with(_INCLUSION, ("shape",), "star")}, None, "microstructure: unknown"),
            ({("microstructure",): {**_INCLUSION, "shape": "box", "semi_axes": [1.0, 0.0]}}, None, "half-widths"),
            ({("reference_stiffness",): {"rule": "phase_mean", "lambda": 1.0, "mu": 1.0}}, None, "not both"),
            ({("reference_stiffness",): {"rule": "voigt"}}, None, "config 'reference_stiffness': unknown rule 'voigt'"),
            ({("sampling",): {"mode": "corner"}}, None, "stiffness sampling: unknown sampling mode 'corner'"),
            ({("sampling",): {"mode": "cell_average", "subsamples": 0}}, None, "stiffness sampling: cell averaging"),
            ({}, {"strain_field": "nope.pfld"}, "reference ingestion: field file "),
            ({}, {"strain_field": "junk.pfld"}, "junk.pfld: not a PFLD file"),
            ({}, {"strain_field": "v7.pfld"}, "v7.pfld: unsupported PFLD version 7"),
            ({}, {"effective_action": [1.0, 0.0]}, "reference.json: effective action must have 3 components"),
            ({}, {"strain_field": "six.pfld"}, "six.pfld: field has 6 components, expected 3"),
            ({("microstructure", "axis"): 2}, None, "stiffness sampling: laminate axis 2 is not in 0..1"),
            (
                {("microstructure",): _with(_INCLUSION, ("semi_axes",), [1.0, -0.5])},
                None,
                "microstructure: semi-axes must be 2 positive numbers",
            ),
            (
                {("microstructure",): {**_INCLUSION, "semi_axes": [0.3, 0.2, 0.1], "rotation": 0.3}},
                None,
                "microstructure: rotation is only supported for planar ellipses",
            ),
            ({("microstructure",): {**_HASHIN, "center": [0.0, 0.0, 0.0]}}, None, "microstructure: the confocal"),
            ({("microstructure",): {**_HASHIN, "core_semi_axes": [0.3, 0.2, 0.1]}}, None, "two semi-axes each"),
            (
                {("microstructure",): {"kind": "voxel_map", "grid": [[0, 1.5], [1, 0]], "phase_table": _PHASES}},
                None,
                "microstructure: voxel grid entries must be integer phase ids",
            ),
        ],
    )
    def test_rejected_before_solving(self, tmp_path, capsys, edits, reference, named):
        from spectralhom.geometry import write_field

        # reference strain fields for the ingestion cases: one of version 7, one of 6 components, one not a PFLD file
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        for name, values in (("v7.pfld", np.ones((M.m, 3))), ("six.pfld", np.ones((M.m, 6)))):
            write_field(tmp_path / name, M, values)
        data = bytearray((tmp_path / "v7.pfld").read_bytes())
        data[4:8] = (7).to_bytes(4, "little")  # the header's version field
        (tmp_path / "v7.pfld").write_bytes(bytes(data))
        (tmp_path / "junk.pfld").write_bytes(b"JUNK" * 8)
        config = json.loads(_laminate_config(tmp_path).read_text())
        for path, value in edits.items():
            config = _with(config, path, value)
        if reference is not None:
            (tmp_path / "reference.json").write_text(json.dumps(reference))
            config["reference_values"] = "reference.json"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert named in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()  # nothing was solved or written

    @pytest.mark.parametrize("reference", [{"effective_action": [0, 0, 0]}, {"strain_field": "zero.pfld"}])
    def test_zero_reference_rejected_at_ingestion(self, tmp_path, capsys, monkeypatch, reference):
        # the docs laminate against an all-zero reference: exit 1 naming the file, before any solve
        from spectralhom.geometry import write_field

        write_field(tmp_path / "zero.pfld", PatternMatrix.from_any([[32, 0], [0, 32]]), np.zeros((1024, 3)))
        (tmp_path / "reference.json").write_text(json.dumps(reference))
        path = _docs_config(tmp_path, "laminate_solve.json", reference_values="reference.json")

        def no_solve(*args):
            raise AssertionError("solved against a zero reference")

        monkeypatch.setattr(cli, "periodized_green", no_solve)
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: reference ingestion: ") and err.count("\n") == 1
        named = "reference.json" if "effective_action" in reference else "zero.pfld"
        assert f"{named}: reference " in err and "is zero" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bare", [False, True], ids=["json", "pfld"])
    def test_frequency_domain_reference_strain_rejected(self, tmp_path, capsys, bare):
        from spectralhom.geometry import DOMAIN_FREQUENCY, write_field

        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        write_field(tmp_path / "spectrum.pfld", M, np.ones((64, 3)), DOMAIN_FREQUENCY)
        (tmp_path / "reference.json").write_text(json.dumps({"strain_field": "spectrum.pfld"}))
        path = _laminate_config(tmp_path, reference_values="spectrum.pfld" if bare else "reference.json")
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: reference ingestion: ") and err.count("\n") == 1
        assert "spectrum.pfld: reference strain field is not in the space domain" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scheme", ["ls_fixed_point", "ve_krylov"])
    def test_overflowing_loading_stops_unconverged(self, tmp_path, scheme):
        # finite input whose products overflow: the first non-finite residual
        # or curvature ends the solve instead of iterating to max_iterations
        path = _laminate_config(
            tmp_path, loading=[1e308, 1e308, 0.0], solver={"scheme": scheme, "max_iterations": 5000}
        )
        with np.errstate(all="ignore"):
            assert main(["solve", str(path)]) == 2
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["converged"] is False
        assert 1 <= doc["iterations"] <= 2

    @pytest.mark.parametrize("scheme", ["ls_fixed_point", "ve_krylov"])
    def test_overflowing_loading_writes_strict_json(self, tmp_path, capsys, scheme):
        # the stop shows only as converged: false and exit 2; non-finite
        # numbers are written as null and no overflow warning is printed
        path = _laminate_config(
            tmp_path, loading=[1e308, 1e308, 0.0], solver={"scheme": scheme, "max_iterations": 5000}
        )

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert "RuntimeWarning" not in captured.err
        printed = json.loads(captured.out, parse_constant=reject)
        written = json.loads((tmp_path / "out" / "report.json").read_text(), parse_constant=reject)
        assert printed == written
        assert written["converged"] is False
        assert written["final_residual"] is None

    def test_stage_times_reported(self, tmp_path):
        # both schemes time the same stages: VE's table needs no orthonormalisation stage
        for scheme in ("ls_fixed_point", "ve_krylov"):
            _, doc = run_solve(_laminate_config(tmp_path, solver={"scheme": scheme}))
            report = json.loads((tmp_path / "out/report.json").read_text())
            for stages in (doc["timing"]["stages"], report["timing"]["stages"]):
                assert set(stages) == {"stiffness_sampling", "generator", "green_table", "solve"}
                assert all(seconds >= 0.0 for seconds in stages.values())
            assert report["timing"]["wall_s"] == report["timing"]["stages"]["solve"]

    @pytest.mark.parametrize("target", ["config", "reference"])
    def test_invalid_utf8_rejected(self, tmp_path, capsys, target):
        ref = _write_laminate_reference(tmp_path, [[8, 0], [0, 8]], with_strain=False)
        path = _laminate_config(tmp_path, reference_values=ref)
        damaged = path if target == "config" else tmp_path / ref
        damaged.write_bytes(damaged.read_bytes().replace(b"{", b"{\xff", 1))
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "UTF-8" in err
        assert not (tmp_path / "out").exists()

    def test_documented_defaults_and_nulls_accepted(self, tmp_path):
        path = _laminate_config(
            tmp_path,
            green_periods=None,
            reference_stiffness={"lambda": 1.5, "mu": 1.5},
            sampling={"mode": "cell_average"},
            solver={},
        )
        code, doc = run_solve(path)
        assert code == 0
        assert doc["tolerance"] == 1e-8


class TestGoldenSection:
    def test_finds_quadratic_minimum(self):
        trace_budget = 16
        x, fx, trace, constant = golden_section(lambda t: (t - 0.31) ** 2, 0.0, 1.0, trace_budget)
        assert not constant
        assert len(trace) == trace_budget
        # bracket contracts by the golden ratio per evaluation after the first
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        assert abs(x - 0.31) < phi ** (trace_budget - 2)

    def test_constant_objective_returns_midpoint(self):
        x, fx, trace, constant = golden_section(lambda t: 7.5, 0.2, 0.8, 10)
        assert constant
        assert x == pytest.approx(0.5)

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            golden_section(lambda t: t, 0.0, 1.0, 1)


class TestSweepAlpha:
    def test_requires_reference(self, tmp_path):
        path = _laminate_config(tmp_path, sweep={"axes": [1], "budget": 4})
        with pytest.raises(ConfigError):
            sweep_alpha(path)

    def test_homogeneous_objective_flagged_constant(self, tmp_path):
        # identical phases: e_eff is zero for every alpha
        ref = _write_laminate_reference(tmp_path, [[8, 0], [0, 8]], with_strain=False)
        path = _laminate_config(
            tmp_path,
            microstructure={
                "kind": "laminate",
                "axis": 0,
                "fraction": 0.5,
                "phases": [{"lambda": 1.0, "mu": 1.0}, {"lambda": 2.0, "mu": 2.0}],
            },
            reference_values=ref,
            sweep={"axes": [1], "budget": 5},
        )
        code, doc = sweep_alpha(path)
        assert code == 0
        # the laminate solve is nodally exact for every generator, so the
        # objective has no measurable variation and the midpoint is returned
        assert doc["trace"][0]["constant"] is True
        assert doc["best_alpha"][0] == pytest.approx(0.5)

    def test_axis_validation(self, tmp_path):
        ref = _write_laminate_reference(tmp_path, [[8, 0], [0, 8]], with_strain=False)
        path = _laminate_config(tmp_path, reference_values=ref, sweep={"axes": [3], "budget": 4})
        with pytest.raises(ConfigError):
            sweep_alpha(path)

    @pytest.mark.parametrize(
        "sweep, detail",
        [
            ({"axes": [3], "budget": 4}, "'axes' must lie in 1..2"),
            ({"interval": [0.5, 1.5]}, "'interval' must be [lo, hi] inside [0, 1]"),
            ({"interval": [0.6, 0.2]}, "'interval' must be [lo, hi] inside [0, 1]"),
            ({"budget": 1}, "'budget' must allow at least two evaluations"),
        ],
    )
    def test_sweep_checks_exit_1(self, tmp_path, capsys, sweep, detail):
        # one line naming the config section, no traceback, nothing solved or written
        ref = _write_laminate_reference(tmp_path, [[8, 0], [0, 8]], with_strain=False)
        path = _laminate_config(tmp_path, reference_values=ref, sweep=sweep)
        assert main(["sweep-alpha", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config 'sweep': {detail}") and err.count("\n") == 1
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_every_axis_swept_by_default(self, tmp_path):
        ref = _write_laminate_reference(tmp_path, [[8, 0], [0, 8]], with_strain=False)
        path = _laminate_config(tmp_path, reference_values=ref, sweep={"budget": 2})
        code, doc = sweep_alpha(path)
        assert code == 0
        assert doc["axes"] == [1, 2] and [entry["axis"] for entry in doc["trace"]] == [1, 2]
        assert all(len(entry["evaluations"]) == 2 for entry in doc["trace"])

    def test_unconverged_evaluations_exit_2(self, tmp_path):
        # a checkerboard needs more than two fixed-point sweeps for any generator
        ref = _write_laminate_reference(tmp_path, [[8, 0], [0, 8]], with_strain=False)
        path = _laminate_config(
            tmp_path,
            microstructure={
                "kind": "voxel_map",
                "grid": [[0, 1], [1, 0]],
                "phase_table": [{"lambda": 1.0, "mu": 1.0}, {"lambda": 2.0, "mu": 2.0}],
            },
            solver={"scheme": "ls_fixed_point", "tolerance": 1e-12, "max_iterations": 2},
            reference_values=ref,
            sweep={"axes": [1], "budget": 2},
        )
        code, doc = sweep_alpha(path)
        assert code == 2
        evaluations = doc["trace"][0]["evaluations"]
        assert len(evaluations) == 2
        assert all(e["converged"] is False and e["iterations"] == 2 for e in evaluations)
        assert doc["best_evaluation"] == doc["dirichlet_evaluation"] == {"converged": False, "iterations": 2}

    def test_converged_evaluations_recorded(self, tmp_path):
        ref = _write_laminate_reference(tmp_path, [[8, 0], [0, 8]], with_strain=False)
        path = _laminate_config(tmp_path, reference_values=ref, sweep={"axes": [2], "budget": 2})
        code, doc = sweep_alpha(path)
        assert code == 0
        for e in doc["trace"][0]["evaluations"] + [doc["best_evaluation"], doc["dirichlet_evaluation"]]:
            assert e["converged"] is True and e["iterations"] >= 1

    @staticmethod
    def _sweep_synthetic(tmp_path, monkeypatch, target):
        # inject the unimodal objective |alpha - target|^2 + 1e-4 through the solve path to test the
        # coordinate descent plumbing deterministically; the Dirichlet rule is evaluated at alpha = 0
        import spectralhom.cli as cli

        ref = _write_laminate_reference(tmp_path, [[8, 0], [0, 8]], with_strain=False)
        path = _laminate_config(tmp_path, reference_values=ref, sweep={"axes": [1, 2], "budget": 12})

        class FakeMetrics:
            def __init__(self, e):
                self.e_eff = e

        def fake_metrics(strain, ref_strain=None, effective_action=None, ref_effective_action=None, log_form="difference"):
            alpha = fake_metrics.current
            e = (alpha[0] - target[0]) ** 2 + (alpha[1] - target[1]) ** 2 + 1e-4
            return FakeMetrics(e)

        real_solve = cli._Problem.solve

        def fake_solve(self, generator=None):
            spec = generator or self.generator
            fake_metrics.current = tuple(spec.alpha) if spec.kind == "dlvp" else (0.0, 0.0)
            return real_solve(self, generator)

        monkeypatch.setattr(cli._Problem, "solve", fake_solve)
        monkeypatch.setattr(cli.solver, "error_metrics", fake_metrics)
        code, doc = sweep_alpha(path)
        assert code == 0
        return doc

    def test_finds_improvement_on_synthetic_unimodal(self, tmp_path, monkeypatch):
        target = (0.37, 0.11)
        doc = self._sweep_synthetic(tmp_path, monkeypatch, target)
        assert abs(doc["best_alpha"][0] - target[0]) < 0.05
        assert abs(doc["best_alpha"][1] - target[1]) < 0.05
        assert doc["best_e_eff"] < doc["trace"][0]["evaluations"][0]["e_eff"] + 1e-12
        assert doc["improved"] is True

    def test_not_improved_when_dirichlet_wins(self, tmp_path, monkeypatch):
        # the minimum sits at alpha = (0, 0), which golden section never evaluates: only the Dirichlet
        # baseline reaches it, so the varying objective did not improve on Dirichlet
        doc = self._sweep_synthetic(tmp_path, monkeypatch, (0.0, 0.0))
        assert not doc["trace"][0]["constant"] and doc["best_e_eff"] > doc["dirichlet_e_eff"]
        assert doc["improved"] is False


class TestPatternInfo:
    def test_anisotropic_matrix(self):
        info = pattern_info(PatternMatrix.from_any([[128, 272], [0, 128]]))
        assert info["m"] == 16384
        assert np.prod(info["smith_factors"]) == 16384

    def test_identity(self):
        info = pattern_info(PatternMatrix.from_any([[1, 0], [0, 1]]))
        assert info["m"] == 1

    def test_shear_example(self):
        info = pattern_info(PatternMatrix.from_any([[2, 1], [0, 2]]))
        assert int(np.prod(info["smith_factors"])) == 4

    def test_cli_command(self, capsys):
        assert main(["pattern-info", "--matrix", "[[2,1],[0,2]]"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 4

    def test_cli_rejects_singular(self, capsys):
        assert main(["pattern-info", "--matrix", "[[1,1],[1,1]]"]) == 1


class TestErrorsCommand:
    def test_field_metrics(self, tmp_path, capsys):
        from spectralhom.geometry import write_field

        M = PatternMatrix.from_any([[4, 0], [0, 4]])
        rng = np.random.default_rng(70)
        a = rng.standard_normal((16, 3))
        b = a + 0.1 * rng.standard_normal((16, 3))
        write_field(tmp_path / "a.pfld", M, a)
        write_field(tmp_path / "b.pfld", M, b)
        assert main(["errors", "--field", str(tmp_path / "a.pfld"), "--reference", str(tmp_path / "b.pfld")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 < doc["e_l2"] < 1.0

    def test_mismatched_patterns_rejected(self, tmp_path, capsys):
        from spectralhom.geometry import write_field

        write_field(tmp_path / "a.pfld", PatternMatrix.from_any([[4, 0], [0, 4]]), np.zeros((16, 3)))
        write_field(tmp_path / "b.pfld", PatternMatrix.from_any([[2, 0], [0, 2]]), np.zeros((4, 3)))
        assert main(["errors", "--field", str(tmp_path / "a.pfld"), "--reference", str(tmp_path / "b.pfld")]) == 1

    @pytest.mark.parametrize("spectrum", ["field", "reference"])
    def test_frequency_domain_field_rejected(self, tmp_path, capsys, spectrum):
        from spectralhom.geometry import DOMAIN_FREQUENCY, DOMAIN_SPACE, write_field

        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        paths = {name: tmp_path / f"{name}.pfld" for name in ("field", "reference")}
        for name, path in paths.items():
            write_field(path, M, np.ones((4, 3)), DOMAIN_FREQUENCY if name == spectrum else DOMAIN_SPACE)
        assert main(["errors", "--field", str(paths["field"]), "--reference", str(paths["reference"])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {paths[spectrum]}: error metrics expect a space-domain field\n"

    def test_zero_reference_field_rejected(self, tmp_path, capsys):
        from spectralhom.geometry import write_field

        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        write_field(tmp_path / "a.pfld", M, np.ones((4, 3)))
        write_field(tmp_path / "z.pfld", M, np.zeros((4, 3)))
        assert main(["errors", "--field", str(tmp_path / "a.pfld"), "--reference", str(tmp_path / "z.pfld")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: reference strain field is zero; relative errors are undefined\n"


class TestGrayImage:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(71)
        img = rng.uniform(0.0, 3.0, (5, 9))
        path = tmp_path / "img.pgm"
        write_gray_image(path, img)
        back = read_gray_image(path)
        assert back.shape == (5, 9)
        # normalisation maps the field maximum to 255
        assert back.max() == 255
        expect = np.round(255.0 * img / img.max()).astype(np.uint8)
        assert np.array_equal(back, expect)

    def test_zero_field(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_gray_image(path, np.zeros((3, 4)))
        assert read_gray_image(path).max() == 0

    @pytest.mark.parametrize("shape", [(12,), (2, 3, 4)])
    def test_raster_must_be_2d(self, tmp_path, shape):
        with pytest.raises(ConfigError, match="needs a 2-D raster"):
            write_gray_image(tmp_path / "img.pgm", np.ones(shape))
        assert not (tmp_path / "img.pgm").exists()
