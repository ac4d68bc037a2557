"""Experiment driver.

Subcommands:

* ``solve <config.json>``        -- run one cell problem, write artifacts
* ``sweep-alpha <config.json>``  -- optimise de la Vallee Poussin slopes
* ``pattern-info --matrix M``    -- pattern/transform summary for a matrix
* ``errors --field A --reference B`` -- metrics between two PFLD fields

Configs are single JSON documents; all paths inside a config (inputs and
outputs) resolve relative to the config file.  Exit codes: 0 converged,
2 not converged (partial artifacts are still written), 1 configuration or
I/O error.  Reports are deterministic: repeated runs produce byte-identical
JSON except for the "timing" block.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import geometry, solver
from .elasticity import GreenTable, compatible_green, iso_stiffness, mandel_dim, periodized_green
from .errors import ConfigError, SpectralHomError, parse_object
from .lattice import PatternMatrix, frequency_set, pattern, smith_normal_form
from .translates import GeneratorSpec, make_rule, orthonormalize  # perfbench/tracer.py wraps cli.orthonormalize by name

__all__ = ["main", "run_solve", "sweep_alpha", "pattern_info"]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


# -- config plumbing ----------------------------------------------------------

_CONFIG_KEYS = {
    "pattern_matrix": ((list, str), ...),
    "generator": (dict, {"kind": "dirichlet"}),
    "microstructure": (dict, ...),
    "loading": ([float], ...),
    "sampling": (dict, {}),
    "reference_stiffness": (dict, {}),
    "solver": (dict, {}),
    "green_periods": (int, None),
    "reference_values": (str, None),
    "log_error_form": (str, "difference"),
    "output": (dict, {}),
    "sweep": (dict, {}),
}
_SAMPLING_KEYS = {"mode": (str, "node"), "subsamples": (int, 3)}
_REFERENCE_STIFFNESS_KEYS = {"lambda": (float, None), "mu": (float, None)}
_SOLVER_KEYS = {
    "tolerance": (float, solver.SolverConfig.tolerance),
    "max_iterations": (int, solver.SolverConfig.max_iterations),
    "scheme": (str, solver.SolverConfig.scheme),
}
_OUTPUT_KEYS = dict.fromkeys(("report", "strain_field", "residuals", "elog_image", "sweep_report"), (str, None))
_SWEEP_KEYS = {"axes": ([int], None), "interval": ([float], (0.0, 1.0)), "budget": (int, 16)}


def _stage(name: str, fn, *args, times: dict | None = None, **kwargs):
    """Run one stage, naming it in any error; its wall seconds go to ``times`` under the snake-cased name.

    A library error, a refused allocation or an I/O error (a path that is a
    directory, say) becomes a ConfigError whose message starts with ``name``.
    """
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except (SpectralHomError, MemoryError, OSError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    finally:
        if times is not None:
            times[name.replace(" ", "_")] = time.perf_counter() - start


def _finite(value):
    """``value`` with every non-finite float replaced by None (null in JSON)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _json_text(doc) -> str:
    """Strict JSON text of a report; a solve stopped on overflow leaves nulls, not NaN."""
    return json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False)


class _Problem:
    """Resolved ingredients of one solve, reusable across sweep evaluations."""

    def __init__(self, config_path):
        config_path = Path(config_path)
        try:
            doc = json.loads(config_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config {config_path} is not valid UTF-8 JSON: {exc}") from exc
        config = parse_object(doc, _CONFIG_KEYS, "config")
        self.stage_times = {}  # wall seconds of the last run of each timed stage
        self.base_dir = base_dir = config_path.parent
        self.output = parse_object(config["output"], _OUTPUT_KEYS, "config 'output'")
        self.sweep = parse_object(config["sweep"], _SWEEP_KEYS, "config 'sweep'")
        self.log_form = config["log_error_form"]
        if self.log_form not in solver.LOG_ERROR_FORMS:
            raise ConfigError(f"config 'log_error_form': unknown form {self.log_form!r}")
        self.matrix = _stage("pattern matrix", PatternMatrix.from_any, config["pattern_matrix"])
        self.generator = _stage("generator", GeneratorSpec.from_json, config["generator"])
        self.micro = _stage("microstructure", geometry.microstructure_from_json, config["microstructure"])
        d = self.matrix.d
        D = mandel_dim(d)
        self.eps0 = np.array(config["loading"], dtype=np.float64)
        if self.eps0.shape != (D,):
            raise ConfigError(f"config 'loading': expected {D} Mandel components, got {self.eps0.size}")
        sampling = parse_object(config["sampling"], _SAMPLING_KEYS, "config 'sampling'")
        self.stiffness = _stage(
            "stiffness sampling",
            geometry.sample_stiffness,
            self.micro,
            self.matrix,
            sampling["mode"],
            sampling["subsamples"],
            times=self.stage_times,
        )
        ref = parse_object(config["reference_stiffness"], _REFERENCE_STIFFNESS_KEYS, "config 'reference_stiffness'")
        lam, mu = ref["lambda"], ref["mu"]
        if (lam is None) != (mu is None):
            raise ConfigError("config 'reference_stiffness': give both 'lambda' and 'mu' or neither")
        if lam is None:  # the phase mean
            lam = float(np.mean([p.lam for p in self.micro.phases]))
            mu = float(np.mean([p.mu for p in self.micro.phases]))
        self.reference_stiffness = _stage("reference stiffness", iso_stiffness, lam, mu, d)
        self.solver_config = _stage(
            "solver config", solver.SolverConfig, **parse_object(config["solver"], _SOLVER_KEYS, "config 'solver'")
        )
        self.green_periods = config["green_periods"]
        if self.green_periods is not None and self.solver_config.scheme == "ve_krylov":
            raise ConfigError("config 'green_periods': ve_krylov runs on a compatible table, which has no truncation")
        self.reference = None
        if config["reference_values"]:
            self.reference = _stage(
                "reference ingestion",
                geometry.load_reference_values,
                base_dir / config["reference_values"],
                self.matrix,
            )

    def solve(self, generator: GeneratorSpec | None = None) -> tuple[solver.SolveReport, GreenTable]:
        """Build the rule, its Green table and the solve: both schemes' tables come from the raw rule."""
        times = self.stage_times
        rule = _stage("generator", make_rule, generator or self.generator, self.matrix, times=times)
        C0 = self.reference_stiffness
        if self.solver_config.scheme == "ve_krylov":
            table, run = lambda: compatible_green(C0, rule), solver.ve_krylov
        else:
            table, run = lambda: periodized_green(C0, rule, periods=self.green_periods), solver.ls_fixed_point
        green = _stage("green table", table, times=times)
        report = _stage("solve", run, self.stiffness, C0, self.eps0, green, self.solver_config, times=times)
        return report, green

    def metrics(self, report: solver.SolveReport):
        if self.reference is None:
            return None
        return solver.error_metrics(
            report.strain,
            ref_strain=self.reference.strain,
            effective_action=report.effective_action,
            ref_effective_action=self.reference.effective_action,
            log_form=self.log_form,
        )


# -- artifacts ----------------------------------------------------------------


def write_gray_image(path, values: np.ndarray) -> None:
    """Binary NetPBM graymap (P5), normalised to the field maximum."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigError("image export needs a 2-D raster")
    peak = float(arr.max())
    scaled = np.zeros(arr.shape, dtype=np.uint8)
    if peak > 0.0:
        scaled = np.round(255.0 * np.clip(arr, 0.0, None) / peak).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5 {arr.shape[1]} {arr.shape[0]} 255\n".encode("ascii"))
        fh.write(scaled.tobytes())


def _report_dict(problem: _Problem, report: solver.SolveReport, metrics, green: GreenTable):
    snf = smith_normal_form(problem.matrix)
    doc = {
        "schema": "spectralhom.report.v1",
        "pattern": {
            "matrix": [list(r) for r in problem.matrix.rows],
            "m": problem.matrix.m,
            "smith_factors": list(snf.diag),
        },
        "generator": problem.generator.to_json(),
        "green": {"periods": green.periods, "tail_estimate": green.tail_estimate, "shifts": green.shifts},
        "diagnostics": {
            "real_fields": green.real,
            "residual_refreshes": report.residual_refreshes,
            "green_convolutions": dict(report.green_convolutions),
        },
        "scheme": report.scheme,
        "tolerance": problem.solver_config.tolerance,
        "converged": bool(report.converged),
        "iterations": report.iterations,
        "final_residual": report.residuals[-1] if report.residuals else None,
        "residuals": list(report.residuals),
        "nyquist_imbalance": report.imbalance,
        "effective_action": report.effective_action.tolist(),
        "loading": problem.eps0.tolist(),
        "metrics": None,
        "timing": {"wall_s": problem.stage_times["solve"], "stages": dict(problem.stage_times)},
    }
    if metrics is not None:
        doc["metrics"] = {"e_l2": metrics.e_l2, "e_eff": metrics.e_eff, "log_form": metrics.log_form}
    return doc


def _output_path(problem: _Problem, key: str) -> Path:
    """The configured output ``key`` resolved against the config's directory, its parent created."""
    path = problem.base_dir / problem.output[key]
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_artifacts(problem: _Problem, report: solver.SolveReport, metrics, doc: dict) -> None:
    out = problem.output
    artifacts = {}
    if out["strain_field"]:
        path = _output_path(problem, "strain_field")
        # PFLD stores the real nodal coefficients; any Nyquist imaginary part
        # is recorded in the report as nyquist_imbalance
        geometry.write_field(path, problem.matrix, report.strain.real, geometry.DOMAIN_SPACE)
        artifacts["strain_field"] = out["strain_field"]
    if out["residuals"]:
        lines = ["iteration,residual"]
        lines += [f"{i + 1},{r!r}" for i, r in enumerate(report.residuals)]
        _output_path(problem, "residuals").write_text("\n".join(lines) + "\n")
        artifacts["residuals"] = out["residuals"]
    if out["elog_image"]:
        if metrics is not None and metrics.e_log is not None and problem.matrix.d == 2:
            write_gray_image(_output_path(problem, "elog_image"), metrics.e_log.reshape(doc["pattern"]["smith_factors"]))
            artifacts["elog_image"] = out["elog_image"]
        else:
            artifacts["elog_image"] = None  # needs a planar pattern and a strain reference
    doc["artifacts"] = artifacts
    if out["report"]:
        _output_path(problem, "report").write_text(_json_text(doc) + "\n")


def run_solve(config_path) -> tuple[int, dict]:
    """Execute a solve config; returns (exit code, report document)."""
    problem = _Problem(config_path)
    report, green = problem.solve()
    metrics = problem.metrics(report)
    doc = _report_dict(problem, report, metrics, green)
    _stage("artifacts", _write_artifacts, problem, report, metrics, doc)
    return (0 if report.converged else 2), doc


# -- slope sweep ----------------------------------------------------------------


def golden_section(fn, lo: float, hi: float, budget: int):
    """Golden-section minimisation with a fixed evaluation budget.

    Returns (x_best, f_best, trace, constant) where trace lists the (x, f)
    evaluations in order; ``constant`` flags an objective with no measurable
    variation, in which case x_best is the interval midpoint.
    """
    if budget < 2:
        raise ConfigError("config 'sweep': 'budget' must allow at least two evaluations per axis")
    trace = []

    def probe(x):
        y = float(fn(x))
        trace.append((x, y))
        return y

    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = probe(c), probe(d)
    while len(trace) < budget:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = probe(d)
    ys = [y for _, y in trace]
    spread = max(ys) - min(ys)
    if spread <= 1e-12 * max(1.0, abs(ys[0])):
        return 0.5 * (lo + hi), ys[0], trace, True
    best = min(range(len(trace)), key=lambda i: trace[i][1])
    return trace[best][0], trace[best][1], trace, False


def sweep_alpha(config_path) -> tuple[int, dict]:
    """Coordinate-descent golden-section optimisation of the dlvp slopes.

    Every evaluation reports whether it converged; the exit code is 2 when
    any of them did not.  The report's ``improved`` is whether the selected
    slopes beat the Dirichlet rule (``best_e_eff < dirichlet_e_eff``).
    """
    problem = _Problem(config_path)
    if problem.reference is None or problem.reference.effective_action is None:
        raise ConfigError("sweep-alpha needs reference values with an effective action")
    d = problem.matrix.d
    axes = problem.sweep["axes"]
    if axes is None:
        axes = list(range(1, d + 1))
    if any(a < 1 or a > d for a in axes):
        raise ConfigError(f"config 'sweep': 'axes' must lie in 1..{d}, got {axes}")
    interval = problem.sweep["interval"]
    if len(interval) != 2 or not 0.0 <= interval[0] < interval[1] <= 1.0:
        raise ConfigError(f"config 'sweep': 'interval' must be [lo, hi] inside [0, 1], got {interval}")
    lo, hi = interval
    budget = problem.sweep["budget"]

    start = problem.generator
    alpha = list(start.alpha) if start.kind == "dlvp" and start.alpha else [0.0] * d
    ref_action = problem.reference.effective_action
    runs = []  # convergence of every evaluation, in call order

    def objective(spec: GeneratorSpec) -> float:
        report, _ = problem.solve(spec)
        runs.append({"converged": bool(report.converged), "iterations": report.iterations})
        m = solver.error_metrics(
            report.strain,
            effective_action=report.effective_action,
            ref_effective_action=ref_action,
        )
        return float(m.e_eff)

    trace_doc = []
    t0 = time.perf_counter()
    for axis in axes:
        def fn(v, _axis=axis - 1):
            probe = list(alpha)
            probe[_axis] = v
            return objective(GeneratorSpec(kind="dlvp", alpha=tuple(probe)))

        first = len(runs)
        best_x, best_f, trace, constant = golden_section(fn, lo, hi, budget)
        alpha[axis - 1] = float(best_x)
        trace_doc.append(
            {
                "axis": axis,
                "constant": constant,
                "evaluations": [
                    {"alpha": float(x), "e_eff": float(y), **run} for (x, y), run in zip(trace, runs[first:])
                ],
                "selected": float(best_x),
            }
        )
    best_e_eff = objective(GeneratorSpec(kind="dlvp", alpha=tuple(alpha)))
    dirichlet_e_eff = objective(GeneratorSpec(kind="dirichlet"))
    doc = {
        "schema": "spectralhom.sweep.v1",
        "axes": list(axes),
        "interval": [lo, hi],
        "budget_per_axis": budget,
        "best_alpha": alpha,
        "best_e_eff": best_e_eff,
        "best_evaluation": runs[-2],
        "dirichlet_e_eff": dirichlet_e_eff,
        "dirichlet_evaluation": runs[-1],
        "reduction_vs_dirichlet": 1.0 - best_e_eff / dirichlet_e_eff if dirichlet_e_eff else None,
        "improved": best_e_eff < dirichlet_e_eff,
        "trace": trace_doc,
        "timing": {"wall_s": time.perf_counter() - t0},
    }
    if problem.output["sweep_report"]:
        _stage("sweep report", lambda: _output_path(problem, "sweep_report").write_text(_json_text(doc) + "\n"))
    return (0 if all(run["converged"] for run in runs) else 2), doc


# -- summaries ------------------------------------------------------------------


def _factorise(n: int) -> list:
    out = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def pattern_info(M: PatternMatrix) -> dict:
    snf = smith_normal_form(M)
    pat = pattern(M)
    freqs = frequency_set(M)
    return {
        "matrix": [list(r) for r in M.rows],
        "d": M.d,
        "m": M.m,
        "smith_factors": list(snf.diag),
        "pattern_extent": float(np.abs(pat.points).max()),
        "frequency_extent": int(np.abs(freqs.freqs).max()),
        "fft_shape": list(snf.diag),
        "fft_axis_factors": {str(di): _factorise(di) for di in snf.diag},
    }


def errors_command(field_path, reference_path) -> dict:
    M, values, domain = geometry.read_field(field_path)
    _, ref_values, ref_domain = geometry.read_field(reference_path, expected=M)
    for path, field_domain in ((field_path, domain), (reference_path, ref_domain)):
        if field_domain != geometry.DOMAIN_SPACE:
            raise ConfigError(f"{path}: error metrics expect a space-domain field")
    m = solver.error_metrics(values, ref_strain=ref_values)
    return {
        "pattern_matrix": [list(r) for r in M.rows],
        "e_l2": m.e_l2,
        "e_log_max": float(m.e_log.max()),
        "e_log_mean": float(m.e_log.mean()),
    }


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spectralhom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run one cell problem from a JSON config")
    p_solve.add_argument("config", type=Path)
    p_sweep = sub.add_parser("sweep-alpha", help="optimise dlvp slopes against a reference")
    p_sweep.add_argument("config", type=Path)
    p_info = sub.add_parser("pattern-info", help="summarise a pattern matrix")
    p_info.add_argument("--matrix", required=True, help='row-major JSON, e.g. "[[2,1],[0,2]]"')
    p_err = sub.add_parser("errors", help="metrics between two PFLD strain fields")
    p_err.add_argument("--field", required=True, type=Path)
    p_err.add_argument("--reference", required=True, type=Path)
    args = parser.parse_args(argv)

    try:
        if args.command == "solve":
            code, doc = run_solve(args.config)
            print(_json_text(doc))
            return code
        if args.command == "sweep-alpha":
            code, doc = sweep_alpha(args.config)
            print(_json_text(doc))
            return code
        if args.command == "pattern-info":
            print(_json_text(pattern_info(PatternMatrix.from_any(args.matrix))))
            return 0
        doc = errors_command(args.field, args.reference)
        print(_json_text(doc))
        return 0
    except (SpectralHomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a pattern too large for memory, outside any stage
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
