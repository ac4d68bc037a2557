"""One benchmark task, run in a fresh interpreter so lru_cached state starts cold.

Usage: python3 child.py TASK CONFIG [--trace]

TASK is ``solve`` or ``sweep`` (one repetition of a workload through
``spectralhom.cli``), ``grid`` (the scheme x generator iteration grid; CONFIG
names the shared microstructure) or ``laminate`` (the harness self-check
against the closed-form laminate).  Prints one JSON object on stdout.
Imports happen before any timer starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

import spectralhom as sh
from spectralhom import cli, geometry, solver

GRID_MATRIX = [[64, 136], [0, 64]]
GRID_GENERATORS = {
    "dirichlet": sh.GeneratorSpec(kind="dirichlet"),
    "dlvp": sh.GeneratorSpec(kind="dlvp", alpha=(0.4, 0.0)),
    "bspline": sh.GeneratorSpec(kind="bspline", order=1),
}
GRID_SCHEMES = {"ls": "ls_fixed_point", "ve": "ve_krylov"}
PROBE_INTERVAL_S = 0.05
# the probe kernel's time on a 2-vCPU Xeon host at full speed; times are reported
# as seconds at that speed
PROBE_REF_S = 5e-4
_PROBE_RNG = np.random.default_rng(0)
_PROBE_S = _PROBE_RNG.standard_normal((256, 3, 2))
_PROBE_C = np.eye(3) * 2.0 + 0.1


def _probe_kernel() -> float:
    """Fixed work that does not touch the library: a pure-Python loop and small
    batched numpy products and inverses, the two kinds of work the workloads mix."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    A = np.einsum("nai,ab,nbj->nij", _PROBE_S, _PROBE_C, _PROBE_S)
    G = np.einsum("nai,nij,nbj->nab", _PROBE_S, np.linalg.inv(A), _PROBE_S)
    return s + float(G[0, 0, 0])


class SpeedProbe:
    """Samples the host's speed while a timed call runs.

    On a shared host the vCPU speed changes by up to 2x within seconds, so a
    measurement taken only before and after a call of a few seconds misses
    it.  While active, a SIGALRM handler runs every ``PROBE_INTERVAL_S``: it
    runs the probe kernel once untimed, so the caches the workload left do
    not count, then once timed.  Handlers run between bytecodes, so a probe
    lies wholly inside or outside any span the caller times; ``within`` gives
    the probe time to take out of a span.  One more sample is taken on entry
    and on exit.
    """

    def __init__(self) -> None:
        self.samples: list = []  # (start, timed kernel s, whole probe s)

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        _probe_kernel()
        t1 = time.perf_counter()
        _probe_kernel()
        t2 = time.perf_counter()
        self.samples.append((t0, t2 - t1, t2 - t0))

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def within(self, start: float, end: float) -> float:
        return sum(whole for t, _, whole in self.samples if start <= t < end)

    def speed(self) -> float:
        """Mean speed over the samples, relative to ``PROBE_REF_S``: a time
        multiplied by it is the time at the reference speed."""
        return sum(PROBE_REF_S / s for _, s, _ in self.samples) / len(self.samples)


def time_solver_calls(record: list) -> None:
    """One timer per solver call, installed where ``cli`` looks the solvers up."""
    for name in ("ls_fixed_point", "ve_krylov"):
        inner = getattr(solver, name)

        def timed(*args, _inner=inner, **kwargs):
            t0 = time.perf_counter()
            report = _inner(*args, **kwargs)
            record.append(
                {
                    "t0": t0,
                    "s": time.perf_counter() - t0,
                    "iterations": report.iterations,
                    "converged": bool(report.converged),
                    "action": report.effective_action.tolist(),
                    "generator": args[3].generator.to_json(),
                }
            )
            return report

        setattr(solver, name, timed)


def _digest(config_path: Path, config: dict) -> str:
    """Hash of every written artifact, with the report's timing block removed."""
    h = hashlib.sha256()
    out = config.get("output", {})
    for key in sorted(out):
        path = config_path.parent / out[key]
        if not path.exists():
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data)
            doc.pop("timing", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(key.encode() + b"\0" + data)
    return h.hexdigest()


def _bytes_written(config_path: Path, config: dict) -> int:
    paths = (config_path.parent / p for p in config.get("output", {}).values())
    return sum(p.stat().st_size for p in paths if p.exists())


def run_workload(task: str, config_path: Path, trace: bool) -> dict:
    config = json.loads(config_path.read_text())
    solves: list = []
    time_solver_calls(solves)
    layers = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        read_layers = tracing.install(tracer)
    entry = cli.run_solve if task == "solve" else cli.sweep_alpha
    # traced repetitions are not probed: a probe would land in the layer spans
    with SpeedProbe() if not trace else contextlib.nullcontext() as probe:
        t0 = time.perf_counter()
        code, doc = entry(config_path)
        wall = time.perf_counter() - t0
    if trace:
        tracer.restore()
        layers = read_layers()
        layers["cli.bytes_written"] = _bytes_written(config_path, config)
        layers["trace.unattributed_s"] = wall - tracer.spanned_s
    else:
        wall -= probe.within(t0, t0 + wall)
        for s in solves:
            s["s"] -= probe.within(s["t0"], s["t0"] + s["s"])
    for s in solves:
        del s["t0"]
    solve_s = sum(s["s"] for s in solves)
    if task == "solve":
        e_eff = (doc.get("metrics") or {}).get("e_eff")
    else:
        e_eff = doc.get("best_e_eff")
    return {
        "code": code,
        "wall_s": wall,
        "solve_s": solve_s,
        "setup_s": wall - solve_s,
        "speed": None if trace else probe.speed(),
        "solves": solves,
        "e_eff": e_eff,
        "digest": _digest(config_path, config),
        "layers": layers,
    }


def run_grid(micro_path: Path) -> dict:
    """Iterations to tol 1e-6 for each scheme x generator on the shared inclusion."""
    micro = geometry.microstructure_from_json(json.loads(micro_path.read_text()))
    M = sh.PatternMatrix.from_any(GRID_MATRIX)
    C = sh.sample_stiffness(micro, M)
    C0 = sh.iso_stiffness(2.75, 2.2, 2)
    eps0 = np.array([1.0, 0.0, 0.0])
    out = {}
    for gname, spec in GRID_GENERATORS.items():
        G = sh.periodized_green(C0, sh.orthonormalize(sh.make_rule(spec, M)))
        for sname, scheme in GRID_SCHEMES.items():
            cfg = sh.SolverConfig(tolerance=1e-6, max_iterations=20000, scheme=scheme)
            report = getattr(solver, scheme)(C, C0, eps0, G, cfg)
            out[f"{sname}.{gname}"] = {
                "iterations": report.iterations,
                "converged": bool(report.converged),
                "finite": bool(np.all(np.isfinite(report.effective_action))),
            }
    return {"grid": out}


def environment() -> dict:
    """Versions and thread settings as this interpreter sees them."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SPECTRALHOM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_seen": {k: os.environ.get(k) for k in threads},
    }


def run_laminate(config_path: Path) -> dict:
    """Solve the docs laminate and compare with the closed-form laminate."""
    config = json.loads(config_path.read_text())
    code, doc = cli.run_solve(config_path)
    micro = geometry.microstructure_from_json(config["microstructure"])
    M = sh.PatternMatrix.from_any(config["pattern_matrix"])
    exact = geometry.laminate_reference(micro, M, config["loading"]).effective_action
    action = np.array(doc["effective_action"])
    return {
        "code": code,
        "rel_error": float(np.linalg.norm(action - exact) / np.linalg.norm(exact)),
        "tolerance": config["solver"]["tolerance"],
        "env": environment(),
    }


def main(argv) -> int:
    task, path = argv[1], Path(argv[2])
    if task in ("solve", "sweep"):
        result = run_workload(task, path, "--trace" in argv[3:])
    elif task == "grid":
        result = run_grid(path)
    elif task == "laminate":
        result = run_laminate(path)
    else:
        raise SystemExit(f"unknown task {task!r}")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
