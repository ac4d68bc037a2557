"""Outside-in per-layer tracer for the spectralhom benchmark.

Spans are recorded at the call sites of each module's public functions by
replacing the attribute the caller looks up (a module global or a class
method) with a timing wrapper; nothing under ``src/`` is edited.  Self time
of a span is its duration minus the durations of the spans it encloses, and
is accumulated per layer metric as the span closes, so the sum of all self
times equals the time covered by the outermost spans.

Byte counts are computed from the array shapes passed and returned, not
measured from hardware counters.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from spectralhom import cli, elasticity, geometry, lattice, pfft, solver, translates

# lru_cached lattice functions and every module that calls them by a global
# name bound at import time; each binding is one call site to wrap
_LATTICE_CACHED = ("smith_normal_form", "pattern", "generating_set", "frequency_set")
_LATTICE_CALLERS = (lattice, pfft, translates, elasticity, geometry, cli)
_LATTICE_ORIGINALS = {name: getattr(lattice, name) for name in _LATTICE_CACHED}


class Tracer:
    """Self times, call counts and computed counters per layer metric."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._frames = [[0.0]]  # enclosed-span time of each open span; [0] is the root
        self._undo = []

    @property
    def spanned_s(self) -> float:
        """Time covered by outermost spans."""
        return self._frames[0][0]

    def _span(self, key, fn, count):
        frames = self._frames

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                frames.pop()
                frames[-1][0] += dur
                self.self_s[key] += dur - frame[0]
                self.total_s[key] += dur
                self.calls[key] += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def _counter(self, fn, count):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counts, args, result)
            return result

        return wrapper

    def patch(self, owner, name, key=None, count=None):
        """Wrap ``owner.name`` in a span ``key``, or only in a counter if key is None."""
        original = owner.__dict__[name]
        self._undo.append((owner, name, original))
        wrapped = self._span(key, original, count) if key else self._counter(original, count)
        setattr(owner, name, wrapped)

    def restore(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def _nbytes(*arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _lattice_cache():
    infos = [fn.cache_info() for fn in _LATTICE_ORIGINALS.values()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def install(tracer: Tracer):
    """Wrap every traced call site; returns a function that reads the metrics."""

    def add(name, value):
        def count(c, args, result):
            c[name] += value(args, result)

        return count

    def sampled(c, args, result):
        mode = args[2] if len(args) > 2 else "node"
        sub = args[3] if len(args) > 3 else 3
        c["geometry.points_sampled"] += result.shape[0] * (sub ** args[1].d if mode == "cell_average" else 1)

    def table(c, args, result):
        c["elasticity.green_shifts"] += (2 * result.periods + 1) ** result.matrix.d
        c["elasticity.table_bytes"] += result.table.nbytes

    def solved(c, args, result):
        c["solver.iterations"] += result.iterations
        c["solver.unconverged"] += not result.converged

    lattice_before = _lattice_cache()
    plan_before = pfft.plan.cache_info()

    t = tracer
    t.patch(cli, "run_solve", "cli")
    t.patch(cli, "sweep_alpha", "cli")
    t.patch(geometry, "sample_stiffness", "geometry.sample", sampled)
    t.patch(cli, "orthonormalize", "translates.orthonormalize")
    t.patch(translates.CoefficientRule, "coefficients", "translates.coefficients")
    t.patch(cli, "periodized_green", "elasticity.green_table", table)
    t.patch(elasticity, "green_coeff_batch", "elasticity.green_coeff",
            add("elasticity.green_inverses", lambda a, r: len(a[1])))
    t.patch(elasticity.GreenTable, "apply_hat", "elasticity.apply_hat",
            add("elasticity.apply_hat_bytes", lambda a, r: _nbytes(a[0].table, a[1], r)))
    for name in ("ls_fixed_point", "ve_krylov"):
        t.patch(solver, name, "solver", solved)
    t.patch(solver, "apply_stiffness", "solver.apply_stiffness",
            add("solver.apply_stiffness_bytes", lambda a, r: _nbytes(a[0], a[1], r)))
    t.patch(solver, "field_norm", "solver.field_norm")
    t.patch(solver, "_green_convolve", None, add("solver.operator_applications", lambda a, r: 1))
    t.patch(solver, "_minres_fallback", None, add("solver.minres_rescues", lambda a, r: 1))
    t.patch(pfft.FftPlan, "fft", "pfft.fft", add("pfft.bytes", lambda a, r: _nbytes(a[1], r)))
    t.patch(pfft.FftPlan, "ifft", "pfft.ifft", add("pfft.bytes", lambda a, r: _nbytes(a[1], r)))
    for module in _LATTICE_CALLERS:
        for name in _LATTICE_CACHED:
            if module.__dict__.get(name) is _LATTICE_ORIGINALS[name]:
                t.patch(module, name, "lattice")

    def metrics() -> dict:
        hits, misses = (a - b for a, b in zip(_lattice_cache(), lattice_before))
        plan = pfft.plan.cache_info()
        plan_hits = plan.hits - plan_before.hits
        plan_lookups = plan_hits + plan.misses - plan_before.misses
        c, s, n = tracer.counts, tracer.self_s, tracer.calls
        iterations = c["solver.iterations"]
        return {
            "elasticity.green_table_s": s["elasticity.green_table"],
            "elasticity.green_table_calls": n["elasticity.green_table"],
            "elasticity.green_shifts": c["elasticity.green_shifts"],
            "elasticity.green_coeff_s": s["elasticity.green_coeff"],
            "elasticity.green_inverses": c["elasticity.green_inverses"],
            "elasticity.table_bytes": c["elasticity.table_bytes"],
            "elasticity.apply_hat_s": s["elasticity.apply_hat"],
            "elasticity.apply_hat_calls": n["elasticity.apply_hat"],
            "elasticity.apply_hat_bytes": c["elasticity.apply_hat_bytes"],
            "translates.coefficients_s": s["translates.coefficients"],
            "translates.coefficients_calls": n["translates.coefficients"],
            "translates.orthonormalize_s": s["translates.orthonormalize"],
            "translates.orthonormalize_calls": n["translates.orthonormalize"],
            "solver.operator_applications": c["solver.operator_applications"],
            "solver.self_s": s["solver"],
            "solver.s_per_iter": tracer.total_s["solver"] / max(iterations, 1),
            "solver.apply_stiffness_s": s["solver.apply_stiffness"],
            "solver.apply_stiffness_calls": n["solver.apply_stiffness"],
            "solver.apply_stiffness_bytes": c["solver.apply_stiffness_bytes"],
            "solver.field_norm_s": s["solver.field_norm"],
            "solver.minres_rescues": c["solver.minres_rescues"],
            "solver.unconverged": c["solver.unconverged"],
            "pfft.fft_s": s["pfft.fft"],
            "pfft.ifft_s": s["pfft.ifft"],
            "pfft.calls": n["pfft.fft"] + n["pfft.ifft"],
            "pfft.bytes": c["pfft.bytes"],
            "pfft.plan_lookups": plan_lookups,
            "pfft.plan_cache_hit_ratio": plan_hits / plan_lookups if plan_lookups else 0.0,
            "geometry.sample_s": s["geometry.sample"],
            "geometry.points_sampled": c["geometry.points_sampled"],
            "lattice.s": s["lattice"],
            "lattice.calls": n["lattice"],
            "lattice.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cli.self_s": s["cli"],
            "cli.solves": n["solver"],
        }

    return metrics
