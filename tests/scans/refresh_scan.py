"""Iterations and refreshes of both schemes over three grids of small problems, to compare two builds.

Not collected by pytest.  Each solve runs with the ``spectralhom`` on the
path, so two checkouts are compared by running the scan under each and then
comparing the two outputs:

    PYTHONPATH=src python tests/scans/refresh_scan.py --out change.json
    PYTHONPATH=../parent/src python tests/scans/refresh_scan.py --out parent.json
    python tests/scans/refresh_scan.py --compare parent.json change.json

Two grids solve seeded random two-phase fields (phases (0.5, 0.4) and its
multiple by 100, 0.01 and 10) on 2-D patterns, with eps0 (1, 0.3, 0.2),
references iso(0.5, 0.4) and iso(2.75, 2.2), tolerances 1e-6 and 1e-9, and
a cap of 600 iterations:

* ``refresh``: 5 patterns x 5 generators (Dirichlet, dlvp (0.4, 0.3),
  bspline 1-3) x 3 fields (seed 100 p + c for pattern p and contrast c) x
  2 references x 2 schemes (LS on the periodised table, VE on the
  compatible one) x 2 tolerances: 600 solves.
* ``wide``: LS alone on the pre-image tables, 6 patterns x 6 generators
  (dlvp (0.4, 0.3), (0.4, 0), (0.2, 0.6), (0.8, 0.8), bspline 3 and 4) x
  6 fields (seeds 1000 s + 10 p + (contrast > 1), s in {7, 8}) x
  2 references x 2 tolerances: 864 solves.

A third grid, ``contrast``, solves an ellipse inclusion (semi-axes
(1.2, 1.0), rotation 0.3) of phase c (0.5, 0.4) in a (0.5, 0.4) matrix, with
C0 = iso((1 + c)/2 (0.5, 0.4)), eps0 (1, 0.3, 0.2), tolerance 1e-8 and a
cap of 3000 iterations: VE alone on the compatible table, 4 patterns
(diag(32, 32), [[32, 12], [0, 32]], diag(64, 64), [[48, 20], [0, 48]]) x
4 generators (Dirichlet, dlvp (0.4, 0.4), bspline 1 and 2) x c in
{1e4, 1e-4, 1e3, 1e-3} x 2 centres ((0.2, -0.3), (-0.7, 0.4)): 128 solves.
All three grids run in one process.

An exception in any solve ends the scan with a traceback.  The comparison
counts, per grid, the solves that converge under each build, those that
converge only under one, and sums the iterations over the solves that
converge under both.  It exits 1 when any grid has a lost solve, one that
converges under BEFORE and not under AFTER, and 0 otherwise.  CI uses that
as a gate on pull requests: it runs the scan under a worktree of the base
commit and under the change, both with this script, and compares the two.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

import numpy as np

PATTERNS = (
    [[8, 16], [-16, 8]],
    [[16, 0], [0, 16]],
    [[12, 3], [0, 12]],
    [[15, 4], [0, 15]],
    [[32, 12], [0, 32]],
    [[20, 7], [0, 20]],
)
CONTRASTS = (100.0, 0.01, 10.0)
REFERENCES = ((0.5, 0.4), (2.75, 2.2))
SCHEMES = ("ls_fixed_point", "ve_krylov")
TOLERANCES = (1e-6, 1e-9)
SOFT = np.array([0.5, 0.4])
EPS0 = np.array([1.0, 0.3, 0.2])
CAP = 600


def _dlvp(*alpha):
    return {"kind": "dlvp", "alpha": list(alpha)}


def _bspline(order):
    return {"kind": "bspline", "order": order}


# name -> (patterns, generators, field seeds of pattern p and contrast index c, schemes)
RANDOM_GRIDS = {
    "refresh": (
        PATTERNS[:5],
        ({"kind": "dirichlet"}, _dlvp(0.4, 0.3), _bspline(1), _bspline(2), _bspline(3)),
        lambda p, c: (100 * p + c,),
        SCHEMES,
    ),
    "wide": (
        PATTERNS,
        (_dlvp(0.4, 0.3), _dlvp(0.4, 0.0), _dlvp(0.2, 0.6), _dlvp(0.8, 0.8), _bspline(3), _bspline(4)),
        lambda p, c: tuple(1000 * s + 10 * p + (CONTRASTS[c] > 1) for s in (7, 8)),
        ("ls_fixed_point",),
    ),
}
CONTRAST_PATTERNS = ([[32, 0], [0, 32]], [[32, 12], [0, 32]], [[64, 0], [0, 64]], [[48, 20], [0, 48]])
CONTRAST_GENERATORS = ({"kind": "dirichlet"}, _dlvp(0.4, 0.4), _bspline(1), _bspline(2))
HIGH_CONTRASTS = (1e4, 1e-4, 1e3, 1e-3)
CENTRES = ((0.2, -0.3), (-0.7, 0.4))
GRIDS = (*RANDOM_GRIDS, "contrast")


def _groups(grid: str):
    """The solves of ``grid``, grouped by Green table.

    Yields (pattern rows, generator, reference Lame pair, fields, schemes,
    tolerances, cap); each field is (label, contrast, Lame pairs (m, 2)).
    """
    import spectralhom as sh

    if grid == "contrast":
        for rows_M, contrast in itertools.product(CONTRAST_PATTERNS, HIGH_CONTRASTS):
            M = sh.PatternMatrix.from_any(rows_M)
            phases = sh.IsoPhase(*(contrast * SOFT)), sh.IsoPhase(*SOFT)
            fields = [
                (list(centre), contrast, sh.sample_stiffness(sh.Inclusion("ellipse", (1.2, 1.0), centre, 0.3, *phases), M))
                for centre in CENTRES
            ]
            for generator in CONTRAST_GENERATORS:
                yield rows_M, generator, tuple((1 + contrast) / 2 * SOFT), fields, ("ve_krylov",), (1e-8,), 3000
        return
    patterns, generators, seeds, schemes = RANDOM_GRIDS[grid]
    for p, rows_M in enumerate(patterns):
        M = sh.PatternMatrix.from_any(rows_M)
        fields = []
        for c, contrast in enumerate(CONTRASTS):
            for seed in seeds(p, c):
                ids = np.random.default_rng(seed).integers(0, 2, M.m)
                fields.append((seed, contrast, np.where(ids[:, None] == 0, SOFT, contrast * SOFT)))
        for generator, reference in itertools.product(generators, REFERENCES):
            yield rows_M, generator, reference, fields, schemes, TOLERANCES, CAP


def scan(grid: str) -> list:
    import spectralhom as sh

    builders = {"ls_fixed_point": sh.periodized_green, "ve_krylov": sh.compatible_green}
    rows = []
    for rows_M, generator, reference, fields, schemes, tolerances, cap in _groups(grid):
        C0 = sh.iso_stiffness(*reference, 2)
        rule = sh.make_rule(sh.GeneratorSpec.from_json(generator), sh.PatternMatrix.from_any(rows_M))
        tables = {scheme: builders[scheme](C0, rule) for scheme in schemes}
        for (label, contrast, C), scheme, tol in itertools.product(fields, schemes, tolerances):
            cfg = sh.SolverConfig(tolerance=tol, max_iterations=cap, scheme=scheme)
            rep = getattr(sh, scheme)(C, C0, EPS0, tables[scheme], cfg)
            rows.append(
                {
                    "key": [grid, rows_M, generator, label, contrast, list(reference), scheme, tol],
                    "converged": bool(rep.converged),
                    "iterations": rep.iterations,
                    "refreshes": rep.residual_refreshes,
                    "double_convolutions": dict(rep.green_convolutions)["double"],
                    "residual": rep.residuals[-1],
                }
            )
    return rows


def compare(before: list, after: list) -> dict:
    first = {json.dumps(row["key"]): row for row in before}
    second = {json.dumps(row["key"]): row for row in after}
    assert first.keys() == second.keys(), "the two scans ran different grids"
    out = {}
    for grid in GRIDS:
        keys = [k for k in first if json.loads(k)[0] == grid]
        both = [k for k in keys if first[k]["converged"] and second[k]["converged"]]
        out[grid] = {
            "solves": len(keys),
            "converged": [sum(first[k]["converged"] for k in keys), sum(second[k]["converged"] for k in keys)],
            "lost": [json.loads(k) for k in keys if first[k]["converged"] and not second[k]["converged"]],
            "gained": [json.loads(k) for k in keys if second[k]["converged"] and not first[k]["converged"]],
            "iterations_on_both": [sum(first[k]["iterations"] for k in both), sum(second[k]["iterations"] for k in both)],
            "refreshes_on_both": [sum(first[k]["refreshes"] for k in both), sum(second[k]["refreshes"] for k in both)],
            "double_convolutions_on_both": [
                sum(first[k]["double_convolutions"] for k in both),
                sum(second[k]["double_convolutions"] for k in both),
            ],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the scan's rows to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"), help="compare two scan outputs")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(open(path, encoding="utf-8").read()) for path in args.compare)
        result = compare(before, after)
        print(json.dumps(result, indent=1))
        return 1 if any(grid["lost"] for grid in result.values()) else 0
    rows = []
    for grid in GRIDS:
        start = time.perf_counter()
        found = scan(grid)
        rows += found
        converged = sum(row["converged"] for row in found)
        print(f"{grid}: {len(found)} solves, {converged} converged, {time.perf_counter() - start:.1f} s", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
