"""Iterations and refreshes of both schemes over a grid of small problems, to compare two builds.

Not collected by pytest.  Each solve runs with the ``spectralhom`` on the
path, so two checkouts are compared by running the scan under each and then
comparing the two outputs:

    PYTHONPATH=src python tests/scans/refresh_scan.py --out change.json
    PYTHONPATH=../parent/src python tests/scans/refresh_scan.py --out parent.json
    python tests/scans/refresh_scan.py --compare parent.json change.json

The grid is 5 patterns x 5 generators (Dirichlet, dlvp (0.4, 0.3),
bspline 1-3) x 3 seeded random two-phase fields (phases (0.5, 0.4) and
its multiple by 100, 0.01 and 10) x 2 references (iso(0.5, 0.4),
iso(2.75, 2.2)) x 2 schemes (LS on the periodised table, VE on the
compatible one) x 2 tolerances (1e-6, 1e-9): 600 solves, capped at 600
iterations, in one process.  The comparison counts the solves that
converge under each build, those that converge only under the first, and
sums the iterations over the solves that converge under both.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

import numpy as np

PATTERNS = ([[8, 16], [-16, 8]], [[16, 0], [0, 16]], [[12, 3], [0, 12]], [[15, 4], [0, 15]], [[32, 12], [0, 32]])
GENERATORS = ("dirichlet", "dlvp", "bspline1", "bspline2", "bspline3")
CONTRASTS = (100.0, 0.01, 10.0)
REFERENCES = ((0.5, 0.4), (2.75, 2.2))
SCHEMES = ("ls_fixed_point", "ve_krylov")
TOLERANCES = (1e-6, 1e-9)
SOFT = np.array([0.5, 0.4])
EPS0 = np.array([1.0, 0.3, 0.2])
CAP = 600


def _rule(sh, name, M):
    if name == "dirichlet":
        return sh.dirichlet_rule(M)
    if name == "dlvp":
        return sh.dlvp_rule(M, [0.4, 0.3])
    return sh.bspline_rule(M, int(name[-1]))


def scan() -> list:
    import spectralhom as sh

    rows = []
    for p, rows_M in enumerate(PATTERNS):
        M = sh.PatternMatrix.from_any(rows_M)
        fields = {}
        for c, contrast in enumerate(CONTRASTS):
            ids = np.random.default_rng(100 * p + c).integers(0, 2, M.m)
            fields[contrast] = np.where(ids[:, None] == 0, SOFT, contrast * SOFT)
        for generator, reference in itertools.product(GENERATORS, REFERENCES):
            C0 = sh.iso_stiffness(*reference, 2)
            rule = _rule(sh, generator, M)
            tables = {"ls_fixed_point": sh.periodized_green(C0, rule), "ve_krylov": sh.compatible_green(C0, rule)}
            for contrast, scheme, tol in itertools.product(CONTRASTS, SCHEMES, TOLERANCES):
                cfg = sh.SolverConfig(tolerance=tol, max_iterations=CAP, scheme=scheme)
                rep = getattr(sh, scheme)(fields[contrast], C0, EPS0, tables[scheme], cfg)
                rows.append(
                    {
                        "key": [rows_M, generator, contrast, list(reference), scheme, tol],
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
    both = [k for k in first if first[k]["converged"] and second[k]["converged"]]
    return {
        "solves": len(first),
        "converged": [sum(r["converged"] for r in first.values()), sum(r["converged"] for r in second.values())],
        "lost": [json.loads(k) for k in first if first[k]["converged"] and not second[k]["converged"]],
        "gained": [json.loads(k) for k in first if second[k]["converged"] and not first[k]["converged"]],
        "iterations_on_both": [sum(first[k]["iterations"] for k in both), sum(second[k]["iterations"] for k in both)],
        "refreshes_on_both": [sum(first[k]["refreshes"] for k in both), sum(second[k]["refreshes"] for k in both)],
        "double_convolutions_on_both": [
            sum(first[k]["double_convolutions"] for k in both),
            sum(second[k]["double_convolutions"] for k in both),
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the scan's rows to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"), help="compare two scan outputs")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(open(path, encoding="utf-8").read()) for path in args.compare)
        print(json.dumps(compare(before, after), indent=1))
        return 0
    start = time.perf_counter()
    rows = scan()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
    converged = sum(row["converged"] for row in rows)
    print(f"{len(rows)} solves, {converged} converged, {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
