"""SHA-256 of every artifact that the docs/ configs write, to compare two builds.

Not collected by pytest.  Every ``docs/*_solve.json`` config runs through
``spectralhom solve`` and ``docs/sweep_alpha.json`` through ``spectralhom
sweep-alpha``, in a temporary copy of ``docs/`` (so the checkout stays
clean), with the ``spectralhom`` on the path.  So does one config that the
script writes into that copy, ``criterion8_dirichlet_solve.json``: the docs
inclusion solved by Dirichlet VE at tolerance 1e-8 on the criterion-8
pattern [[256, 544], [0, 256]], about 0.1 s.  Its 65,536-point transform
plan stores odd spectrum rows, where every docs config's plan, below 2^14
points, keeps its rows unpadded (see ``spectralhom.pfft``), so the digests
cover both layouts.  Two builds are compared by
running the script under each, on the same configs, and then comparing the
two outputs:

    PYTHONPATH=src python tests/scans/artifact_digest.py > change.txt
    PYTHONPATH=../parent/src python tests/scans/artifact_digest.py > parent.txt
    python tests/scans/artifact_digest.py --compare parent.txt change.txt

Each output line is ``<sha256>  <config>:<output key>``.  A JSON artifact is
hashed after its ``timing`` block, the only non-deterministic part of a
report, is removed, and re-serialised with sorted keys; any other artifact
is hashed as written.  The comparison lists the artifacts whose digests
differ or that only one build wrote, and exits 1 if there is any, 0
otherwise.  A build that changes numerics on purpose changes digests, so CI
prints the comparison against the base commit without gating on it; it does
gate on the comparison of two runs of the same build, which must agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

DOCS = Path(__file__).resolve().parents[2] / "docs"


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        doc.pop("timing", None)
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _padded_config(work: Path) -> None:
    """Write ``criterion8_dirichlet_solve.json`` (see the module docstring) beside the docs configs in ``work``."""
    doc = json.loads((work / "inclusion_dlvp_solve.json").read_text(encoding="utf-8"))
    doc.update(
        pattern_matrix=[[256, 544], [0, 256]],
        generator={"kind": "dirichlet"},
        solver={"scheme": "ve_krylov", "tolerance": 1e-8, "max_iterations": 6000},
        output={
            "report": "out/criterion8_report.json",
            "strain_field": "out/criterion8_strain.pfld",
            "residuals": "out/criterion8_residuals.csv",
        },
    )
    (work / "criterion8_dirichlet_solve.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")


def digests(docs: Path = DOCS) -> tuple:
    """``{"<config>:<key>": sha256}`` over the docs configs' and the generated config's artifacts, and exit codes."""
    from spectralhom import cli

    found, codes = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "docs"
        shutil.copytree(docs, work)
        _padded_config(work)
        configs = sorted(work.glob("*_solve.json")) + [work / "sweep_alpha.json"]
        for config in configs:
            run = cli.sweep_alpha if config.name == "sweep_alpha.json" else cli.run_solve
            codes[config.name], _ = run(config)
            for key, rel in sorted(json.loads(config.read_text(encoding="utf-8")).get("output", {}).items()):
                path = config.parent / rel
                if path.exists():
                    found[f"{config.name}:{key}"] = _digest(path)
    return found, codes


def _read(path: str) -> dict:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split(None, 1) for line in lines if line.strip())}


def compare(before: dict, after: dict) -> list:
    """The artifacts whose digests differ, or that only one of the two builds wrote."""
    return sorted(name for name in before.keys() | after.keys() if before.get(name) != after.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"), help="compare two digest outputs")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (_read(path) for path in args.compare)
        differ = compare(before, after)
        for name in differ:
            print(f"differs: {name}  {before.get(name, '-')} -> {after.get(name, '-')}")
        print(f"{len(differ)} of {len(before.keys() | after.keys())} artifacts differ")
        return 1 if differ else 0
    found, codes = digests()
    for name, code in codes.items():
        print(f"{name}: exit {code}", file=sys.stderr)
    for name, digest in found.items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
