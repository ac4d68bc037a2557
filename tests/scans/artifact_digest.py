"""SHA-256 of every artifact that the docs/ configs write, to compare two builds.

Not collected by pytest.  Every ``docs/*_solve.json`` config runs through
``spectralhom solve`` and ``docs/sweep_alpha.json`` through ``spectralhom
sweep-alpha``, in a temporary copy of ``docs/`` (so the checkout stays
clean), with the ``spectralhom`` on the path.  Two builds are compared by
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


def digests(docs: Path = DOCS) -> tuple:
    """``{"<config>:<key>": sha256}`` over the artifacts of every config in ``docs``, and ``{config: exit code}``."""
    from spectralhom import cli

    found, codes = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "docs"
        shutil.copytree(docs, work)
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
