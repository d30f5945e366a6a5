#!/usr/bin/env python3
"""Checks tools/compare_metrics.py --update-baseline provenance.

Regenerates a baseline into a temporary directory from a candidate given
by absolute path, once for a candidate inside the repository and once for
a copy outside it, and checks that:
  * provenance.source holds no absolute path (repo-relative inside the
    repository, the bare file name outside it);
  * the regenerated baseline passes the gate against its own candidate.

Exit 0 on success, 1 on the first failed check.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "compare_metrics.py"
COMMITTED = REPO / "tools" / "baselines" / "BENCH_fig18b_coding_gain.metrics.json"


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def check(candidate: pathlib.Path, expected_source: str, baseline: pathlib.Path) -> list[str]:
    errors = []
    res = run("--update-baseline", str(baseline), str(candidate.resolve()))
    if res.returncode != 0:
        return [f"--update-baseline exited {res.returncode}: {res.stderr.strip()}"]
    source = json.loads(baseline.read_text(encoding="utf-8"))["provenance"]["source"]
    if pathlib.PurePath(source).is_absolute():
        errors.append(f"provenance.source is absolute: {source!r}")
    if source != expected_source:
        errors.append(f"provenance.source {source!r}, expected {expected_source!r}")
    res = run(str(baseline), str(candidate))
    if res.returncode != 0:
        errors.append(f"regenerated baseline fails against its candidate: {res.stderr.strip()}")
    return errors


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = pathlib.Path(tmp)
        outside = tmp_dir / "copies" / COMMITTED.name
        outside.parent.mkdir()
        shutil.copyfile(COMMITTED, outside)
        errors = check(COMMITTED, COMMITTED.relative_to(REPO).as_posix(), tmp_dir / "in.json")
        errors += check(outside, COMMITTED.name, tmp_dir / "out.json")
    for e in errors:
        print(f"test_compare_metrics: FAIL: {e}", file=sys.stderr)
    if errors:
        return 1
    print("test_compare_metrics: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
