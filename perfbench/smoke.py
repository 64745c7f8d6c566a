"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at reduced size (``--quick``, one second) with
tracing off and on, and checks each result line against
``BENCHMARK.json``: exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; every end-to-end (trace 0) or per-layer
(trace 1) metric present with its declared unit; every value finite; the
output checks passed. It also checks that the benchmark exits non-zero,
printing no result, in a directory that holds only ``BENCHMARK.json``
and the benchmark's own files. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int, proc: subprocess.CompletedProcess) -> list[str]:
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: correct is {result.get('correct')!r}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"{where}: attempted is {result.get('attempted')!r}")
    if result.get("failed") != 0:
        errors.append(f"{where}: failed is {result.get('failed')!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(declared) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(declared))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{where}: {name} = {value!r} is not a finite number")
        if name in declared and entry.get("unit") != declared[name]:
            errors.append(f"{where}: {name} unit {entry.get('unit')!r} != {declared[name]!r}")
    return errors


def check_without_sources() -> list[str]:
    bare = ROOT / ".perfbench_work" / f"smoke-bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "standard", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if proc.returncode == 0:
        errors.append("without sources: exit code 0")
    if '"correct"' in proc.stdout:
        errors.append("without sources: printed a result")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_result(spec, workload, trace, _run(ROOT, workload, trace))
    errors += check_without_sources()
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
