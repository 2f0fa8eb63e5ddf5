"""The benchmark's own tests.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, emits exactly the metrics that
   ``BENCHMARK.json`` names, each with its declared unit, and passes.
2. A deliberately corrupted output trips its check: the run prints
   ``"correct": false`` and exits 1.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``
   (no program), the benchmark exits non-zero without printing a result.

Runs take a couple of seconds each, so the whole suite takes a few
minutes.  Exit code 0 means every test passed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SECONDS = "2"

#: (workload, trace, corruption) — each must be caught by a check.
CORRUPTIONS = [
    ("parse_short", "0", "labels"),   # parse disagrees with predict_batch
    ("bulk_int8", "0", "int8"),       # int8 agreement below the gate
    ("train", "0", "loss"),           # a non-finite training loss
    ("train", "0", "crf"),            # batched vs per-document CRF loss
    ("parse_short", "1", "digest"),   # traced outputs differ from untraced
]


def run(root, workload, trace, corrupt=""):
    command = [
        sys.executable, os.path.join(root, "perfbench", "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", SECONDS,
        "--trace", trace,
    ]
    if corrupt:
        command += ["--corrupt", corrupt]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return proc, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message, flush=True)
        if not ok:
            failures.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            proc, result = run(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            if result is None:
                check(False, f"{label}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(result["correct"] and proc.returncode == 0, f"{label}: correct")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == declared[trace], f"{label}: metric names and units")
            check(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                  f"{label}: finite values")

    for workload, trace, corrupt in CORRUPTIONS:
        proc, result = run(ROOT, workload, trace, corrupt)
        check(result is not None and not result["correct"] and proc.returncode == 1,
              f"{workload} trace={trace}: corrupted {corrupt} is caught")

    bare = os.path.join(BENCH_DIR, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".cache", "out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, result = run(bare, "parse_short", "0")
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program: non-zero exit, no result")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
