"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, and asserts that each
run is correct and prints every metric named in BENCHMARK.json with its
unit.  Takes well under a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload: str, trace: int, wanted: dict) -> list:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted.items()) - set(got.items()))
        extra = sorted(set(got.items()) - set(wanted.items()))
        problems.append(f"missing {missing}, unexpected {extra}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            found = check_run(workload, trace, wanted[trace])
            print(f"{label}: {'FAILED' if found else 'ok'}")
            problems += [f"{label}: {problem}" for problem in found]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
