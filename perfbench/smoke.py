"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload on its reduced operation list, untraced and traced, and
checks that the last line of output names every metric ``BENCHMARK.json``
declares, each with its declared unit, and nothing else.  Then runs the
benchmark in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
and checks that it fails without printing a result.  Exits non-zero on any
failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_output(proc, declared):
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append("attempted/failed are not counts")
    if result["correct"] is not True:
        problems.append("correct is not true")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(set(declared) - set(got)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(got) - set(declared)):
        problems.append(f"undeclared metric {name}")
    for name in sorted(set(got) & set(declared)):
        if got[name] != declared[name]:
            problems.append(f"{name}: unit {got[name]!r}, declared {declared[name]!r}")
        if not isinstance(result["metrics"][name]["value"], (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_output(run(ROOT, workload, trace, ["--reduced"]),
                                    declared[trace])
            status = "ok" if not problems else "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
            failures += problems

    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, bench["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("ran without the library")
        print("bare directory: ran without the library")
    else:
        print(f"bare directory: fails as it should (exit {proc.returncode})")
    shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
