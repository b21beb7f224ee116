"""Self-test of the benchmark.  Takes about a minute.

Usage: python3 perfbench/selftest.py

* BENCHMARK.json names exactly the workloads and metrics that run.py reports.
* A short ``cli_small`` run prints every end-to-end metric by name and unit,
  and ``failed_share`` is 0.
* Two traced ``cli_small`` runs give identical call and ``nonzeros`` counts.
* A copy holding only BENCHMARK.json and the benchmark, without the program,
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import END_TO_END_UNITS, ROOT_DIR, WORK_DIR, per_layer_units
from workloads import WHY, WORKLOADS

RUN = [sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seconds", "1"]


def bench(*args: str, cwd=ROOT_DIR) -> tuple[int, list[str]]:
    proc = subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        raise SystemExit(1)


def main() -> None:
    spec = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
    check(
        [(w["name"], w["why"]) for w in spec["workloads"]] == [(w, WHY[w]) for w in WORKLOADS],
        "BENCHMARK.json workloads match workloads.py",
    )
    check(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS,
        "BENCHMARK.json end_to_end matches run.py",
    )
    check(
        {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units(),
        "BENCHMARK.json per_layer matches run.py",
    )

    code, lines = bench("--seed", "0", "--trace", "0")
    result = json.loads(lines[-1])
    check(code == 0 and result["correct"] and result["failed"] == 0, "short cli_small run is correct")
    for name, unit in END_TO_END_UNITS.items():
        printed = any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)
        check(printed and result["metrics"][name]["unit"] == unit, f"prints {name} in {unit}")
    check(any(line.split() == ["failed_share", "0", "ratio"] for line in lines), "failed_share is 0")

    counts = []
    for _ in range(2):
        code, lines = bench("--seed", "1", "--trace", "1")
        metrics = json.loads(lines[-1])["metrics"]
        check(code == 0 and set(metrics) == set(per_layer_units()), "traced run reports every per-layer metric")
        counts.append(
            {k: v["value"] for k, v in metrics.items() if k.endswith(".calls") or k.startswith("exactlin.nonzeros.")}
        )
    check(counts[0] == counts[1], "two traced runs give identical counts")

    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT_DIR / "BENCHMARK.json", bare)
    shutil.copytree(ROOT_DIR / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--seed", "0", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and not any(line.startswith("{") for line in lines), "exits non-zero without the program")


if __name__ == "__main__":
    main()
