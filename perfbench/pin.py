"""Regenerate ``pins.json``, the expected outcome of every benchmark command.

Usage: python3 perfbench/pin.py [<workload> ...]

Runs each workload's commands at seed 0 twice and at seeds 1 and 2 once,
then refuses to write pins unless:

* seed 0 agrees with ``EXPECTED_FAILURES`` in ``workloads.py`` (failures the
  README and ROADMAP state independently of the code), and every other
  command exits 0 with every axiom passing;
* both seed-0 passes agree exactly (reports are deterministic);
* the relabelled verdict list at seed 1 is the seed-0 list without the
  catalog-only steps, and seed 2 agrees with seed 1.

Seed-0 pins hold the exit status, the report digest, the sha256 of any
written file and, for exit 2, the error text.  Relabelled pins hold the exit
status and the per-axiom verdict list, plus the ``wrote ...`` line of
``construct`` and ``export`` and the sha256 of exported catalog files.
"""

from __future__ import annotations

import json
import sys
import time

from run import PINS_PATH, Run, load_pins, report_checks
from workloads import CATALOG_ONLY_STEPS, EXPECTED_FAILURES, WORKLOADS


def observe_pass(workload: str, seed: int) -> dict[str, dict]:
    run = Run(workload, seed, time.monotonic() + 600, pins=None)
    run.setup()
    outcomes = run.run_pass(0, traced=False)
    report_dir = run.run_dir / "rep"
    observed = {}
    for o in outcomes:
        got = dict(o.observed)
        report = report_dir / f"{o.cid}.json"
        got["first_failure"] = first_failure(json.loads(report.read_text())) if report.exists() else None
        observed[o.cid] = got
    return observed


def first_failure(report: dict):
    for _, check in report_checks(report):
        if not check["passed"]:
            return [check["axiom"], check["witness"]["index"]]
    return None


def check_expected(cid: str, got: dict) -> list[str]:
    want = EXPECTED_FAILURES.get(cid, {"status": 0, "failing_axioms": []})
    problems = []
    if got["status"] != want["status"]:
        problems.append(f"exit {got['status']}, expected {want['status']}")
    failing = sorted({axiom for _, axiom, passed in got.get("verdicts", []) if not passed})
    if "failing_axioms" in want and failing != sorted(want["failing_axioms"]):
        problems.append(f"failing axioms {failing}, expected {want['failing_axioms']}")
    if "first_failure" in want and got["first_failure"] != want["first_failure"]:
        problems.append(f"first failure {got['first_failure']}, expected {want['first_failure']}")
    return problems


def pins_for(argv: list[str], catalog: dict, relabelled: dict) -> dict:
    keep_catalog = ["status", "digest", "out_sha256"]
    keep_relabelled = ["status", "verdicts"]
    if argv[0] in ("construct", "export"):
        keep_relabelled.append("stdout")
    if argv[0] == "export":
        keep_relabelled.append("out_sha256")
    if catalog["status"] == 2:
        keep_catalog.append("stderr")
        keep_relabelled.append("stderr")
    return {
        "catalog": {k: catalog[k] for k in keep_catalog if k in catalog},
        "relabelled": {k: relabelled[k] for k in keep_relabelled if k in relabelled},
    }


def pin_workload(workload: str) -> tuple[dict, list[str]]:
    seed0, seed0_again = observe_pass(workload, 0), observe_pass(workload, 0)
    seed1, seed2 = observe_pass(workload, 1), observe_pass(workload, 2)
    pins, problems = {}, []
    for cid, argv in WORKLOADS[workload]:
        problems += [f"{cid}: {p}" for p in check_expected(cid, seed0[cid])]
        pin = pins_for(argv, seed0[cid], seed1[cid])
        for again, mode, label in ((seed0_again, "catalog", "seed 0 rerun"), (seed2, "relabelled", "seed 2")):
            for key, value in pin[mode].items():
                if again[cid].get(key) != value:
                    problems.append(f"{cid}: {label} differs in {key}")
        if "verdicts" in seed0[cid]:
            stripped = [v for v in seed0[cid]["verdicts"] if v[0] not in CATALOG_ONLY_STEPS]
            if seed1[cid].get("verdicts") != stripped:
                problems.append(f"{cid}: relabelled verdicts differ from the catalog ones")
        pins[cid] = pin
    return pins, problems


def main() -> int:
    names = sys.argv[1:] or list(WORKLOADS)
    pins = load_pins() if PINS_PATH.exists() else {}
    failed = False
    for workload in names:
        workload_pins, problems = pin_workload(workload)
        for p in problems:
            print(f"{workload}: {p}", file=sys.stderr)
        if problems:
            failed = True
        else:
            pins[workload] = workload_pins
            print(f"{workload}: pinned {len(workload_pins)} commands")
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
