"""The homhopf benchmark: time to verdict of real CLI commands.

Usage:
    python3 perfbench/run.py --workload <twist16|hopf36|cli_small> --seed <n>
                             --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout; the package is taken from its
``src/`` directory.  One closed-loop client runs the workload's command list
(see ``workloads.py``) in passes.  Each command is a fresh
``python -m homhopf.cli`` process on ``PYTHONPATH=src``, started after the
previous one has exited, and is timed from spawn to exit.  The first pass
is always whole; after it, commands go on in list order, pass after pass,
while the next one, at the length it took last time, still ends within
``--seconds`` of the first.  The last pass may so stop early, but it always
runs a prefix of the list, so a command that reads another's output file
never runs without it.

Runs of ``reference.py``, a fixed standard-library program, sit between
the timed processes: one before and one after each set-up, three before a
run's first command, and after each command one plus one per whole second
that command took (at most ``MAX_GAP_REFS``).  Each time is scaled by
``REF_S`` over the median reference time of the gaps on either side of it.
A reported second is therefore a second on a host that runs the reference
in ``REF_S``.  The speed of a shared host can drift by half within a
minute; the scaling cancels most of that drift, while a change to
``homhopf`` still moves the figures in full.  The unscaled times are kept
in the result file and printed as ``raw_*``.

Every command's outcome is checked against ``pins.json``: the exit status,
and at seed 0 the ``--report`` digest or the sha256 of the written file; at
other seeds (relabelled inputs) the per-axiom verdict list.  A command
fails on any mismatch, a crash or a timeout.

``--trace 0`` reports the end-to-end metrics, all from scaled times and
each command's median over the passes that ran it:
    wall_s         the sum of the commands' medians
    command_p50_s  the median of the commands' medians
    command_max_s  the largest of the commands' medians
    setup_s        median of five set-ups: a fresh ``--version`` process
                   plus writing the input files
    peak_rss_mib   largest resident set of any one command process
``--trace 1`` runs one untraced pass, then one pass with every command under
``tracer.py``, and reports the per-layer metrics summed over the traced
pass, plus the traced-to-untraced (scaled) wall ratio as
``trace.overhead_ratio``.

The last stdout line is the JSON result; a copy with the run's samples and
environment goes to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import input_file_name
from tracer import SPAN_NAMES
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
WORK_DIR = ROOT_DIR / ".perfbench-work"
PINS_PATH = BENCH_DIR / "pins.json"

SETUP_REPEATS = 5
# About what reference.py takes on a calm 2-vCPU x86-64 host with
# Python 3.11.  It is a constant, so scaled figures compare across commits.
REF_S = 0.1
MAX_GAP_REFS = 5
DEADLINE_S = 170.0  # the whole run, set-up included, ends within this
COMMAND_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "command_p50_s": "s",
    "command_max_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "trace.overhead_ratio": "ratio",
        "cli.import_s": "s",
        "cli.self_s": "s",
        "cli.child_span_ratio": "ratio",
    }
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "exactlin.nonzeros.calls": "count",
            "exactlin.nonzeros.scanned": "count",
            "exactlin.nonzeros.yielded": "count",
            "exactlin.nonzeros.hit_ratio": "ratio",
        }
    )
    return units


@dataclass
class Outcome:
    """One command process: its time to verdict and whether it matched its pin."""

    cid: str
    seconds: float
    status: int | None
    maxrss_kib: int
    ref_s: float = REF_S
    problems: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)
    trace: dict | None = None

    @property
    def scaled(self) -> float:
        """Seconds scaled to a host that runs the reference in ``REF_S``."""
        return self.seconds * REF_S / self.ref_s

    @property
    def ok(self) -> bool:
        return not self.problems


class Run:
    def __init__(self, workload: str, seed: int, deadline: float, pins: dict | None):
        """``pins`` maps each command id to its expected outcome at this seed;
        with ``None`` outcomes are only recorded, not checked."""
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.pins = pins
        self.run_dir = WORK_DIR / "run"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT_DIR / "src"))
        self.jobs = str(min(2, len(os.sched_getaffinity(0))))
        self.commands = [(cid, self.resolve(cid, argv)) for cid, argv in WORKLOADS[workload]]
        self.gap: list[float] = []  # reference times since the last command
        self.took: dict[str, float] = {}  # command id -> its last run, gap included

    def alg_names(self) -> list[str]:
        names = []
        for _, argv in WORKLOADS[self.workload]:
            for arg in argv:
                if arg.startswith("{alg:") and arg[5:-1] not in names:
                    names.append(arg[5:-1])
        return names

    def resolve(self, cid: str, argv: list[str]) -> list[str]:
        out = []
        for arg in argv:
            if arg.startswith("{alg:"):
                name = arg[5:-1]
                arg = name if self.seed == 0 else "in/" + input_file_name(name)
            elif arg == "{jobs}":
                arg = self.jobs
            out.append(arg)
        if out[0] in ("check", "verify", "construct"):
            out += ["--report", f"rep/{cid}.json"]
        return out

    # -- processes ---------------------------------------------------------

    def spawn(self, cmd: list[str], log: str) -> tuple[float, int | None, int]:
        """Run ``cmd`` in the run directory; return (seconds, exit status, maxrss KiB)."""
        timeout = min(COMMAND_TIMEOUT_S, self.deadline - time.monotonic())
        with open(self.run_dir / "log" / f"{log}.out", "wb") as out, open(
            self.run_dir / "log" / f"{log}.err", "wb"
        ) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.run_dir, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
                if not ready:
                    proc.kill()
                # wait4 rather than Popen.wait: it returns this child's own rusage
                _, wstatus, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(pidfd)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wstatus)
        status = proc.returncode if ready and proc.returncode >= 0 else None
        return seconds, status, usage.ru_maxrss

    def reference(self) -> float:
        """Seconds of one run of ``reference.py``."""
        seconds, status, _ = self.spawn([sys.executable, "-I", str(BENCH_DIR / "reference.py")], "reference")
        if status != 0:
            raise SystemExit(f"reference.py failed: exit {status}")
        return seconds

    def setup(self) -> tuple[float, float]:
        """One set-up; returns its (scaled, raw) seconds.  Leaves an empty run
        directory with inputs."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        for sub in ("in", "out", "rep", "log", "trace"):
            (self.run_dir / sub).mkdir(parents=True)
        before = self.reference()
        start = time.perf_counter()
        _, v_status, _ = self.spawn([sys.executable, "-m", "homhopf.cli", "--version"], "version")
        _, i_status, _ = self.spawn(
            [sys.executable, str(BENCH_DIR / "inputs.py"), "in", str(self.seed), *self.alg_names()],
            "inputs",
        )
        seconds = time.perf_counter() - start
        ref_s = (before + self.reference()) / 2
        version = (self.run_dir / "log" / "version.out").read_text()
        if v_status != 0 or "version" not in version or i_status != 0:
            raise SystemExit(f"set-up failed: --version exit {v_status}, inputs exit {i_status}")
        return seconds * REF_S / ref_s, seconds

    def run_pass(self, index: int, traced: bool, until: float | None = None) -> list[Outcome]:
        """Run the commands in order; with ``until`` (a ``time.monotonic``
        value), stop before the first one that would not end by then."""
        outcomes = []
        if not self.gap:
            self.gap = [self.reference() for _ in range(3)]
        for cid, argv in self.commands:
            start = time.monotonic()
            if until is not None and start + self.took.get(cid, 0.0) > until:
                break
            if start >= self.deadline:
                outcomes.append(Outcome(cid, 0.0, None, 0, ["not run: deadline"]))
                continue
            log = f"{index}-{cid}"
            if traced:
                trace_path = self.run_dir / "trace" / f"{cid}.json"
                cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), *argv]
            else:
                cmd = [sys.executable, "-m", "homhopf.cli", *argv]
            seconds, status, rss = self.spawn(cmd, log)
            before, self.gap = self.gap, [self.reference() for _ in range(min(MAX_GAP_REFS, 1 + int(seconds)))]
            outcome = Outcome(cid, seconds, status, rss, statistics.median(before + self.gap))
            self.took[cid] = time.monotonic() - start
            self.check(outcome, argv, log)
            if traced and outcome.ok:
                outcome.trace = summarize_trace(trace_path)
            outcomes.append(outcome)
        return outcomes

    # -- correctness ---------------------------------------------------------

    def check(self, outcome: Outcome, argv: list[str], log: str) -> None:
        got = outcome.observed = observe(self.run_dir, argv, log)
        got["status"] = outcome.status
        if outcome.status is None:
            outcome.problems.append("crashed or timed out")
            return
        for key, want in (self.pins or {}).get(outcome.cid, {}).items():
            if got.get(key) != want:
                outcome.problems.append(f"{key}: got {str(got.get(key))[:80]}, pinned {str(want)[:80]}")


def observe(run_dir: Path, argv: list[str], log: str) -> dict:
    """What a finished command left behind, in the form ``pins.json`` records."""
    got: dict = {}
    if "--report" in argv:
        report_path = run_dir / argv[argv.index("--report") + 1]
        if report_path.exists():
            report = json.loads(report_path.read_text())
            got["digest"] = report["digest"]
            got["verdicts"] = verdicts(report)
    if "--out" in argv:
        out_path = run_dir / argv[argv.index("--out") + 1]
        if out_path.exists():
            got["out_sha256"] = hashlib.sha256(out_path.read_bytes()).hexdigest()
    got["stdout"] = (run_dir / "log" / f"{log}.out").read_text()
    got["stderr"] = (run_dir / "log" / f"{log}.err").read_text()
    return got


def report_checks(report: dict):
    """Yield (suite step name or None, check) for every check in a report, in order."""
    for result in report["results"]:
        for step in result.get("steps", [{"name": None, "report": result}]):
            for check in step["report"]["checks"]:
                yield step["name"], check


def verdicts(report: dict) -> list[list]:
    """The per-axiom verdict list of a report: [step, axiom, passed] in order."""
    return [[step, check["axiom"], check["passed"]] for step, check in report_checks(report)]


# -- traces ------------------------------------------------------------------


def summarize_trace(path: Path) -> dict:
    """Per-function calls and self seconds of one traced command."""
    record = json.loads(path.read_text())
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for name, _, _, _, _, seconds in record["spans"]:
        calls[name] += 1
        self_s[name] += seconds
    root = record["root"]
    return {
        "import_s": record["import_s"],
        "root_self_s": root["self_s"],
        "child_span_ratio": root["child_span_s"] / root["seconds"],
        "calls": calls,
        "self_s": self_s,
        "nonzeros": record["nonzeros"],
    }


def per_layer_metrics(untraced: list[Outcome], traced: list[Outcome]) -> dict[str, float]:
    traces = [o.trace for o in traced if o.trace is not None]
    metrics: dict[str, float] = {
        "trace.overhead_ratio": sum(o.scaled for o in traced) / sum(o.scaled for o in untraced),
        "cli.import_s": statistics.median(t["import_s"] for t in traces),
        "cli.self_s": sum(t["root_self_s"] for t in traces),
        "cli.child_span_ratio": max(t["child_span_ratio"] for t in traces),
    }
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = sum(t["calls"][name] for t in traces)
        metrics[f"{name}.self_s"] = sum(t["self_s"][name] for t in traces)
    nz = {k: sum(t["nonzeros"][k] for t in traces) for k in ("calls", "scanned", "yielded")}
    for key, value in nz.items():
        metrics[f"exactlin.nonzeros.{key}"] = value
    metrics["exactlin.nonzeros.hit_ratio"] = nz["yielded"] / nz["scanned"] if nz["scanned"] else 0.0
    return metrics


# -- reporting -----------------------------------------------------------------


def environment(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT_DIR / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT_DIR).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT_DIR / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT_DIR, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def time_metrics(passes: list[list[Outcome]], setups: list[float], scaled: bool) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for o in (o for p in passes for o in p):
        samples.setdefault(o.cid, []).append(o.scaled if scaled else o.seconds)
    medians = [statistics.median(times) for times in samples.values()]
    return {
        "wall_s": sum(medians),
        "command_p50_s": statistics.median(medians),
        "command_max_s": max(medians),
        "setup_s": statistics.median(setups),
    }


def end_to_end_metrics(passes: list[list[Outcome]], setups: list[float]) -> dict[str, float]:
    metrics = time_metrics(passes, setups, scaled=True)
    metrics["peak_rss_mib"] = max(o.maxrss_kib for p in passes for o in p) / 1024
    return metrics


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT_DIR / "src" / "homhopf" / "cli.py").is_file():
        print(f"error: no homhopf sources under {ROOT_DIR / 'src'}", file=sys.stderr)
        return 2
    mode = "catalog" if args.seed == 0 else "relabelled"
    pins = {cid: pin[mode] for cid, pin in load_pins()[args.workload].items()}
    run = Run(args.workload, args.seed, time.monotonic() + DEADLINE_S, pins)

    setups = [run.setup() for _ in range(1 if args.trace else SETUP_REPEATS)]
    scaled_setups = [scaled for scaled, _ in setups]
    raw_setups = [raw for _, raw in setups]
    end = time.monotonic() + args.seconds
    passes = [run.run_pass(0, traced=False)]
    if args.trace:
        passes.append(run.run_pass(1, traced=True))
    while not args.trace and len(passes[-1]) == len(run.commands) and time.monotonic() < end:
        passes.append(run.run_pass(len(passes), traced=False, until=end))
    if not passes[-1]:
        passes.pop()

    outcomes = [o for p in passes for o in p]
    failed = [o for o in outcomes if not o.ok]
    for o in failed:
        print(f"FAILED {o.cid}: {'; '.join(o.problems)}", file=sys.stderr)
    if args.trace:
        metrics = per_layer_metrics(passes[0], passes[1]) if not failed else {}
        units = per_layer_units()
    else:
        metrics = end_to_end_metrics(passes, scaled_setups)
        units = END_TO_END_UNITS
        raw = time_metrics(passes, raw_setups, scaled=False)
    failed_share = len(failed) / len(outcomes)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"command runs {len(outcomes)} of {len(run.commands)} commands")
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    if not args.trace:
        for name, value in raw.items():
            print(f"{'raw_' + name:44s} {value:14.6g} s (unscaled)")
    print(f"{'failed_share':44s} {failed_share:14.6g} ratio")
    if args.trace and metrics:
        top = max(SPAN_NAMES, key=lambda name: metrics[f"{name}.self_s"])
        print(f"largest self time: {top} ({metrics[f'{top}.self_s']:.3f} s)")

    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "ref_s": REF_S,
        "setup_samples_s": {"scaled": scaled_setups, "raw": raw_setups},
        "passes": [[{"id": o.cid, "seconds": o.seconds, "reference_s": o.ref_s, "status": o.status,
                     "maxrss_kib": o.maxrss_kib, "problems": o.problems} for o in p]
                   for p in passes],
        "command_samples": len(outcomes),
        "failed_share": failed_share,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
