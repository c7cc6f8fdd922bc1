"""Layered campaign benchmark — the one command.

    python3 benchmarks/campaign/run.py [--seed N] [--out FILE]
                                       [--trace-out FILE] [--record]
        all six workloads: per workload one child interpreter with
        tracing off (end-to-end metrics) and one traced (per-layer
        metrics); prints every metric by name with its unit, checks
        outcome identity, exits non-zero on any mismatch.

    python3 benchmarks/campaign/run.py --workload NAME --seed N
                                       --seconds S --trace 0|1
        one workload in this process; the last line of standard output
        is the contract's JSON object.

    python3 benchmarks/campaign/run.py --compare A.json B.json
        per workload x end-to-end metric: ratio of medians, both IQRs,
        the bound, and better / worse / unchanged / unresolved.

``src/`` is put on ``sys.path`` from this file's location; scratch files
(databases, executor payloads, worker temp files) live under
``benchmarks/campaign/.work`` and are removed on exit.  A plain run
writes nothing else inside the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
BASELINE = HERE / "baseline.json"
TRAJECTORY = HERE / "TRAJECTORY.jsonl"

#: Extra child interpreters that repeat the set-up (the run's own set-up
#: is the first sample; ``setup_s`` is the median).
SETUP_PROBES = 4
DEFAULT_SECONDS = 12


def _bootstrap() -> None:
    """Make ``repro`` importable and keep every temp file in ``.work``."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'}: program sources not found; "
                 "run from a checkout of the repository")
    paths = [str(HERE), str(ROOT / "src")]
    sys.path[:0] = [p for p in paths if p not in sys.path]
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        paths + ([inherited] if inherited else []))
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)  # spawned workers inherit it
    tempfile.tempdir = str(WORK)


def _adopt_orphans() -> None:
    """Become the reaper of every descendant (Linux ``prctl``): a process
    whose parent ended before it is re-parented here rather than to
    init, so ``_reap`` can wait for it."""
    try:
        import ctypes
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    pids: list[int] = []
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in path.read_text().split()]
        except OSError:
            pass
    return pids


def _reap(grace: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Runs on every path out of ``main``.  The multiprocessing resource
    tracker is the one that used to slip through: it ends only after its
    last client has, i.e. *after* this interpreter — an orphan nobody
    waits for.  It is stopped and waited for here by hand.
    """
    import multiprocessing
    import signal
    import time

    executors = sys.modules.get("repro.engine.executors")
    if executors is not None:
        executors.shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=grace)
        if child.is_alive():
            child.kill()
            child.join(timeout=grace)
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe, then waitpid()s it
    deadline = time.monotonic() + grace
    killed = False
    while True:  # whatever is left: adopted orphans, strays
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if not killed and time.monotonic() > deadline:
                for stray in _children():
                    try:
                        os.kill(stray, signal.SIGKILL)
                    except OSError:
                        pass
                killed = True
            time.sleep(0.01)


@contextmanager
def _one_cpu() -> Iterator[None]:
    """Pin the process to one CPU for the block (where the OS can).

    Only the set-up measurement runs pinned.  On the 2-vCPU sandbox a
    short-lived, import-heavy interpreter runs ~25 % slower whenever the
    second vCPU has been idle for a while (cross-vCPU wake-ups and
    migrations during start-up) and at full speed right after anything
    kept both busy — ``setup_s`` then measured what ran *before* it.
    Pinned, it reads the same in both states.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _setup(name: str, seed: int):
    """Import the program, generate the inputs, build a backend — what a
    user pays before the first campaign can start.  Returns
    ``(workload, inputs, (raw_seconds, host_speed))``."""
    import harness

    def build():
        import table
        import runner  # noqa: F401 - engine + service imports are set-up
        workload = table.BY_NAME[name]
        inputs = workload.build(seed)
        inputs.backend(inputs.circuit.copy())
        return workload, inputs

    with _one_cpu():
        raw, speed, (workload, inputs) = harness.timed(build)
    return workload, inputs, (raw, speed)


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, check=False)


def _baseline_digests() -> dict:
    if BASELINE.exists():
        return json.loads(BASELINE.read_text()).get("digests", {})
    return {}


# ----------------------------------------------------------------------
# one workload (the contract's mode)
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_record(record: dict) -> None:
    name = record["workload"]
    section = "per_layer" if record["trace"] else "end_to_end"
    for metric, entry in record[section].items():
        stats = entry.get("stats")
        spread = (f"  [q1 {_fmt(stats['q1'])} q3 {_fmt(stats['q3'])} "
                  f"min {_fmt(stats['min'])} max {_fmt(stats['max'])} "
                  f"n {stats['n']}]" if stats else "")
        print(f"{name:20s} {metric:42s} {_fmt(entry['value']):>12s} "
              f"{entry['unit']}{spread}")
    ident = record["identity"]
    print(f"{name:20s} {'failed_fraction':42s} "
          f"{_fmt(ident['failed_fraction']):>12s} ratio  "
          f"[{ident['failed']} of {ident['attempted']} operations]")
    for check in ident["checks"]:
        if not check["ok"]:
            print(f"{name:20s} IDENTITY MISMATCH: {check['check']} "
                  f"{check['detail']}")
    for note in record["info"]["notes"]:
        print(f"{name:20s} note: {note}")


def run_one(args: argparse.Namespace) -> int:
    workload, inputs, setup = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"raw": setup[0], "speed": setup[1]}))
        return 0
    import runner

    setup_samples = [setup]
    if not args.trace:
        for _ in range(SETUP_PROBES):
            done = _child(["--workload", args.workload, "--seed",
                           str(args.seed), "--setup-probe"])
            if done.returncode != 0:
                sys.exit(f"set-up probe failed ({done.returncode})")
            sample = json.loads(done.stdout.strip().splitlines()[-1])
            setup_samples.append((sample["raw"], sample["speed"]))
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        record, tracer = runner.run_workload(
            workload, inputs, args.seed, float(args.seconds),
            bool(args.trace), work_dir, setup_samples, _baseline_digests())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print_record(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(tracer.dump()))
    line = contract_line(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def contract_line(record: dict) -> dict:
    """The contract's result object: numbers only — a layer off this
    workload's path reads 0 here and ``null`` in the full record."""
    section = record["per_layer" if record["trace"] else "end_to_end"]
    ident = record["identity"]
    return {
        "correct": ident["failed"] == 0,
        "attempted": ident["attempted"],
        "failed": ident["failed"],
        "metrics": {name: {"value": entry["value"] or 0,
                           "unit": entry["unit"]}
                    for name, entry in section.items()},
    }


# ----------------------------------------------------------------------
# all six workloads
# ----------------------------------------------------------------------
def _commit() -> str:
    def git(*cmd: str) -> str:
        done = subprocess.run(["git", "-C", str(ROOT), *cmd],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=False)
        return done.stdout.strip() if done.returncode == 0 else ""
    head = git("rev-parse", "--short", "HEAD") or "unknown"
    return head + ("+dirty" if git("status", "--porcelain") else "")


def run_all(args: argparse.Namespace) -> int:
    import table

    merged = {"seed": args.seed, "seconds": args.seconds,
              "host_cpus": os.cpu_count(), "commit": _commit(),
              "workloads": {}}
    spans: list = []
    failed = False
    scratch = Path(tempfile.mkdtemp(prefix="all-", dir=WORK))
    try:
        for workload in table.WORKLOADS:
            entry: dict = {}
            for trace in (0, 1):
                out = scratch / f"{workload.name}.{trace}.json"
                trace_out = scratch / f"{workload.name}.spans.json"
                done = _child(
                    ["--workload", workload.name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(trace),
                     "--out", str(out)]
                    + (["--trace-out", str(trace_out)] if trace else []))
                # the child's last line is the contract object: not for
                # human eyes
                sys.stdout.write("\n".join(
                    done.stdout.splitlines()[:-1]) + "\n")
                sys.stdout.flush()
                if not out.exists():
                    print(f"{workload.name}: child exited "
                          f"{done.returncode} without a record")
                    failed = True
                    continue
                record = json.loads(out.read_text())
                failed |= done.returncode != 0
                if trace:
                    entry["per_layer"] = record["per_layer"]
                    entry["traced_identity"] = record["identity"]
                    entry["info"]["notes"] += record["info"]["notes"]
                    spans.extend(json.loads(trace_out.read_text()))
                else:
                    entry.update(record)
            merged["workloads"][workload.name] = entry
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for workload in table.WORKLOADS:
        twin = merged["workloads"].get(workload.twin_of or "", {})
        mine = merged["workloads"].get(workload.name, {})
        if twin and mine and twin.get("digest") != mine.get("digest"):
            print(f"{workload.name}: IDENTITY MISMATCH: digest differs "
                  f"from {workload.twin_of}")
            failed = True
    if merged["host_cpus"] and merged["host_cpus"] < 2:
        print("note: 1 CPU visible - the _proc2/_svc2 rows are "
              "overhead-only, not scaling rows")
    if args.out:
        Path(args.out).write_text(json.dumps(merged, indent=1))
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(spans))
    if args.record and not failed:
        line = {"commit": merged["commit"], "seed": args.seed,
                "host_cpus": merged["host_cpus"],
                "workloads": {
                    name: {metric: entry["end_to_end"][metric]["value"]
                           for metric in ("injections_per_s",
                                          "campaign_wall_s")}
                    for name, entry in merged["workloads"].items()}}
        with TRAJECTORY.open("a") as fh:
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")
    print("FAILED" if failed else "OK: every identity check passed")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# compare two result files
# ----------------------------------------------------------------------
def _workloads_of(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    return data.get("workloads") or {data["workload"]: data}


def verdict(before: dict, after: dict, better: str, bound: float
            ) -> tuple[str, float, float, float]:
    """``(verdict, ratio, spread_before, spread_after)`` for one metric.

    ``unresolved`` when either side's inter-quartile spread is wider than
    the bound (the runs cannot tell); ``worse`` when the median moved the
    wrong way by more than the bound; ``better`` when it moved the right
    way by more than both spreads; otherwise ``unchanged``.
    """
    def spread(entry: dict) -> float:
        stats = entry.get("stats")
        if not stats or not stats["median"]:
            return 0.0
        return (stats["q3"] - stats["q1"]) / abs(stats["median"])

    a, b = before["value"], after["value"]
    ratio = b / a
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    s_a, s_b = spread(before), spread(after)
    if max(s_a, s_b) > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif worse_by < 0 and -worse_by > max(s_a, s_b):
        word = "better"
    else:
        word = "unchanged"
    return word, ratio, s_a, s_b


def compare(path_a: str, path_b: str) -> int:
    from metrics import E2E_BETTER, E2E_BOUNDS

    before, after = _workloads_of(path_a), _workloads_of(path_b)
    any_worse = False
    print(f"{'workload':20s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'iqrA':>6s} {'iqrB':>6s} {'bound':>6s}  verdict")
    for name in before:
        if name not in after:
            continue
        for metric, bound in E2E_BOUNDS.items():
            a = before[name]["end_to_end"][metric]
            b = after[name]["end_to_end"][metric]
            word, ratio, s_a, s_b = verdict(a, b, E2E_BETTER[metric], bound)
            any_worse |= word == "worse"
            print(f"{name:20s} {metric:18s} {_fmt(a['value']):>12s} "
                  f"{_fmt(b['value']):>12s} {ratio:7.3f} {s_a:6.1%} "
                  f"{s_b:6.1%} {bound:6.0%}  {word}")
    return 1 if any_worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        sys.path.insert(0, str(HERE))
        return compare(*args.compare)
    _bootstrap()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    _adopt_orphans()
    try:
        code = main()
    finally:
        _reap()  # on an exception or sys.exit() too
    sys.exit(code)
