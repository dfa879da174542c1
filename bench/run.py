"""gl2tors benchmark: one command, two workloads, end-to-end or traced.

    python3 bench/run.py --workload harness-enumerate --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. Every workload process is a fresh
`python3 bench/worker.py` importing gl2tors from ./src; this process only
spawns them, checks every reply with independent code (checks.py), and
prints the metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 7  # set-up is timed in this many processes per run; the median counts
MIN_BATCHES = 3  # harness batches per run at least, so that a median means something
MAX_RUN_S = 150  # stop starting harness batches past this, to end within 180 s
HARNESS_NAMES = ("easy-d", "classify")


class ChildError(RuntimeError):
    pass


@dataclass
class Child:
    """The calls one workload process made, and its closing {"done"} line."""

    calls: list[dict]
    done: dict


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(
    workload: str, seed: int, mode: str, seconds: float = 0.0, rounds: int | None = None, call: int = 0
) -> tuple[float, Child | None]:
    """Run one worker process to completion. Returns its set-up time, from
    spawn to ready, and its calls (None for a probe)."""
    workdir = WORK / f"{workload}-{seed}-{mode}-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--seconds", str(seconds),
        "--workdir", str(workdir),
        "--src", str(SRC),
        "--call", str(call),
    ]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        lines = proc.stdout.readlines()
        rc = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if rc != 0 or not first.startswith('{"ready"'):
        raise ChildError(f"{mode} worker for {workload} exited {rc}")
    if mode == "probe":
        return setup_s, None
    done = json.loads(lines[-1]) if lines else {}
    if not done.get("done"):
        raise ChildError(f"{mode} worker for {workload} ended without a result")
    return setup_s, Child([json.loads(line) for line in lines[:-1]], done)


def run_batch(
    workload: str, seed: int, mode: str, setups: list[float], seconds: float = 0.0, rounds: int | None = None
) -> list[Child]:
    """One pass over the workload: the verb stream in one process, or each
    harness call of the batch in its own fresh process. The processes'
    set-up times are added to `setups`."""
    if workload == workloads.VERBS:
        jobs = [dict(seconds=seconds, rounds=rounds)]
    else:
        jobs = [dict(call=i) for i in range(len(workloads.harness_calls(workload, seed)))]
    batch = []
    for job in jobs:
        setup_s, child = spawn(workload, seed, mode, **job)
        setups.append(setup_s)
        batch.append(child)
    return batch


def batch_wall(batch: list[Child]) -> float:
    return sum(child.done["wall_s"] for child in batch)


def run_workload(workload: str, seed: int, seconds: float, setups: list[float]) -> list[list[Child]]:
    """The workload's untraced batches: one verb stream of at least `seconds`,
    or at least MIN_BATCHES harness batches, and more until `seconds` would be
    passed by more than half a batch."""
    if workload == workloads.VERBS:
        return [run_batch(workload, seed, "run", setups, seconds=seconds)]
    batches: list[list[Child]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        batches.append(run_batch(workload, seed, "run", setups))
        now = time.perf_counter()
        elapsed, last = now - start, now - t0
        if elapsed + last > MAX_RUN_S:
            return batches
        if len(batches) >= MIN_BATCHES and elapsed + last / 2 >= seconds:
            return batches


# ---------------------------------------------------------------------------
# checking


def check_children(workload: str, seed: int, children: list[Child]) -> list[str]:
    """One reason per failed call, in call order."""
    failures = []
    if workload == workloads.VERBS:
        pool = workloads.group_pool(seed)
        facts: dict[tuple, checks.GroupFacts] = {}
        blocks: dict[int, list[dict]] = {}
        for child in children:
            for call in child.calls:
                b, j = divmod(call["k"], workloads.BLOCK_SIZE)
                b %= workloads.ROUND_BLOCKS
                if b not in blocks:
                    blocks[b] = workloads.block(seed, b)
                req = blocks[b][j]
                group = req.get("group")
                if group is not None and group not in facts:
                    ell, fam, idx = group
                    facts[group] = checks.GroupFacts(pool[(ell, fam)][idx])
                reason = checks.check_verb(req, call["rc"], call["out"], facts.get(group))
                if reason:
                    failures.append(f"request {call['k']}: {reason} {call['err'][-300:]}")
    else:
        argvs = workloads.harness_calls(workload, seed)
        for child in children:
            for call in child.calls:
                argv = argvs[call["k"]]
                reason = checks.check_harness(argv, call["rc"], call["out"])
                if reason:
                    failures.append(f"{' '.join(argv)}: {reason} {call['err'][-300:]}")
    return failures


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def checked_count(workload: str, call: dict) -> int:
    """Instances a call checked: a harness's own count, or one per distinct verb reply."""
    if workload == workloads.VERBS:
        return int(call["k"] < workloads.ROUND_BLOCKS * workloads.BLOCK_SIZE)
    try:
        return int(json.loads(call["out"])["checked"])
    except (ValueError, KeyError, TypeError):
        return 0


def unit_times(workload: str, batches: list[list[Child]]) -> tuple[dict, dict]:
    """The time of each distinct unit of work over its repeats in a run.

    Units are the distinct verb requests and blocks, repeated once per round,
    or the harness calls and their batch, repeated once per batch. Each unit
    takes its median over the repeats: the best of a few repeats follows the
    shared machine's brief fast spells, and spread about twice as much over
    runs of the same code.
    Returns (time by distinct call, wall by distinct block or batch).
    """
    lat: dict[int, list[float]] = {}
    wall: dict[int, list[float]] = {}
    for batch in batches:
        for child in batch:
            for c in child.calls:
                lat.setdefault(c["k"] % (workloads.ROUND_BLOCKS * workloads.BLOCK_SIZE), []).append(c["lat"])
        if workload == workloads.VERBS:
            for i, w in enumerate(batch[0].done["block_walls"]):
                wall.setdefault(i % workloads.ROUND_BLOCKS, []).append(w)
        else:
            wall.setdefault(0, []).append(batch_wall(batch))
    median = statistics.median
    return {u: median(v) for u, v in lat.items()}, {u: median(v) for u, v in wall.items()}


def end_to_end(workload: str, batches: list[list[Child]], setups: list[float]) -> tuple[dict, dict]:
    runs = [child for batch in batches for child in batch]
    calls = [c for child in runs for c in child.calls]
    lat, wall = unit_times(workload, batches)
    checked = sum(checked_count(workload, c) for child in batches[0] for c in child.calls)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(wall.values()), "s"),
        "checked_per_s": (checked / sum(wall.values()), "1/s"),
        "verb_p50_ms": (1e3 * nearest_rank(list(lat.values()), 0.50), "ms"),
        "verb_p99_ms": (1e3 * nearest_rank(list(lat.values()), 0.99), "ms"),
        "peak_rss_mb": (max(child.done["rss_kb"] for child in runs) / 1024, "MB"),
    }
    notes = {
        "setup_samples": len(setups),
        "batches": len(batches),
        "distinct_calls": len(lat),
        "timed_calls": len(calls),
        "precondition_exits": sum(1 for c in calls if c["rc"] == 2),
    }
    return metrics, notes


def per_layer(workload: str, seed: int, plain: list[Child], traced: list[Child]) -> dict:
    """The traced batch's layer metrics, plus what needs its untraced twin:
    the tracing overhead and each harness's untraced wall time."""
    layers = tracing.layer_metrics([child.done["trace"] for child in traced])
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
    if workload == workloads.VERBS:
        # the traced stream's rounds against the same rounds of the untraced one
        walls = [batch[0].done["block_walls"] for batch in (traced, plain)]
        overhead = sum(walls[0]) / sum(walls[1][: len(walls[0])]) - 1
    else:
        overhead = batch_wall(traced) / batch_wall(plain) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    rcs = [c["rc"] for child in traced for c in child.calls]
    metrics["cli.precondition_ratio"] = (rcs.count(2) / len(rcs), "ratio")
    walls = dict.fromkeys(HARNESS_NAMES, 0.0)
    if workload != workloads.VERBS:
        argvs = workloads.harness_calls(workload, seed)
        for call in (c for child in plain for c in child.calls):
            walls[argvs[call["k"]][1]] = call["lat"]
    for name, wall in walls.items():
        metrics[f"verify.{name}.wall_s"] = (wall, "s")
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "_frac")):
        return "ratio"
    if name.endswith(".elements"):
        return "elements"
    return "count"


# ---------------------------------------------------------------------------
# metadata


def metadata(seed: int) -> dict:
    meta = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "python": platform.python_version(),
    }
    for pkg in ("numpy", "sympy"):
        try:
            meta[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            meta[pkg] = None
    meta["git_sha"], meta["git_dirty"] = git_state()
    return meta


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as handle:
            return [float(x) for x in handle.read().split()[:3]]
    except OSError:
        return None


def git_state() -> tuple[str | None, bool | None]:
    """HEAD and whether tracked files differ from it, if ROOT is a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
            return None, None
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=10,
        )
        return lines[1], bool(dirty.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gl2tors" / "__init__.py").is_file():
        print(f"error: no gl2tors package under {SRC}", file=sys.stderr)
        return 2

    meta = metadata(args.seed)
    meta["loadavg_before"] = loadavg()
    setups: list[float] = []
    try:
        traced = None
        if args.trace:
            # one untraced batch, then a traced one doing the same work
            plain = run_batch(args.workload, args.seed, "run", setups, seconds=args.seconds)
            # the traced verb stream is slower, so it makes only the first
            # rounds, to end within the time a run may take
            traced = run_batch(args.workload, args.seed, "trace", setups, rounds=workloads.MIN_ROUNDS)
            batches = [plain, traced]
        else:
            batches = run_workload(args.workload, args.seed, args.seconds, setups)
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(args.workload, args.seed, "probe")[0])
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    meta["loadavg_after"] = loadavg()

    children = [child for batch in batches for child in batch]
    failures = check_children(args.workload, args.seed, children)
    attempted = sum(len(child.calls) for child in children)
    restored = all(child.done.get("restored") is True for child in traced or [])
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    if not restored:
        print("FAILED gl2tors attributes differ after tracing", file=sys.stderr)

    if traced is not None:
        metrics = per_layer(args.workload, args.seed, plain, traced)
        notes = {"overhead_frac": metrics["trace.overhead_frac"][0]}
    else:
        metrics, notes = end_to_end(args.workload, batches, setups)
    notes.update(failed_frac=len(failures) / attempted, attempted=attempted)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"# {args.workload} " + json.dumps(notes, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": not failures and restored,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
