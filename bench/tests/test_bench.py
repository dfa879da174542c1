"""The benchmark's own tests: python3 -m pytest -q bench/tests

They run every workload at smoke scale (BENCH_SMOKE=1), so they take about a
minute; the repository's tier-1 suite does not collect them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int, seed: int = 5) -> subprocess.CompletedProcess:
    env = dict(os.environ, BENCH_SMOKE="1")
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # layer self times plus the loop's own time account for the traced wall
        assert abs(metrics["trace.attributed_frac"] - 1) < 0.03
        assert metrics["cli.self_s"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, workloads.VERBS, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracing_restores_every_attribute():
    from gl2tors import cli, groups, modarith

    before = tracing.attribute_snapshot()
    original = modarith.mat_mul
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # every module that imported mat_mul by name sees the wrapper
        assert groups.mat_mul is modarith.mat_mul is not original
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--format", "json", "decompose", "--ell", "7", "--matrix", "2,3,3,5"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls("lemmas.decompose_sl2") == 1 and tracer.calls("cli.main") == 1
    assert tracing.attribute_snapshot() == before
    assert groups.mat_mul is original


def _verb_reply(req: dict, seed: int, tmp_path: Path) -> tuple[int, str]:
    from gl2tors import cli

    workloads.write_inputs(seed, str(tmp_path))
    cwd = os.getcwd()
    os.chdir(tmp_path)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["--format", "json"] + req["argv"])
    finally:
        os.chdir(cwd)
    return rc, out.getvalue()


def test_corrupted_verb_reply_counts_as_failed(tmp_path):
    seed = 3
    reqs = workloads.block(seed, 0)
    k = next(i for i, r in enumerate(reqs) if r["verb"] == "spectrum-exhaustive")
    req = reqs[k]
    rc, out = _verb_reply(req, seed, tmp_path)
    payload = json.loads(out)
    key = next(iter(payload["entries"]))
    payload["entries"][key] += 1
    corrupted = json.dumps(payload)

    ell, fam, idx = req["group"]
    facts = checks.GroupFacts(workloads.group_pool(seed)[(ell, fam)][idx])
    assert checks.check_verb(req, rc, out, facts) is None
    assert checks.check_verb(req, rc, corrupted, facts) is not None

    calls = [{"k": k, "rc": rc, "out": out, "err": ""}, {"k": k, "rc": rc, "out": corrupted, "err": ""}]
    child = run.Child(calls, {})
    assert len(run.check_children(workloads.VERBS, seed, [child])) == 1


def test_wrong_exit_code_and_frozen_count_fail():
    req = next(r for r in workloads.block(1, 0) if r["verb"] == "order")
    good = json.dumps({"modulus": req["modulus"], "order": checks.gl2_order(req["modulus"])})
    assert checks.check_verb(req, 0, good, None) is None
    assert checks.check_verb(req, 3, "", None) is not None
    bad = json.dumps({"checked": 2765, "details": {"ell_5_subgroups": 461}, "harness": "easy-d",
                      "ok": True, "violations": []})
    assert checks.check_harness(["verify", "easy-d"], 0, bad) is not None


def test_same_seed_same_inputs():
    assert workloads.block(9, 4) == workloads.block(9, 4)
    assert workloads.group_pool(9) == workloads.group_pool(9)
    assert workloads.block(9, 4) != workloads.block(10, 4)
    assert all(len(workloads.block(s, 0)) == workloads.BLOCK_SIZE for s in range(3))
