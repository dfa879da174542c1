"""One benchmark process: import gl2tors, build the inputs, run the work.

run.py starts it and reads JSON lines from its stdout: one {"ready": true}
line when set-up is done, one {"k": ...} line per CLI call, and a final
{"done": true, ...} line. The CLI's own output is captured per call. A
verbs process runs the whole request stream; a harness process runs one
`verify` call (--call), as a CLI user's process would.

Modes: `probe` stops after set-up, `run` runs the workload untraced, and
`trace` runs it with every gl2tors layer wrapped by tracing.Tracer.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads

OUT = sys.stdout


def emit(obj: dict, flush: bool = False) -> None:
    OUT.write(json.dumps(obj) + "\n")
    if flush:
        OUT.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=None, help="verbs: run exactly this many rounds")
    parser.add_argument("--call", type=int, default=0, help="harness workloads: which verify call")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()

    import gl2tors
    from gl2tors import cli

    if not os.path.abspath(gl2tors.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"gl2tors imported from {gl2tors.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    if args.workload == workloads.VERBS:
        workloads.write_inputs(args.seed, args.workdir)
        os.chdir(args.workdir)
        blocks = [workloads.block(args.seed, b) for b in range(workloads.ROUND_BLOCKS)]
    else:
        argv = workloads.harness_calls(args.workload, args.seed)[args.call]
    emit({"ready": True}, flush=True)
    if args.mode == "probe":
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing

        snapshot = tracing.attribute_snapshot()
        tracer = tracing.Tracer()
        tracer.install()

    in_cli = 0.0
    k = 0 if args.workload == workloads.VERBS else args.call

    def call(argv: list[str]) -> None:
        nonlocal in_cli, k
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(["--format", "json"] + argv)
        except Exception:  # a traceback is a failed call, not a crashed run
            rc = -1
            err.write(traceback.format_exc())
        lat = time.perf_counter() - t0
        in_cli += lat
        emit({"k": k, "rc": rc, "lat": lat, "out": out.getvalue(), "err": err.getvalue()[-2000:]})
        k += 1

    block_walls = []
    start = time.perf_counter()
    if args.workload == workloads.VERBS:
        rounds = 0
        while True:
            round_start = time.perf_counter()
            for reqs in blocks:
                t0 = time.perf_counter()
                for req in reqs:
                    call(req["argv"])
                block_walls.append(time.perf_counter() - t0)
            rounds += 1
            if args.rounds is not None:
                if rounds >= args.rounds:
                    break
            elif rounds >= workloads.MIN_ROUNDS:
                # stop when one more round would pass --seconds by more than half a round
                now = time.perf_counter()
                if now - start + (now - round_start) / 2 >= args.seconds:
                    break
    else:
        call(argv)
    wall = time.perf_counter() - start

    done = {
        "done": True,
        "wall_s": wall,
        "block_walls": block_walls,
        "in_cli_s": in_cli,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        done["restored"] = snapshot == tracing.attribute_snapshot()
        done["trace"] = tracing.process_counts(tracer, wall, in_cli)
    emit(done, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
