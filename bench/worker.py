"""One workload in one fresh, single-threaded process.

Imports affinelab from the checkout's ``src``, runs the untimed warm-up
operation, then drives ``cli.main(argv)`` in a closed loop with one client:
whole rounds of operations, one after another, until ``--seconds`` have
passed (or exactly ``--rounds`` rounds).  Every operation's exit code,
stdout, stderr and wall time go to this process's stdout as one JSON line,
outside the operation's own timing; the parent checks them afterwards so
that the checking libraries stay out of this process and its memory.
After every operation the worker times the reference (``reference.py``)
for a small share of the operation's CPU time, with which ``run.py``
takes the machine's changes of speed out of the operation's cost.

``--setup-only`` stops after the warm-up: it measures what a one-shot CLI
call pays, from interpreter launch to the warm-up's return.  The reference
is sampled before affinelab is imported and again after the warm-up; its
own CPU time is taken out of the set-up time.

Run through ``bench/run.py``; the protocol is private to the two.
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

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402

# calibrate the clock before the imports whose cost set-up time includes
SETUP_REF_UNITS = 20
START_REF, START_REF_CPU = reference.calibrate(SETUP_REF_UNITS)

from affinelab import cli  # noqa: E402

import workloads  # noqa: E402


def call(argv):
    """Run one operation; its cost is the CPU time this process spent on it.

    An exception escaping ``cli.main`` is recorded as exit code -1 with its
    traceback on stderr, so the run goes on and the check fails the
    operation.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # noqa: BLE001 - the benchmark must outlive a crash
            traceback.print_exc()
            rc = -1
    elapsed = time.process_time() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def peak_rss_kib() -> int:
    """High-water resident set of this process image.

    ru_maxrss survives execve on Linux, so a worker launched by a larger
    parent would report the parent's peak; VmHWM belongs to this image.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def emit(record) -> None:
    sys.stdout.write(json.dumps(record) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--trace-file", help="wrap every layer and write the spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    rc, out, err, _ = call(workloads.WARMUP[args.workload])
    # CPU time since this interpreter started: start-up, imports, warm-up,
    # less the calibration before the imports
    cpu = time.process_time() - START_REF_CPU
    end_ref, _ = reference.calibrate(SETUP_REF_UNITS)
    emit({"kind": "setup", "cpu": cpu, "ref": (START_REF + end_ref) / 2,
          "rc": rc, "out": out, "err": err})
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_file:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    gen = workloads.Generator(args.workload, args.seed)
    attempted = 0
    stdout_bytes = 0
    busy = 0.0
    start = time.perf_counter()
    while True:
        r = gen.round_index
        for op in gen.next_round():
            rc, out, err, elapsed = call(op.argv)
            ref_s, ref_n = reference.measure(elapsed)
            attempted += 1
            busy += elapsed
            stdout_bytes += len(out.encode())
            emit({"kind": "op", "round": r, "rc": rc, "out": out, "err": err,
                  "s": elapsed, "ref_s": ref_s, "ref_n": ref_n})
        if args.rounds is not None:
            if gen.round_index >= args.rounds:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
    end = {"kind": "end", "attempted": attempted, "rounds": gen.round_index,
           "wall": time.perf_counter() - start, "busy": busy,
           "peak_rss_kib": peak_rss_kib()}
    if tracer is not None:
        end["layers"] = tracer.metrics(stdout_bytes)
        tracer.dump(args.trace_file)
    emit(end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
