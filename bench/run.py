"""Benchmark affinelab end to end and per layer.

    python3 bench/run.py --workload decide --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --all          # every workload, every metric
    python3 bench/run.py --selftest     # a few operations per workload

One run drives one workload in a fresh worker process (bench/worker.py)
for --seconds, then checks every operation with bench/oracle.py and prints
one JSON object as its last line: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the worker runs a fixed number of rounds with every layer
wrapped in spans, and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

# fresh interpreters timed from launch to the warm-up's return; the
# workload's own worker is one more
EXTRA_SETUPS = 4
# rounds of the traced run: fixed, so that its counts repeat exactly
TRACE_ROUNDS = {"decide": 4, "verify": 1, "trajectory": 3}
WORKER_TIMEOUT = 170
# an operation's clock speed is the mean reference unit of the operations
# within this many places of it
REF_WINDOW = 8
# processes that check a run's outputs once its worker has exited
CHECK_PROCESSES = 2

END_TO_END = {"ops_per_s": "op/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}


def worker_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("AFFINE_LAB_TOL", None)
    return env


def launch(workload, seed, *extra):
    """Run one worker; return its JSON records."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          env=worker_env(), timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def rescale(ops):
    """The operations' CPU times in reference units, each by its local unit.

    The local unit is a mean, not a median: the machine's speed flips
    between phases, and an operation's cost is the mix of the phases it
    ran in.
    """
    out = []
    for i, op in enumerate(ops):
        near = ops[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
        local = sum(r["ref_s"] for r in near) / sum(r["ref_n"] for r in near)
        out.append(op["s"] * reference.NOMINAL_S / local)
    return out


def setup_cost(rec):
    """A set-up record's CPU time in reference units."""
    return rec["cpu"] * reference.NOMINAL_S / rec["ref"]


def _check(args):
    import oracle
    return oracle.check(*args)


def check_all(planned, ops):
    """Check every operation; the verdicts come back in order.

    The checks take about as long as the run itself, so they are spread
    over CHECK_PROCESSES forked processes, all joined before returning.
    """
    import oracle  # noqa: F401 - loaded once, before the fork

    jobs = [(op, rec["rc"], rec["out"]) for op, rec in zip(planned, ops)]
    with concurrent.futures.ProcessPoolExecutor(CHECK_PROCESSES) as pool:
        return list(pool.map(_check, jobs, chunksize=16))


def run_workload(workload, seed, seconds=None, rounds=None, trace=False):
    """One measured run, checked; returns a summary dict."""
    setups = []
    warm_ok = True
    if not trace:
        for _ in range(EXTRA_SETUPS):
            recs = launch(workload, seed, "--setup-only")
            setups.append(setup_cost(recs[0]))
            warm_ok &= recs[0]["rc"] == 0
    extra = ["--rounds", str(rounds)] if rounds is not None else ["--seconds", str(seconds)]
    if trace:
        os.makedirs(RESULTS, exist_ok=True)
        extra += ["--trace-file", os.path.join(RESULTS, f"trace-{workload}-{seed}.txt")]
    recs = launch(workload, seed, *extra)
    setups.append(setup_cost(recs[0]))
    warm_ok &= recs[0]["rc"] == 0
    ops = [r for r in recs if r["kind"] == "op"]
    end = recs[-1]

    gen = workloads.Generator(workload, seed)
    planned = []
    while len(planned) < len(ops):
        planned += gen.next_round()
    failed, unexpected, faults = 0, [], {}
    digest_all, digest_first = hashlib.sha256(), hashlib.sha256()
    for op, rec, (bad, fault, message) in zip(planned, ops, check_all(planned, ops)):
        digest_all.update(rec["out"].encode())
        if rec["round"] == 0:
            digest_first.update(rec["out"].encode())
        if bad:
            failed += 1
            if fault is None:
                unexpected.append(f"{op.kind}: {message} [{' '.join(op.argv)}]")
            else:
                faults[fault] = faults.get(fault, 0) + 1
    times = rescale(ops)
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": warm_ok and not unexpected and len(ops) == end["attempted"],
        "attempted": end["attempted"], "failed": failed, "faults": faults,
        "unexpected": unexpected, "rounds": end["rounds"], "wall": end["wall"],
        "busy": end["busy"], "cpu_ops_per_s": end["attempted"] / end["busy"],
        "ref_mean_s": sum(r["ref_s"] for r in ops) / sum(r["ref_n"] for r in ops),
        "ops_per_s": end["attempted"] / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "setup_s": statistics.median(setups), "setup_samples": setups,
        "peak_rss_mb": end["peak_rss_kib"] / 1024.0,
        "stdout_sha256_all": digest_all.hexdigest(),
        "stdout_sha256_first_round": digest_first.hexdigest(),
        "layers": end.get("layers"),
    }


def result_line(s) -> dict:
    if s["trace"]:
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in s["layers"].items()}
    else:
        metrics = {k: {"value": s[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": s["correct"], "attempted": s["attempted"], "failed": s["failed"],
            "metrics": metrics}


def per_layer_units() -> "dict[str, str]":
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def describe(s) -> None:
    """Human-readable lines before the result line."""
    print(f"workload {s['workload']} seed {s['seed']} trace {int(s['trace'])}: "
          f"{s['rounds']} rounds, {s['attempted']} operations in {s['wall']:.2f} s "
          f"({s['busy']:.2f} s CPU, reference unit {s['ref_mean_s'] * 1e3:.3f} ms "
          f"against {reference.NOMINAL_S * 1e3:.3f} ms nominal), "
          f"{s['failed']} failed {s['faults'] or ''}")
    print(f"stdout sha256 first round {s['stdout_sha256_first_round']} "
          f"all {s['rounds']} rounds {s['stdout_sha256_all']}")
    for line in s["unexpected"][:20]:
        print("UNEXPECTED", line)
    if s["trace"]:
        print(f"traced ops_per_s {s['ops_per_s']:.4f} op/s")


def save(s) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{s['workload']}-{s['seed']}-trace{int(s['trace'])}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(s, fh, indent=1)


def program_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "affinelab", "cli.py"))


def cmd_all(seed, seconds) -> int:
    ok = True
    for w in workloads.WORKLOADS:
        plain = run_workload(w, seed, seconds=seconds)
        traced = run_workload(w, seed, rounds=TRACE_ROUNDS[w], trace=True)
        for s in (plain, traced):
            describe(s)
            save(s)
            ok &= s["correct"]
        print(f"== {w}: attempted {plain['attempted']}, failed {plain['failed']}")
        for name, unit in END_TO_END.items():
            print(f"  {name:45s} {plain[name]:14.4f} {unit}")
        units = per_layer_units()
        for name, value in traced["layers"].items():
            print(f"  {name:45s} {value:14.4f} {units[name]}")
        print(f"  {'tracing overhead (traced/untraced ops_per_s)':45s} "
              f"{traced['ops_per_s'] / plain['ops_per_s']:14.4f} ratio")
    return 0 if ok else 1


def cmd_selftest() -> int:
    """One round per workload, untraced and twice traced, all checks on."""
    ok = True
    for w in workloads.WORKLOADS:
        plain = run_workload(w, 7, rounds=1)
        t1 = run_workload(w, 7, rounds=1, trace=True)
        t2 = run_workload(w, 7, rounds=1, trace=True)
        counts_equal = all(t1["layers"][k] == t2["layers"][k] for k in t1["layers"]
                           if not k.endswith("ms"))
        digests_equal = (plain["stdout_sha256_all"] == t1["stdout_sha256_all"]
                         == t2["stdout_sha256_all"])
        faults_ok = plain["failed"] == sum(plain["faults"].values())
        good = plain["correct"] and t1["correct"] and t2["correct"] and counts_equal \
            and digests_equal and faults_ok
        print(f"selftest {w}: {plain['attempted']} operations, {plain['failed']} failed "
              f"{plain['faults']}, digests equal {digests_equal}, counts repeat "
              f"{counts_equal}: {'ok' if good else 'FAILED'}")
        for line in plain["unexpected"]:
            print("UNEXPECTED", line)
        ok &= good
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload and metric")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not program_present():
        print("error: no affinelab sources under src/ next to bench/", file=sys.stderr)
        return 2
    if args.selftest:
        return cmd_selftest()
    if args.all:
        return cmd_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload, --all or --selftest is required")
    if args.trace:
        s = run_workload(args.workload, args.seed, rounds=TRACE_ROUNDS[args.workload],
                         trace=True)
    else:
        s = run_workload(args.workload, args.seed, seconds=args.seconds)
    describe(s)
    save(s)
    print(json.dumps(result_line(s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
