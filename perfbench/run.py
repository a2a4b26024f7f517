"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-trace --seed 1 --seconds 25 --trace 0

Workloads: ``verify-trace``, ``verify-dimension``, ``content`` (see
``perfbench/workloads.py``).  Set-up is timed on fresh interpreters: four
probe processes plus the worker that then runs the workload, each timed from
its start until it reports the workload ready.  The worker runs the closed
loop (``perfbench/worker.py``).  Times are reported at the nominal host speed
that ``perfbench/speed.py`` measures during set-up and during the loop.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` metrics of ``BENCHMARK.json``, with
``--trace 1`` its ``per_layer`` metrics; a layer the workload never calls
reports 0.  The line before it holds details: per-operation latencies,
errors, set-up samples and the environment (CPU, versions, kernel backend,
thread settings).  Both lines are also saved under
``.perfbench_out/results/``, where ``perfbench/compare.py`` reads them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4
# the worker's last pass may start just inside --seconds; this covers it
# and the set-up probes
TIME_MARGIN_S = 150.0


class BenchError(Exception):
    pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="fracmeas benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["verify-trace", "verify-dimension", "content"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def start_worker(args, run_dir, extra, procs):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", run_dir] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    procs.append(proc)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    try:
        ready = json.loads(line)
    except json.JSONDecodeError:
        ready = {}
    if not ready.get("ready"):
        raise BenchError(f"worker failed during set-up: {line.strip()!r}")
    ready["setup_s"] = setup_s
    return proc, ready


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def run(args, root, bench):
    deadline = time.monotonic() + args.seconds + TIME_MARGIN_S
    out_root = os.path.join(root, ".perfbench_out")
    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=out_root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    procs = []
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            proc, ready = start_worker(args, run_dir, ["--setup-only"], procs)
            finish(proc, deadline)
            setups.append(ready)
        extra = ["--spans", os.path.join(out_root, f"spans-{tag}.jsonl")] if args.trace else []
        proc, ready = start_worker(args, run_dir, extra, procs)
        setups.append(ready)
        lines = finish(proc, deadline).strip().splitlines()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    if not lines:
        raise BenchError("worker printed no result")
    res = json.loads(lines[-1])
    values = res["values"]
    values["setup.wall_s"] = statistics.median(s["setup_s"] for s in setups)
    values["setup_s"] = statistics.median(s["setup_s"] * speed.scale(s["probe_s"])
                                          for s in setups)
    values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["setup.tables_s"] = statistics.median(s["tables_s"] for s in setups)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    if not args.trace:
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"end-to-end metrics not measured: {missing}")
    detail = dict(res["detail"], workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  setup_samples_s=[s["setup_s"] for s in setups],
                  setup_probe_s=[s["probe_s"] for s in setups])
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(out_root, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    return detail, result


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still stops its worker (see ``run``'s cleanup)
    signal.signal(signal.SIGTERM, _terminated)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracmeas", "cli.py")):
        print("perfbench: ./src/fracmeas not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    try:
        detail, result = run(args, root, bench)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
