"""Benchmark worker: one fresh interpreter running one workload.

Started by ``run.py`` from the repository root.  It imports ``fracmeas``
from ``./src``, builds the lazy tables the workload needs, prints a
``{"ready": ...}`` line (the parent times set-up up to that line), and
unless ``--setup-only`` runs whole passes of the workload in a closed loop,
then prints one JSON result line.  The first pass warms up and is not timed.
A new pass starts only while the time left of ``--seconds`` holds one more
pass at the median pass time so far, so the pass count does not hinge on one
pass ending just before the limit; at least one timed pass always runs.
From its start the worker samples the host's speed (``speed.py``); set-up
and operation times are reported at the nominal speed, each pass scaled by
the probes that ran during it, and the wall times beside them.

With ``--trace 1`` the tracer is installed and passes alternate between
traced and untraced, starting traced; at least one of each runs.  Per-layer
numbers are per traced pass; per-operation latencies come from untraced
passes only.  Failures are counted in every pass, traced or not.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for CLI outputs")
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def environment(root):
    import numpy
    import scipy
    from fracmeas import _kernels

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = os.path.join(root, "src", "fracmeas")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMBA_NUM_THREADS")},
        "kernel_backend": _kernels.BACKEND,
        "have_numba": _kernels.HAVE_NUMBA,
        "FRACMEAS_NO_NUMBA": os.environ.get("FRACMEAS_NO_NUMBA"),
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
    }


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Loop:
    """Runs passes of operations and keeps latencies, failures and problems."""

    def __init__(self, ops, sampler):
        self.ops = ops
        self.sampler = sampler
        # per operation, over the timed untraced passes: seconds at the
        # nominal speed, and wall seconds
        self.samples = [[] for _ in ops]
        self.wall = [[] for _ in ops]
        self.probe_s = []                  # mean probe time of each such pass
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.errors = []

    def run_pass(self, keep_latency):
        """One pass; returns its wall time and its time at the nominal speed,
        scaled by the probes that ran during the pass."""
        dts = []
        for kind, op in self.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                problems = op()
            except (Exception, SystemExit) as exc:   # noqa: BLE001 - an operation that raises failed
                problems = None
                self.failed += 1
                if len(self.errors) < 8:
                    self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            dts.append(time.perf_counter() - t0)
            if problems:
                self.failed += 1
                self.problems.extend(f"{kind}: {p}" for p in problems[:4])
        probe_s = self.sampler.take()
        scale = speed.scale(probe_s)
        if keep_latency:
            for samples, wall, dt in zip(self.samples, self.wall, dts):
                samples.append(dt * scale)
                wall.append(dt)
            self.probe_s.append(probe_s)
        return sum(dts), sum(dts) * scale

    def run_passes(self, seconds, tracer=None):
        """A warm-up pass (first calls run slower; it is checked but not
        timed), then passes while the time left of
        ``seconds`` holds one more at the median pass time so far; with a
        tracer, alternately traced and untraced, at least one of each.
        Returns the (wall, nominal) times of the traced and of the untraced
        passes."""
        t_start = time.perf_counter()
        self.sampler.take()
        self.run_pass(keep_latency=False)
        times = {True: [], False: []}
        done = []
        while len(done) < (1 if tracer is None else 2) or (
                time.perf_counter() - t_start + statistics.median(done) <= seconds):
            traced = tracer is not None and len(done) % 2 == 0
            if tracer is not None:
                tracer.enabled = traced
            wall, nominal = self.run_pass(keep_latency=not traced)
            done.append(wall)
            times[traced].append((wall, nominal))
        if tracer is not None:
            tracer.enabled = False
        return times[True], times[False]

    def op_medians(self, per_op):
        """Per kind: each operation's median over the timed untraced passes."""
        out = {}
        for (kind, _), samples in zip(self.ops, per_op):
            out.setdefault(kind, []).append(statistics.median(samples))
        return out


def layer_values(tracer, n_passes):
    """Per-traced-pass call counts, self times and work counters."""
    out = {}
    for name, calls in tracer.calls.items():
        out[f"{name}.calls"] = calls / n_passes
        out[f"{name}.self_s"] = tracer.self_s[name] / n_passes
    for name, value in tracer.counts.items():
        out[name] = value / n_passes
    for span in ("kernels.heat_values", "kernels.radial_conv_values"):
        self_s = out.get(f"{span}.self_s", 0.0)
        out[f"{span}.mterms_per_s"] = (out.get(f"{span}.terms", 0.0) / self_s / 1e6
                                       if self_s else 0.0)
    span = "dimension.greedy_mass_capture"
    cand = out.get(f"{span}.candidates", 0.0)
    out[f"{span}.selected_ratio"] = out.get(f"{span}.selected", 0.0) / cand if cand else 0.0
    return out


def main(argv=None):
    args = parse_args(argv)
    sampler = speed.Sampler()
    sampler.start()
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import fracmeas.cli  # noqa: F401 - the import is what set-up time measures
    t1 = time.perf_counter()
    import workloads
    wl = workloads.make(args.workload, args.out)
    wl.setup()
    t2 = time.perf_counter()
    probe_s = sampler.take()
    emit({"ready": True, "import_s": t1 - t0, "tables_s": t2 - t1, "probe_s": probe_s})
    if args.setup_only:
        sampler.stop()
        return 0

    loop = Loop(wl.build(args.seed), sampler)
    values = {}
    if args.trace:
        import tracer as tracing
        tr = tracing.Tracer()
        tracing.install(tr)
        traced, untraced = loop.run_passes(args.seconds, tr)
        values.update(layer_values(tr, len(traced)))
        values["trace.coverage"] = tr.named_self_s() / sum(w for w, _ in traced)
        values["trace.overhead"] = (statistics.median(n for _, n in traced)
                                    / statistics.median(n for _, n in untraced))
        if args.spans:
            tr.write_spans(args.spans)
    else:
        _, untraced = loop.run_passes(args.seconds)
    sampler.stop()
    values.update(wl.layer_values())
    kinds = loop.op_medians(loop.samples)
    # a pass taken operation by operation: a slow spell on the host that hits
    # one pass does not move it
    values["pass_s"] = sum(sum(v) for v in kinds.values())
    values["pass_wall_s"] = sum(sum(v) for v in loop.op_medians(loop.wall).values())
    values["machine.probe_s"] = statistics.median(loop.probe_s)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["fail_ratio"] = loop.failed / loop.attempted
    for kind, lat in kinds.items():
        if kind.startswith("verify."):
            values[f"{kind}_s"] = statistics.median(lat)
        else:
            values[f"{kind}.op_s.p50"] = statistics.median(lat)
            values[f"{kind}.op_s.p90"] = percentile(lat, 90)
    problems = loop.problems + wl.run_problems()
    emit({
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "values": values,
        "detail": {
            "passes_untraced_s": [n for _, n in untraced],
            "passes_untraced_wall_s": [w for w, _ in untraced],
            "probe_s": loop.probe_s,
            "ops": {k: {"n": len(v), "median_s": statistics.median(v),
                        "p90_s": percentile(v, 90)} for k, v in kinds.items()},
            "problems": problems[:16],
            "errors": loop.errors,
            "env": environment(root),
        },
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
