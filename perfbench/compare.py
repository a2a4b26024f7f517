"""Compare two sets of saved benchmark results.

Usage, from the repository root:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files as ``run.py`` saves them under
``.perfbench_out/results/`` (one per workload, seed and trace setting).
For every workload and metric it prints the median and quartile spread of
each side and the ratio of the medians; end-to-end metrics also get the
verdict against their bound in ``BENCHMARK.json``.  Results measured with
different kernel backends are not comparable: the script refuses them and
exits 2.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

BACKEND_KEYS = ("kernel_backend", "have_numba", "FRACMEAS_NO_NUMBA")


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    if not runs:
        raise SystemExit(f"compare: no results in {directory}")
    return runs


def backend(run):
    env = run["detail"]["env"]
    return tuple(env.get(k) for k in BACKEND_KEYS)


def series(runs):
    out = {}
    for run in runs:
        wl = run["detail"]["workload"]
        for name, m in run["result"]["metrics"].items():
            out.setdefault((wl, name), []).append(m["value"])
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {backend(r) for r in base + new}
    if len(backends) > 1:
        print(f"compare: refusing to compare results from different kernel backends "
              f"{sorted(map(str, backends))}", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    s_base, s_new = series(base), series(new)
    print(f"{'workload':18} {'metric':44} {'base':>12} {'iqr':>6} {'new':>12} "
          f"{'iqr':>6} {'new/base':>9}  verdict")
    for key in sorted(set(s_base) & set(s_new)):
        (mb, sb), (mn, sn) = summary(s_base[key]), summary(s_new[key])
        ratio = mn / mb if mb else float("nan")
        verdict = ""
        spec = bounds.get(key[1])
        if spec:
            worse = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
            verdict = "regressed" if worse > spec["bound"] else "within bound"
            if max(sb, sn) > spec["bound"]:
                verdict += " (unresolved: spread above bound)"
        print(f"{key[0]:18} {key[1]:44} {mb:12.5g} {sb:6.3f} {mn:12.5g} {sn:6.3f} "
              f"{ratio:9.4f}  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
