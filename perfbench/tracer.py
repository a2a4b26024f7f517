"""Outside-in call tracing of the fracmeas package.

``install`` wraps every public function, and every public method of every
public class, that a ``fracmeas`` module defines, and rebinds the wrapper in
every ``fracmeas`` namespace that holds the original: a module attribute
(``dimension`` imports ``choquet_integral`` by name) or a value of a
module-level dict (``verify.VERIFIERS``, which the CLI dispatches through).
The program itself is not edited.  ``fracmeas.cli`` is the entry point the
benchmark calls and is left unwrapped, so its own time stays unnamed.

Each call records a span (id, parent id, name, start, end) in memory.  A
span's self time is its duration minus the time of its child spans.  Work
counters are computed from argument shapes and return values after the call
returns, so their cost lands in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _kernel_terms(counts, span, args, kwargs, result):
    # result is (n points, n times or scales); w holds one weight per mass
    counts[span + ".terms"] += result.size * len(_arg(args, kwargs, 2, "w"))


def _riesz_pairs(counts, span, args, kwargs, result):
    counts[span + ".pairs"] += len(result) * _arg(args, kwargs, 1, "mu").n_masses


def _atom_points_x_times(counts, span, args, kwargs, cert):
    # node count of the certificate's time grid, as TGrid.build forms it
    t_lo, t_hi = cert.t_window
    n_t = max(2, int(math.ceil(math.log10(t_hi / t_lo) * cert.nodes_per_decade)) + 1)
    counts[span + ".points_x_times"] += cert.n_points * n_t


def _greedy_capture(counts, span, args, kwargs, result):
    occ = kwargs.get("candidates", args[6] if len(args) > 6 else None)
    if occ is not None:
        counts[span + ".candidates"] += sum(len(uniq) for uniq, _ in occ.values())
        counts[span + ".selected"] += result[0].n_cubes


def _cube_union_build(counts, span, args, kwargs, result):
    # args[0] is the class: the classmethod's function is wrapped
    counts[span + ".cubes_in"] += len(_arg(args, kwargs, 2, "levels"))
    counts[span + ".cubes_out"] += result.n_cubes


def _raster_cells(counts, span, args, kwargs, result):
    counts[span + ".cells_out"] += result.n_cubes


def _cover_swaps(counts, span, args, kwargs, result):
    counts[span + ".swaps"] += result.constants["swaps"]


def _csv_bytes(counts, span, args, kwargs, result):
    counts[span + ".bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


COUNTERS = {
    "kernels.heat_values": _kernel_terms,
    "kernels.radial_conv_values": _kernel_terms,
    "potential.riesz_kernel": _riesz_pairs,
    "atoms.check_beta_atom": _atom_points_x_times,
    "dimension.greedy_mass_capture": _greedy_capture,
    "content.CubeUnion.build": _cube_union_build,
    "content.rasterize_balls": _raster_cells,
    "content.regularized_cover": _cover_swaps,
    "io.write_csv": _csv_bytes,
}


class Tracer:
    """In-memory span recorder with per-name call counts and self times.

    Installed wrappers record only while ``enabled`` is true; otherwise they
    call straight through.
    """

    def __init__(self):
        self.enabled = False
        self.spans = []                  # (id, parent id or -1, name, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []                 # [span id, seconds spent in children]
        self._ids = itertools.count()

    def wrap(self, span, fn):
        counter = COUNTERS.get(span)
        stack, spans = self._stack, self.spans
        calls, self_s, counts = self.calls, self.self_s, self.counts
        next_id = self._ids.__next__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = next_id()
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[span] += 1
                self_s[span] += dur - frame[1]
                spans.append((sid, parent, span, t0, t1))
            if counter is not None:
                counter(counts, span, args, kwargs, result)
            return result

        return traced

    def named_self_s(self) -> float:
        return sum(self.self_s.values())

    def write_spans(self, path):
        """One JSON array per line: [id, parent, name, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.spans):
                fh.write(json.dumps(rec) + "\n")


PACKAGE = "fracmeas"
ENTRY = "fracmeas.cli"


def install(tracer: Tracer):
    """Wrap the package's public callables and rebind them everywhere."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    wrapped = {}                                  # id(original) -> (original, wrapper)
    for mod in modules:
        if mod.__name__ == ENTRY:
            continue
        # metric names start with a letter: ``_kernels`` reports as ``kernels``
        short = mod.__name__[len(PACKAGE) + 1:].lstrip("_") or PACKAGE
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_methods(tracer, obj, f"{short}.{name}")
            elif callable(obj):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{name}", obj))
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
            elif isinstance(obj, dict) and not name.startswith("__"):
                for key, val in list(obj.items()):
                    hit = wrapped.get(id(val))
                    if hit is not None and hit[0] is val:
                        obj[key] = hit[1]


def _wrap_methods(tracer: Tracer, cls, prefix: str):
    for name, attr in list(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(attr, classmethod):
            setattr(cls, name, classmethod(tracer.wrap(f"{prefix}.{name}", attr.__func__)))
        elif isinstance(attr, staticmethod):
            setattr(cls, name, staticmethod(tracer.wrap(f"{prefix}.{name}", attr.__func__)))
        elif inspect.isfunction(attr):
            setattr(cls, name, tracer.wrap(f"{prefix}.{name}", attr))
