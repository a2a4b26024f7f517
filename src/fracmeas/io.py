"""Serialization: CSV data files with JSON sidecars and reports, and the
named checks a report's verdict is made of.

All writers format floats with ``repr`` (shortest round-trip) and sort any
key-ordered content, so a rerun with the same inputs is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .measures import GridMeasure, new_grid_measure

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Check:
    """One named condition ``value op bound`` of a verdict.  ``passed`` is the
    plain comparison (a NaN fails, ±inf compare as numbers); ``margin`` is
    how far inside its bound the value lies (negative outside)."""

    name: str
    value: float
    op: str                       # "<", "<=", ">" or ">="
    bound: float

    @property
    def passed(self) -> bool:
        return bool(_OPS[self.op](self.value, self.bound))

    @property
    def margin(self) -> float:
        return (float(self.bound) - float(self.value)) * (1 if self.op[0] == "<" else -1)

    def to_dict(self) -> dict:
        return {"name": self.name, "value": float(self.value), "op": self.op,
                "bound": float(self.bound), "passed": self.passed, "margin": self.margin}

    def __str__(self) -> str:
        return f"{self.name}: {float(self.value)!r} {self.op} {float(self.bound)!r}"


def _fmt(v) -> str:
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, default=_json_default)


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=_json_default)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def write_report(path, config: dict, results: dict, constants: dict | None = None):
    """JSON report embedding tool version, config, and its hash."""
    payload = {
        "tool": "fracmeas",
        "version": __version__,
        "config": config,
        "config_hash": config_hash(config),
        "constants": constants or {},
        "results": results,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload) + "\n")


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def save_measure(mu: GridMeasure, csv_path: str):
    """CSV ``i0,...,i{d-1},weight`` plus a JSON sidecar with the grid data."""
    header = [f"i{a}" for a in range(mu.d)] + ["weight"]
    rows = [list(idx) + [w] for idx, w in zip(mu.indices, mu.weights)]
    write_csv(csv_path, header, rows)
    side = {"dim": mu.d, "spacing": mu.h,
            "origin": [float(v) for v in mu.origin], "name": mu.name}
    with open(csv_path + ".json", "w", encoding="utf-8") as fh:
        fh.write(canonical_json(side) + "\n")


def read_csv_rows(path, indexed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The rows after a CSV file's header line as ``(keys, values)`` arrays,
    one column per field.

    With ``indexed``, every field but the last is an integer key (a grid
    index or level), parsed as int64 without a detour through float, so
    indices beyond 2**53 stay exact; otherwise ``keys`` has no columns.  The
    other fields are float64 ``values``.  Blank lines are skipped; a file
    with no rows gives arrays with zero rows.  A field that does not parse
    raises ``ValueError`` naming the file and its 1-based line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines() or [""]
    ncol = header.count(",") + 1
    n_keys = ncol - 1 if indexed else 0
    keys, values = [], []
    for line_no, ln in enumerate(lines, start=2):
        if not ln.strip():
            continue
        row = ln.split(",")
        if len(row) != ncol:
            raise ValueError(f"{path}, line {line_no}: every row needs the header's "
                             f"{ncol} fields")
        try:
            keys.append([int(v) for v in row[:n_keys]])
            values.append([float(v) for v in row[n_keys:]])
        except ValueError as exc:
            raise ValueError(f"{path}, line {line_no}: {exc}") from None
    try:
        keys = np.array(keys, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{path}: an integer field lies outside int64") from None
    values = np.array(values, dtype=np.float64)
    return keys.reshape(len(values), n_keys), values.reshape(len(values), ncol - n_keys)


def load_measure(csv_path: str) -> GridMeasure:
    indices, weights = read_csv_rows(csv_path, indexed=True)
    with open(csv_path + ".json", "r", encoding="utf-8") as fh:
        side = json.load(fh)
    missing = [k for k in ("dim", "spacing", "origin") if k not in side]
    if missing:
        raise ValueError(f"{csv_path}.json: sidecar lacks {', '.join(missing)}")
    d = int(side["dim"])
    if indices.shape[1] != d:
        raise ValueError(f"{csv_path}: expected {d} index columns and a weight")
    return new_grid_measure(d, side["spacing"], side["origin"], indices,
                            weights[:, 0], name=side.get("name", ""))


# ---------------------------------------------------------------------------
# field exports
# ---------------------------------------------------------------------------

def save_heat_field(points, times, values, path):
    """CSV ``x...,t,value`` over all (point, time) pairs, ``values[i, j]`` at
    ``points[i]`` and ``times[j]``."""
    header = [f"x{a}" for a in range(points.shape[1])] + ["t", "value"]
    rows = (list(p) + [t, values[i, j]] for i, p in enumerate(points)
            for j, t in enumerate(times))
    write_csv(path, header, rows)


def save_maximal_field(field, path):
    """CSV with attainment columns (profile name, scale)."""
    d = field.points.shape[1]
    header = [f"x{a}" for a in range(d)] + ["value", "att_profile", "att_scale"]
    rows = (list(p) + [v, prof, s]
            for p, v, prof, s in zip(field.points, field.values,
                                     field.att_profile, field.att_scale))
    write_csv(path, header, rows)


def save_cover(cover, path):
    """CSV ``type,corner...,size,witness_ball_id`` of a cube cover."""
    witness_of = {}
    for bi, j in enumerate(cover.witness):
        witness_of.setdefault(int(j), bi)
    header = (["type"] + [f"corner{a}" for a in range(cover.lattice.d)]
              + ["size", "witness_ball_id"])
    rows = [["cube"] + list(c) + [s, witness_of.get(j, -1)]
            for j, (c, s) in enumerate(zip(cover.cube_corners(), cover.cube_sides()))]
    write_csv(path, header, rows)


def save_modulus_curves(report, path):
    """CSV ``beta,delta,captured_mass`` of a dimension report."""
    rows = ([b, dl, report.curves[i, j]] for i, b in enumerate(report.betas)
            for j, dl in enumerate(report.deltas))
    write_csv(path, ["beta", "delta", "captured_mass"], rows)


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
