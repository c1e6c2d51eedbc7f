"""CSV ingestion, config files, and result serialization.

CSV schema: a header row with columns resolvable as y, x1..x_dx (or just x),
z1..z_dz, w1..w_dw, and cluster. Files without any w column get a synthesized
intercept. Output is byte-stable for identical inputs: floats are written via
repr (shortest round-trip form) and key order is fixed.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

from .data import ClusteredDataset, build_dataset
from .exceptions import InputError
from .simulate import RejectionTable


def _group_columns(header: list[str], prefix: str) -> list[str]:
    """Columns named like z, z1, z2, ... sorted by their numeric suffix."""
    pat = re.compile(rf"^{prefix}(\d*)$")
    found = []
    for name in header:
        m = pat.match(name)
        if m:
            found.append((int(m.group(1)) if m.group(1) else 0, name))
    return [name for _, name in sorted(found)]


def _resolve_columns(header: list[str], column_map: dict | None) -> dict:
    cols = {
        "y": ["y"] if "y" in header else [],
        "x": _group_columns(header, "x"),
        "z": _group_columns(header, "z"),
        "w": _group_columns(header, "w"),
        "cluster": ["cluster"] if "cluster" in header else [],
    }
    if column_map:
        for key, value in column_map.items():
            if key not in cols:
                raise InputError(f"unknown column-map key {key!r}")
            cols[key] = [value] if isinstance(value, str) else list(value)
    for key in ("y", "x", "z", "cluster"):
        if not cols[key]:
            raise InputError(f"could not resolve the {key!r} column(s) in the header")
        for name in cols[key]:
            if name not in header:
                raise InputError(f"column {name!r} not in the CSV header")
    for name in cols["w"]:
        if name not in header:
            raise InputError(f"column {name!r} not in the CSV header")
    if len(cols["y"]) != 1 or len(cols["cluster"]) != 1:
        raise InputError("y and cluster must each map to exactly one column")
    return cols


def _parse_cell(value: str, row: int, column: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise InputError(
            f"row {row}, column {column!r}: could not parse {value!r} as a number"
        ) from None


def load_csv(
    path,
    column_map: dict | None = None,
    cluster_dummies: bool = False,
) -> ClusteredDataset:
    """Read a clustered IV dataset from CSV.

    ``column_map`` overrides the name-based resolution, e.g.
    ``{"y": "wage", "x": ["educ"], "z": ["qob"], "w": ["age"], "cluster": "state"}``.
    With ``cluster_dummies`` the cluster indicator columns are appended to W;
    if W contains a constant column the first cluster's dummy is dropped to
    keep W full rank. Row numbers in error messages count data rows from 1.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        rows = [row for row in reader if row]
    cols = _resolve_columns(header, column_map)
    idx = {name: header.index(name) for group in cols.values() for name in group}

    def column(names: list[str]) -> np.ndarray:
        out = np.empty((len(rows), len(names)))
        for i, row in enumerate(rows):
            for k, name in enumerate(names):
                if idx[name] >= len(row):
                    raise InputError(f"row {i + 1}: too few fields")
                out[i, k] = _parse_cell(row[idx[name]].strip(), i + 1, name)
        return out

    y = column(cols["y"]).ravel()
    x = column(cols["x"])
    z = column(cols["z"])
    labels = np.array([row[idx[cols["cluster"][0]]].strip() for row in rows])
    if cols["w"]:
        w = column(cols["w"])
    else:
        w = np.ones((len(rows), 1))

    if cluster_dummies:
        uniq = np.unique(labels)
        dummies = (labels[:, None] == uniq[None, :]).astype(np.float64)
        has_constant = any(np.ptp(w[:, k]) == 0.0 and w[0, k] != 0.0 for k in range(w.shape[1]))
        if has_constant:
            dummies = dummies[:, 1:]
        w = np.column_stack([w, dummies])
    return build_dataset(y, x, z, w, labels)


def load_config(path) -> dict:
    """Flat key = value file; # starts a comment, blank lines ignored."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise InputError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _json_bytes(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def rejection_table_csv(table: RejectionTable) -> str:
    header = ["test", "estimator", "rho", "pi0", "dz", "strong"]
    if table.kind == "power":
        header.append("beta")
    header += ["reject_rate", "se"]
    lines = [",".join(header)]
    for row in table.rows:
        fields = [row.test, row.estimator, repr(row.rho), repr(row.pi0), str(row.d_z), str(row.strong)]
        if table.kind == "power":
            fields.append(repr(row.beta))
        fields += [repr(row.reject_rate), repr(row.mc_std_err)]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def rejection_table_record(table: RejectionTable) -> dict:
    rows = []
    for row in table.rows:
        rec = {
            "test": row.test,
            "estimator": row.estimator,
            "rho": row.rho,
            "pi0": row.pi0,
            "dz": row.d_z,
            "strong": row.strong,
            "reject_rate": row.reject_rate,
            "se": row.mc_std_err,
            "mc_reps": row.mc_reps,
            "boot_reps": row.boot_reps,
            "n_failed": row.n_failed,
        }
        if table.kind == "power":
            rec["beta"] = row.beta
        rows.append(rec)
    return {"kind": table.kind, "rows": rows}


def render(record, format: str, include_distribution: bool) -> str:
    """The text of a result record in ``format`` ("json" or "csv").

    Accepts anything with ``to_record()`` (test results, confidence sets), a
    RejectionTable, or a plain dict. CSV output is only defined for
    rejection tables and single test results.
    """
    if format not in ("json", "csv"):
        raise InputError(f"unknown output format {format!r}")
    if isinstance(record, RejectionTable):
        if format == "csv":
            return rejection_table_csv(record)
        return _json_bytes(rejection_table_record(record))
    if hasattr(record, "to_record"):
        payload = record.to_record(include_distribution=include_distribution)
        if format == "json":
            return _json_bytes(payload)
        keys = [k for k in payload if not isinstance(payload[k], (dict, list))]
        lines = [",".join(keys)]
        lines.append(",".join(repr(payload[k]) if isinstance(payload[k], float) else str(payload[k]) for k in keys))
        return "\n".join(lines) + "\n"
    if isinstance(record, dict):
        if format == "csv":
            raise InputError("CSV output is not defined for this record type")
        return _json_bytes(record)
    raise InputError(f"cannot serialize {type(record).__name__}")


def write_results(record, path, format: str = "json", include_distribution: bool = False) -> None:
    """Write ``render(record, format, include_distribution)`` to ``path``."""
    text = render(record, format, include_distribution)
    with Path(path).open("w", newline="\n") as fh:
        fh.write(text)
