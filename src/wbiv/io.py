"""CSV ingestion, config files, and result serialization.

CSV schema: a header row with columns resolvable as y, x1..x_dx (or just x),
z1..z_dz, w1..w_dw, and cluster. Files without any w column get a synthesized
intercept. Output is byte-stable for identical inputs: floats are written via
repr (shortest round-trip form) and key order is fixed.
"""

from __future__ import annotations

import csv
import io
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
    # a name resolved twice, or given to two columns, reads one in another's place
    names = [name for group in cols.values() for name in group]
    for name in names:
        if names.count(name) > 1 or header.count(name) > 1:
            raise InputError(f"column {name!r} is named more than once")
    return cols


def _parse_cell(value: str, row: int, column: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise InputError(
            f"row {row}, column {column!r}: could not parse {value!r} as a number"
        ) from None


def _field(row: list[str], k: int, i: int) -> str:
    if k >= len(row):
        raise InputError(f"row {i}: too few fields")
    return row[k].strip()


def _columns_by_cell(text: str, groups: list[list[str]], idx: dict, cluster: str):
    """The numeric columns of ``groups``, side by side, and the cluster
    labels, cell by cell.

    Rows come from ``csv.reader`` and numbers from ``float()``. Groups are
    read one after the other and each row by row, so an error names the
    first bad cell in that order.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    rows = [row for row in reader if row]
    blocks = []
    for names in groups:
        block = np.empty((len(rows), len(names)))
        for i, row in enumerate(rows):
            for k, name in enumerate(names):
                block[i, k] = _parse_cell(_field(row, idx[name], i + 1), i + 1, name)
        blocks.append(block)
    labels = [_field(row, idx[cluster], i + 1) for i, row in enumerate(rows)]
    return np.hstack(blocks), labels


def _columns_loadtxt(text: str, usecols: list[int], label_col: int):
    """The same columns and labels as :func:`_columns_by_cell`, read with
    one ``np.loadtxt`` call; None when that cannot be guaranteed.

    In a file without a quote character, ``csv.reader`` ends a record at
    CR, LF or CRLF, skips empty records and splits fields at every comma,
    so the data lines below are its rows. It raises on a field longer than
    ``csv.field_size_limit()``, so such files are left to it. ``np.loadtxt``
    parses a number with the C function ``float()`` uses, but refuses some
    strings ``float()`` takes (``1_000``, non-ASCII digits); any refusal
    returns None.
    """
    if '"' in text:
        return None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")[1:]
    lines = [line for line in lines if line]
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, usecols=usecols, ndmin=2)
        labels = [line.split(",")[label_col].strip() for line in lines]
    except (ValueError, IndexError):
        return None
    if values.shape[0] != len(lines):
        return None
    return values, labels


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

    The numeric columns are read with one ``np.loadtxt`` call and the labels
    with one split per line. A file that route cannot read exactly as
    ``csv.reader`` and ``float()`` would (quotes, a cell ``np.loadtxt``
    refuses, a short row) falls back to parsing cell by cell. That route
    accepts what ``float()`` accepts, such as ``1_000``, and raises the
    same row and column errors as before, so the result and the messages
    do not depend on the route.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        text = fh.read()
    try:
        header = [h.strip() for h in next(csv.reader(io.StringIO(text, newline="")))]
    except StopIteration:
        raise InputError(f"{path}: empty file") from None
    cols = _resolve_columns(header, column_map)
    idx = {name: header.index(name) for group in cols.values() for name in group}
    groups = [cols[key] for key in ("y", "x", "z", "w")]
    cluster = cols["cluster"][0]
    usecols = [idx[name] for names in groups for name in names]
    parsed = _columns_loadtxt(text, usecols, idx[cluster])
    if parsed is None:
        parsed = _columns_by_cell(text, groups, idx, cluster)
    values, labels = parsed

    bounds = np.cumsum([len(names) for names in groups[:3]])
    y, x, z, w = np.split(values, bounds, axis=1)
    labels = np.array(labels)
    if not cols["w"]:
        w = np.ones((len(labels), 1))

    dataset = build_dataset(y.ravel(), x, z, w, labels)
    if not cluster_dummies:
        return dataset
    dummies = (dataset.cluster_id[:, None] == np.arange(dataset.q)).astype(np.float64)
    has_constant = any(np.ptp(w[:, k]) == 0.0 and w[0, k] != 0.0 for k in range(w.shape[1]))
    if has_constant:
        dummies = dummies[:, 1:]
    return dataset.append_exogenous(dummies)


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


# A rejection table's CSV columns, keys of its record's rows; only a power
# table has beta.
TABLE_CSV_COLUMNS = ("test", "estimator", "rho", "pi0", "dz", "strong", "beta", "reject_rate", "se")


def _csv_text(rows) -> str:
    """``rows`` through ``csv.writer``, which writes a float as its repr."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


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
    rejection tables and single test results without the distribution: a
    record with a list (a set's intervals, ``boot_stats``) is refused, and a
    nested dict (the sign set) becomes columns prefixed with its key.
    """
    if format not in ("json", "csv"):
        raise InputError(f"unknown output format {format!r}")
    if isinstance(record, RejectionTable):
        payload = rejection_table_record(record)
        if format == "json":
            return _json_bytes(payload)
        columns = [key for key in TABLE_CSV_COLUMNS if key != "beta" or record.kind == "power"]
        return _csv_text([columns] + [[row[key] for key in columns] for row in payload["rows"]])
    if hasattr(record, "to_record"):
        payload = record.to_record(include_distribution=include_distribution)
        if format == "json":
            return _json_bytes(payload)
        if any(isinstance(v, list) for v in payload.values()):
            raise InputError("CSV output is not defined for this record type")
        row = {}
        for key, value in payload.items():
            nested = value.items() if isinstance(value, dict) else [(None, value)]
            row.update({key if sub is None else f"{key}_{sub}": v for sub, v in nested})
        return _csv_text([row.keys(), row.values()])
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
