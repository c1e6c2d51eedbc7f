import csv

import numpy as np
import pytest

import wbiv.io
from conftest import T1_CLUSTER, T1_X, T1_Y, T1_Z
from wbiv import InputError, build_dataset, load_csv, write_results
from wbiv.io import load_config
from wbiv.simulate import DgpConfig, run_size_experiment


def write_t1_csv(path, extra_w=False):
    lines = ["y,x,z,cluster" if not extra_w else "y,x,z,w1,cluster"]
    for i in range(6):
        fields = [repr(float(T1_Y[i])), repr(float(T1_X[i])), repr(float(T1_Z[i]))]
        if extra_w:
            fields.append("1.0")
        fields.append(str(T1_CLUSTER[i]))
        lines.append(",".join(fields))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadCsv:
    def test_t1_round_trip(self, tmp_path, t1):
        path = write_t1_csv(tmp_path / "t1.csv")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.y, t1.y)
        np.testing.assert_array_equal(ds.X, t1.X)
        np.testing.assert_array_equal(ds.Z, t1.Z)
        np.testing.assert_array_equal(ds.W, t1.W)  # synthesized intercept
        assert ds.cluster_labels == ("1", "2")

    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(8)
        path = tmp_path / "prec.csv"
        lines = ["y,x,z,cluster"]
        for i in range(8):
            lines.append(f"{float(y[i])!r},{i % 3},{i},{i % 2}")
        path.write_text("\n".join(lines) + "\n")
        ds = load_csv(path)
        order = np.argsort(np.arange(8) % 2, kind="stable")
        np.testing.assert_array_equal(ds.y, y[order])

    def test_cluster_dummies_without_intercept(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "d.csv"
        lines = ["y,x,z,w1,cluster"]
        for i in range(9):
            lines.append(
                f"{float(rng.standard_normal())!r},{float(rng.standard_normal())!r},"
                f"{float(rng.standard_normal())!r},{float(rng.standard_normal())!r},c{i % 3}"
            )
        path.write_text("\n".join(lines) + "\n")
        ds = load_csv(path, cluster_dummies=True)
        assert ds.d_w == 1 + 3  # w1 plus all three dummies

    def test_cluster_dummies_with_intercept_drop_first(self, tmp_path):
        path = write_t1_csv(tmp_path / "t1w.csv", extra_w=True)  # w1 = constant
        ds = load_csv(path, cluster_dummies=True)
        assert ds.d_w == 1 + (2 - 1)  # intercept detected: first dummy dropped

    def test_malformed_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["y,x,z1,cluster"] + ["1.0,2.0,3.0,a"] * 20
        rows[17] = "1.0,2.0,oops,a"
        rows.append("1.0,2.0,3.0,b")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError, match=r"row 17, column 'z1'"):
            load_csv(path)

    def test_column_map(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text(
            "wage,educ,qob,state\n1.0,10,1,s1\n2.0,12,0,s1\n1.5,11,1,s2\n2.5,13,0,s2\n"
        )
        ds = load_csv(
            path, column_map={"y": "wage", "x": ["educ"], "z": ["qob"], "cluster": "state"}
        )
        assert ds.n == 4 and ds.d_w == 1

    def test_missing_column_errors(self, tmp_path):
        path = tmp_path / "noz.csv"
        path.write_text("y,x,cluster\n1,2,a\n3,4,b\n")
        with pytest.raises(InputError, match="'z'"):
            load_csv(path)


HEADER = ["y", "x", "z", "w1", "cluster"]
ROWS = [
    [repr(float(v)) for v in row] + [f"c{i % 3}"]
    for i, row in enumerate(np.random.default_rng(5).standard_normal((12, 4)))
]
FIELDS = ("y", "X", "Z", "W", "cluster_id", "cluster_starts", "cluster_labels")


def _edit(cells: dict) -> list[list[str]]:
    """A copy of ``ROWS`` with ``cells[(i, k)]`` in place of cell (i, k)."""
    return [[cells.get((i, k), c) for k, c in enumerate(row)] for i, row in enumerate(ROWS)]


def _text(rows=ROWS, header=HEADER, end="\n", blank=()) -> str:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for at in sorted(blank, reverse=True):
        lines.insert(at, "")
    return end.join(lines) + end


# name: (file text, load_csv keywords, whether the np.loadtxt route reads it,
# or None when the file is refused before either route)
CSV_CASES = {
    "plain": (_text(), {}, True),
    "crlf": (_text(end="\r\n"), {}, True),
    "cr": (_text(end="\r"), {}, True),
    "blank lines": (_text(blank=(1, 4, 5, 13)) + "\n", {}, True),
    "spaces around cells": (
        _text([[f" {c}\t " for c in row] for row in ROWS], [f" {h} " for h in HEADER]), {}, True),
    "hash in label": (_text(_edit({(i, 4): f"c#{i % 3}" for i in range(12)})), {}, True),
    "quoted numbers and labels": (
        _text(_edit({**{(i, 1): f'"{ROWS[i][1]}"' for i in range(12)}, (0, 4): '" c,1 "'})),
        {}, False),
    "underscore": (_text(_edit({(3, 1): "1_000"})), {}, False),
    "full-width digits": (_text(_edit({(2, 2): "\uff11\uff12.\uff15"})), {}, False),
    "short row, label": (_text(ROWS[:5] + [ROWS[5][:4]] + ROWS[6:]), {}, False),
    "short row, number": (_text(ROWS[:7] + [ROWS[7][:2]] + ROWS[8:]), {}, False),
    "extra unused columns": (
        _text([r[:1] + ["n/a"] + r[1:] + ["1_000"] for r in ROWS],
              ["y", "note", "x", "z", "w1", "cluster", "extra"]), {}, True),
    "no w column": (_text([r[:3] + r[4:] for r in ROWS], ["y", "x", "z", "cluster"]), {}, True),
    "dummies, no constant w": (_text(), {"cluster_dummies": True}, True),
    "dummies, constant w": (
        _text(_edit({(i, 3): "1.0" for i in range(12)})), {"cluster_dummies": True}, True),
    "bad cell": (_text(_edit({(4, 2): "oops", (6, 1): "bad"})), {}, False),
    "bad cells in one group": (
        _text(_edit({(5, 2): "oops", (2, 3): "bad"}), ["y", "x", "z1", "z2", "cluster"]),
        {}, False),
    "whitespace-only line": (_text(ROWS[:3] + [["  "]] + ROWS[3:]), {}, False),
    "non-finite cell": (_text(_edit({(1, 0): "nan"})), {}, True),
    "no data rows": (_text([]), {}, False),
    "no data rows, dummies": (_text([]), {"cluster_dummies": True}, False),
    "field over the csv limit": (
        _text(_edit({(2, 4): "c" * (csv.field_size_limit() + 1)})), {}, False),
    "repeated column": (_text(header=["y", "x", "z", "z", "cluster"]), {}, None),
    "repeated column in the map": (_text(), {"column_map": {"x": ["x", "x"]}}, None),
}


def _outcome(path, kwargs):
    try:
        ds = load_csv(path, **kwargs)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return {name: getattr(ds, name) for name in FIELDS}


def _same(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    for name in FIELDS:
        u, v = a[name], b[name]
        if isinstance(u, tuple):
            if u != v:
                return False
        elif u.dtype != v.dtype or u.shape != v.shape or u.tobytes() != v.tobytes():
            return False
    return True


class TestLoadCsvRoutes:
    """The np.loadtxt route gives what the cell-by-cell route gives: the same
    arrays and labels, or the same error."""

    @pytest.mark.parametrize("name", list(CSV_CASES))
    def test_routes_agree(self, name, tmp_path, monkeypatch):
        text, kwargs, fast = CSV_CASES[name]
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode("utf-8"))
        routes = []
        loadtxt_route = wbiv.io._columns_loadtxt

        def spy(*args):
            out = loadtxt_route(*args)
            routes.append(out is not None)
            return out

        monkeypatch.setattr(wbiv.io, "_columns_loadtxt", spy)
        got = _outcome(path, kwargs)
        monkeypatch.setattr(wbiv.io, "_columns_loadtxt", lambda *args: None)
        want = _outcome(path, kwargs)
        assert routes == ([] if fast is None else [fast])
        assert _same(got, want), (got, want)

    def test_error_cases_name_the_cell(self, tmp_path):
        expected = {
            "short row, label": "row 6: too few fields",
            "short row, number": "row 8: too few fields",
            "bad cell": "row 7, column 'x': could not parse 'bad' as a number",
            "bad cells in one group": "row 3, column 'z2': could not parse 'bad' as a number",
            "whitespace-only line": "row 4, column 'y': could not parse '' as a number",
            "non-finite cell": "non-finite input in y",
            "no data rows, dummies": "need at least 2 clusters, got 0",
            "repeated column": "column 'z' is named more than once",
            "repeated column in the map": "column 'x' is named more than once",
        }
        for name, message in expected.items():
            text, kwargs, _ = CSV_CASES[name]
            path = tmp_path / "case.csv"
            path.write_bytes(text.encode("utf-8"))
            with pytest.raises(InputError) as info:
                load_csv(path, **kwargs)
            assert str(info.value) == message

    def test_labels_as_csv_reader_gives_them(self, tmp_path):
        for name in ("spaces around cells", "hash in label", "quoted numbers and labels"):
            path = tmp_path / "case.csv"
            path.write_bytes(CSV_CASES[name][0].encode("utf-8"))
            with path.open(newline="") as fh:
                labels = sorted({row[4].strip() for row in list(csv.reader(fh))[1:]})
            assert load_csv(path).cluster_labels == tuple(labels)


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nalpha = 0.05\nboot-reps = 99\n\ntest = ar # inline\n")
        assert load_config(path) == {"alpha": "0.05", "boot-reps": "99", "test": "ar"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("alpha = 0.1\nalpha = 0.2\n")
        with pytest.raises(InputError, match="duplicate"):
            load_config(path)


class TestWriteResults:
    def test_test_result_json_keys(self, tmp_path, t1):
        from wbiv import Hypothesis, make_sign_set, wrec_wald_test

        res = wrec_wald_test(
            t1, Hypothesis.wald(np.eye(1), [0.0]), sign_set=make_sign_set(2, "exhaustive")
        )
        out = tmp_path / "res.json"
        write_results(res, out)
        import json

        payload = json.loads(out.read_text())
        assert list(payload) == [
            "test", "estimator", "statistic", "critical_value",
            "pvalue", "reject", "alpha", "signset",
        ]
        # CSV holds one row of scalars: it would drop the distribution
        write_results(res, tmp_path / "res.csv", format="csv")
        with pytest.raises(InputError, match="CSV output is not defined"):
            write_results(res, tmp_path / "full.csv", format="csv", include_distribution=True)

    def test_csv_keeps_a_tuple_seed_in_one_field(self, tmp_path, t1):
        from wbiv import Hypothesis, make_sign_set, wrec_wald_test

        signs = make_sign_set(2, "sampled", B=9, seed=(5, "cs", 1))
        res = wrec_wald_test(t1, Hypothesis.wald(np.eye(1), [0.0]), sign_set=signs)
        write_results(res, tmp_path / "res.csv", format="csv")
        with (tmp_path / "res.csv").open(newline="") as fh:
            header, row = csv.reader(fh)
        assert dict(zip(header, row))["signset_seed"] == "(5, 'cs', 1)"
        assert len(header) == len(row)

    def test_rejection_table_csv_schema(self, tmp_path):
        table = run_size_experiment(
            [DgpConfig(q=10, d_z=1, pi0=6.0, rho=0.0)],
            ["WB-US:tsls"],
            mc_reps=100,
            boot_reps=19,
        )
        out = tmp_path / "table.csv"
        write_results(table, out, format="csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "test,estimator,rho,pi0,dz,strong,reject_rate,se"
        assert lines[1].startswith("WB-US,tsls,0.0,6.0,1,1,")

    def test_confidence_set_json_intervals(self, tmp_path):
        from conftest import random_dataset
        from wbiv import invert_confidence_set

        ds = random_dataset(23, q=4, n_per=25, pi_scale=2.0)
        cs = invert_confidence_set(ds, "ar", grid_lo=-1, grid_hi=3, step=0.25)
        out = tmp_path / "cs.json"
        write_results(cs, out)
        import json

        payload = json.loads(out.read_text())
        assert all(len(pair) == 2 for pair in payload["intervals"])
        # CSV would drop the intervals, which are the set itself
        with pytest.raises(InputError, match="CSV output is not defined"):
            write_results(cs, tmp_path / "cs.csv", format="csv")

    def test_byte_stability(self, tmp_path):
        table1 = run_size_experiment(
            [DgpConfig(q=10, d_z=1, pi0=4.0, rho=0.5)], ["WB-US:tsls"],
            mc_reps=100, boot_reps=19, seed=4,
        )
        table2 = run_size_experiment(
            [DgpConfig(q=10, d_z=1, pi0=4.0, rho=0.5)], ["WB-US:tsls"],
            mc_reps=100, boot_reps=19, seed=4, workers=2,
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(table1, p1, format="csv")
        write_results(table2, p2, format="csv")
        assert p1.read_bytes() == p2.read_bytes()
