import csv
import io
import json

import numpy as np
import pytest

import wbiv.cli
from conftest import T1_CLUSTER, T1_X, T1_Y, T1_Z
from wbiv.cli import _join_negative_values, main


@pytest.fixture
def t1_csv(tmp_path):
    path = tmp_path / "t1.csv"
    lines = ["y,x,z,cluster"]
    for i in range(6):
        lines.append(
            f"{float(T1_Y[i])!r},{float(T1_X[i])!r},{float(T1_Z[i])!r},{T1_CLUSTER[i]}"
        )
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def sim_csv(tmp_path):
    # a larger dataset so the CLI tests have some clusters to flip
    from wbiv.rng import substream

    rng = substream(0, "clicsv")
    q, n_per = 6, 25
    n = q * n_per
    cluster = np.repeat(np.arange(q), n_per)
    z = rng.standard_normal(n)
    eps = rng.standard_normal(n)
    x = 1.5 * z + 0.5 * eps + rng.standard_normal(n)
    y = 0.8 * x + 1.0 + eps
    path = tmp_path / "sim.csv"
    lines = ["y,x,z,cluster"]
    for i in range(n):
        lines.append(f"{float(y[i])!r},{float(x[i])!r},{float(z[i])!r},s{cluster[i]}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def two_x_csv(tmp_path):
    # two endogenous regressors and three instruments
    from wbiv.rng import substream

    rng = substream(1, "clicsv2")
    q, n_per = 6, 25
    n = q * n_per
    cluster = np.repeat(np.arange(q), n_per)
    z = rng.standard_normal((n, 3))
    eps = rng.standard_normal(n)
    x = z[:, :2] + z[:, 2:] + 0.5 * eps[:, None] + rng.standard_normal((n, 2))
    y = x @ np.array([-0.5, 1.0]) + eps
    path = tmp_path / "twox.csv"
    lines = ["y,x1,x2,z1,z2,z3,cluster"]
    for i in range(n):
        cells = [y[i], *x[i], *z[i]]
        lines.append(",".join(repr(float(v)) for v in cells) + f",s{cluster[i]}")
    path.write_text("\n".join(lines) + "\n")
    return path


# A non-finite option value and the input it is reported as.
NON_FINITE = [
    (["test", "--test", "ar", "--beta0", "nan"], "beta_0"),
    (["test", "--test", "ar", "--beta0", "inf"], "beta_0"),
    (["test", "--test", "wald-cr", "--beta0", "nan"], "lambda_0"),
    (["test", "--test", "score-wald", "--beta0", "nan"], "lambda_0"),
    (["test", "--test", "ar-cr", "--beta0", "nan"], "beta_0"),
    (["test", "--test", "cqlr", "--beta0", "nan"], "beta_0"),
    (["test", "--test", "wald", "--lam", "nan"], "lambda_beta"),
    (["test", "--test", "wald", "--method", "full", "--fuller-c", "nan"], "fuller_c"),
    (["fit", "--method", "full", "--fuller-c", "nan"], "fuller_c"),
    (["cs", "--step", "nan"], "step"),
    (["cs", "--grid-lo", "nan"], "grid_lo"),
    (["cs", "--grid-hi", "inf"], "grid_hi"),
    (["cs", "--grid-lo", "-inf"], "grid_lo"),
    (["simulate", "size", "--pi0", "nan"], "pi0"),
    (["simulate", "power", "--beta-grid", "nan"], "beta_true"),
]

# An option value that cannot be run, refused before any work, and the
# text it is reported with. The grids are refused before they are built.
REFUSED = [
    (["cs", "--test", "ar", "--step", "1e-300"], "grid of more than"),
    (["cs", "--test", "ar", "--grid-hi", "1e300", "--step", "1e-9"], "grid of more than"),
    (["simulate", "size", "--dz", "-1"], "need d_z >= 1"),
    (["simulate", "size", "--strong", "1.5"], "--strong takes whole cluster counts"),
    (["cs", "--test", "ar", "--workers", "0"], "workers must be at least 1, got 0"),
    (["simulate", "size", "--workers", "-1"], "workers must be at least 1, got -1"),
    (["simulate", "size", "--beta-grid", "1,2"], "--beta-grid applies to power mode only"),
    (["cs", "--test", "ar", "--format", "csv"], "CSV output is defined only"),
    (["test", "--test", "ar", "--full", "--format", "csv"], "CSV output is defined only"),
    (["simulate", "power", "--pi0", "0"], "pi0 = 0 needs an explicit beta grid (--beta-grid)"),
    (["simulate", "power", "--pi0", "1e-310"],
     "pi0 = 1e-310 needs an explicit beta grid (--beta-grid)"),
]


class TestFit:
    def test_fit_json(self, t1_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert main(["fit", str(t1_csv), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["q"] == 2
        assert payload["kappa"] == 1.0
        assert "1" in payload["first_stage_by_cluster"]

    def test_fit_stdout(self, t1_csv, capsys):
        assert main(["fit", str(t1_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "tsls"

    def test_fuller_c_moves_the_full_kappa(self, sim_csv, capsys):
        assert main(["fit", str(sim_csv), "--method", "liml"]) == 0
        liml = json.loads(capsys.readouterr().out)["kappa"]
        assert main(["fit", str(sim_csv), "--method", "full", "--fuller-c", "2"]) == 0
        full = json.loads(capsys.readouterr().out)["kappa"]
        assert full == liml - 2.0 / (150 - 1 - 1)  # n - d_z - d_w

    def test_cluster_dummies_keep_the_first_stage_slopes(self, sim_csv, capsys):
        # W is a synthesized intercept plus the dummies of clusters 2..q
        assert main(["fit", str(sim_csv)]) == 0
        plain = json.loads(capsys.readouterr().out)["first_stage_by_cluster"]
        assert main(["fit", str(sim_csv), "--cluster-dummies"]) == 0
        with_dummies = json.loads(capsys.readouterr().out)["first_stage_by_cluster"]
        assert with_dummies.keys() == plain.keys()
        for label, slopes in plain.items():
            np.testing.assert_allclose(with_dummies[label], slopes, rtol=1e-10)


class TestTest:
    def test_wald_json_schema(self, sim_csv, tmp_path):
        out = tmp_path / "res.json"
        rc = main([
            "test", str(sim_csv), "--test", "wald", "--beta0", "0",
            "--alpha", "0.1", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["test"] == "wald"
        assert payload["signset"]["mode"] == "exhaustive"
        assert isinstance(payload["reject"], bool)

    def test_csv_row_carries_the_sign_set(self, sim_csv, capsys):
        rows = {}
        for signs in (["exhaustive"], ["sampled", "-B", "99"]):
            argv = ["test", str(sim_csv), "--test", "wald", "--format", "csv", "--signs"]
            assert main(argv + signs) == 0
            rows[signs[0]] = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        exhaustive, sampled = rows["exhaustive"], rows["sampled"]
        assert len(exhaustive) == len(sampled) == 1
        assert list(exhaustive[0]) != list(sampled[0])
        assert exhaustive[0]["signset_mode"] == "exhaustive"
        assert exhaustive[0]["signset_size"] == "64"
        assert (sampled[0]["signset_mode"], sampled[0]["signset_B"]) == ("sampled", "99")
        assert sampled[0]["signset_seed"] == "0"

    def test_full_flag_includes_distribution(self, sim_csv, tmp_path):
        out = tmp_path / "res.json"
        main(["test", str(sim_csv), "--test", "ar", "--full", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert len(payload["boot_stats"]) == 64

    def test_score_wald_runs(self, sim_csv, tmp_path):
        out = tmp_path / "res.json"
        assert main(["test", str(sim_csv), "--test", "score-wald", "--out", str(out)]) == 0

    def test_identical_seed_identical_bytes(self, sim_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["test", str(sim_csv), "--test", "wald-cr", "--signs", "sampled",
                "-B", "73", "--seed", "5", "--full"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_code(self, sim_csv):
        assert main(["test", str(sim_csv), "--test", "nope"]) == 1
        assert main(["test", "/nonexistent.csv", "--test", "wald"]) == 1

    @pytest.mark.parametrize("lam", ["1", "1,0,0"])
    def test_lam_length_other_than_d_x_is_an_input_error(self, two_x_csv, capsys, lam):
        assert main(["test", str(two_x_csv), "--test", "wald", "--lam", lam]) == 1
        err = capsys.readouterr().err
        assert err.startswith("wbiv: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["test", "--test", "wald", "--beta0", "0.5", "--lam", "1"], "--beta0"),
        (["test", "--test", "ar", "--lam", "1"], "--lam"),
        (["test", "--test", "lm", "--lambda0", "0.5"], "--lambda0"),
        (["test", "--test", "wald", "--lambda0", "0.5"], "--lambda0"),
        (["test", "--test", "wald", "--beta0", "0.5,7"], "--beta0"),
        (["test", "--test", "ar", "--method", "liml", "--fuller-c", "3"], "--method"),
        (["test", "--test", "lm", "--fuller-c", "3"], "--fuller-c"),
        (["test", "--test", "score-wald", "--method", "liml"], "--method"),
        (["test", "--test", "ar-cr-asymptotic", "--method", "tsls"], "--method"),
        (["cs", "--test", "ar", "--method", "full"], "--method"),
        (["cs", "--test", "lm", "--fuller-c", "3"], "--fuller-c"),
        # --fuller-c moves only the FULL kappa
        (["test", "--test", "wald", "--method", "liml", "--fuller-c", "5"], "--fuller-c"),
        (["test", "--test", "wald-cr", "--fuller-c", "5"], "--fuller-c"),
        (["cs", "--test", "wald", "--method", "ba", "--fuller-c", "2"], "--fuller-c"),
        (["fit", "--method", "tsls", "--fuller-c", "7"], "--fuller-c"),
        (["fit", "--method", "liml", "--fuller-c", "1"], "--fuller-c"),
    ], ids=["beta0 with lam", "lam full vector", "lambda0 full vector", "lambda0 without lam",
            "two beta0 values for one regressor", "method full vector", "fuller-c full vector",
            "method score-wald", "explicit tsls full vector", "cs method full vector",
            "cs fuller-c full vector", "fuller-c liml", "fuller-c default tsls",
            "cs fuller-c ba", "fit fuller-c tsls", "fit fuller-c liml"])
    def test_an_option_the_test_would_ignore_is_an_input_error(self, sim_csv, capsys, argv, flag):
        assert main([argv[0], str(sim_csv)] + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("wbiv: error:") and flag in err

    @pytest.mark.parametrize("argv, field", NON_FINITE, ids=[" ".join(a) for a, _ in NON_FINITE])
    def test_a_non_finite_value_is_an_input_error(self, sim_csv, capsys, argv, field):
        if argv[0] != "simulate":  # the simulator draws its own data
            argv = [argv[0], str(sim_csv)] + argv[1:]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("wbiv: error:") and f"non-finite input in {field}\n" in err

    @pytest.mark.parametrize("argv, message", REFUSED, ids=[" ".join(a) for a, _ in REFUSED])
    def test_a_value_that_cannot_run_is_an_input_error(self, sim_csv, capsys, argv, message):
        if argv[0] == "simulate":
            argv = argv + ["--tests", "WB-AR-US", "--reps", "100", "-B", "19"]
        else:
            argv = [argv[0], str(sim_csv)] + argv[1:]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("wbiv: error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["cs", "--test", "ar"], ["test", "--test", "ar", "--full"],
                                      ["fit"], ["diagnose"]])
    def test_csv_is_refused_before_the_data_are_read(self, sim_csv, monkeypatch, capsys, argv):
        monkeypatch.setattr(wbiv.cli, "_load", lambda args: pytest.fail("the data were read"))
        assert main([argv[0], str(sim_csv)] + argv[1:] + ["--format", "csv"]) == 1
        assert "CSV output is defined only" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path):
        # constant instrument: collinear with the intercept after partialling
        path = tmp_path / "bad.csv"
        lines = ["y,x,z,cluster"] + [f"{i}.0,{i % 3}.5,1.0,c{i % 2}" for i in range(8)]
        path.write_text("\n".join(lines) + "\n")
        assert main(["test", str(path), "--test", "wald"]) == 2


class TestConfigAndCs:
    def test_config_file_with_flag_override(self, sim_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("test = ar\nalpha = 0.2\nseed = 9\n")
        out = tmp_path / "r.json"
        rc = main([
            "test", str(sim_csv), "--config", str(cfg), "--alpha", "0.1",
            "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["test"] == "ar"
        assert payload["alpha"] == 0.1  # flag wins over the file

    def test_unknown_config_key_rejected(self, sim_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert main(["test", str(sim_csv), "--config", str(cfg), "--test", "ar"]) == 1

    def test_cs_intervals(self, sim_csv, tmp_path):
        out = tmp_path / "cs.json"
        rc = main([
            "cs", str(sim_csv), "--test", "ar", "--grid-lo", "-1", "--grid-hi", "3",
            "--step", "0.1", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["grid_points"] == 41
        assert payload["intervals"], "strong design should give a nonempty set"


class TestSimulateAndDiagnose:
    def test_simulate_size_csv(self, tmp_path):
        out = tmp_path / "size.csv"
        rc = main([
            "simulate", "size", "--dz", "1", "--pi0", "6", "--rho", "0",
            "--tests", "WB-US:tsls", "--reps", "100", "-B", "19", "--out", str(out),
            "--format", "csv",
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "test,estimator,rho,pi0,dz,strong,reject_rate,se"

    def test_simulate_csv_to_stdout(self, capsys):
        rc = main([
            "simulate", "size", "--dz", "1", "--pi0", "6", "--rho", "0",
            "--tests", "WB-US:tsls", "--reps", "100", "-B", "19", "--format", "csv",
        ])
        assert rc == 0
        assert capsys.readouterr().out.startswith(
            "test,estimator,rho,pi0,dz,strong,reject_rate,se\n"
        )

    def test_simulate_alpha_outside_unit_interval_is_an_input_error(self, capsys):
        rc = main(["simulate", "size", "--tests", "WB-AR-US", "--reps", "100", "-B", "19",
                   "--alpha", "1.5"])
        assert rc == 1
        assert "alpha" in capsys.readouterr().err

    def test_power_without_a_grid_scales_each_cells_grid(self, monkeypatch, capsys):
        # the real run is long: capture what run_power_experiment would get
        seen = {}
        monkeypatch.setattr(wbiv.cli, "run_power_experiment",
                            lambda configs, tests, **kw: seen.update(kw, configs=configs) or {})
        assert main(["simulate", "power", "--pi0", "2,6", "--tests", "WB-AR-US"]) == 0
        assert seen["beta_grid"] is None
        assert [c.pi0 for c in seen["configs"]] == [2.0, 6.0]
        assert main(["simulate", "power", "--beta-grid=-1,0", "--tests", "WB-AR-US"]) == 0
        assert seen["beta_grid"] == [-1.0, 0.0]

    def test_diagnose(self, t1_csv, tmp_path):
        out = tmp_path / "diag.json"
        assert main(["diagnose", str(t1_csv), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["max_abs_by_cluster"]) == {"1", "2"}


class TestNegativeValues:
    """A value that starts with a minus sign is read as the value of the
    option before it, with the same output as the ``--flag=value`` form."""

    SIM = ["--tests", "WB-US:tsls", "--reps", "100", "-B", "19", "--format", "csv"]

    def _same_as_joined(self, argv, flag, value, capsys):
        i = argv.index(flag)
        assert main(argv) == 0
        spaced = capsys.readouterr().out
        assert main(argv[:i] + [f"{flag}={value}"] + argv[i + 2:]) == 0
        assert capsys.readouterr().out == spaced
        return spaced

    def test_beta0_list(self, two_x_csv, capsys):
        # a full-vector test needs both values: one value would be an error
        argv = ["test", str(two_x_csv), "--test", "ar", "--beta0", "-0.5,1", "--full"]
        out = json.loads(self._same_as_joined(argv, "--beta0", "-0.5,1", capsys))
        assert main(argv[:4] + ["--beta0=0,0", "--full"]) == 0
        assert json.loads(capsys.readouterr().out)["statistic"] != out["statistic"]

    def test_lam_list(self, two_x_csv, capsys):
        argv = ["test", str(two_x_csv), "--test", "wald", "--lam", "-1,0", "--lambda0", "0.5"]
        out = json.loads(self._same_as_joined(argv, "--lam", "-1,0", capsys))
        # the same restriction with both sides negated
        assert main(argv[:4] + ["--lam=1,0", "--lambda0", "-0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["statistic"] == pytest.approx(out["statistic"])

    def test_beta_grid(self, capsys):
        argv = ["simulate", "power", "--pi0", "6", "--beta-grid", "-1.2,0,1.2"] + self.SIM
        out = self._same_as_joined(argv, "--beta-grid", "-1.2,0,1.2", capsys)
        assert [line.split(",")[6] for line in out.splitlines()[1:]] == ["-1.2", "0.0", "1.2"]

    def test_pi0_list(self, capsys):
        argv = ["simulate", "size", "--pi0", "-4,6"] + self.SIM
        out = self._same_as_joined(argv, "--pi0", "-4,6", capsys)
        assert [line.split(",")[3] for line in out.splitlines()[1:]] == ["-4.0", "6.0"]

    def test_rho_list(self, capsys):
        # the design rejects a negative rho, which shows the value was read
        for rho in (["--rho", "-0.5,0"], ["--rho=-0.5,0"]):
            assert main(["simulate", "size"] + rho + self.SIM) == 1
            assert "rho must lie in [0, 1)" in capsys.readouterr().err

    def test_float_in_scientific_notation(self, sim_csv, capsys):
        argv = ["cs", str(sim_csv), "--test", "ar", "--grid-lo", "-2e-1", "--grid-hi", "0.2",
                "--step", "0.1"]
        out = json.loads(self._same_as_joined(argv, "--grid-lo", "-2e-1", capsys))
        assert out["grid_lo"] == -0.2 and out["grid_points"] == 5

    def test_non_finite_words_in_any_case(self):
        argv = ["--grid-lo", "-Inf", "--beta0", "-nan,1", "--lam", "-INFINITY", "-B", "199",
                "--out", "-info"]
        assert _join_negative_values(argv) == [
            "--grid-lo=-Inf", "--beta0=-nan,1", "--lam=-INFINITY", "-B", "199", "--out", "-info",
        ]


def test_output_digest_compare_counts_moved_floats(tmp_path):
    # scripts/output_digest.py --compare, which checks a change that moves
    # output bits: per differing call, the floats moved, the largest
    # relative move, and whether the text with floats masked agrees
    import contextlib
    import importlib.util
    import io
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", script)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    a = "exit 0\nstatistic 1.5\ncritical 2.0\nreject false\n"
    assert digest.compare(a, a.replace("1.5", "1.5000000000000002")) == (
        "1 of 2 floats moved, largest relative move 1.5e-16, masked text identical")
    assert digest.compare(a, a.replace("false", "true")) == "masked text differs"
    for side, text in (("parent", a), ("change", a.replace("2.0", "2.0000001"))):
        (tmp_path / side).mkdir()
        (tmp_path / side / "test wald.txt").write_text(text)
        (tmp_path / side / "cs ar.txt").write_text(a)
    (tmp_path / "change" / "diagnose.txt").write_text(a)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        digest.compare_dirs(tmp_path / "parent", tmp_path / "change")
    assert out.getvalue().splitlines() == [
        f"diagnose: only in {tmp_path / 'change'}",
        "test wald: 1 of 2 floats moved, largest relative move 5e-08, masked text identical",
    ]
