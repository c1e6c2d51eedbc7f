import json

import numpy as np
import pytest

from conftest import T1_CLUSTER, T1_X, T1_Y, T1_Z
from wbiv.cli import main


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

    def test_diagnose(self, t1_csv, tmp_path):
        out = tmp_path / "diag.json"
        assert main(["diagnose", str(t1_csv), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["max_abs_by_cluster"]) == {"1", "2"}
