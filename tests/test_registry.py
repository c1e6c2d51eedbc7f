import numpy as np
import pytest

from conftest import random_dataset
from wbiv import (
    DgpConfig,
    Hypothesis,
    InputError,
    NumericalError,
    TestSpec,
    ar_asymptotic_cr_test,
    ar_bootstrap_test,
    build_dataset,
    lm_cqlr_bootstrap_test,
    make_sign_set,
    run_size_experiment,
    run_tests,
    score_bootstrap_wald_test,
    simulate_dgp,
    wrec_wald_test,
)
from wbiv.cli import main
from wbiv.registry import ALIASES, TESTS
from wbiv.rng import substream
from wbiv.simulate import _replicate

ALPHA = 0.1
B0 = 0.3
HYP = Hypothesis.wald(np.ones((1, 1)), [B0])

# Each registry name's public single-test function, called as a user would.
PUBLIC = {
    "wald": lambda ds, s: wrec_wald_test(ds, HYP, "liml", False, s, ALPHA),
    "wald-cr": lambda ds, s: wrec_wald_test(ds, HYP, "liml", True, s, ALPHA),
    "ar": lambda ds, s: ar_bootstrap_test(ds, [B0], False, s, ALPHA),
    "ar-cr": lambda ds, s: ar_bootstrap_test(ds, [B0], True, s, ALPHA),
    "ar-cr-asymptotic": lambda ds, s: ar_asymptotic_cr_test(ds, [B0], ALPHA),
    "lm": lambda ds, s: lm_cqlr_bootstrap_test(ds, [B0], "lm", s, ALPHA),
    "cqlr": lambda ds, s: lm_cqlr_bootstrap_test(ds, [B0], "cqlr", s, ALPHA),
    "score-wald": lambda ds, s: score_bootstrap_wald_test(ds, HYP, ALPHA, s),
}


def test_every_name_matches_its_public_function_bitwise():
    assert set(PUBLIC) == set(TESTS)
    ds = random_dataset(21, q=7, n_per=15, rho=0.5, pi_scale=0.8)
    signs = make_sign_set(7, "exhaustive")
    results = run_tests(ds, list(TESTS), HYP, estimator="liml", sign_set=signs, alpha=ALPHA)
    for name, public in PUBLIC.items():
        got, want = results[name], public(ds, signs)
        assert got.critical_value == want.critical_value, name
        assert got.reject == want.reject, name
        if name == "ar-cr-asymptotic":
            assert got.statistic_sq == want.statistic_sq
        else:
            assert got.statistic == want.statistic, name
            assert np.array_equal(got.boot_stats, want.boot_stats), name


def test_replicate_matches_the_public_functions():
    config = DgpConfig(q=10, d_z=2, pi0=4.0, rho=0.5)
    seed, cell, rep, boot_reps = 0, "cell", 3, 99
    tests = [("WB-US", "tsls"), ("WB-S", "tsls"), ("WB-S", "liml")]
    tests += [(name, "-") for name in ("WB-AR-US", "WB-AR-S", "ASY-AR-S", "WB-LM", "WB-CQLR")]
    got = _replicate(config, tests, seed, cell, rep, boot_reps, ALPHA)

    ds = simulate_dgp(config, substream(seed, cell, rep))
    signs = make_sign_set(10, "sampled", B=boot_reps, seed=(seed, cell, rep, "signs"))
    hyp = Hypothesis.wald(np.ones((1, 1)), [0.0])
    want = {
        "WB-US:tsls": wrec_wald_test(ds, hyp, "tsls", False, signs, ALPHA),
        "WB-S:tsls": wrec_wald_test(ds, hyp, "tsls", True, signs, ALPHA),
        "WB-S:liml": wrec_wald_test(ds, hyp, "liml", True, signs, ALPHA),
        "WB-AR-US:-": ar_bootstrap_test(ds, [0.0], False, signs, ALPHA),
        "WB-AR-S:-": ar_bootstrap_test(ds, [0.0], True, signs, ALPHA),
        "ASY-AR-S:-": ar_asymptotic_cr_test(ds, [0.0], ALPHA),
        "WB-LM:-": lm_cqlr_bootstrap_test(ds, [0.0], "lm", signs, ALPHA),
        "WB-CQLR:-": lm_cqlr_bootstrap_test(ds, [0.0], "cqlr", signs, ALPHA),
    }
    assert got == {key: res.reject for key, res in want.items()}


@pytest.mark.parametrize("name", ["nope", "WB-US"])
def test_unknown_name_rejected_alike(name, tmp_path, capsys):
    message = f"unknown test '{name}'"
    with pytest.raises(InputError, match=message):
        TestSpec(name)
    path = tmp_path / "data.csv"
    ds = random_dataset(2, q=4, n_per=5)
    rows = [f"{y!r},{x!r},{z!r},{c}" for y, x, z, c in
            zip(ds.y.tolist(), ds.X[:, 0].tolist(), ds.Z[:, 0].tolist(), ds.cluster_id)]
    path.write_text("\n".join(["y,x,z,cluster"] + rows) + "\n")
    assert main(["test", str(path), "--test", name]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["nope", "wald"])
def test_unknown_simulation_name_rejected(name):
    assert name not in ALIASES
    with pytest.raises(InputError, match=f"unknown test '{name}'"):
        run_size_experiment([DgpConfig()], [name], mc_reps=100)


def test_member_failure_leaves_the_rest_of_the_family():
    # y = 0.5 x exactly: at beta_0 = 0.5 the null-imposed scores vanish, so
    # the null CCE is singular while the unstudentized AR test is defined
    rng = substream(4, "exact-null")
    x = rng.standard_normal(24)
    ds = build_dataset(0.5 * x, x, rng.standard_normal(24), np.ones(24), np.repeat(range(4), 6))
    names = ["ar", "ar-cr", "ar-cr-asymptotic"]
    out = run_tests(ds, names, Hypothesis.full_vector([0.5]))
    assert not out["ar"].reject
    assert isinstance(out["ar-cr"], NumericalError)
    assert isinstance(out["ar-cr-asymptotic"], NumericalError)


def test_shared_pass_failure_fails_the_whole_family():
    # 8 rows cannot fit the 4 * 2 + 1 + 1 columns of the WREC first stage
    ds = random_dataset(6, q=4, n_per=2, d_z=2, d_w=1)
    out = run_tests(ds, ["wald", "wald-cr", "ar"], Hypothesis.wald(np.ones((1, 1)), [0.0]))
    assert isinstance(out["wald"], InputError)
    assert out["wald-cr"] is out["wald"]
    assert out["ar"].test == "ar"


def test_full_vector_tests_need_an_identity_lambda():
    ds = random_dataset(7, q=5, n_per=10)
    with pytest.raises(InputError, match="full vector"):
        run_tests(ds, ["lm"], Hypothesis.wald(2.0 * np.ones((1, 1)), [0.0]))
