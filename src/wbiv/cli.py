"""Command-line surface: fit, test, cs, simulate, diagnose.

Options can also come from a flat ``key = value`` config file via --config;
explicit flags win over file values, unknown keys are rejected. Exit codes:
0 success, 1 usage or input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .confidence import TestSpec, invert_confidence_set
from .data import Hypothesis, assumption_diagnostics, cluster_first_stage, partial_out_exogenous
from .exceptions import InputError, NumericalError
from .inference import make_sign_set, result_or_raise
from .io import load_config, load_csv, render, write_results
from .kclass import METHODS, fit_method
from .registry import FULL_VECTOR, TESTS, lookup, run_tests
from .simulate import (
    DgpConfig,
    default_power_grid,
    run_power_experiment,
    run_size_experiment,
)

TEST_HELP = "one of " + ", ".join(TESTS)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _add_io_args(sub):
    sub.add_argument("data", help="input CSV file")
    sub.add_argument("--y-col")
    sub.add_argument("--x-cols", help="comma-separated endogenous columns")
    sub.add_argument("--z-cols", help="comma-separated instrument columns")
    sub.add_argument("--w-cols", help="comma-separated exogenous columns")
    sub.add_argument("--cluster-col")
    sub.add_argument("--cluster-dummies", action="store_true",
                     help="append cluster dummies to W")


def _add_common(sub):
    sub.add_argument("--config", help="key = value option file; flags override")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _column_map(args) -> dict | None:
    out = {}
    if args.y_col:
        out["y"] = args.y_col
    if args.x_cols:
        out["x"] = args.x_cols.split(",")
    if args.z_cols:
        out["z"] = args.z_cols.split(",")
    if args.w_cols:
        out["w"] = args.w_cols.split(",")
    if args.cluster_col:
        out["cluster"] = args.cluster_col
    return out or None


def _load(args):
    return load_csv(args.data, column_map=_column_map(args), cluster_dummies=args.cluster_dummies)


def build_parser() -> _Parser:
    parser = _Parser(prog="wbiv", description="Wild cluster bootstrap inference for IV regressions")
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="point estimates, per-cluster first stages, diagnostics")
    _add_io_args(p_fit)
    _add_common(p_fit)
    p_fit.add_argument("--method", choices=METHODS, default="tsls")
    p_fit.add_argument("--fuller-c", type=float, default=1.0)

    p_test = subs.add_parser("test", help="run one bootstrap test")
    _add_io_args(p_test)
    _add_common(p_test)
    p_test.add_argument("--test", required=True, help=TEST_HELP)
    p_test.add_argument("--method", choices=METHODS, default="tsls")
    p_test.add_argument("--fuller-c", type=float, default=1.0)
    p_test.add_argument("--beta0", help="comma-separated null value(s) of beta (default 0)")
    p_test.add_argument("--lam", help="comma-separated lambda vector (Wald; default unit)")
    p_test.add_argument("--lambda0", type=float, help="restriction target (Wald; default beta0)")
    p_test.add_argument("--alpha", type=float, default=0.1)
    p_test.add_argument("--signs", choices=("auto", "exhaustive", "sampled"), default="auto")
    p_test.add_argument("-B", "--boot-reps", type=int, default=499)
    p_test.add_argument("--full", action="store_true", help="include the bootstrap distribution")

    p_cs = subs.add_parser("cs", help="confidence set by grid test inversion")
    _add_io_args(p_cs)
    _add_common(p_cs)
    p_cs.add_argument("--test", default="ar", help=TEST_HELP)
    p_cs.add_argument("--method", choices=METHODS, default="tsls")
    p_cs.add_argument("--fuller-c", type=float, default=1.0)
    p_cs.add_argument("--grid-lo", type=float, default=-10.0)
    p_cs.add_argument("--grid-hi", type=float, default=10.0)
    p_cs.add_argument("--step", type=float, default=0.01)
    p_cs.add_argument("--alpha", type=float, default=0.1)
    p_cs.add_argument("-B", "--boot-reps", type=int, default=2000)
    p_cs.add_argument("--sign-mode", choices=("fresh", "shared"), default="fresh")
    p_cs.add_argument("--workers", type=int, default=1)

    p_sim = subs.add_parser("simulate", help="size or power experiment")
    p_sim.add_argument("mode", choices=("size", "power"))
    _add_common(p_sim)
    p_sim.add_argument("--q", type=int, default=10, choices=(10, 14))
    p_sim.add_argument("--dz", type=int, default=1)
    p_sim.add_argument("--pi0", default="4", help="comma-separated first-stage strengths")
    p_sim.add_argument("--rho", default="0", help="comma-separated endogeneity values")
    p_sim.add_argument("--strong", default="1", help="comma-separated strong-cluster counts")
    p_sim.add_argument("--tests", default="WB-US:tsls,WB-S:tsls",
                       help="comma-separated test names, e.g. WB-US:full,WB-AR-US")
    p_sim.add_argument("--beta-grid", help="comma-separated true betas (power mode)")
    p_sim.add_argument("--reps", type=int, default=2000)
    p_sim.add_argument("-B", "--boot-reps", type=int, default=499)
    p_sim.add_argument("--alpha", type=float, default=0.1)
    p_sim.add_argument("--workers", type=int, default=1)

    p_diag = subs.add_parser("diagnose", help="per-cluster instrument-exogenous cross moments")
    _add_io_args(p_diag)
    _add_common(p_diag)
    return parser


def _config_tokens(path: str) -> list[str]:
    tokens = []
    for key, value in load_config(path).items():
        flag = "--" + key.replace("_", "-")
        low = value.lower()
        if low in ("true", "false"):
            if low == "true":
                tokens.append(flag)
        else:
            tokens.extend([flag, value])
    return tokens


def _emit(args, record):
    full = getattr(args, "full", False)
    if args.out:
        write_results(record, args.out, format=args.format, include_distribution=full)
    else:
        sys.stdout.write(render(record, args.format, include_distribution=full))


def _hypothesis(args, d_x: int) -> Hypothesis:
    beta0 = _floats(args.beta0) if args.beta0 else [0.0] * d_x
    if lookup(args.test, TESTS) in FULL_VECTOR:
        if len(beta0) != d_x:
            raise InputError(f"--beta0 must give {d_x} value(s) for a full-vector test")
        return Hypothesis.full_vector(beta0)
    if args.lam:
        lam = np.array(_floats(args.lam)).reshape(-1, 1)
        lam0 = args.lambda0 if args.lambda0 is not None else 0.0
        return Hypothesis.wald(lam, [lam0])
    if d_x != 1:
        raise InputError("give --lam/--lambda0 to test a restriction with several regressors")
    return Hypothesis.wald(np.ones((1, 1)), [beta0[0]])


def _cmd_fit(args) -> dict:
    dataset = _load(args)
    design = partial_out_exogenous(dataset)
    fit = fit_method(dataset, design, args.method, args.fuller_c)
    slopes = cluster_first_stage(dataset)
    diag = assumption_diagnostics(design)
    return {
        "method": args.method,
        "n": dataset.n,
        "q": dataset.q,
        "kappa": fit.kappa,
        "beta_hat": fit.beta_hat.tolist(),
        "gamma_hat": fit.gamma_hat.tolist(),
        "first_stage_by_cluster": {
            str(label): slopes[j].tolist() for j, label in enumerate(dataset.cluster_labels)
        },
        "q_zw_max_abs_by_cluster": {
            str(label): float(diag.max_abs[j]) for j, label in enumerate(dataset.cluster_labels)
        },
    }


def _cmd_test(args):
    dataset = _load(args)
    hyp = _hypothesis(args, dataset.d_x)
    sign_set = make_sign_set(dataset.q, args.signs, B=args.boot_reps, seed=args.seed)
    results = run_tests(
        dataset, [args.test], hyp, estimator=args.method, fuller_c=args.fuller_c,
        sign_set=sign_set, alpha=args.alpha,
    )
    return result_or_raise(results[args.test])


def _cmd_cs(args):
    dataset = _load(args)
    spec = TestSpec(test=args.test, estimator=args.method, fuller_c=args.fuller_c)
    return invert_confidence_set(
        dataset, spec, grid_lo=args.grid_lo, grid_hi=args.grid_hi, step=args.step,
        alpha=args.alpha, B=args.boot_reps, seed=args.seed,
        sign_mode=args.sign_mode, workers=args.workers,
    )


def _cmd_simulate(args):
    configs = [
        DgpConfig(q=args.q, d_z=args.dz, pi0=pi0, rho=rho, strong_clusters=int(strong))
        for pi0 in _floats(args.pi0)
        for rho in _floats(args.rho)
        for strong in _floats(args.strong)
    ]
    tests = args.tests.split(",")
    if args.mode == "size":
        return run_size_experiment(
            configs, tests, mc_reps=args.reps, boot_reps=args.boot_reps,
            seed=args.seed, workers=args.workers, alpha=args.alpha,
        )
    grid = _floats(args.beta_grid) if args.beta_grid else default_power_grid(configs[0].pi0)
    return run_power_experiment(
        configs, tests, beta_grid=grid, mc_reps=args.reps, boot_reps=args.boot_reps,
        seed=args.seed, workers=args.workers, alpha=args.alpha,
    )


def _cmd_diagnose(args) -> dict:
    dataset = _load(args)
    design = partial_out_exogenous(dataset)
    diag = assumption_diagnostics(design)
    return {
        "q": dataset.q,
        "q_zw_by_cluster": {
            str(label): diag.Q_ZW_j[j].tolist() for j, label in enumerate(dataset.cluster_labels)
        },
        "max_abs_by_cluster": {
            str(label): float(diag.max_abs[j]) for j, label in enumerate(dataset.cluster_labels)
        },
    }


def _splice_config(argv: list[str]) -> list[str]:
    """Insert the config file's options right after the subcommand.

    Done before parsing (required options may live in the file); explicit
    flags come later in the argument list and therefore win.
    """
    path = None
    rest = list(argv)
    for i, arg in enumerate(rest):
        if arg == "--config":
            if i + 1 >= len(rest):
                raise InputError("--config needs a file path")
            path = rest[i + 1]
            rest = rest[:i] + rest[i + 2 :]
            break
        if arg.startswith("--config="):
            path = arg.split("=", 1)[1]
            rest = rest[:i] + rest[i + 1 :]
            break
    if path is None:
        return argv
    if not rest:
        raise InputError("--config requires a subcommand")
    return rest[:1] + _config_tokens(path) + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_splice_config(argv))
        handler = {
            "fit": _cmd_fit,
            "test": _cmd_test,
            "cs": _cmd_cs,
            "simulate": _cmd_simulate,
            "diagnose": _cmd_diagnose,
        }[args.command]
        record = handler(args)
        _emit(args, record)
    except (_UsageError, InputError, FileNotFoundError) as exc:
        print(f"wbiv: error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"wbiv: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
