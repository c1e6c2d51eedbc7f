"""Observation-level reference for the WREC bootstrap.

For each sign vector g this builds the bootstrap data (y*, X*) row by row,
re-solves kappa and refits the k-class estimator on them, and studentizes
with the bootstrap CCE. It is the textbook form of the procedure that
``wbiv.wald._wrec_draws`` reduces to per-cluster cross moments, and it is
built on public primitives only, so the tests can hold the engine to it.
"""

from __future__ import annotations

import numpy as np

from wbiv import (
    InputError,
    NumericalError,
    efficient_first_stage,
    fit_method,
    partial_out_exogenous,
    restricted_kclass_fit,
)
from wbiv.cce import CceBundle, cce_sandwich, cluster_score_sums
from wbiv.data import raise_singular


def bootstrap_sample(dataset, first_stage, restricted_fit, g):
    """(y*, X*) for one sign vector g in {-1,+1}^q.

    X* flips the first-stage residual cluster-wise; y* is rebuilt from the
    null-restricted estimates with the restricted residual flipped by the
    same signs. Downstream estimation keeps the original uninteracted Z.
    """
    g = np.asarray(g, dtype=np.float64).ravel()
    if g.shape != (dataset.q,) or not np.all(np.abs(g) == 1.0):
        raise InputError("g must be a vector of +-1, one entry per cluster")
    gcol = g[dataset.cluster_id]
    x_star = first_stage.fitted + gcol[:, None] * first_stage.v_tilde
    y_star = (
        x_star @ restricted_fit.beta_hat_r
        + dataset.W @ restricted_fit.gamma_hat_r
        + gcol * restricted_fit.resid_restricted
    )
    return y_star, x_star


def bootstrap_cce_matrix(design, X_star, resid_star, lambda_beta):
    """Bootstrap CCE bundle for one sign vector.

    Uses the bootstrap residuals and the bootstrap Jacobian Zt'X*/n while
    keeping Q_ZZ at its sample value; the instruments are never regenerated.
    """
    s = cluster_score_sums(design, resid_star)
    q_zx_star = design.Z_tilde.T @ X_star / design.n
    omega = s.T @ s / design.n
    bundle, checks = cce_sandwich(q_zx_star[None], design.Q_ZZ, omega[None], lambda_beta)
    raise_singular(checks)
    return CceBundle(**{name: value[0] for name, value in vars(bundle).items()})


def direct_distributions(dataset, hypothesis, method, sign_set, fuller_c=1.0):
    """Plain and studentized bootstrap draws of ``wrec_run``, one
    refit per sign vector: (boot_n, boot_cr, n_singular).

    A draw whose refit or bootstrap CCE is singular counts once in
    n_singular and reads 0 in the distributions it could not fill.
    """
    design = partial_out_exogenous(dataset)
    fit = fit_method(dataset, design, method, fuller_c)
    fit = restricted_kclass_fit(dataset, design, fit, hypothesis)
    first_stage = efficient_first_stage(dataset, design, fit.resid_unrestricted)
    lam, lam0 = hypothesis.lambda_beta, hypothesis.lambda_0
    m = sign_set.vectors.shape[0]
    boot_n, boot_cr = np.zeros(m), np.zeros(m)
    n_singular = 0
    for i, g in enumerate(sign_set.vectors):
        y_star, x_star = bootstrap_sample(dataset, first_stage, fit, g)
        ds_g = dataset.replace_outcome_regressors(y_star, x_star)
        try:
            fit_g = fit_method(ds_g, design, method, fuller_c)
            dev = lam.T @ fit_g.beta_hat - lam0
            boot_n[i] = np.sqrt(dataset.n * dev @ dev)
            bundle = bootstrap_cce_matrix(design, x_star, fit_g.resid_unrestricted, lam)
        except NumericalError:
            n_singular += 1
            continue
        boot_cr[i] = np.sqrt(dataset.n * dev @ bundle.A_r_CR @ dev)
    return boot_n, boot_cr, n_singular
