"""Restricted-TSLS reference for the score-form Wald bootstrap.

The package computes score-wald as the unstudentized AR test at
beta_0 = lambda_0 / lambda, from the restricted OLS fit that the AR tests
share, scaled by |lambda / Q_ZX|. This module reaches the same statistic
through the paper's own route instead: the TSLS fit restricted to
lambda beta = lambda_0, the cluster sums of the null-imposed scores
Zt_ij * eps_r_ij, and the AR norm of their signed sums. The tests hold the
package's decisions to it.
"""

from __future__ import annotations

import numpy as np

from wbiv import (
    BootstrapTestResult,
    InputError,
    bootstrap_pvalue,
    cluster_score_sums,
    critical_value,
    fit_method,
    make_sign_set,
    partial_out_exogenous,
    restricted_kclass_fit,
)
from wbiv.ar import ar_squares, signed_means


def score_wald_reference(dataset, hypothesis, alpha=0.1, sign_set=None):
    """Score-form bootstrap Wald test of lambda beta = lambda_0 (d_x = d_z = 1)
    through the restricted TSLS fit."""
    if dataset.d_x != 1 or dataset.d_z != 1:
        raise InputError("score bootstrap requires d_x = d_z = 1")
    sign_set = make_sign_set(dataset.q) if sign_set is None else sign_set
    design = partial_out_exogenous(dataset)
    q_zx = float(design.Q_ZX[0, 0])
    if q_zx == 0.0:
        raise InputError("unidentified Jacobian (Zt'X = 0)")

    fit = fit_method(dataset, design, "tsls")
    fit = restricted_kclass_fit(dataset, design, fit, hypothesis)
    s = cluster_score_sums(design, fit.resid_restricted)

    # decide on the unscaled norms, computed with the package's signed score
    # means and quadratic form so that a tie against the g = iota draw
    # resolves as in the AR test
    def norms(signs):
        return np.sqrt(ar_squares(signed_means(s, signs, dataset.n), dataset.n, np.eye(1)))

    stat0 = float(norms(np.ones((1, dataset.q)))[0])
    boot0 = norms(sign_set.vectors)
    cv0 = critical_value(boot0, alpha)
    scale = abs(float(hypothesis.lambda_beta[0, 0]) / q_zx)
    return BootstrapTestResult(
        test="score-wald",
        statistic=scale * stat0,
        critical_value=scale * cv0,
        pvalue=bootstrap_pvalue(boot0, stat0),
        reject=bool(stat0 > cv0),
        alpha=alpha,
        boot_stats=scale * boot0,
        sign_set=sign_set,
        estimator="tsls",
    )
