"""Cluster covariance estimator (CCE) pieces for studentized Wald statistics.

Omega_CR is assembled from per-cluster score sums, (1/n) sum_j s_j s_j' with
s_j = sum_i Zt_ij eps_ij, which equals the triple-sum definition exactly at
O(n) cost. No small-sample degrees-of-freedom factor is applied anywhere.
The sandwich is written once, for a rows-last stack of (Q_ZX, Omega) pairs:
the sample is a stack of one, and the WREC bootstrap passes one pair per
draw row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PartialledDesign, raise_singular, stack_solve

# What is singular when a stack item fails, as NumericalError messages name it.
JACOBIAN = "Jacobian quadratic form (near-unidentified model)"
RESTRICTED_COVARIANCE = "restricted covariance (q <= d_r or degenerate scores)"


@dataclass(frozen=True)
class CceBundle:
    """Sandwich pieces: Omega_CR, V_hat, the d_r x d_r weighting, and Q_hat."""

    Omega_CR: np.ndarray
    V_hat: np.ndarray
    A_r_CR: np.ndarray
    Q_hat: np.ndarray


def cluster_score_sums(design: PartialledDesign, residuals: np.ndarray) -> np.ndarray:
    """Per-cluster sums of Zt_ij eps_ij': (q, d_z), or (q, d_z, k) for (n, k) eps."""
    zr = np.einsum("iz,i...->iz...", design.Z_tilde, residuals)
    return np.add.reduceat(zr, design.cluster_starts[:-1], axis=0)


def cce_sandwich(
    q_zx: np.ndarray,
    q_zz: np.ndarray,
    omega: np.ndarray,
    lambda_beta: np.ndarray,
) -> tuple[CceBundle, dict]:
    """The CCE bundle of each item of a rows-last stack of Q_ZX (d_z, d_x,
    ...) and Omega (d_z, d_z, ...) sharing one Q_ZZ, every field stacked,
    and the singular checks of the two inverses (what -> ok flags). The item
    axes broadcast: the WREC draws pass Q_ZX once per sign set, (1 or P, M),
    and Omega once per null, (P, M), so Q_hat and its check have Q_ZX's item
    shape and the rest the broadcast one."""
    def mm(a, b):  # a b per item, one two-operand einsum along the items
        return np.einsum("ab...,bc...->ac...", a, b)
    ziq = mm(np.linalg.inv(q_zz), q_zx)                      # Q_ZZ^{-1} Q_ZX
    q_hat = mm(q_zx.swapaxes(0, 1), ziq)
    q_inv, ok_q = stack_solve(q_hat)
    v_hat = mm(mm(q_inv, mm(mm(ziq.swapaxes(0, 1), omega), ziq)), q_inv)
    lvl = mm(mm(lambda_beta.T, v_hat), lambda_beta)
    a_r_cr, ok_r = stack_solve(lvl)
    bundle = CceBundle(Omega_CR=omega, V_hat=v_hat, A_r_CR=a_r_cr, Q_hat=q_hat)
    return bundle, {JACOBIAN: ok_q, RESTRICTED_COVARIANCE: ok_r}


def cce_matrix(
    design: PartialledDesign,
    residuals: np.ndarray,
    lambda_beta: np.ndarray,
) -> CceBundle:
    """CCE bundle from unrestricted residuals: :func:`cce_sandwich` of a stack
    of one, whose singular inverse is a NumericalError.

    A_r_CR is the inverse of lambda' V_hat lambda, the weighting that turns
    the Wald deviation into its studentized form.
    """
    s = cluster_score_sums(design, residuals)
    omega = s.T @ s / design.n
    bundle, checks = cce_sandwich(design.Q_ZX[..., None], design.Q_ZZ, omega[..., None],
                                  lambda_beta)
    raise_singular(checks)
    return CceBundle(Omega_CR=omega, V_hat=bundle.V_hat[..., 0], A_r_CR=bundle.A_r_CR[..., 0],
                     Q_hat=bundle.Q_hat[..., 0])
