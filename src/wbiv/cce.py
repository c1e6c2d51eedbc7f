"""Cluster covariance estimator (CCE) pieces for studentized Wald statistics.

Omega_CR is assembled from per-cluster score sums, (1/n) sum_j s_j s_j' with
s_j = sum_i Zt_ij eps_ij, which equals the triple-sum definition exactly at
O(n) cost. No small-sample degrees-of-freedom factor is applied anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PartialledDesign
from .exceptions import NumericalError


@dataclass(frozen=True)
class CceBundle:
    """Sandwich pieces: Omega_CR, V_hat, the d_r x d_r weighting, and Q_hat."""

    Omega_CR: np.ndarray
    V_hat: np.ndarray
    A_r_CR: np.ndarray
    Q_hat: np.ndarray


def cluster_score_sums(design: PartialledDesign, residuals: np.ndarray) -> np.ndarray:
    """Per-cluster sums of Zt_ij * eps_ij, shape (q, d_z)."""
    zr = design.Z_tilde * residuals[:, None]
    return np.add.reduceat(zr, design.cluster_starts[:-1], axis=0)


def _inv_psd(a: np.ndarray, what: str) -> np.ndarray:
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0 or s[-1] / s[0] < 1e-13:
        raise NumericalError(f"singular {what}")
    return np.linalg.inv(a)


def _assemble(
    q_zx: np.ndarray,
    q_zz: np.ndarray,
    omega: np.ndarray,
    lambda_beta: np.ndarray,
) -> CceBundle:
    ziq = np.linalg.solve(q_zz, q_zx)          # Q_ZZ^{-1} Q_ZX
    q_hat = q_zx.T @ ziq
    q_inv = _inv_psd(q_hat, "Jacobian quadratic form (near-unidentified model)")
    v_hat = q_inv @ ziq.T @ omega @ ziq @ q_inv
    lvl = lambda_beta.T @ v_hat @ lambda_beta
    a_r_cr = _inv_psd(lvl, "restricted covariance (q <= d_r or degenerate scores)")
    return CceBundle(Omega_CR=omega, V_hat=v_hat, A_r_CR=a_r_cr, Q_hat=q_hat)


def cce_matrix(
    design: PartialledDesign,
    residuals: np.ndarray,
    lambda_beta: np.ndarray,
) -> CceBundle:
    """CCE bundle from unrestricted residuals.

    A_r_CR is the inverse of lambda' V_hat lambda, the weighting that turns
    the Wald deviation into its studentized form.
    """
    s = cluster_score_sums(design, residuals)
    omega = s.T @ s / design.n
    return _assemble(design.Q_ZX, design.Q_ZZ, omega, lambda_beta)
