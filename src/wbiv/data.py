"""Clustered IV dataset, instrument partialling, and cluster-level moments.

All inference routines work off two immutable containers: a canonicalized
:class:`ClusteredDataset` (rows grouped by cluster) and a
:class:`PartialledDesign` holding the instruments residualized on the
exogenous regressors together with every per-cluster and pooled cross-moment
matrix the test statistics need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InputError, NumericalError

# Reciprocal condition number below which a regressor block is treated as
# collinear.
RCOND_MIN = 1e-12


def _as_matrix(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.ndim != 2:
        raise InputError(f"{name} must be 1- or 2-dimensional, got ndim={out.ndim}")
    return out


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ClusteredDataset:
    """Outcome, endogenous regressors, instruments, exogenous regressors.

    Rows are sorted by cluster (stable within cluster) and ``cluster_id``
    holds integer codes ``0..q-1`` assigned in sorted order of the original
    labels, so the canonical form does not depend on input row order.
    """

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    W: np.ndarray
    cluster_id: np.ndarray
    cluster_labels: tuple
    cluster_starts: np.ndarray  # q+1 offsets into the row dimension

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def q(self) -> int:
        return len(self.cluster_labels)

    @property
    def d_x(self) -> int:
        return self.X.shape[1]

    @property
    def d_z(self) -> int:
        return self.Z.shape[1]

    @property
    def d_w(self) -> int:
        return self.W.shape[1]

    @property
    def cluster_sizes(self) -> np.ndarray:
        return np.diff(self.cluster_starts)

    def cluster_slice(self, j: int) -> slice:
        return slice(self.cluster_starts[j], self.cluster_starts[j + 1])

    def replace_outcome_regressors(self, y: np.ndarray, X: np.ndarray) -> "ClusteredDataset":
        """Same clustering and (Z, W), new outcome and endogenous block."""
        return ClusteredDataset(
            y=_freeze(np.asarray(y, dtype=np.float64).reshape(-1)),
            X=_freeze(_as_matrix(X, "X")),
            Z=self.Z,
            W=self.W,
            cluster_id=self.cluster_id,
            cluster_labels=self.cluster_labels,
            cluster_starts=self.cluster_starts,
        )


def build_dataset(y, X, Z, W, cluster_id) -> ClusteredDataset:
    """Validate and canonicalize raw arrays into a :class:`ClusteredDataset`.

    Parameters
    ----------
    y : array-like, shape (n,)
    X, Z, W : array-like, shape (n, d) or (n,)
        Endogenous regressors, instruments, exogenous regressors.
    cluster_id : array-like, shape (n,)
        Cluster labels; any consistently typed, sortable values. Labels are
        remapped to ``0..q-1`` in sorted order and rows are stably sorted by
        the mapped code, so datasets built from reordered cluster blocks are
        identical.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    X = _as_matrix(X, "X")
    Z = _as_matrix(Z, "Z")
    W = _as_matrix(W, "W")
    labels = np.asarray(cluster_id)
    n = y.shape[0]
    for name, arr in (("X", X), ("Z", Z), ("W", W)):
        if arr.shape[0] != n:
            raise InputError(f"{name} has {arr.shape[0]} rows, expected {n}")
    if labels.shape != (n,):
        raise InputError(f"cluster_id has shape {labels.shape}, expected ({n},)")
    for name, arr in (("y", y), ("X", X), ("Z", Z), ("W", W)):
        if not np.all(np.isfinite(arr)):
            raise InputError(f"non-finite input in {name}")

    if X.shape[1] < 1 or Z.shape[1] < X.shape[1]:
        raise InputError(f"need d_z >= d_x >= 1, got d_x={X.shape[1]}, d_z={Z.shape[1]}")
    if W.shape[1] < 1:
        raise InputError("need at least one exogenous regressor (d_w >= 1)")

    uniq, codes = np.unique(labels, return_inverse=True)
    q = uniq.shape[0]
    if q < 2:
        raise InputError(f"need at least 2 clusters, got {q}")
    if n < q:
        raise InputError("fewer rows than clusters")
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    sizes = np.bincount(codes, minlength=q)
    if np.any(sizes == 0):
        raise InputError("empty cluster")
    starts = np.concatenate([[0], np.cumsum(sizes)])

    return ClusteredDataset(
        y=_freeze(y[order]),
        X=_freeze(X[order]),
        Z=_freeze(Z[order]),
        W=_freeze(W[order]),
        cluster_id=_freeze(codes.astype(np.int64)),
        cluster_labels=tuple(uniq.tolist()),
        cluster_starts=_freeze(starts.astype(np.int64)),
    )


@dataclass(frozen=True)
class PartialledDesign:
    """Instruments residualized on W plus all cluster-level moment matrices.

    ``Q_ZZ_j`` etc. carry the per-cluster 1/n_j scaling; the pooled ``Q_ZZ``,
    ``Q_ZX`` carry 1/n. The orthonormal bases of span(W) and
    span(Z_tilde) are kept so projection quadratic forms never require an
    explicit inverse of W'W.
    """

    Z_tilde: np.ndarray
    Q_ZZ_j: np.ndarray  # (q, d_z, d_z)
    Q_ZX_j: np.ndarray  # (q, d_z, d_x)
    Q_ZW_j: np.ndarray  # (q, d_z, d_w)
    Q_ZZ: np.ndarray
    Q_ZX: np.ndarray
    cluster_sizes: np.ndarray
    cluster_starts: np.ndarray
    basis_W: np.ndarray   # orthonormal, spans W columns
    basis_Zt: np.ndarray  # orthonormal, spans Z_tilde columns
    # maps U_W-coordinates back to W-coefficients: gamma = w_coef_map @ (U_W' u)
    w_coef_map: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.Z_tilde.shape[0]

    @property
    def q(self) -> int:
        return self.cluster_sizes.shape[0]

    @property
    def d_z(self) -> int:
        return self.Z_tilde.shape[1]

    def cluster_slice(self, j: int) -> slice:
        return slice(self.cluster_starts[j], self.cluster_starts[j + 1])

    def proj_w_coef(self, u: np.ndarray) -> np.ndarray:
        """Least-squares coefficients of a regression of u on W."""
        return self.w_coef_map @ (self.basis_W.T @ u)

    def cluster_cross(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Stack of per-cluster cross products [A' B]_j, unnormalized."""
        q = self.q
        out = np.empty((q, A.shape[1], B.shape[1]))
        for j in range(q):
            sl = self.cluster_slice(j)
            out[j] = A[sl].T @ B[sl]
        return out


def _orthonormal_basis(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-revealing SVD basis; errors if the block is numerically collinear."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0 or s[-1] / s[0] < RCOND_MIN:
        raise NumericalError(f"collinear {what} (reciprocal condition number below {RCOND_MIN:g})")
    return u, s, vt


def partial_out_exogenous(dataset: ClusteredDataset) -> PartialledDesign:
    """Residualize Z on W over the full sample and assemble all moments.

    The residual is computed through an orthonormal basis of span(W) rather
    than (W'W)^{-1}, which keeps cluster-dummy-heavy W well conditioned.
    """
    W, Z, X = dataset.W, dataset.Z, dataset.X
    n, q = dataset.n, dataset.q

    u_w, s_w, vt_w = _orthonormal_basis(W, "exogenous regressors")
    z_tilde = Z - u_w @ (u_w.T @ Z)
    u_zt, _, _ = _orthonormal_basis(z_tilde, "instruments after partialling")

    sizes = dataset.cluster_sizes
    q_zz_j = np.empty((q, dataset.d_z, dataset.d_z))
    q_zx_j = np.empty((q, dataset.d_z, dataset.d_x))
    q_zw_j = np.empty((q, dataset.d_z, dataset.d_w))
    for j in range(q):
        sl = dataset.cluster_slice(j)
        zt_j = z_tilde[sl]
        q_zz_j[j] = zt_j.T @ zt_j / sizes[j]
        q_zx_j[j] = zt_j.T @ X[sl] / sizes[j]
        q_zw_j[j] = zt_j.T @ W[sl] / sizes[j]

    return PartialledDesign(
        Z_tilde=_freeze(z_tilde),
        Q_ZZ_j=_freeze(q_zz_j),
        Q_ZX_j=_freeze(q_zx_j),
        Q_ZW_j=_freeze(q_zw_j),
        Q_ZZ=_freeze(z_tilde.T @ z_tilde / n),
        Q_ZX=_freeze(z_tilde.T @ X / n),
        cluster_sizes=sizes,
        cluster_starts=dataset.cluster_starts,
        basis_W=_freeze(u_w),
        basis_Zt=_freeze(u_zt),
        w_coef_map=_freeze(vt_w.T / s_w),
    )


@dataclass(frozen=True)
class OrthogonalityDiagnostics:
    """Per-cluster Z_tilde-W cross moments and their max-absolute summaries."""

    Q_ZW_j: np.ndarray   # (q, d_z, d_w)
    max_abs: np.ndarray  # (q,)


def assumption_diagnostics(design: PartialledDesign) -> OrthogonalityDiagnostics:
    """Report how far each cluster is from Z_tilde-W orthogonality.

    The pooled cross moment is zero by construction of the partialling; these
    per-cluster values should be close to zero for the cluster-level
    orthogonality condition backing the bootstrap tests to be plausible. They
    are zero identically when W interacts every exogenous variable with the
    cluster dummies.
    """
    max_abs = np.abs(design.Q_ZW_j).max(axis=(1, 2))
    return OrthogonalityDiagnostics(Q_ZW_j=design.Q_ZW_j, max_abs=max_abs)


def cluster_first_stage(dataset: ClusteredDataset) -> np.ndarray:
    """Cluster-by-cluster OLS of X on (Z, W); returns the Z coefficient blocks.

    Within each cluster the regression drops W columns that are identically
    zero there (cluster dummies for the other clusters), and requires the
    remaining regressor matrix to have full column rank.

    Returns
    -------
    ndarray, shape (q, d_z, d_x)
    """
    out = np.empty((dataset.q, dataset.d_z, dataset.d_x))
    for j in range(dataset.q):
        sl = dataset.cluster_slice(j)
        w_j = dataset.W[sl]
        keep = np.any(w_j != 0.0, axis=0)
        regs = np.column_stack([dataset.Z[sl], w_j[:, keep]])
        coef, _, rank, _ = np.linalg.lstsq(regs, dataset.X[sl], rcond=None)
        if rank < regs.shape[1]:
            raise NumericalError(
                f"rank-deficient within-cluster design in cluster {dataset.cluster_labels[j]!r}"
                " (cluster too small or collinear)"
            )
        out[j] = coef[: dataset.d_z]
    return out


@dataclass(frozen=True)
class Hypothesis:
    """Linear restriction lambda_beta' beta = lambda_0; the full-vector null
    beta = beta_0 is the case lambda_beta = I, lambda_0 = beta_0."""

    lambda_beta: np.ndarray  # (d_x, d_r)
    lambda_0: np.ndarray     # (d_r,)

    @property
    def d_r(self) -> int:
        return self.lambda_beta.shape[1]

    @staticmethod
    def wald(lambda_beta, lambda_0) -> "Hypothesis":
        lam = _as_matrix(lambda_beta, "lambda_beta")
        lam0 = np.atleast_1d(np.asarray(lambda_0, dtype=np.float64))
        if lam.shape[1] != lam0.shape[0]:
            raise InputError("lambda_beta and lambda_0 disagree on the number of restrictions")
        if not 1 <= lam.shape[1] <= lam.shape[0]:
            raise InputError("need 1 <= d_r <= d_x restrictions")
        if np.linalg.matrix_rank(lam) < lam.shape[1]:
            raise InputError("lambda_beta must have full column rank")
        return Hypothesis(lambda_beta=_freeze(lam), lambda_0=_freeze(lam0))

    @staticmethod
    def full_vector(beta_0) -> "Hypothesis":
        b0 = np.atleast_1d(np.asarray(beta_0, dtype=np.float64))
        lam = np.eye(b0.shape[0])
        return Hypothesis(lambda_beta=_freeze(lam), lambda_0=_freeze(b0.copy()))
