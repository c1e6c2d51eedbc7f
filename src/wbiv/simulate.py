"""Monte Carlo harness: heterogeneous-cluster IV data generation plus size
and power experiments at desk scale.

The design has q = 10 (optionally 14) unbalanced clusters whose instrument
distributions, first-stage strengths, and scale functions all differ across
clusters; W is the full set of cluster dummies. Desk-scale defaults are 2000
Monte Carlo replications with 499 sampled sign vectors; Monte Carlo standard
errors are always reported.

Tests are named by the study's labels (WB-US, WB-S, WB-AR-US, WB-AR-S,
ASY-AR-S, WB-LM, WB-CQLR), which are aliases of the registry's test names
(``wbiv.registry.ALIASES``); the labels are what the output tables show.
WB-US and WB-S take an estimator suffix, e.g. ``WB-S:liml``.

Determinism: every replication draws from a substream keyed by (seed, cell,
rep), and the sign set for that replication from the same stream family, so
tables are byte-identical for any worker count.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import ClusteredDataset, Hypothesis, build_dataset, partial_out_exogenous
from .exceptions import InputError, NumericalError
from .inference import make_sign_set
from .registry import ALIASES, ESTIMATOR, TESTS, lookup, run_tests
from .rng import substream

# Cluster sizes and instrument-covariance scales for the 10-cluster design;
# the 14-cluster extension appends four more clusters.
BASE_SIZES_10 = (100, 40, 40, 30, 30, 30, 20, 20, 10, 10)
EXTRA_SIZES_14 = (20, 20, 10, 10)
# (scale c_j, whether the covariance is c_j * diag(1..d_z) or c_j * I).
COV_SPECS_10 = (
    (2.5, True), (2.0, True), (2.0, True), (1.5, True), (1.5, True), (1.5, True),
    (1.0, False), (1.0, False), (0.5, False), (0.5, False),
)
COV_SPECS_EXTRA = ((1.0, False), (1.0, False), (0.5, False), (0.5, False))
PI_RATIOS_10 = (1.0, 0.4, 0.4, 0.3, 0.3, 0.3, -0.2, -0.2, -0.1, -0.1)
PI_RATIOS_EXTRA = (0.2, 0.2, 0.1, 0.1)

SIZE_TESTS_DEFAULT = ("WB-US:tsls", "WB-S:tsls")
NULL_HYPOTHESIS = Hypothesis.full_vector([0.0])  # H0: beta = 0


@dataclass(frozen=True)
class DgpConfig:
    """One cell of the simulation design.

    ``pi0`` is the first-stage coefficient of the strong cluster(s); the
    remaining clusters get the fixed ratio pattern. ``strong_clusters``
    promotes the first 1, 3, or 6 clusters to full strength. ``size_scale``
    multiplies every cluster size (used for asymptotic checks).
    """

    q: int = 10
    d_z: int = 1
    pi0: float = 4.0
    rho: float = 0.0
    strong_clusters: int = 1
    beta_true: float = 0.0
    gamma_true: float = 1.0
    size_scale: int = 1

    def __post_init__(self):
        if self.q not in (10, 14):
            raise InputError("the simulation design is defined for q in {10, 14}")
        if self.strong_clusters not in (1, 3, 6):
            raise InputError("strong_clusters must be 1, 3, or 6")
        if not 0.0 <= self.rho < 1.0:
            raise InputError("rho must lie in [0, 1)")

    @property
    def cluster_sizes(self) -> tuple:
        sizes = BASE_SIZES_10 + (EXTRA_SIZES_14 if self.q == 14 else ())
        return tuple(s * self.size_scale for s in sizes)

    @property
    def n(self) -> int:
        return sum(self.cluster_sizes)

    @property
    def pi_by_cluster(self) -> np.ndarray:
        ratios = np.array(PI_RATIOS_10 + (PI_RATIOS_EXTRA if self.q == 14 else ()))
        ratios[1 : self.strong_clusters] = 1.0
        return ratios * self.pi0

    def cov_spec(self, j: int) -> tuple[float, bool]:
        specs = COV_SPECS_10 + (COV_SPECS_EXTRA if self.q == 14 else ())
        return specs[j]

    def cell_id(self) -> str:
        # pure function of the design: the beta = 0 power cell shares its
        # replication streams with the size cell
        return (
            f"q={self.q}|dz={self.d_z}|pi0={self.pi0}|rho={self.rho}"
            f"|strong={self.strong_clusters}|beta={self.beta_true}|scale={self.size_scale}"
        )


def simulate_dgp(config: DgpConfig, rng: np.random.Generator) -> ClusteredDataset:
    """Draw one dataset from the design.

    Cluster by cluster: instruments are normal with the cluster's covariance,
    the structural and first-stage shocks share correlation rho both at the
    observation and at the cluster-effect level, and both equations are
    scaled by (sum of the instrument entries)^2. W is the cluster dummies.
    """
    sizes = config.cluster_sizes
    rho = config.rho
    rho_c = np.sqrt(1.0 - rho * rho)
    pis = config.pi_by_cluster
    y_parts, x_parts, z_parts, ids = [], [], [], []
    for j, n_j in enumerate(sizes):
        scale, graded = config.cov_spec(j)
        diag = np.arange(1, config.d_z + 1) if graded else np.ones(config.d_z)
        sd = np.sqrt(scale * diag)
        z = rng.standard_normal((n_j, config.d_z)) * sd
        a_eps, a_u = rng.standard_normal(2)
        a_v = rho * a_eps + rho_c * a_u
        eps = rng.standard_normal(n_j)
        u = rng.standard_normal(n_j)
        v = rho * eps + rho_c * u
        sig = z.sum(axis=1) ** 2
        x = config.gamma_true + z @ np.full(config.d_z, pis[j]) + sig * (a_v + v)
        y = config.gamma_true + x * config.beta_true + sig * (a_eps + eps)
        y_parts.append(y)
        x_parts.append(x)
        z_parts.append(z)
        ids.append(np.full(n_j, j))
    cluster_id = np.concatenate(ids)
    w = (cluster_id[:, None] == np.arange(config.q)[None, :]).astype(np.float64)
    return build_dataset(
        np.concatenate(y_parts),
        np.concatenate(x_parts),
        np.vstack(z_parts),
        w,
        cluster_id,
    )


@dataclass(frozen=True)
class RejectionRow:
    test: str
    estimator: str
    rho: float
    pi0: float
    d_z: int
    strong: int
    reject_rate: float
    mc_reps: int
    boot_reps: int
    mc_std_err: float
    n_failed: int = 0
    beta: float | None = None


@dataclass(frozen=True)
class RejectionTable:
    kind: str  # "size" or "power"
    rows: tuple

    def rate(self, test: str, estimator: str = "tsls", **where) -> float:
        for row in self.rows:
            if row.test != test or row.estimator != estimator:
                continue
            if all(getattr(row, k) == v for k, v in where.items()):
                return row.reject_rate
        raise KeyError(f"no row for {test}:{estimator} with {where}")


def _parse_test(spec: str) -> tuple[str, str]:
    name, _, estimator = spec.partition(":")
    if TESTS[lookup(name, ALIASES)] in ESTIMATOR:
        return name, estimator or "tsls"
    if estimator:
        raise InputError(f"test {name} does not take an estimator suffix")
    return name, "-"


def _replicate(
    config: DgpConfig,
    tests: Sequence[tuple[str, str]],
    seed,
    cell: str,
    rep: int,
    boot_reps: int,
    alpha: float,
) -> dict:
    """Run every requested test on one simulated dataset.

    Returns test-key -> bool decision (reject H0: beta = 0), or None when
    that test failed numerically on this draw.
    """
    rng = substream(seed, cell, rep)
    dataset = simulate_dgp(config, rng)
    try:
        design = partial_out_exogenous(dataset)
    except NumericalError:
        return {f"{t}:{e}": None for t, e in tests}
    sign_set = make_sign_set(config.q, "sampled", B=boot_reps, seed=(seed, cell, rep, "signs"))
    # tests that take no estimator ride along with the first estimator's call
    estimators = list(dict.fromkeys(est for _, est in tests if est != "-")) or ["tsls"]
    out = {}
    for est in estimators:
        group = [(n, e) for n, e in tests if e == est or (e == "-" and est == estimators[0])]
        results = run_tests(
            dataset, [ALIASES[name] for name, _ in group], NULL_HYPOTHESIS, estimator=est,
            sign_set=sign_set, alpha=alpha, design=design,
        )
        for name, e in group:
            result = results[ALIASES[name]]
            out[f"{name}:{e}"] = None if isinstance(result, Exception) else result.reject
    return out


def _sim_chunk(args) -> list[dict]:
    config, tests, seed, cell, reps, boot_reps, alpha = args
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return [
            _replicate(config, tests, seed, cell, rep, boot_reps, alpha) for rep in reps
        ]


def _run_cells(
    cells: Sequence[tuple[DgpConfig, str]],
    test_specs: Sequence[str],
    mc_reps: int,
    boot_reps: int,
    seed,
    workers: int,
    alpha: float,
    kind: str,
) -> RejectionTable:
    if mc_reps < 100:
        raise InputError("need mc_reps >= 100 for a meaningful rejection table")
    tests = [_parse_test(t) for t in test_specs]
    rows = []
    for config, cell in cells:
        rep_ids = np.arange(mc_reps)
        if workers > 1:
            chunks = [c for c in np.array_split(rep_ids, workers * 4) if c.size]
            tasks = [
                (config, tests, seed, cell, chunk.tolist(), boot_reps, alpha)
                for chunk in chunks
            ]
            results = []
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for part in pool.map(_sim_chunk, tasks):
                    results.extend(part)
        else:
            results = _sim_chunk((config, tests, seed, cell, rep_ids.tolist(), boot_reps, alpha))
        for name, est in tests:
            key = f"{name}:{est}"
            decisions = [r.get(key) for r in results]
            ok = [d for d in decisions if d is not None]
            n_ok = len(ok)
            rate = float(np.mean(ok)) if n_ok else float("nan")
            se = float(np.sqrt(rate * (1.0 - rate) / n_ok)) if n_ok else float("nan")
            rows.append(
                RejectionRow(
                    test=name,
                    estimator=est,
                    rho=config.rho,
                    pi0=config.pi0,
                    d_z=config.d_z,
                    strong=config.strong_clusters,
                    reject_rate=rate,
                    mc_reps=n_ok,
                    boot_reps=boot_reps,
                    mc_std_err=se,
                    n_failed=mc_reps - n_ok,
                    beta=config.beta_true if kind == "power" else None,
                )
            )
    return RejectionTable(kind=kind, rows=tuple(rows))


def run_size_experiment(
    configs: Sequence[DgpConfig],
    tests: Sequence[str] = SIZE_TESTS_DEFAULT,
    mc_reps: int = 2000,
    boot_reps: int = 499,
    seed=0,
    workers: int = 1,
    alpha: float = 0.1,
) -> RejectionTable:
    """Null rejection frequencies of H0: beta = 0 with beta_true = 0."""
    cells = []
    for config in configs:
        if config.beta_true != 0.0:
            config = replace(config, beta_true=0.0)
        cells.append((config, config.cell_id()))
    return _run_cells(cells, tests, mc_reps, boot_reps, seed, workers, alpha, "size")


def default_power_grid(pi0: float, points: int = 41, half_width: float = 0.05) -> np.ndarray:
    """Symmetric grid of true coefficients, scaled down as pi0 grows."""
    return np.linspace(-half_width, half_width, points) / pi0


def run_power_experiment(
    configs: Sequence[DgpConfig],
    tests: Sequence[str],
    beta_grid: Sequence[float] | None = None,
    mc_reps: int = 2000,
    boot_reps: int = 499,
    seed=0,
    workers: int = 1,
    alpha: float = 0.1,
) -> RejectionTable:
    """Rejection frequencies of H0: beta = 0 as the true beta moves away."""
    cells = []
    for config in configs:
        grid = default_power_grid(config.pi0) if beta_grid is None else np.asarray(beta_grid)
        for b in grid:
            cell_config = replace(config, beta_true=float(b))
            cells.append((cell_config, cell_config.cell_id()))
    return _run_cells(cells, tests, mc_reps, boot_reps, seed, workers, alpha, "power")
