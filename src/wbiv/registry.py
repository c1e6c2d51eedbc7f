"""The test registry: every test by name, for the CLI, confidence-set
inversion and the Monte Carlo harness alike.

Tests come in two families whose members share one pass over the data,
and each pass reads its sample statistics from the g = iota row it appends
to the sign rows: :func:`wald.wald_tests`, one WREC run for wald and
wald-cr, and :func:`weakiv.full_vector_tests`, one restricted fit and one
stack of signed score means for ar, ar-cr, ar-cr-asymptotic, lm, cqlr and
score-wald, the ar test at beta_0 = lambda_0 / lambda scaled by
|lambda / Q_ZX|. The simulation study's labels are aliases of
registry names. :func:`run_test` runs one of them, as the CLI, confidence
sets and the public per-test functions at the end do.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .ar import AsymptoticArResult, score_wald_null
from .data import ClusteredDataset, Hypothesis, PartialledDesign
from .exceptions import InputError, NumericalError
from .inference import BootstrapTestResult, SignSet, prepare_test, result_or_raise
from .kclass import METHODS
from .wald import wald_tests
from .weakiv import SCORE, full_vector_tests

# Tests whose null is the full vector beta = beta_0, read as lambda_0 of a
# hypothesis with lambda = I, and families that fit the chosen estimator.
FULL_VECTOR = ("ar", "ar-cr", "ar-cr-asymptotic", "lm", "cqlr")
ESTIMATOR = ("wald",)
FAMILIES = {
    "wald": ("wald", "wald-cr"),
    "full-vector": FULL_VECTOR + ("score-wald",),
}
TESTS = {name: fam for fam, names in FAMILIES.items() for name in names}

ALIASES = {
    "WB-US": "wald",
    "WB-S": "wald-cr",
    "WB-AR-US": "ar",
    "WB-AR-S": "ar-cr",
    "ASY-AR-S": "ar-cr-asymptotic",
    "WB-LM": "lm",
    "WB-CQLR": "cqlr",
}


def lookup(name: str, table: dict) -> str:
    """The entry of ``name`` in ``table``: its family in TESTS, its registry
    name in ALIASES. An unknown name is an InputError."""
    if name not in table:
        raise InputError(f"unknown test {name!r}; expected one of {', '.join(table)}")
    return table[name]


def run_tests(
    dataset: ClusteredDataset,
    names: Sequence[str],
    hypothesis: Hypothesis,
    *,
    estimator: str = "tsls",
    fuller_c: float = 1.0,
    sign_set: SignSet | None = None,
    alpha: float = 0.1,
    design: PartialledDesign | None = None,
) -> dict:
    """Run the named tests of one hypothesis on one dataset: name -> result.

    Invalid arguments raise InputError: an unknown name or estimator, alpha
    outside (0, 1), a sign set for another cluster count, a lambda whose
    row count is not d_x (a beta_0 whose length is not, for a full-vector
    test), a full-vector test of a hypothesis whose lambda is not the
    identity, or score-wald unless d_x = d_z = 1. Otherwise a
    test that fails maps to the NumericalError or InputError it raised, and
    a failure in a family's shared pass fails all of its tests; the other
    tests still report.
    """
    d_lam = hypothesis.lambda_beta.shape[0]
    if d_lam != dataset.d_x:
        if any(name in FULL_VECTOR for name in names):
            raise InputError(f"beta_0 must have length d_x={dataset.d_x}")
        raise InputError(f"lambda has {d_lam} row(s) but the data have d_x = {dataset.d_x}")
    identity = np.array_equal(hypothesis.lambda_beta, np.eye(dataset.d_x))
    for name in names:
        lookup(name, TESTS)
        if name in FULL_VECTOR and not identity:
            raise InputError(f"{name} tests the full vector beta = beta_0 (lambda = I)")
    if estimator not in METHODS:
        raise InputError(f"unknown k-class method {estimator!r}; expected one of {METHODS}")
    beta_0 = hypothesis.lambda_0
    if "score-wald" in names:
        beta_0 = score_wald_null(dataset, hypothesis)
    sign_set, design = prepare_test(dataset, sign_set, design, alpha)

    passes = {
        "wald": lambda members: wald_tests(
            dataset, design, hypothesis, members, sign_set, alpha, estimator, fuller_c
        ),
        "full-vector": lambda members: full_vector_tests(
            dataset, design, beta_0, members, sign_set, alpha, float(hypothesis.lambda_beta[0, 0])
        ),
    }
    out = {}
    for fam in dict.fromkeys(TESTS[name] for name in names):
        members = [name for name in names if TESTS[name] == fam]
        try:
            out.update(passes[fam](members))
        except (NumericalError, InputError) as exc:
            out.update(dict.fromkeys(members, exc))
    return out


def run_test(dataset: ClusteredDataset, name: str, hypothesis: Hypothesis, **options):
    """:func:`run_tests` of the one test ``name``, with the same options; its
    failure is raised."""
    return result_or_raise(run_tests(dataset, [name], hypothesis, **options)[name])


def ar_bootstrap_test(
    dataset: ClusteredDataset, beta_0, studentize: bool = False, sign_set: SignSet | None = None,
    alpha: float = 0.1, design: PartialledDesign | None = None,
) -> BootstrapTestResult:
    """Sign-flip bootstrap AR test of the full-vector null beta = beta_0."""
    name, hyp = "ar-cr" if studentize else "ar", Hypothesis.full_vector(beta_0)
    return run_test(dataset, name, hyp, sign_set=sign_set, alpha=alpha, design=design)


def ar_asymptotic_cr_test(
    dataset: ClusteredDataset, beta_0, alpha: float = 0.1, design: PartialledDesign | None = None,
) -> AsymptoticArResult:
    """Reject when the squared CCE-weighted AR statistic exceeds the
    chi-squared quantile with d_z degrees of freedom."""
    hyp = Hypothesis.full_vector(beta_0)
    return run_test(dataset, "ar-cr-asymptotic", hyp, alpha=alpha, design=design)


def score_bootstrap_wald_test(
    dataset: ClusteredDataset, hypothesis: Hypothesis, alpha: float = 0.1,
    sign_set: SignSet | None = None, design: PartialledDesign | None = None,
) -> BootstrapTestResult:
    """Score-form bootstrap for the unstudentized TSLS Wald statistic, only
    defined for d_x = d_z = 1: the ar test at beta_0 = lambda_0 / lambda,
    scaled by |lambda / Q_ZX|."""
    return run_test(dataset, "score-wald", hypothesis, sign_set=sign_set, alpha=alpha,
                    design=design)


def lm_cqlr_bootstrap_test(
    dataset: ClusteredDataset, beta_0, statistic: str = "lm", sign_set: SignSet | None = None,
    alpha: float = 0.1, design: PartialledDesign | None = None,
) -> BootstrapTestResult:
    """Sign-flip bootstrap LM or conditional QLR test of beta = beta_0."""
    if statistic not in SCORE:
        raise InputError(f"statistic must be 'lm' or 'cqlr', got {statistic!r}")
    hyp = Hypothesis.full_vector(beta_0)
    return run_test(dataset, statistic, hyp, sign_set=sign_set, alpha=alpha, design=design)


def wrec_wald_test(
    dataset: ClusteredDataset, hypothesis: Hypothesis, method: str = "tsls",
    studentize: bool = False, sign_set: SignSet | None = None, alpha: float = 0.1,
    fuller_c: float = 1.0, design: PartialledDesign | None = None,
) -> BootstrapTestResult:
    """WREC bootstrap Wald test of lambda' beta = lambda_0: unweighted or,
    with ``studentize`` (which requires q > d_r), weighted by its own CCE
    inverse A_r_CR, as is every bootstrap draw."""
    return run_test(
        dataset, "wald-cr" if studentize else "wald", hypothesis, estimator=method,
        fuller_c=fuller_c, sign_set=sign_set, alpha=alpha, design=design,
    )
