"""Wild cluster bootstrap inference for linear IV regressions with few,
possibly heterogeneous clusters."""

from .ar import (
    ArStatistics,
    ar_asymptotic_cr_test,
    ar_bootstrap_test,
    ar_statistics,
    chi2_quantile,
)
from .cce import CceBundle, cce_matrix, cluster_score_sums
from .confidence import ConfidenceSet, TestSpec, invert_confidence_set
from .data import (
    ClusteredDataset,
    Hypothesis,
    OrthogonalityDiagnostics,
    PartialledDesign,
    assumption_diagnostics,
    build_dataset,
    cluster_first_stage,
    partial_out_exogenous,
)
from .exceptions import InputError, NumericalError
from .inference import (
    BootstrapTestResult,
    SignSet,
    bootstrap_pvalue,
    critical_value,
    make_sign_set,
)
from .io import load_csv, write_results
from .kclass import (
    KClassFit,
    RestrictedOlsFit,
    fit_method,
    kappa_value,
    kclass_fit,
    restricted_kclass_fit,
    restricted_ols_fit,
)
from .registry import run_tests
from .simulate import (
    DgpConfig,
    RejectionTable,
    run_power_experiment,
    run_size_experiment,
    simulate_dgp,
)
from .wald import (
    EfficientFirstStage,
    efficient_first_stage,
    score_bootstrap_wald_test,
    wrec_run,
    wrec_wald_test,
)
from .weakiv import JacobianBundle, cqlr_statistic, lm_cqlr_bootstrap_test, lm_statistic

__version__ = "0.1.0"
