"""What ``import wbiv.cli`` loads, and the quantile that loads scipy.stats.

scipy.stats is the slowest import of the package and serves only the
chi-squared quantile of ar-cr-asymptotic, so it is imported on first use.
scipy.linalg serves only the within-cluster first stage of ``wbiv fit``
(``data.cluster_first_stage``) and is imported there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.stats

import wbiv
from wbiv.ar import chi2_quantile


def scipy_modules_after_cli_import(module: str) -> str:
    """The scipy.<module> modules a fresh ``import wbiv.cli`` loads, printed."""
    # absolute path to the imported package, as criterion 9 passes it
    pkg_root = str(Path(wbiv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, wbiv.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', {module!r}]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_out_scipy_stats():
    assert scipy_modules_after_cli_import("stats") == "[]"


def test_cli_import_leaves_out_scipy_linalg():
    assert scipy_modules_after_cli_import("linalg") == "[]"


@pytest.mark.parametrize("alpha", [0.1, 0.05, 0.01])
@pytest.mark.parametrize("df", [1, 2, 3, 4, 5])
def test_chi2_quantile_is_scipy_stats_bitwise(df, alpha):
    assert chi2_quantile(1 - alpha, df) == float(scipy.stats.chi2.ppf(1 - alpha, df))
