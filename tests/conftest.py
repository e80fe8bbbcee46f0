"""Shared fixtures: the default experiment configuration and a single
session-scoped model fit (the campaign + fit takes a few seconds, so every
test that needs real fitted models shares one ModelSet).

The run's summary ends with the AC-1...AC-9 lines and one ``headline <json>``
line (exp1's mean RMSE per controller, exp3's live/known tail ratios): the
one source of these numbers, which ``tools/kernel_sweep.py`` and CI read.
"""

import json
import os
import sys
import tracemalloc

# One BLAS thread, as in bench/run.py: the fitted models differ in their last
# bits between thread counts, and closed-loop results amplify those bits.
# The variables only take effect if set before numpy is first imported.
NUMPY_PRELOADED = "numpy" in sys.modules
from klmpc.__main__ import BLAS_THREAD_VARS  # noqa: E402  (imports no numpy)

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import pytest  # noqa: E402

from klmpc import numkit  # noqa: E402
from klmpc.harness import ExperimentConfig, fit_models  # noqa: E402
from klmpc.plant import collect_training_data  # noqa: E402

# filled by test_acceptance, printed after the run so the per-criterion
# verdicts are visible even with captured output
ACCEPTANCE_LINES = []
# filled by AC-5 ("exp1_mean_rmse_mm") and the exp3 test ("exp3_tail_ratio"),
# each before its first assertion, so a failing run still prints its numbers
HEADLINE = {}


@pytest.fixture(scope="session")
def default_cfg():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def models(default_cfg):
    return fit_models(default_cfg)


@pytest.fixture(scope="session")
def training(default_cfg):
    """The training campaign ``(Y, U, w)`` the session models are fitted on."""
    [campaign] = collect_training_data(default_cfg.plant, [default_cfg.campaign])
    return campaign


def traced_peak(fn):
    """Peak traced allocation of ``fn()`` above what was live before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def factorisations(monkeypatch):
    """The factorisations run while the test runs: the input shape of each
    thin SVD gufunc call (``np.linalg.svd`` runs it too) and the ``(m, n)``
    of each ``dgeqrf`` call that is not a workspace query.

    A gufunc's working copies are invisible to tracemalloc, so these shapes
    are what shows an array of a data matrix's size formed beside it."""
    calls = {"svd_s": [], "dgeqrf": []}
    svd_s, dgeqrf = numkit.lapack.svd_s, numkit.lapack_lite.dgeqrf

    def svd_spy(*args, **kwargs):
        calls["svd_s"].append(args[0].shape)
        return svd_s(*args, **kwargs)

    def dgeqrf_spy(m, n, *args):
        if args[-2] != -1:                   # lwork: -1 asks for the workspace size
            calls["dgeqrf"].append((m, n))
        return dgeqrf(m, n, *args)

    monkeypatch.setattr(numkit.lapack, "svd_s", svd_spy)
    monkeypatch.setattr(numkit.lapack_lite, "dgeqrf", dgeqrf_spy)
    return calls


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    if HEADLINE:
        terminalreporter.write_line(f"headline {json.dumps(HEADLINE)}")
