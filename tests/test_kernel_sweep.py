"""The kernel sweep's reading of a Tier-1 run: ``tools/kernel_sweep.py``
takes each kernel set's counts, failing tests, AC lines and headline numbers
from the suite's own output.  The sweep itself runs the whole suite five
times, so these tests feed its reader a synthetic pytest stdout instead.
"""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

FAILING = "tests/test_harness.py::test_run_experiment3_matches_known_load"
AC_LINES = ["AC-1: PASS - max |A - A_true| 1.2e-15 over 200 pairs in 0.0 s",
            "AC-5: PASS - KL/K mean ratio 0.553 (limit 0.80), std ratio 0.407 (limit 0.50) in 4 s"]
HEADLINE = ('{"exp1_mean_rmse_mm": {"L-MPC": 126.13918309305272, "KL-MPC": 68.79635567041821}, '
            '"exp3_tail_ratio": {"25 g": 0.5600998174960594, "225 g": 1.2939301169654156}}')
STDOUT = "\n".join([
    "..........F.......                                                       [100%]",
    "=================================== FAILURES ===================================",
    "__________________ test_run_experiment3_matches_known_load ___________________",
    "E       assert 1.2939301169654156 <= 1.25",
    "----------------------------- Captured stdout call -----------------------------",
    AC_LINES[0],
    "------------------------------ acceptance criteria -----------------------------",
    *AC_LINES,
    f"headline {HEADLINE}",
    "=========================== short test summary info ============================",
    f"FAILED {FAILING} - assert 1.2939301169654156 <= 1.25",
    "1 failed, 441 passed in 30.12s",
]) + "\n"


@pytest.fixture(scope="module")
def kernel_sweep():
    sys.path.insert(0, str(TOOLS))
    try:
        import kernel_sweep
    finally:
        sys.path.remove(str(TOOLS))
    return kernel_sweep


def test_read_tier1_takes_every_number_from_the_suites_summary(kernel_sweep):
    run = kernel_sweep.read_tier1(STDOUT, "")
    assert (run["passed"], run["failed"]) == (441, 1)
    assert run["failing"] == {FAILING: "assert 1.2939301169654156 <= 1.25"}
    # an AC line echoed in a failure's captured output is kept once
    assert run["acceptance"] == AC_LINES
    assert run["summary"] == "1 failed, 441 passed in 30.12s"
    assert run["headline"] == {
        "exp1_mean_rmse_mm": {"L-MPC": 126.13918309305272, "KL-MPC": 68.79635567041821},
        "exp3_tail_ratio": {"25 g": 0.5600998174960594, "225 g": 1.2939301169654156}}


def test_read_tier1_notes_a_run_without_a_headline(kernel_sweep):
    # a run that stopped early, or ran neither AC-5 nor the exp3 test
    lines = [line for line in STDOUT.splitlines() if not line.startswith("headline ")]
    run = kernel_sweep.read_tier1("\n".join(lines), "")
    assert (run["passed"], run["failed"], run["acceptance"]) == (441, 1, AC_LINES)
    assert list(run["headline"]) == ["error"]
    # nothing on stdout at all: the summary is stderr's tail
    run = kernel_sweep.read_tier1("", "ImportError: numpy\n")
    assert (run["passed"], run["failed"], run["failing"], run["acceptance"]) == (0, 0, {}, [])
    assert run["summary"] == "ImportError: numpy"
    assert list(run["headline"]) == ["error"]
