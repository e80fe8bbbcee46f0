"""Run Tier-1 once per OpenBLAS kernel set: a forecast of the suite on other CPUs.

    python3 tools/kernel_sweep.py --out tools/kernel_sweep.json

numpy's bundled OpenBLAS picks its kernels for the host CPU, and
``OPENBLAS_CORETYPE`` makes it load another set.  Each set fits models whose
last bits differ, and the closed loop amplifies those bits, so a set stands
in for a second machine.  Only the BLAS kernels change: numpy's own SIMD
loops still run the host's code.

Each set runs the Tier-1 command in its own child process, with
``OPENBLAS_CORETYPE`` and ``klmpc.__main__.BLAS_THREAD_VARS`` (each at 1) set
in that child's environment alone; a second child runs ``tools/blas_core.py``
to read back the core name OpenBLAS loaded.  :func:`read_tier1` reads the
suite's own summary, the one source of its numbers: the pass and fail
counts, the ids of the failing tests with their reasons, the AC-1...AC-9
lines and the ``headline`` line (exp1's mean RMSE per controller, exp3's
live/known tail-RMSE ratio per payload).  The JSON holds these per set, with
the core name.  The exit status is 1 when any set has a failing test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from klmpc.__main__ import BLAS_THREAD_VARS  # noqa: E402  (imports no numpy)

# "default" leaves OPENBLAS_CORETYPE unset: the host's own kernels
KERNELS = ("default", "Haswell", "SandyBridge", "Nehalem", "Prescott")
RUN_TIMEOUT_S = 1800
TIER1 = ["-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
# prints the core name of numpy's bundled OpenBLAS; the CI workflow runs it too
CORE_PROBE = ROOT / "tools" / "blas_core.py"
LIMITS = ("OPENBLAS_CORETYPE swaps the BLAS kernels only; numpy's SIMD ufunc "
          "loops still run the host's code")


def child_env(kernel: str) -> dict:
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel != "default":
        env["OPENBLAS_CORETYPE"] = kernel
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["COLUMNS"] = "400"   # pytest cuts each failure's reason to the terminal's width
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    return env


def read_tier1(stdout: str, stderr: str) -> dict:
    """The counts, failing tests, AC lines and headline numbers of one Tier-1
    run, from pytest's stdout; a run that printed nothing is summarised by
    the tail of its stderr."""
    lines = stdout.splitlines()
    counts = {}
    if lines:
        for number, outcome in re.findall(r"(\d+) (\w+)", lines[-1]):
            counts[outcome] = int(number)
    headline = [line.removeprefix("headline ") for line in lines if line.startswith("headline ")]
    return {
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0),
        # each failing test's id, and pytest's one-line reason
        "failing": {m.group(1): m.group(2) for line in lines
                    if (m := re.match(r"(?:FAILED|ERROR) (\S+)(?: - (.*))?", line))},
        "acceptance": list(dict.fromkeys(line for line in lines
                                         if re.match(r"AC-\d: (PASS|FAIL) - ", line))),
        "summary": lines[-1] if lines else stderr.strip()[-500:],
        "headline": (json.loads(headline[-1]) if headline
                     else {"error": "the Tier-1 run printed no headline line"}),
    }


def run_kernel(kernel: str) -> dict:
    env = child_env(kernel)
    probe = subprocess.run([sys.executable, str(CORE_PROBE)], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return {"kernel": kernel,
            "core": probe.stdout.strip() or f"unknown: {probe.stderr.strip()[-200:]}",
            "exit": proc.returncode, **read_tier1(proc.stdout, proc.stderr)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the results to this JSON file")
    args = ap.parse_args(argv)

    runs = []
    for kernel in KERNELS:
        run = run_kernel(kernel)
        runs.append(run)
        print(f"{kernel} ({run['core']}): {run['summary']}", flush=True)
        for test, reason in run["failing"].items():
            print(f"  FAILED {test} - {reason}")
        for line in run["acceptance"]:
            print(f"  {line}")
        print(f"  headline: {json.dumps(run['headline'])}")
    if args.out:
        doc = {"python": platform.python_version(), "machine": platform.machine(),
               "limits": LIMITS, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 and not r["failed"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
