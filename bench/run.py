"""klmpc benchmark: one run of one workload.

    python3 bench/run.py --workload track_known --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each run fits the default model set (the set-up), then runs whole
sweeps of the workload's trials until ``--seconds`` have passed.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it wraps
every layer's public entry points and reports per-layer metrics, writes the
spans and a table of self time by module under ``bench/out/``.

The last line of standard output is the result as JSON:
``{"correct", "attempted", "failed", "metrics"}``.  Every correctness check
counts as one attempted operation; the exit code is 1 when any fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("track_known", "estimate_open", "track_unknown")
# one process, no extra BLAS threads: set before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git working tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args) -> dict:
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "klmpc" / "__init__.py").is_file():
        print(f"bench: no package source at {src / 'klmpc'}; run from a klmpc checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import workloads

    info = manifest(args)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    tally = result["tally"]
    declared = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = {name: {"value": float(result["metrics"][name]), "unit": spec[0]}
               for name, spec in declared.items()}

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"manifest": info, "metrics": metrics, "quality": result["quality"],
                   "holdout_rmse_mm": result["holdout_rmse_mm"],
                   "trials": result["trials"], "steps": result["steps"],
                   "unbounded": result.get("unbounded"),
                   "attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.failures}, fh, indent=2)
    if args.trace:
        result["tracer"].write(f"{stem}-spans.csv.gz")
        with open(f"{stem}-self.md", "w") as fh:
            fh.write(f"# Self time by module: {args.workload}, seed {args.seed}\n\n")
            fh.write(result["table"])

    print(f"# manifest {json.dumps(info)}")
    print(f"# {result['trials']} trials, {result['steps']} sample periods; "
          f"holdout RMSE mm {json.dumps(result['holdout_rmse_mm'])}")
    print(f"# quality {json.dumps(result['quality'])}")
    if args.trace:
        print("# " + result["table"].replace("\n", "\n# ").rstrip("# \n"))
    else:
        print(f"# not bounded: {json.dumps(result['unbounded'])}")
    for message in tally.failures:
        print(f"# FAILED {message}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
