"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/seeds.py --seeds 1-10
    python3 bench/seeds.py --workloads track_unknown --seeds 1 --trace 1 --out x.json

Runs ``bench/run.py`` once per (workload, seed), one process at a time, and
reports per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median, the
figure the benchmark's bounds are checked against.  ``--out`` writes the
runs and the summary as one JSON document: an entry of the benchmark
trajectory under ``bench/trajectory/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output (exit {proc.returncode})\n"
                           f"{proc.stderr}")
    result = json.loads(lines[-1])

    def tagged(tag):
        return next((json.loads(line[len(tag):]) for line in lines if line.startswith(tag)),
                    None)

    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "manifest": tagged("# manifest "), "unbounded": tagged("# not bounded: "),
            **result}


def summarise(runs: list) -> dict:
    """Median, quartiles and spread of every metric per workload, and of the
    printed but unbounded figures (untraced runs only)."""
    out = {}
    for run in runs:
        figures = {name: (m["unit"], m["value"]) for name, m in run["metrics"].items()}
        figures.update({f"unbounded.{name}": ("", v)
                        for name, v in (run["unbounded"] or {}).items()})
        for name, (unit, value) in figures.items():
            entry = out.setdefault(run["workload"], {}).setdefault(
                name, {"unit": unit, "values": []})
            entry["values"].append(value)
    for metrics in out.values():
        for entry in metrics.values():
            values = entry["values"]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            entry.update(median=q2, q1=q1, q3=q3,
                         spread=(q3 - q1) / q2 if q2 else float("inf"))
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write runs and summary to this JSON file")
    args = ap.parse_args(argv)

    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            print(f"{workload} seed {seed}: exit {run['exit']}, correct {run['correct']}, "
                  f"{run['failed']}/{run['attempted']} failed", flush=True)
    summary = summarise(runs)
    for workload, metrics in summary.items():
        print(f"\n{workload}")
        for name, e in metrics.items():
            print(f"  {name:34s} median {e['median']:12.6g} {e['unit']:6s} "
                  f"q1 {e['q1']:12.6g}  q3 {e['q3']:12.6g}  spread {e['spread']:.4f}")
    if args.out:
        doc = {"seconds": args.seconds, "trace": args.trace,
               "manifest": runs[0]["manifest"], "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 and r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
