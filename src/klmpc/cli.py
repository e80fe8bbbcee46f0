"""Command-line interface: model fitting, tracking, estimation and sorting.

The --config document (default ExperimentConfig()) holds every setting;
--seed, when given, replaces its trial seed and nothing else.  fit writes
the three models it fits from the document's campaign into one models
document, so --seed does not change it; track, estimate and sort run the
models of such a document, and run them exactly as if they had just been
fitted.  Reruns with the same configuration and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys
from pathlib import Path

from . import harness


def _load_config(args) -> harness.ExperimentConfig:
    cfg = harness.config_from_json(args.config) if args.config else harness.ExperimentConfig()
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


def _load_run(args) -> tuple:
    """The config and the models of track, estimate or sort, with the --out
    directory made, so that each fails before any trial runs."""
    cfg = _load_config(args)
    models = harness.read_models(args.models, cfg)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    return cfg, models


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    # fail before the fit, as the write after it would
    Path(args.models).parent.mkdir(parents=True, exist_ok=True)
    if Path(args.models).is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.models)
    models = harness.fit_models(cfg)
    harness.write_models(models, args.models)
    for name in harness.MODEL_LOADS:
        model = getattr(models, name)
        print(f"{name}: n_z={model.n_z}, "
              f"bottom-block residual {model.bottom_block_residual:.3e}")
    print(f"wrote {len(harness.MODEL_LOADS)} models to {args.models}")
    return 0


def cmd_track(args) -> int:
    trials = harness.run_experiment1(*_load_run(args), outdir=args.out)
    print(harness.tracking_markdown(trials))
    return 0


def cmd_estimate(args) -> int:
    for trial in harness.run_experiment2(*_load_run(args), outdir=args.out):
        w_hat = trial.logs.w_hat[-1, 0]
        print(f"payload {1000 * trial.payload:.0f} g: final estimate {1000 * w_hat:.1f} g "
              f"(error {1000 * abs(w_hat - trial.payload):.1f} g)")
    return 0


def cmd_sort(args) -> int:
    outcomes = harness.run_experiment4(*_load_run(args), outdir=args.out)
    ok = sum(o.success for o in outcomes)
    for i, o in enumerate(outcomes):
        print(f"object {i}: mass {1000 * o.payload:.0f} g, estimate "
              f"{1000 * o.w_estimate:.0f} g, bin {o.chosen_bin} "
              f"(true {o.true_bin}), placement error "
              f"{1000 * o.placement_error:.0f} mm, "
              f"{'ok' if o.success else 'FAIL'}")
    print(f"sorted {ok} out of {len(outcomes)}")
    return 0 if ok == len(outcomes) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klmpc",
        description="Koopman modeling, load estimation, and MPC for the "
                    "simulated two-link arm",
    )
    parser.add_argument("--config", help="experiment config JSON")
    parser.add_argument("--seed", type=int, default=None,
                        help="trial seed of track, estimate and sort; replaces "
                             "the config's seed (default: the config's)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the three models from the config's campaign")
    p.add_argument("models", help="output models JSON")
    p.set_defaults(fn=cmd_fit)

    for name, fn, text in (("track", cmd_track, "known-payload tracking comparison"),
                           ("estimate", cmd_estimate, "online payload estimation"),
                           ("sort", cmd_sort, "automated sorting by mass")):
        p = sub.add_parser(name, help=text)
        p.add_argument("models", help="models JSON written by fit")
        p.add_argument("--out", help="output directory for CSV reports")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # numpy is loaded by now, so the one-BLAS-thread pin could not apply
    print("error: not an entry point; run `klmpc` or `python -m klmpc`", file=sys.stderr)
    sys.exit(2)
