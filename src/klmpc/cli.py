"""Command-line interface: model fitting, tracking, estimation and sorting.

The --config document (default ExperimentConfig()) holds every setting;
--seed, when given, replaces its trial seed and nothing else.  fit writes
the three models that track, estimate and sort fit from the document's
campaign, so --seed does not change its document.  Reruns with the same
configuration and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import edmd, harness
from .harness import ExperimentConfig, config_from_json


def _load_config(args) -> ExperimentConfig:
    cfg = config_from_json(args.config) if args.config else ExperimentConfig()
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


def cmd_fit(args) -> int:
    models = harness.fit_models(_load_config(args))
    named = {name: getattr(models, name) for name in ("baseline", "koopman", "koopman_load")}
    edmd.save_models(named, args.models)
    for name, model in named.items():
        print(f"{name}: n_z={model.n_z}, "
              f"bottom-block residual {model.bottom_block_residual:.3e}")
    print(f"wrote {len(named)} models to {args.models}")
    return 0


def cmd_track(args) -> int:
    cfg = _load_config(args)
    report = harness.run_experiment1(cfg, harness.fit_models(cfg), outdir=args.out)
    print(report.to_markdown())
    return 0


def cmd_estimate(args) -> int:
    cfg = _load_config(args)
    traces = harness.run_experiment2(cfg, harness.fit_models(cfg), outdir=args.out)
    for tr in traces:
        print(f"payload {1000 * tr.payload:.0f} g: final estimate "
              f"{1000 * tr.w_hat[-1]:.1f} g "
              f"(error {1000 * tr.final_error():.1f} g)")
    return 0


def cmd_sort(args) -> int:
    cfg = _load_config(args)
    outcomes = harness.run_experiment4(cfg, harness.fit_models(cfg), outdir=args.out)
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

    p = sub.add_parser("track", help="known-payload tracking comparison")
    p.add_argument("--out", help="output directory for CSV reports")
    p.set_defaults(fn=cmd_track)

    p = sub.add_parser("estimate", help="online payload estimation")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("sort", help="automated sorting by mass")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sort)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
