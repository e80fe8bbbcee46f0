"""Command-line interface: data collection, model fitting, tracking,
estimation and sorting.

--seed (or the KLMPC_SEED environment variable) seeds the trials of track,
estimate and sort, which fit their models from the config's campaign.seed,
and it is the campaign seed of collect.  Reruns with the same configuration
and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import edmd, harness
from .harness import ExperimentConfig, config_from_json
from .plant import collect_training_data


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    value = os.environ.get("KLMPC_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"KLMPC_SEED must be an integer, got {value!r}") from None


def _loads(text: str) -> tuple:
    try:
        return tuple(map(float, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _load_config(args) -> ExperimentConfig:
    cfg = config_from_json(args.config) if args.config else ExperimentConfig()
    return dataclasses.replace(cfg, seed=_seed(args))


def cmd_collect(args) -> int:
    cfg = _load_config(args)
    # a flag overrides the config's campaign and meets the same checks
    flags = {name: getattr(args, name) for name in ("loads", "trials", "duration")
             if getattr(args, name) is not None}
    camp = dataclasses.replace(cfg.campaign, seed=cfg.seed, **flags)
    [trajectories] = collect_training_data(cfg.plant, [camp])
    edmd.save_trajectories(trajectories, args.dataset)
    print(f"wrote {len(trajectories)} trajectories to {args.dataset}")
    return 0


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    trajectories = edmd.load_trajectories(args.dataset)
    model = harness.fit_kinds(trajectories, cfg.fit, kinds=(args.kind,))[args.kind]
    edmd.save_model(model, args.model)
    print(f"wrote {args.kind} model (n_z={model.n_z}, "
          f"bottom-block residual {model.bottom_block_residual:.3e}) to {args.model}")
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
                        help="random seed (default: KLMPC_SEED or 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="run the data campaign, write CSV")
    p.add_argument("dataset", help="output dataset CSV")
    p.add_argument("--loads", type=_loads, help="comma-separated loads in kg")
    p.add_argument("--trials", type=int)
    p.add_argument("--duration", type=float)
    p.set_defaults(fn=cmd_collect)

    p = sub.add_parser("fit", help="fit a model from a dataset CSV")
    p.add_argument("dataset")
    p.add_argument("model", help="output model JSON")
    p.add_argument("--kind", choices=harness.MODEL_KINDS,
                   default="koopman-load")
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
