"""The klmpc benchmark: set-up, the three closed-loop workloads, the layer
boundaries the tracer wraps, the correctness gates and the metrics of one
run.

Every workload is a sequence of *sweeps*.  A sweep runs one trial per
payload of the experiment it is modelled on, with trial seeds drawn from the
workload seed.  A run executes the first sweep whole, so every run covers
every payload, then further trials until ``seconds`` have passed.
Output-quality numbers come from the first sweep only, so they are fixed by
the seed.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from klmpc import edmd, harness, lifting, mpc, numkit, observer, plant

from spans import Tracer, descendants, median, percentile, self_by_module, self_times

AC4_LIMIT_G = 25.0       # AC-4: open-loop load-estimate error limit
AC5_MEAN_RATIO = 0.80    # AC-5: KL-MPC / K-MPC mean tracking RMSE limit
EXP1_DURATION = 20.0     # figure-eight period, as in run_experiment1
EXP2_DURATION = 20.0     # ramp-and-hold estimation run, as in run_experiment2
EXP3_DURATION = 30.0     # unknown-load circle run, as in run_experiment3

MODULES = ("bench", "harness", "plant", "mpc", "observer", "lifting", "edmd", "numkit")

# name -> (unit, better, bound): what a user of the loop sees and a later
# change may not worsen.  The control loop's own timings (steps_per_s,
# control_step_ms.p50/p99) are printed but not bounded: the host runs
# interpreter-bound code at two speeds about 2x apart, each lasting minutes,
# so their interquartile range over 10 seeds reached 0.33 of the median,
# above the 0.25 ceiling for a bound.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "holdout_rmse_mm": ("mm", "lower", 0.05),
}

# name -> (unit, better): single layers, from the traced run
PER_LAYER = {
    "plant.step_zoh.calls": ("count", "lower"),
    "plant.step_zoh.us_p50": ("us", "lower"),
    "mpc.solve_box_qp.calls": ("count", "lower"),
    "mpc.solve_box_qp.ms_p50": ("ms", "lower"),
    "mpc.solve_box_qp.ms_p99": ("ms", "lower"),
    "mpc.solve_box_qp.cold_ms": ("ms", "lower"),
    "mpc.solve_box_qp.iters_p50": ("count", "lower"),
    "mpc.solve_box_qp.iters_total": ("count", "lower"),
    "mpc.solve_box_qp.cap_hits": ("count", "lower"),
    "mpc.condenser_build_ms": ("ms", "lower"),
    "mpc.condenser_qp_us_p50": ("us", "lower"),
    "mpc.controller_step.self_ms_p50": ("ms", "lower"),
    "observer.update.calls": ("count", "lower"),
    "observer.estimate_window.calls": ("count", "lower"),
    "observer.estimate_window.ms_p50": ("ms", "lower"),
    "observer.estimate_window.ms_max": ("ms", "lower"),
    "observer.degenerate_ratio": ("ratio", "lower"),
    "lifting.lift_gamma.us_p50": ("us", "lower"),
    "lifting.lift_g.us_p50": ("us", "lower"),
    "lifting.gamma_matrix.calls": ("count", "lower"),
    "lifting.gamma_matrix.us_p50": ("us", "lower"),
    "lifting.fit_basis_s": ("s", "lower"),
    "edmd.assemble_snapshots_s": ("s", "lower"),
    "edmd.fit_koopman_s": ("s", "lower"),
    "edmd.one_step_rmse_s": ("s", "lower"),
    "numkit.pinv.calls": ("count", "lower"),
    "numkit.pinv.us_p50": ("us", "lower"),
    "harness.collect_s": ("s", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    **{f"{m}.measure_share": ("ratio", "lower") for m in MODULES},
    "trace.overhead_ratio": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
    "quality.track_rmse_mm": ("mm", "lower"),
    "quality.load_err_g": ("g", "lower"),
    "quality.load_err_max_g": ("g", "lower"),
    "quality.qp_unconverged_ratio": ("ratio", "lower"),
}


# ---------------------------------------------------------------------------
# Trials and workloads
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What the benchmark keeps of one trial."""

    label: str
    payload: float
    steps: int
    rmse: Optional[float] = None        # end-effector tracking RMSE (m)
    load_err: Optional[float] = None    # |final load estimate - payload| (kg)
    solves: int = 0
    unconverged: int = 0
    sweep: int = 0
    wall_s: float = 0.0


def _tracking_trial(model, cfg, payload, ref, duration, label, seed,
                    known_load=None, est_cfg=None) -> Outcome:
    res = harness.run_tracking_trial(model, cfg, payload, ref, duration,
                                     known_load=known_load, est_cfg=est_cfg,
                                     seed=seed, label=label)
    qp = cfg.mpc_config()
    unconverged = sum(lg.kkt_residual > qp.qp_tol or lg.qp_iters >= qp.qp_max_iter
                      for lg in res.logs)
    load_err = None if est_cfg is None else abs(float(res.w_hat_trace[-1][0]) - payload)
    return Outcome(label, payload, steps=res.errors.size, rmse=res.rmse,
                   load_err=load_err, solves=len(res.logs), unconverged=unconverged)


def _estimation_trial(model, cfg, payload, duration, seed) -> Outcome:
    tr = harness.run_estimation_trial(model, cfg, payload, duration=duration, seed=seed)
    return Outcome("observer", payload, steps=tr.t.size, load_err=tr.final_error())


def _trial_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def track_known_sweep(cfg, models, rng):
    """Experiment 1: L-, K- and KL-MPC on the figure-eight at every exp1
    payload; the three controllers of a payload share one noise seed."""
    ref = harness.figure_eight_reference(cfg.plant, duration=EXP1_DURATION)
    for payload in harness.EXP1_PAYLOADS:
        seed = _trial_seed(rng)
        for label, model, known in (("L-MPC", models.baseline, None),
                                    ("K-MPC", models.koopman, None),
                                    ("KL-MPC", models.koopman_load, payload)):
            yield partial(_tracking_trial, model, cfg, payload, ref, EXP1_DURATION,
                          label, seed, known_load=known)


def estimate_open_sweep(cfg, models, rng):
    """Experiment 2: open-loop ramp-and-hold with the passive observer."""
    for payload in harness.EXP2_PAYLOADS:
        yield partial(_estimation_trial, models.koopman_load, cfg, payload,
                      EXP2_DURATION, _trial_seed(rng))


def track_unknown_sweep(cfg, models, rng):
    """Experiment 3: KL-MPC on the circle with the live observer."""
    ref = harness.circle_reference(cfg.plant, duration=EXP3_DURATION)
    for payload in harness.EXP2_PAYLOADS:
        yield partial(_tracking_trial, models.koopman_load, cfg, payload, ref,
                      EXP3_DURATION, "KL-MPC", _trial_seed(rng),
                      est_cfg=cfg.estimator)


def ac5_gate(sweep):
    """AC-5's mean gate over the sweep's payloads."""
    kl = np.mean([o.rmse for o in sweep if o.label == "KL-MPC"])
    k = np.mean([o.rmse for o in sweep if o.label == "K-MPC"])
    return [(kl <= AC5_MEAN_RATIO * k,
             f"AC-5: KL-MPC mean RMSE {1e3 * kl:.2f} mm > {AC5_MEAN_RATIO} x "
             f"K-MPC {1e3 * k:.2f} mm")]


def ac4_gate(sweep):
    """AC-4's 25 g limit on the sweep's mean final load-estimate error."""
    err = 1e3 * np.mean([o.load_err for o in sweep])
    return [(err <= AC4_LIMIT_G,
             f"AC-4: mean final load error {err:.1f} g > {AC4_LIMIT_G} g")]


def no_gate(sweep):
    """track_unknown's final load error is reported, not gated: AC-4 is
    defined on open-loop estimation runs."""
    return []


def _applied_command(args, result):
    return result


def _observer_input(args, result):
    return args[3]          # observer.update(state, model, y, u)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweep: Callable            # (cfg, models, rng) -> iterator of trial thunks
    online: tuple              # ((owner, attr), ...): the per-sample on-line calls
    applied: Callable          # (args, result) of the first -> the input applied
    gate: Callable             # sweep outcomes -> [(ok, failure message)]


WORKLOADS = {
    w.name: w for w in (
        Workload("track_known",
                 "exp1 figure-eight, L/K/KL-MPC at known payloads: warm QP and lifting "
                 "at n_z 10/26/52; the observer is idle (bypass case for observer changes)",
                 track_known_sweep, ((mpc.Controller, "step"),), _applied_command, ac5_gate),
        Workload("estimate_open",
                 "exp2 open-loop ramp-and-hold with the passive observer: plant and "
                 "estimate_window, no MPC (bypass case for QP-solver changes)",
                 estimate_open_sweep, ((observer, "update"), (observer, "estimate_instant")),
                 _observer_input, ac4_gate),
        Workload("track_unknown",
                 "exp3 circle, KL-MPC with the live observer: estimate_window on the "
                 "control path every Ne steps, w_hat feeds the lift",
                 track_unknown_sweep, ((mpc.Controller, "step"),), _applied_command,
                 no_gate),
    )
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Tally:
    """Correctness checks, each counted as one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def check(self, ok, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)


class OnlineProbe:
    """Times the per-sample on-line computation (the compute a 20 Hz loop
    must fit into its period) and checks every input it applies.

    The first call in ``workload.online`` opens a sample and carries the
    applied input; later calls in the list add their time to that sample.
    """

    def __init__(self, workload: Workload, tally: Tally):
        self.points = workload.online
        self.applied = workload.applied
        self.tally = tally
        self.samples_ms: list = []
        self._originals: list = []

    def _probe(self, original, opens_sample: bool):
        samples, applied, tally, clock = self.samples_ms, self.applied, self.tally, time.perf_counter

        def probed(*args, **kwargs):
            t0 = clock()
            result = original(*args, **kwargs)
            ms = (clock() - t0) * 1e3
            if not opens_sample:
                samples[-1] += ms
                return result
            samples.append(ms)
            u = np.asarray(applied(args, result), dtype=float)
            tally.check(bool(np.all(np.isfinite(u)) and np.all((u >= 0.0) & (u <= 1.0))),
                        f"applied input {u} not finite or outside [0, 1]")
            return result

        return probed

    def install(self) -> None:
        for i, (owner, attr) in enumerate(self.points):
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._probe(original, opens_sample=(i == 0)))
            self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def set_up():
    """The set-up every `klmpc track/estimate/sort` call pays: the default
    campaign, basis and three model fits, and their holdout RMSE."""
    cfg = harness.ExperimentConfig()
    models = harness.fit_models(cfg)
    holdout = {label: edmd.one_step_rmse(model, models.holdout)
               for label, model in (("L", models.baseline), ("K", models.koopman),
                                    ("KL", models.koopman_load))}
    return cfg, models, holdout


def measure(workload: Workload, cfg, models, seed: int, seconds: float,
            tally: Tally, tracer: Optional[Tracer] = None):
    """Run the first sweep whole, then further trials until ``seconds`` have
    passed; gates apply to complete sweeps.  Returns the trial outcomes and
    the wall time of the phase."""
    rng = np.random.default_rng(seed)
    outcomes: list = []
    start = time.perf_counter()
    sweep = 0
    complete = True
    while complete and (sweep == 0 or time.perf_counter() - start < seconds):
        first = len(outcomes)
        for trial in workload.sweep(cfg, models, rng):
            if sweep > 0 and time.perf_counter() - start >= seconds:
                complete = False
                break
            if tracer is not None:
                tracer.trial = len(outcomes)
            t0 = time.perf_counter()
            out = trial()
            out.wall_s = time.perf_counter() - t0
            out.sweep = sweep
            outcomes.append(out)
        if complete:
            for ok, message in workload.gate(outcomes[first:]):
                tally.check(ok, f"sweep {sweep}: {message}")
        sweep += 1
    if tracer is not None:
        tracer.trial = -1
    return outcomes, time.perf_counter() - start


def end_to_end(setup_s: float, holdout: dict) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "holdout_rmse_mm": 1e3 * holdout["KL"],
    }


def quality(outcomes) -> dict:
    """Output quality of the first sweep (fixed by the seed)."""
    first = [o for o in outcomes if o.sweep == 0]
    rmse = [o.rmse for o in first if o.label == "KL-MPC"]
    errs = [o.load_err for o in first if o.load_err is not None]
    solves = sum(o.solves for o in first)
    return {
        "quality.track_rmse_mm": 1e3 * float(np.mean(rmse)) if rmse else 0.0,
        "quality.load_err_g": 1e3 * float(np.mean(errs)) if errs else 0.0,
        "quality.load_err_max_g": 1e3 * max(errs) if errs else 0.0,
        "quality.qp_unconverged_ratio":
            sum(o.unconverged for o in first) / solves if solves else 0.0,
    }


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def _qp_record(args, kwargs, result):
    return (result.iterations, result.iterations >= kwargs.get("max_iter", 100))


def _window_record(args, kwargs, state):
    """(window due, window degenerate or skipped) for one observer.update,
    read from the state it returns; mirrors update's schedule condition."""
    cfg = state.cfg
    due = (state.step - 1) % cfg.Ne == 0 and len(state.history) >= cfg.Nw + state.d + 1
    return (due, due and state.degenerate)


def layer_tracer() -> Tracer:
    """A tracer over the public entry points of every layer, each patched
    where its caller looks it up."""
    t = Tracer()
    t.wrap(harness, "fit_models", "harness.fit_models")
    t.wrap(harness, "run_tracking_trial", "harness.run_tracking_trial")
    t.wrap(harness, "run_estimation_trial", "harness.run_estimation_trial")
    t.wrap(harness.Reference, "__call__", "harness.Reference")
    t.wrap(harness, "collect_training_data", "plant.collect_training_data")
    t.wrap(plant, "step_zoh", "plant.step_zoh")
    t.wrap(mpc.Controller, "step", "mpc.Controller.step")
    t.wrap(mpc.Condenser, "__init__", "mpc.Condenser.build")
    t.wrap(mpc.Condenser, "qp", "mpc.Condenser.qp")
    t.wrap(mpc, "solve_box_qp", "mpc.solve_box_qp", record=_qp_record)
    t.wrap(observer, "update", "observer.update", record=_window_record)
    t.wrap(observer, "estimate_window", "observer.estimate_window")
    t.wrap(observer, "estimate_instant", "observer.estimate_instant")
    t.wrap(lifting, "fit_basis", "lifting.fit_basis")
    t.wrap(lifting, "pca_fit", "numkit.pca_fit")
    t.wrap(lifting, "lift_g", "lifting.lift_g")
    t.wrap(lifting, "lift_gamma", "lifting.lift_gamma")
    t.wrap(lifting, "lift_g_many", "lifting.lift_g_many")
    t.wrap(lifting, "lift_gamma_many", "lifting.lift_gamma_many")
    t.wrap(lifting, "gamma_matrix", "lifting.gamma_matrix")
    t.wrap(edmd, "assemble_snapshots", "edmd.assemble_snapshots")
    t.wrap(edmd, "fit_koopman", "edmd.fit_koopman")
    t.wrap(edmd, "fit_linear_baseline", "edmd.fit_linear_baseline")
    t.wrap(edmd, "one_step_rmse", "edmd.one_step_rmse")
    t.wrap(numkit, "pinv", "numkit.pinv")
    t.wrap(numkit, "lstsq", "numkit.lstsq")
    return t


def module_table(tracer: Tracer, setup_span: int, measure_span: int) -> dict:
    """Self time per module inside the set-up and the measured phase."""
    spans = tracer.spans
    selves = self_times(spans)
    return {phase: self_by_module(spans, selves, descendants(spans, root).__contains__)
            for phase, root in (("setup", setup_span), ("measure", measure_span))}


def layer_metrics(tracer: Tracer, table: dict, overhead_ratio: float) -> dict:
    """Per-layer metrics from the traced run's spans; a layer the workload
    never calls reports 0."""
    spans = tracer.spans
    selves = self_times(spans)
    durations = tracer.durations()

    def dur(name):
        return durations.get(name, [])

    def p50(name, scale):
        xs = dur(name)
        return scale * median(xs) if xs else 0.0

    solves = dur("mpc.solve_box_qp")
    cold, seen = [], set()
    for name, start, end, _, trial in spans:
        if name == "mpc.solve_box_qp" and trial not in seen:
            seen.add(trial)
            cold.append(end - start)
    iters = [it for it, _ in tracer.values["mpc.solve_box_qp"]]
    windows = tracer.values["observer.update"]
    due = sum(d for d, _ in windows)
    step_self = [s for span, s in zip(spans, selves) if span[0] == "mpc.Controller.step"]
    measure_wall = sum(table["measure"].values())

    out = {
        "plant.step_zoh.calls": len(dur("plant.step_zoh")),
        "plant.step_zoh.us_p50": p50("plant.step_zoh", 1e6),
        "mpc.solve_box_qp.calls": len(solves),
        "mpc.solve_box_qp.ms_p50": 1e3 * median(solves) if solves else 0.0,
        "mpc.solve_box_qp.ms_p99": 1e3 * percentile(solves, 99) if solves else 0.0,
        "mpc.solve_box_qp.cold_ms": 1e3 * median(cold) if cold else 0.0,
        "mpc.solve_box_qp.iters_p50": median(iters) if iters else 0.0,
        "mpc.solve_box_qp.iters_total": sum(iters),
        "mpc.solve_box_qp.cap_hits": sum(cap for _, cap in tracer.values["mpc.solve_box_qp"]),
        "mpc.condenser_build_ms": p50("mpc.Condenser.build", 1e3),
        "mpc.condenser_qp_us_p50": p50("mpc.Condenser.qp", 1e6),
        "mpc.controller_step.self_ms_p50": 1e3 * median(step_self) if step_self else 0.0,
        "observer.update.calls": len(dur("observer.update")),
        "observer.estimate_window.calls": len(dur("observer.estimate_window")),
        "observer.estimate_window.ms_p50": p50("observer.estimate_window", 1e3),
        "observer.estimate_window.ms_max": 1e3 * max(dur("observer.estimate_window"), default=0.0),
        "observer.degenerate_ratio": sum(g for _, g in windows) / due if due else 0.0,
        "lifting.lift_gamma.us_p50": p50("lifting.lift_gamma", 1e6),
        "lifting.lift_g.us_p50": p50("lifting.lift_g", 1e6),
        "lifting.gamma_matrix.calls": len(dur("lifting.gamma_matrix")),
        "lifting.gamma_matrix.us_p50": p50("lifting.gamma_matrix", 1e6),
        "lifting.fit_basis_s": sum(dur("lifting.fit_basis")),
        "edmd.assemble_snapshots_s": sum(dur("edmd.assemble_snapshots")),
        "edmd.fit_koopman_s": sum(dur("edmd.fit_koopman")),
        "edmd.one_step_rmse_s": sum(dur("edmd.one_step_rmse")),
        "numkit.pinv.calls": len(dur("numkit.pinv")),
        "numkit.pinv.us_p50": p50("numkit.pinv", 1e6),
        "harness.collect_s": sum(dur("plant.collect_training_data")),
        "trace.overhead_ratio": overhead_ratio,
        "trace.spans": len(spans),
    }
    for m in MODULES:
        out[f"{m}.self_s"] = table["setup"].get(m, 0.0) + table["measure"].get(m, 0.0)
        out[f"{m}.measure_share"] = table["measure"].get(m, 0.0) / measure_wall
    return out


def format_table(table: dict, overhead_ratio: float) -> str:
    """Markdown table of self time by module; the totals equal the traced
    wall time of each phase."""
    setup_wall = sum(table["setup"].values())
    measure_wall = sum(table["measure"].values())
    lines = ["| module | set-up self s | measure self s | measure share |",
             "|---|---:|---:|---:|"]
    for m in MODULES:
        s, t = table["setup"].get(m, 0.0), table["measure"].get(m, 0.0)
        lines.append(f"| {m} | {s:.3f} | {t:.3f} | {100 * t / measure_wall:.1f} % |")
    lines.append(f"| total (traced wall) | {setup_wall:.3f} | {measure_wall:.3f} | 100.0 % |")
    lines.append("")
    lines.append(f"Tracing overhead: traced/untraced steps_per_s on trial 0 = "
                 f"{overhead_ratio:.4f}, so the measured phase would take about "
                 f"{measure_wall * overhead_ratio:.3f} s untraced.")
    return "\n".join(lines) + "\n"


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run.  Returns the tally, the metrics to print, the
    quality numbers and, when traced, the tracer and module table."""
    workload = WORKLOADS[name]
    tally = Tally()
    tracer = layer_tracer() if trace else None
    probe = OnlineProbe(workload, tally)
    result = {"tally": tally, "tracer": tracer}
    try:
        if tracer is None:
            t0 = time.perf_counter()
            cfg, models, holdout = set_up()
            setup_s = time.perf_counter() - t0
        else:
            tracer.install()
            with tracer.span("bench.setup") as setup_span:
                cfg, models, holdout = set_up()
            tracer.uninstall()
            # untraced reference for the tracing overhead: the measured
            # phase starts with this same trial
            trial0 = next(workload.sweep(cfg, models, np.random.default_rng(seed)))
            t0 = time.perf_counter()
            trial0()
            untraced_first_s = time.perf_counter() - t0
            tracer.install()
        tally.check(holdout["KL"] < holdout["K"] < holdout["L"],
                    "AC-3: holdout RMSE not ordered KL < K < L: "
                    + ", ".join(f"{k} {v:.5f}" for k, v in holdout.items()))
        probe.install()
        if tracer is None:
            outcomes, wall_s = measure(workload, cfg, models, seed, seconds, tally)
        else:
            with tracer.span("bench.measure") as measure_span:
                outcomes, wall_s = measure(workload, cfg, models, seed, seconds, tally, tracer)
    finally:
        probe.uninstall()
        if tracer is not None:
            tracer.uninstall()

    result["quality"] = quality(outcomes)
    result["holdout_rmse_mm"] = {k: 1e3 * v for k, v in holdout.items()}
    result["trials"] = len(outcomes)
    result["steps"] = sum(o.steps for o in outcomes)
    if tracer is None:
        result["metrics"] = end_to_end(setup_s, holdout)
        result["unbounded"] = {
            "steps_per_s": result["steps"] / wall_s,
            "control_step_ms.p50": median(probe.samples_ms),
            "control_step_ms.p99": percentile(probe.samples_ms, 99),
            "samples": len(probe.samples_ms),
        }
    else:
        overhead = untraced_first_s / outcomes[0].wall_s
        table = module_table(tracer, setup_span, measure_span)
        result["table"] = format_table(table, overhead)
        result["metrics"] = {**layer_metrics(tracer, table, overhead), **result["quality"]}
    return result
