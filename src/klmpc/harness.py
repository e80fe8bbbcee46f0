"""Experiment runners: model fitting campaigns, reference trajectories, the
three tracking controllers, and desk-scale analogs of the four validation
experiments.  The one module that opens a file: it reads the config, writes
and reads the models document, and writes every experiment file (CSV, and
exp1's markdown table)."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import edmd, lifting, observer as obs
from .edmd import KoopmanModel
from .mpc import Controller, MpcConfig, end_effector_weight
from .observer import EstimatorConfig, EstimatorState
from .plant import (ARM_SHAPE, ArmParams, CampaignConfig, Run, collect_training_data, drive,
                    excitation, sample_steps)

EXP1_PAYLOADS = (0.025, 0.075, 0.125, 0.175, 0.225, 0.275)
EXP2_PAYLOADS = (0.025, 0.125, 0.225)
# trial lengths (s) of experiments 1-3
EXP1_DURATION = 20.0
EXP2_DURATION = 20.0
EXP3_DURATION = 30.0
BIN_WIDTH = 0.05
BIN_COUNT = 5
CUP_RADIUS = 0.045
# experiment 4: objects sorted per run, and the seconds of the estimation
# (excitation) and drop-off phases of each
SORT_OBJECTS = 5
SORT_ESTIMATION_DURATION = 15.0
SORT_DROPOFF_DURATION = 10.0
# input weight of the drop-off controller: regulating to a fixed cup needs the
# arm to come to rest, and at the tracking weight (r_weight) it chatters
# bang-bang around the target, so the release point would hang on the last
# bits of the load estimate
DROPOFF_R_WEIGHT = 1e-2
CSV_FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class FitConfig:
    d: int = 1
    energy: float = 0.999
    holdout_duration: float = 20.0

    def __post_init__(self):
        if not self.d >= 0:
            raise ValueError(f"FitConfig: 'd' must be >= 0, got {self.d}")
        if not 0.0 < self.energy <= 1.0:
            raise ValueError(f"FitConfig: 'energy' must be in (0, 1], got {self.energy}")
        if not 0.0 < self.holdout_duration < math.inf:
            raise ValueError(f"FitConfig: 'holdout_duration' must be finite and > 0, "
                             f"got {self.holdout_duration}")


@dataclass(frozen=True)
class ExperimentConfig:
    plant: ArmParams = field(default_factory=ArmParams)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    fit: FitConfig = field(default_factory=FitConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    Nh: int = 12
    r_weight: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if not self.r_weight > 0.0:
            raise ValueError(f"ExperimentConfig: 'r_weight' must be > 0, got {self.r_weight}")
        if not self.seed >= 0:
            raise ValueError(f"ExperimentConfig: 'seed' must be >= 0, got {self.seed}")
        self.mpc_config()  # range checks of the controller settings

    def mpc_config(self) -> MpcConfig:
        n, m = ARM_SHAPE
        return MpcConfig(
            Nh=self.Nh,
            Q=end_effector_weight(n),
            R=self.r_weight * np.eye(m),
            u_min=np.zeros(m),
            u_max=np.ones(m),
        )


def _read_json(path, where: str) -> dict:
    """The JSON object in the file at ``path``.  Text that is not JSON, not
    UTF-8 or not an object is one ValueError starting with ``where``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:            # not JSON, or not UTF-8 text
            raise ValueError(f"{where}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    return doc


def config_from_json(path) -> ExperimentConfig:
    """Load an experiment configuration from a JSON document, checked against
    the form of ``ExperimentConfig()``; missing fields take its defaults."""
    where = f"config {path}"
    doc = _read_json(path, where)
    edmd.check_document(doc, dataclasses.asdict(ExperimentConfig()), where, complete=False)
    return _replace(ExperimentConfig(), doc)


def _replace(config, doc: dict):
    """``config`` with the fields that the checked object ``doc`` names; a
    sub-config's object replaces its own fields."""
    return dataclasses.replace(config, **{
        key: _replace(getattr(config, key), value) if isinstance(value, dict)
        else tuple(value) if isinstance(value, list) else value
        for key, value in doc.items()})


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

class Reference:
    """Time-indexed output reference, held at its final value past the end.

    ``table`` holds one row per step k, from one call of ``fn`` on the times
    ``clip(k Ts, 0, duration)`` up to the end.  Only the end-effector
    coordinates (last two) are tracked; the link-1 coordinates carry zero
    weight and a zero reference.
    """

    def __init__(self, fn, Ts: float, duration: float):
        t = np.clip(np.arange(math.ceil(duration / Ts) + 2) * Ts, 0.0, duration)
        self.table = np.zeros((t.size, ARM_SHAPE[0]))
        self.table[:, -2:] = np.asarray(fn(t)).T

    def __call__(self, k: int) -> np.ndarray:
        return self.table[min(max(k, 0), len(self.table) - 1)].copy()

    def targets(self, ks) -> np.ndarray:
        """End-effector rows (len(ks), 2) at the integer steps ``ks``."""
        return self.table[np.clip(ks, 0, len(self.table) - 1), -2:]


def figure_eight_reference(params: ArmParams, duration: float) -> Reference:
    """Planar figure-eight 0.6 m wide, one cycle over the trial, near the
    hanging end-effector position.

    The torque- and spring-limited workspace is wide but shallow, so the
    eight is mostly horizontal.
    """
    extent = 0.6
    center = (0.0, -0.975 * (params.L1 + params.L2))
    ax_, ay = extent / 2.0, 0.075 * extent

    def fn(t):
        ph = 2.0 * np.pi * t / duration
        return np.array([center[0] + ax_ * np.sin(ph),
                         center[1] + ay * np.sin(2.0 * ph)])

    return Reference(fn, params.Ts, duration)


def circle_reference(params: ArmParams, duration: float) -> Reference:
    """Planar circle of radius 0.1 m (paper-scale 200 mm diameter analog)
    for the end effector, traversed once every 10 s."""
    radius, period = 0.1, 10.0
    center = (0.0, -0.88 * (params.L1 + params.L2))

    def fn(t):
        ph = 2.0 * np.pi * t / period
        return np.array([center[0] + radius * np.sin(ph),
                         center[1] - radius * np.cos(ph)])

    return Reference(fn, params.Ts, duration)


# ---------------------------------------------------------------------------
# Model fitting
# ---------------------------------------------------------------------------

# the models of a ModelSet, and of its models document, with their load
# dimensions p
MODEL_LOADS = {"baseline": 0, "koopman": 0, "koopman_load": 1}


@dataclass(frozen=True)
class ModelSet:
    baseline: KoopmanModel        # L-MPC: identity-basis least squares
    koopman: KoopmanModel         # K-MPC: degree-2 dictionary, no load
    koopman_load: KoopmanModel    # KL-MPC: load-augmented dictionary
    holdout: Optional[tuple] = None   # held-out campaign (Y, U, w); None when read


def fit_models(cfg: ExperimentConfig) -> ModelSet:
    """Fit the three controller models from the training campaign and keep
    the holdout campaign for scoring; both campaigns run as one lockstep
    batch, and the PCA dictionary basis is fitted once for both dictionary
    models.  Each fit takes the campaign itself; the PCA's samples, the
    a side of its snapshot pairs, are released before the dictionary fits."""
    camp, fit = cfg.campaign, cfg.fit
    training, holdout = collect_training_data(cfg.plant, [
        camp, CampaignConfig(loads=camp.loads, trials=1,
                             duration=fit.holdout_duration, seed=camp.seed + 1)])
    baseline = edmd.fit_linear_baseline(training, d=fit.d, Ts=cfg.plant.Ts)
    basis = lifting.fit_basis(edmd.assemble_snapshots(*training, fit.d), fit.energy,
                              n=baseline.n, m=baseline.m, d=fit.d)
    koopman = edmd.fit_koopman(training, basis, cfg.plant.Ts)
    return ModelSet(baseline=baseline, koopman=koopman,
                    koopman_load=edmd.fit_koopman(training, basis, cfg.plant.Ts, with_load=True),
                    holdout=holdout)


def write_models(models: ModelSet, path) -> None:
    """Write the models document: one JSON object whose MODEL_LOADS entries
    are the :func:`edmd.model_to_dict` of each model of ``models``."""
    with open(path, "w") as fh:
        json.dump({name: edmd.model_to_dict(getattr(models, name)) for name in MODEL_LOADS}, fh)


def read_models(path, cfg: ExperimentConfig) -> ModelSet:
    """The models of the models document at ``path``, refused unless it
    holds each of MODEL_LOADS with its load dimension, for the arm's outputs
    and inputs at the sample period of ``cfg.plant``; a malformed entry is
    refused by name."""
    where = f"models document {path}"
    models = {name: edmd.model_from_dict(entry, f"{where} {name!r}")
              for name, entry in _read_json(path, where).items()}
    if sorted(models) != sorted(MODEL_LOADS):
        raise ValueError(f"{where}: expected the models {', '.join(map(repr, MODEL_LOADS))}, "
                         f"got {', '.join(map(repr, models)) or 'none'}")
    for name, model in models.items():
        if (model.n, model.m, model.p) != (*ARM_SHAPE, MODEL_LOADS[name]):
            raise ValueError(f"{where}: {name!r} has n = {model.n}, m = {model.m} and "
                             f"p = {model.p}; the arm needs {ARM_SHAPE[0]}, {ARM_SHAPE[1]} "
                             f"and {MODEL_LOADS[name]}")
        if model.Ts != cfg.plant.Ts:
            raise ValueError(f"{where}: {name!r} has Ts = {model.Ts}, "
                             f"the config's plant has Ts = {cfg.plant.Ts}")
    return ModelSet(**models)


# ---------------------------------------------------------------------------
# Trials and reports
# ---------------------------------------------------------------------------

def write_csv(path, header, rows) -> None:
    """Write the header line, then one line per row: a string cell as it is,
    a number as ``CSV_FLOAT_FMT`` (an int or a bool as a whole number)."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else CSV_FLOAT_FMT % c
                              for c in row) + "\n")


@dataclass
class TrialResult:
    controller: str
    payload: float
    rmse: Optional[float]         # None for an estimation trial
    logs: np.recarray             # the trial's step log
    errors: Optional[np.ndarray]  # per-step end-effector tracking error; None likewise

    @property
    def w_hat_trace(self) -> Optional[np.ndarray]:
        """The step log's w_hat column; None when the log has no load columns."""
        return self.logs.w_hat if self.logs.dtype["w_hat"].shape[0] else None

    @property
    def t(self) -> np.ndarray:
        """The step log's t column."""
        return self.logs.t

    def final_error(self) -> float:
        """|final load estimate - payload|, of the first load entry."""
        return float(abs(self.w_hat_trace[-1, 0] - self.payload))


def _lockstep(params: ArmParams, trials) -> list:
    """Drive the trials ``(run, read)`` as one :func:`drive` batch; return each ``read(Y)``."""
    recorded = drive(params, [run for run, _ in trials])
    return [read(Y) for (_, read), (Y, _) in zip(trials, recorded)]


def _tracking_trial(model, cfg, payload, ref, duration, known_load, est_cfg, seed, label) -> tuple:
    """The run and reader of :func:`run_tracking_trial`."""
    K = sample_steps(duration, cfg.plant.Ts)
    ctrl = Controller(model, cfg.mpc_config(), ref.table, est_cfg=est_cfg, known_load=known_load)

    def read(Y):
        miss = Y[1:, -2:] - ref.targets(np.arange(1, K + 1))
        # a (1, 2) @ (2, 1) product runs the dot kernel that np.linalg.norm
        # runs on one vector, so each error rounds as its per-step norm would
        errors = np.sqrt(miss[:, None] @ miss[:, :, None])[:, 0, 0]
        return TrialResult(controller=label, payload=payload,
                           rmse=float(np.sqrt(np.mean(errors**2))), logs=ctrl.logs, errors=errors)

    return Run(payload, np.random.default_rng(seed), K, lambda k, y: ctrl.step(y)), read


def run_tracking_trial(model: KoopmanModel, cfg: ExperimentConfig, payload: float,
                       ref: Reference, duration: float, known_load: Optional[float] = None,
                       est_cfg: Optional[EstimatorConfig] = None, seed: int = 0,
                       label: str = "") -> TrialResult:
    """Closed-loop run of one controller against the simulated arm."""
    return _lockstep(cfg.plant, [_tracking_trial(model, cfg, payload, ref, duration, known_load,
                                                 est_cfg, seed, label)])[0]


def write_records(path, records) -> None:
    """Write a record array through :func:`write_csv`, one line per record:
    a field of shape (k,) gives the columns name1..namek, a scalar field its
    name, and every value is written as a float."""
    if not len(records):
        raise ValueError("no records to write")
    header = [col for name in records.dtype.names for col in
              ([f"{name}{i + 1}" for i in range(records.dtype[name].shape[0])]
               if records.dtype[name].shape else [name])]
    write_csv(path, header,
              np.column_stack([records[name] for name in records.dtype.names]).astype(float))


def _maybe_write(outdir, name: str, writer) -> None:
    """Run ``writer(path)`` for the file ``name`` in ``outdir``, if one is given."""
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        writer(os.path.join(outdir, name))


def tracking_table(trials) -> tuple:
    """The tracking table of ``trials``: its payload columns, those of the
    first controller's trials, and a dict mapping each controller, in the
    order it first ran, to ``(rmse, mean, std)``: the RMSE (m) of its trials
    in run order, and their mean and std."""
    rmse = {}
    for trial in trials:
        rmse.setdefault(trial.controller, []).append(trial.rmse)
    payloads = [t.payload for t in trials if t.controller == trials[0].controller]
    return payloads, {name: (vals, float(np.mean(vals)), float(np.std(vals)))
                      for name, vals in rmse.items()}


def tracking_markdown(trials) -> str:
    """The tracking table in markdown, in mm."""
    payloads, rows = tracking_table(trials)
    lines = ["| Controller | " + " | ".join(f"{1000 * p:g} g" for p in payloads)
             + " | Avg. | Std. Dev. |", "|" + "---|" * (len(payloads) + 3)]
    for name, (rmse, mean, std) in rows.items():
        cells = " | ".join(f"{1000 * v:.2f}" for v in (*rmse, mean, std))
        lines.append(f"| {name} | {cells} |")
    return "\n".join(lines) + "\n"


def write_tracking_csv(path, trials) -> None:
    """The tracking table as CSV: ``controller,rmse_<grams>g...,avg,std``."""
    payloads, rows = tracking_table(trials)
    write_csv(path, ["controller", *(f"rmse_{1000 * p:g}g" for p in payloads), "avg", "std"],
              ([name, *rmse, mean, std] for name, (rmse, mean, std) in rows.items()))


def run_experiment1(cfg: ExperimentConfig, models: ModelSet, outdir=None) -> list:
    """Trajectory following with known payload: all three controllers over
    EXP1_PAYLOADS, payload-major; only KL-MPC can use the true load value."""
    ref = figure_eight_reference(cfg.plant, duration=EXP1_DURATION)
    trials = _lockstep(cfg.plant, [
        _tracking_trial(model, cfg, payload, ref, EXP1_DURATION, payload if model.p else None,
                        None, cfg.seed * 1000 + i, label)
        for i, payload in enumerate(EXP1_PAYLOADS)
        for label, model in (("L-MPC", models.baseline), ("K-MPC", models.koopman),
                             ("KL-MPC", models.koopman_load))])
    _maybe_write(outdir, "experiment1_rmse.csv", lambda path: write_tracking_csv(path, trials))
    _maybe_write(outdir, "experiment1_rmse.md",
                 lambda path: Path(path).write_text(tracking_markdown(trials)))
    return trials


def _estimation_trial(model, cfg, payload, duration, seed) -> tuple:
    """The run and reader of :func:`run_estimation_trial`."""
    K, d, p = sample_steps(duration, cfg.plant.Ts), model.d, model.p
    logs = np.recarray(K, dtype=[("step", int), ("t", float), ("w_true", float, (p,)),
                                 ("w_instant", float, (p,)), ("w_hat", float, (p,))])
    logs.step, logs.t, logs.w_true = np.arange(K), np.arange(K) * cfg.plant.Ts, payload
    w_instant, w_hat = logs.w_instant, logs.w_hat
    state = EstimatorState(cfg=cfg.estimator, d=d)
    excite = excitation(np.random.default_rng(seed), cfg.plant.Ts)

    def policy(k, y):
        u = excite(k, y)
        obs.update(state, model, y, u)
        w_hat[k] = w_instant[k] = state.w_hat
        if k > d and (wi := obs.estimate_instant(model, state.history, cfg.estimator)) is not None:
            w_instant[k] = wi
        return u

    result = TrialResult(controller="observer", payload=payload, rmse=None, logs=logs, errors=None)
    return Run(payload, np.random.default_rng(seed + 1), K, policy), lambda Y: result


def run_estimation_trial(model: KoopmanModel, cfg: ExperimentConfig, payload: float,
                         duration: float, seed: int = 0) -> TrialResult:
    """Drive the plant open-loop with ramp-and-hold inputs while the load
    observer runs on its periodic schedule; the instant estimate at step k
    uses the transition k-1 -> k from the observer's own history.  The step
    log holds, per step, the true load, the instant estimate and w_hat."""
    return _lockstep(cfg.plant, [_estimation_trial(model, cfg, payload, duration, seed)])[0]


def _write_logs(outdir, experiment: int, trials) -> None:
    """Write each trial's step log, when ``outdir`` is given, as
    ``experiment<experiment>_w<grams>g.csv``."""
    for trial in trials:
        _maybe_write(outdir, f"experiment{experiment}_w{1000 * trial.payload:g}g.csv",
                     lambda path, logs=trial.logs: write_records(path, logs))


def run_experiment2(cfg: ExperimentConfig, models: ModelSet, outdir=None) -> list:
    """Online estimation of the unknown EXP2_PAYLOADS (none in the training
    set) for EXP2_DURATION each under randomized ramp-and-hold inputs."""
    trials = _lockstep(cfg.plant, [
        _estimation_trial(models.koopman_load, cfg, payload, EXP2_DURATION, cfg.seed * 100 + i)
        for i, payload in enumerate(EXP2_PAYLOADS)])
    _write_logs(outdir, 2, trials)
    return trials


def run_experiment3(cfg: ExperimentConfig, models: ModelSet, outdir=None) -> list:
    """Trajectory following with unknown payload: KL-MPC with the live
    observer tracking a 0.1 m-radius circle for 30 s at each exp2 payload."""
    ref = circle_reference(cfg.plant, duration=EXP3_DURATION)
    trials = _lockstep(cfg.plant, [
        _tracking_trial(models.koopman_load, cfg, payload, ref, EXP3_DURATION, None,
                        cfg.estimator, cfg.seed * 100 + 50 + i, "KL-MPC")
        for i, payload in enumerate(EXP2_PAYLOADS)])
    _write_logs(outdir, 3, trials)
    return trials


def bin_index(w: float) -> int:
    """Mass bin of width 50 g, closed on the left and open on the right.

    The small offset keeps decimal edge values (0.05, 0.15, ...) in the bin
    whose lower edge they are, despite binary rounding of w / BIN_WIDTH.
    """
    return int(min(max(np.floor(w / BIN_WIDTH + 1e-9), 0), BIN_COUNT - 1))


def bin_targets(params: ArmParams) -> np.ndarray:
    """Drop-off end-effector targets, one per mass bin: forward-kinematics
    points of evenly spread joint angles that remain steady-state feasible
    under the torque limits across the payload range."""
    thetas = np.linspace(-0.2, 0.2, BIN_COUNT)
    xs = params.L1 * np.sin(thetas) + params.L2 * np.sin(1.2 * thetas)
    ys = -params.L1 * np.cos(thetas) - params.L2 * np.cos(1.2 * thetas)
    return np.stack([xs, ys], axis=1)


def run_experiment4(cfg: ExperimentConfig, models: ModelSet, outdir=None) -> np.recarray:
    """Automated sorting by mass: excite the arm with ramp-and-hold wiggles
    for 15 s while the observer runs, freeze the estimate, pick the bin,
    then track the drop-off target for 10 s with the frozen load; one
    record per object."""
    params, model = cfg.plant, models.koopman_load
    payloads = np.random.default_rng(cfg.seed).uniform(0.0, BIN_WIDTH * BIN_COUNT, SORT_OBJECTS)
    targets = bin_targets(params)
    K_drop = sample_steps(SORT_DROPOFF_DURATION, params.Ts)
    K_est = sample_steps(SORT_ESTIMATION_DURATION, params.Ts)
    drop_mpc = dataclasses.replace(cfg, r_weight=DROPOFF_R_WEIGHT).mpc_config()

    def trial(i, payload):
        seed = cfg.seed * 10000 + i
        state = EstimatorState(cfg=cfg.estimator, d=model.d)
        excite = excitation(np.random.default_rng(seed), params.Ts)
        dropoff = []

        def policy(k, y):
            if k < K_est:
                # estimation phase: randomized excitation with the passive observer
                u = excite(k, y)
                obs.update(state, model, y, u)
                return u
            if not dropoff:
                # drop-off phase: frozen estimate, the bin target as a one-row
                # reference, which the controller holds
                w = np.atleast_1d(float(state.w_hat[0]))
                ref = np.zeros((1, ARM_SHAPE[0]))
                ref[0, -2:] = targets[bin_index(w[0])]
                dropoff.append(Controller(model, drop_mpc, ref, known_load=w))
            return dropoff[0].step(y)

        def read(Y):
            chosen, true_bin = bin_index(state.w_hat[0]), bin_index(payload)
            err = float(np.linalg.norm(Y[-1, -2:] - targets[chosen]))
            return (i, payload, float(state.w_hat[0]), chosen, true_bin, err,
                    chosen == true_bin and err <= CUP_RADIUS)

        return Run(payload, np.random.default_rng(seed), K_est + K_drop, policy), read

    outcomes = np.rec.fromrecords(
        _lockstep(params, [trial(i, float(p)) for i, p in enumerate(payloads)]), dtype=[
            ("object", int), ("payload", float), ("w_estimate", float), ("chosen_bin", int),
            ("true_bin", int), ("placement_error", float), ("success", bool)])
    _maybe_write(outdir, "experiment4_sorting.csv", lambda path: write_records(path, outcomes))
    return outcomes
