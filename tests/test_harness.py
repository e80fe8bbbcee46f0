"""Experiment harness: configuration round-trips, reference geometry, bin
logic, report formats, tracking sanity on the simulated arm, and the CLI.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import klmpc
import numpy as np
import pytest

from klmpc import cli, edmd, harness, lifting, observer as obs, plant
from klmpc.lifting import delay_embed
from klmpc.mpc import Controller
from klmpc.observer import EstimatorConfig, EstimatorState
from klmpc.plant import ArmParams, ramp_and_hold
from klmpc.harness import (
    BIN_COUNT,
    EXP2_PAYLOADS,
    CampaignConfig,
    ExperimentConfig,
    FitConfig,
    TrialResult,
    bin_index,
    bin_targets,
    circle_reference,
    config_from_json,
    figure_eight_reference,
    fit_models,
    run_experiment1,
    run_experiment2,
    run_estimation_trial,
    run_experiment3,
    run_experiment4,
    run_tracking_trial,
    tracking_markdown,
    tracking_table,
    write_tracking_csv,
)

from conftest import HEADLINE, traced_peak
from oracles import reference_estimate_instant, reference_rows, reference_run, row_stacked_fit

# exp1's controllers, in the order each first runs
CONTROLLERS = ("L-MPC", "K-MPC", "KL-MPC")


def test_config_json_round_trip(tmp_path):
    cfg = ExperimentConfig(
        plant=dataclasses.replace(ExperimentConfig().plant, noise_std=0.0),
        Nh=8, r_weight=1e-4, seed=42)
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(cfg), fh, default=list)
    assert config_from_json(path) == cfg


def test_library_configs_refuse_nan():
    # the range checks of the top-level config and its fit settings refuse
    # NaN on the library path, naming the field
    for cls, name in ((FitConfig, "d"), (FitConfig, "energy"),
                      (ExperimentConfig, "r_weight"), (ExperimentConfig, "Nh"),
                      (ExperimentConfig, "seed"), (CampaignConfig, "seed"),
                      (CampaignConfig, "trials"), (CampaignConfig, "duration"),
                      (FitConfig, "holdout_duration")):
        with pytest.raises(ValueError, match=f"'{name}'"):
            cls(**{name: float("nan")})


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("cls, name", [
    (ArmParams, "substeps"), (CampaignConfig, "trials"), (CampaignConfig, "seed"),
    (EstimatorConfig, "Nw"), (EstimatorConfig, "Ne"), (EstimatorConfig, "Nr"),
    (FitConfig, "d"), (ExperimentConfig, "Nh"), (ExperimentConfig, "seed")])
def test_library_configs_refuse_non_integer_counts(cls, name, value):
    # a count field refuses a non-integer, and a bool, which is an int to
    # isinstance, on the library path, naming the field; a numpy integer is
    # an integer
    with pytest.raises(ValueError, match=f"^{cls.__name__}: '{name}' must be .* an integer"):
        cls(**{name: value})
    assert getattr(cls(**{name: np.int64(3)}), name) == 3


def test_config_defaults_for_missing_fields(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"seed": 7, "campaign": {"trials": 1}}))
    cfg = config_from_json(path)
    assert cfg.seed == 7
    assert cfg.campaign.trials == 1
    assert cfg.Nh == ExperimentConfig().Nh


def test_config_plant_field_keeps_the_experiment_arm(tmp_path):
    # naming one plant field, even at its default value, changes that field
    # alone: the arm is still the one the models are fitted for
    path = tmp_path / "plant.json"
    path.write_text(json.dumps({"plant": {"noise_std": 0.001}}))
    assert config_from_json(path).plant == ExperimentConfig().plant == ArmParams()


def test_reference_contract():
    params = ExperimentConfig().plant
    ref = figure_eight_reference(params, duration=20.0)
    for k in (0, 13, 250):
        out = ref(k)
        assert out.shape == (4,)
        assert np.array_equal(out[:2], [0.0, 0.0])  # link-1 untracked
    # held at the final value past the end
    K_end = int(round(20.0 / params.Ts))
    assert np.array_equal(ref(K_end + 1), ref(10 * K_end))
    assert np.array_equal(ref(-3), ref(0))


@pytest.fixture
def references_keep_fn(monkeypatch):
    """Make the reference builders return references that keep the function
    they tabulate as ``fn``, with its ``Ts`` and ``duration``: what the
    per-step oracle calls."""
    class Recording(harness.Reference):
        def __init__(self, fn, Ts, duration):
            self.fn, self.Ts, self.duration = fn, Ts, duration
            super().__init__(fn, Ts, duration)

    monkeypatch.setattr(harness, "Reference", Recording)


def test_reference_table_matches_per_step_evaluation(references_keep_fn):
    # one call of the function on every step time gives, bit for bit, the
    # rows of one call per step, also on the held tail past the end
    params, Nh = ExperimentConfig().plant, ExperimentConfig().Nh
    target = np.array([0.1, -0.9])
    for ref in (figure_eight_reference(params, duration=20.0),
                circle_reference(params, duration=30.0),
                circle_reference(params, duration=1.23),
                harness.Reference(lambda t: target, params.Ts, 5.0)):
        K = int(round(ref.duration / ref.Ts))
        ks = np.arange(K + Nh + 6)
        want = reference_rows(ref, ks)
        assert np.array_equal(ref.table, want[:len(ref.table)])
        assert np.array_equal([ref(k) for k in ks], want)
        assert np.array_equal(ref.targets(ks), want[:, -2:])
        assert np.array_equal(ref(-3), want[0])


def test_controller_horizon_is_the_next_reference_rows(default_cfg, models,
                                                       references_keep_fn):
    # step k condenses against rows k+1 .. k+Nh and logs row k, held at the
    # end of a 1 s reference
    cfg = default_cfg.mpc_config()
    ref = circle_reference(default_cfg.plant, duration=1.0)
    ctrl = Controller(models.koopman_load, cfg, ref.table, known_load=0.1)
    seen, condense = [], ctrl.condenser.qp
    ctrl.condenser.qp = lambda z0, r: (seen.append(np.array(r)), condense(z0, r))[1]
    y = np.array([0.0, -default_cfg.plant.L1, 0.0,
                  -default_cfg.plant.L1 - default_cfg.plant.L2])
    K = 30
    for _ in range(K):
        ctrl.step(y)
    for k in range(K):
        assert np.array_equal(seen[k], reference_rows(ref, range(k + 1, k + 1 + cfg.Nh)))
        assert np.array_equal(ctrl.logs[k].r, reference_rows(ref, [k])[0])


def test_figure_eight_geometry():
    params = ExperimentConfig().plant
    extent = 0.6
    ref = figure_eight_reference(params, duration=20.0)
    pts = np.array([ref(k)[-2:] for k in range(400)])
    cx = 0.0
    assert np.max(pts[:, 0]) - cx == pytest.approx(extent / 2.0, abs=1e-3)
    assert np.min(pts[:, 0]) - cx == pytest.approx(-extent / 2.0, abs=1e-3)
    # stays in the lower workspace, near the hanging position
    assert np.all(pts[:, 1] < -0.8 * (params.L1 + params.L2))


def test_circle_geometry():
    params = ExperimentConfig().plant
    radius, center = 0.1, (0.0, -0.88 * (params.L1 + params.L2))
    ref = circle_reference(params, duration=30.0)
    for k in range(0, 600, 7):
        p = ref(k)[-2:]
        assert np.linalg.norm(p - center) == pytest.approx(radius, abs=1e-12)


def test_bin_index_edges():
    assert bin_index(0.0) == 0
    assert bin_index(0.049) == 0
    assert bin_index(0.05) == 1   # edges closed on the left
    assert bin_index(0.149999) == 2
    assert bin_index(0.15) == 3
    assert bin_index(0.24) == 4
    assert bin_index(0.3) == BIN_COUNT - 1  # clipped into the last bin
    assert bin_index(-0.01) == 0


def test_bin_targets_layout():
    params = ExperimentConfig().plant
    targets = bin_targets(params)
    assert targets.shape == (BIN_COUNT, 2)
    assert np.all(np.diff(targets[:, 0]) > 0)    # spread left to right
    assert np.all(targets[:, 1] < 0)             # below the shoulder
    reach = params.L1 + params.L2
    assert np.all(np.linalg.norm(targets, axis=1) <= reach)


def tracking_trials(payloads, rmse: dict) -> list:
    """Payload-major tracking trials with the RMSE ``rmse[controller][i]``
    at ``payloads[i]``."""
    return [TrialResult(controller=name, payload=payload, rmse=vals[i], logs=None, errors=None)
            for i, payload in enumerate(payloads) for name, vals in rmse.items()]


def test_tracking_report_statistics_and_markdown():
    payloads = (0.025, 0.075, 0.125, 0.175, 0.225, 0.275)
    rng = np.random.default_rng(0)
    rmse = {name: list(rng.uniform(0.01, 0.1, size=6)) for name in CONTROLLERS}
    trials = tracking_trials(payloads, rmse)
    columns, rows = tracking_table(trials)
    assert columns == list(payloads) and list(rows) == list(CONTROLLERS)
    for name in CONTROLLERS:
        vals, mean, std = rows[name]
        assert vals == rmse[name]
        assert mean == pytest.approx(np.mean(rmse[name]), abs=1e-12)
        assert std == pytest.approx(np.std(rmse[name]), abs=1e-12)
    md = tracking_markdown(trials)
    header = md.splitlines()[0]
    for p in payloads:
        assert f"{1000 * p:g} g" in header
    assert "Avg." in header and "Std. Dev." in header
    assert len(md.strip().splitlines()) == 2 + len(CONTROLLERS)


def report_rows(path) -> dict:
    """Controller -> the numeric cells of its row in a report CSV."""
    _, *lines = Path(path).read_text().splitlines()
    return {name: [float(c) for c in cells]
            for name, *cells in (line.split(",") for line in lines)}


def test_tracking_report_csv_round_trip(tmp_path):
    payloads = (0.025, 0.125)
    rmse = {"K-MPC": [0.0123456789012345, 0.05], "KL-MPC": [0.01, 0.02]}
    path = tmp_path / "report.csv"
    write_tracking_csv(path, tracking_trials(payloads, rmse))
    assert path.read_text().splitlines()[0] == "controller,rmse_25g,rmse_125g,avg,std"
    assert report_rows(path) == {name: [*vals, float(np.mean(vals)), float(np.std(vals))]
                                 for name, vals in rmse.items()}


def test_equilibrium_point_regulation(default_cfg, models):
    # degenerate single-point reference at the hanging position: the
    # known-load controller holds station (bounded by model bias, well below
    # moving-reference tracking error)
    eq = np.array([0.0, -(default_cfg.plant.L1 + default_cfg.plant.L2)])
    ref = harness.Reference(lambda t: eq, default_cfg.plant.Ts, 5.0)
    res = run_tracking_trial(models.koopman_load, default_cfg, 0.0, ref, 5.0,
                             known_load=0.0, seed=3)
    assert res.rmse < 0.03


def test_run_experiment1_report_and_outputs(default_cfg, models, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "EXP1_PAYLOADS", (0.125,))
    monkeypatch.setattr(harness, "EXP1_DURATION", 5.0)
    trials = run_experiment1(default_cfg, models, outdir=tmp_path)
    _, rows = tracking_table(trials)
    assert set(rows) == set(CONTROLLERS)
    assert len(trials) == len(CONTROLLERS) and all(t.rmse > 0 for t in trials)
    back = report_rows(tmp_path / "experiment1_rmse.csv")
    assert list(back) == list(CONTROLLERS)
    for name in CONTROLLERS:
        [trial] = (t for t in trials if t.controller == name)
        vals, mean, std = rows[name]
        assert back[name] == [*vals, mean, std] == [trial.rmse, trial.rmse, 0.0]
    assert (tmp_path / "experiment1_rmse.md").read_text() == tracking_markdown(trials)


def drive_calls(monkeypatch) -> list:
    """The number of runs of each ``drive`` call the harness makes."""
    calls = []

    def spy(params, runs):
        calls.append(len(runs))
        return plant.drive(params, runs)

    monkeypatch.setattr(harness, "drive", spy)
    return calls


def assert_same_trial(trial, alone):
    """``trial`` is ``alone`` bit for bit: its row, RMSE, per-step errors
    and every step-log column but the solve's wall time."""
    assert (trial.controller, trial.payload, trial.rmse) == (alone.controller, alone.payload,
                                                             alone.rmse)
    assert (trial.errors is None) == (alone.errors is None)
    if alone.errors is not None:
        assert trial.errors.tobytes() == alone.errors.tobytes()
    assert trial.logs.dtype == alone.logs.dtype
    for name in alone.logs.dtype.names:
        if name != "solve_ms":
            assert trial.logs[name].tobytes() == alone.logs[name].tobytes(), name


def test_experiments_drive_their_trials_as_one_batch_of_lone_runs(default_cfg, models,
                                                                  monkeypatch):
    # exp1 runs L, K and KL with the true load at each payload, payload-major;
    # exp3 runs KL with its live observer, then KL with the true load; exp2
    # runs the open-loop observer.  Each experiment is one drive call, and
    # each of its trials is the lone trial at its seed: exp1's at payload i
    # seeded cfg.seed * 1000 + i, exp3's (both) cfg.seed * 100 + 50 + i and
    # exp2's cfg.seed * 100 + i
    cfg = dataclasses.replace(default_cfg, seed=2)
    calls = drive_calls(monkeypatch)
    payloads = (0.125, 0.025)
    monkeypatch.setattr(harness, "EXP1_PAYLOADS", payloads)
    monkeypatch.setattr(harness, "EXP1_DURATION", 2.0)
    trials = run_experiment1(cfg, models)
    assert calls == [6]
    ref = figure_eight_reference(cfg.plant, duration=2.0)
    alone = [run_tracking_trial(model, cfg, payload, ref, 2.0,
                                known_load=payload if name == "KL-MPC" else None,
                                seed=2000 + i, label=name)
             for i, payload in enumerate(payloads)
             for name, model in zip(CONTROLLERS, (models.baseline, models.koopman,
                                                  models.koopman_load))]
    assert [(t.controller, t.payload) for t in trials] == [
        (name, payload) for payload in payloads for name in CONTROLLERS]
    for trial, lone in zip(trials, alone, strict=True):
        assert len(trial.logs) == trial.errors.size == 40
        assert_same_trial(trial, lone)

    calls.clear()
    monkeypatch.setattr(harness, "EXP3_DURATION", 2.0)
    trials = run_experiment3(cfg, models)
    assert calls == [6]
    circle = circle_reference(cfg.plant, duration=2.0)
    alone = [run_tracking_trial(models.koopman_load, cfg, payload, circle, 2.0,
                                known_load=payload if known else None,
                                est_cfg=None if known else cfg.estimator, seed=250 + i,
                                label="KL-MPC known" if known else "KL-MPC")
             for known in (False, True) for i, payload in enumerate(EXP2_PAYLOADS)]
    for trial, lone in zip(trials, alone, strict=True):
        assert len(trial.logs) == 40
        assert_same_trial(trial, lone)

    calls.clear()
    monkeypatch.setattr(harness, "EXP2_DURATION", 2.0)
    trials = run_experiment2(cfg, models)
    assert calls == [3]
    for i, (trial, payload) in enumerate(zip(trials, EXP2_PAYLOADS, strict=True)):
        assert len(trial.logs) == 40
        assert_same_trial(trial, run_estimation_trial(models.koopman_load, cfg, payload,
                                                      duration=2.0, seed=200 + i))
    # the lone trials above were one-run drive calls
    assert calls == [3, 1, 1, 1]


def test_run_experiment2_trace_format(default_cfg, models, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "EXP2_PAYLOADS", (0.125,))
    monkeypatch.setattr(harness, "EXP2_DURATION", 8.0)
    traces = run_experiment2(default_cfg, models, outdir=tmp_path)
    assert len(traces) == 1
    trace = traces[0]
    assert trace.logs.w_hat.shape == trace.logs.w_instant.shape == (trace.t.size, 1)
    lines = (tmp_path / "experiment2_w125g.csv").read_text().splitlines()
    assert lines[0] == "step,t,w_true1,w_instant1,w_hat1"
    assert len(lines) == trace.t.size + 1


def test_run_experiment2_file_reads_back_the_step_log(default_cfg, models, tmp_path,
                                                      monkeypatch):
    # the estimation trial's step log is the file, every cell bit for bit
    monkeypatch.setattr(harness, "EXP2_PAYLOADS", (0.075,))
    monkeypatch.setattr(harness, "EXP2_DURATION", 3.0)
    [trial] = run_experiment2(default_cfg, models, outdir=tmp_path)
    path = tmp_path / "experiment2_w75g.csv"
    assert path.read_text().splitlines()[0] == "step,t,w_true1,w_instant1,w_hat1"
    cells = np.loadtxt(path, delimiter=",", skiprows=1)
    logs = trial.logs
    assert trial.controller == "observer" and trial.rmse is None and trial.errors is None
    assert np.array_equal(logs.step, np.arange(len(cells)))
    assert np.all(logs.w_true == 0.075)
    expected = np.column_stack([logs.step, logs.t, logs.w_true, logs.w_instant,
                                logs.w_hat]).astype(float)
    assert np.array_equal(cells.view(np.int64), expected.view(np.int64))


def test_run_experiment3_matches_known_load(default_cfg, models, tmp_path):
    # unknown-load tracking settles to roughly the known-load error: after
    # the estimate converges (final 10 s of 30 s) the ratio stays <= 1.25
    trials = run_experiment3(default_cfg, models, outdir=tmp_path)
    ratios = harness.exp3_tail_ratios(trials)
    HEADLINE["exp3_tail_ratio"] = {f"{1000 * p:g} g": ratio for p, ratio in ratios.items()}
    assert [(r.controller, r.payload) for r in trials] == [
        (label, p) for label in ("KL-MPC", "KL-MPC known") for p in EXP2_PAYLOADS]
    # only the live trials' step logs are written
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"experiment3_w{1000 * p:g}g.csv" for p in EXP2_PAYLOADS)
    for res in trials[:3]:
        # first scheduled estimates have not happened yet: w_init in force
        assert np.allclose(res.w_hat_trace[:default_cfg.estimator.Ne],
                           default_cfg.estimator.w_init, atol=1e-12)
        assert ratios[res.payload] <= 1.25
        # the step log: one row per step, the live estimate as one column
        lines = (tmp_path / f"experiment3_w{1000 * res.payload:g}g.csv").read_text().splitlines()
        assert lines[0] == ("step,t,y1,y2,y3,y4,r1,r2,r3,r4,u1,u2,w_hat1,"
                            "qp_iters,converged,kkt_residual,solve_ms")
        assert len(lines) == 601
        assert [float(c) for c in lines[-1].split(",")[:2]] == [599, res.logs[-1].t]
    # a rerun of the live trial at the first payload, with its seed, logs the
    # same cells; only the solve's wall time differs
    assert_same_trial(trials[0], run_tracking_trial(
        models.koopman_load, default_cfg, EXP2_PAYLOADS[0],
        circle_reference(default_cfg.plant, duration=30.0), 30.0,
        est_cfg=default_cfg.estimator, seed=default_cfg.seed * 100 + 50, label="KL-MPC"))


def test_tracking_trial_matches_one_run_oracle(default_cfg, models):
    # KL-MPC with the live observer for 60 steps (two scheduled estimates),
    # against the same controller stepped by hand on a single state with the
    # same noise generator
    model, cfg, payload, seed, K = models.koopman_load, default_cfg, 0.125, 7, 60
    ref = circle_reference(cfg.plant, duration=30.0)
    res = run_tracking_trial(model, cfg, payload, ref, K * cfg.plant.Ts,
                             est_cfg=cfg.estimator, seed=seed)
    ctrl = Controller(model, cfg.mpc_config(), ref.table, est_cfg=cfg.estimator)
    Y, U = reference_run(cfg.plant, payload, K, np.random.default_rng(seed),
                         lambda k, y: ctrl.step(y))
    errors = [np.linalg.norm(Y[k, -2:] - ref(k)[-2:]) for k in range(1, K + 1)]
    assert ctrl.estimator.updates == 2
    assert np.array_equal(res.errors, errors)
    assert res.rmse == float(np.sqrt(np.mean(np.square(errors))))
    assert np.array_equal([lg.y for lg in res.logs], Y[:-1])
    assert np.array_equal([lg.u for lg in res.logs], U)
    assert np.array_equal(res.w_hat_trace, [lg.w_hat for lg in ctrl.logs])


def test_estimation_trial_matches_one_run_oracle(default_cfg, models):
    # the open-loop observer run for 60 steps against the same excitation and
    # observer stepped by hand, with the instant estimates taken from the
    # recorded outputs and inputs; the policy and the noise have separate
    # generators (seed and seed + 1)
    model, cfg, payload, seed, K = models.koopman_load, default_cfg, 0.2, 3, 60
    d, est = model.d, default_cfg.estimator
    trace = run_estimation_trial(model, cfg, payload, duration=K * cfg.plant.Ts, seed=seed)
    state = EstimatorState(cfg=est, d=d)
    commands = ramp_and_hold(np.random.default_rng(seed), m=2, Ts=cfg.plant.Ts)
    w_hat = []

    def policy(k, y):
        u = np.clip(next(commands), 0.0, 1.0)
        obs.update(state, model, y, u)
        w_hat.append(state.w_hat[0])
        return u

    Y, U = reference_run(cfg.plant, payload, K, np.random.default_rng(seed + 1), policy)
    w_instant = w_hat[:d + 1]
    for k in range(d + 1, K):
        yd_prev = delay_embed(Y[k - 1 - d:k], U[k - 1 - d:k - 1], d)[0]
        w = reference_estimate_instant(model, Y[k], yd_prev, U[k - 1], est)
        w_instant.append(w_hat[k] if w is None else w[0])
    assert state.updates == 2
    assert np.array_equal(trace.t, np.arange(K) * cfg.plant.Ts)
    assert np.array_equal(trace.logs.w_hat[:, 0], w_hat)
    assert np.array_equal(trace.logs.w_instant[:, 0], w_instant)


def test_a_shorter_trial_is_a_prefix_of_the_longer_one(default_cfg, models):
    # at one seed a trial's steps do not depend on its length: this is what
    # lets AC-4 read the 15 s estimates from the full 20 s exp2
    model, cfg, payload = models.koopman_load, default_cfg, 0.125
    short, full = (run_estimation_trial(model, cfg, payload, duration, seed=200)
                   for duration in (16.0, 20.0))
    assert (len(short.logs), len(full.logs)) == (320, 400)
    for name in full.logs.dtype.names:
        assert short.logs[name].tobytes() == full.logs[name][:320].tobytes(), name
    # KL-MPC with the live observer, on one reference that outlasts both
    circle = circle_reference(cfg.plant, 4.0)
    short, full = (run_tracking_trial(model, cfg, payload, circle, duration,
                                      est_cfg=cfg.estimator, seed=250)
                   for duration in (2.0, 4.0))
    assert (len(short.logs), len(full.logs)) == (40, 80)
    assert short.errors.tobytes() == full.errors[:40].tobytes()
    for name in full.logs.dtype.names:
        if name != "solve_ms":
            assert short.logs[name].tobytes() == full.logs[name][:40].tobytes(), name


def test_a_trial_reads_its_time_and_final_load_error_from_its_log(default_cfg, models):
    # a live-observer tracking trial: t is the log's column, and the final
    # load error is the last w_hat's first entry against the payload
    model, cfg, payload = models.koopman_load, default_cfg, 0.175
    res = run_tracking_trial(model, cfg, payload, circle_reference(cfg.plant, duration=30.0),
                             60 * cfg.plant.Ts, est_cfg=cfg.estimator, seed=5)
    assert np.array_equal(res.t, res.logs.t)
    assert res.final_error() == abs(res.w_hat_trace[-1][0] - payload)


@pytest.mark.parametrize("duration", [0.0, 0.02, 0.03])
def test_tracking_trial_refuses_a_duration_without_a_sample_period(
        default_cfg, models, duration):
    # under one period is refused, as a campaign is: no NaN RMSE from an
    # empty trial, and no one-step trial from a duration that rounds up
    ref = circle_reference(default_cfg.plant, duration=30.0)
    with pytest.raises(ValueError, match=f"duration {duration} s"):
        run_tracking_trial(models.koopman_load, default_cfg, 0.1, ref, duration,
                           known_load=0.1)


@pytest.mark.parametrize("duration", [0.0, 0.02, 0.03])
def test_estimation_trial_refuses_a_duration_without_a_sample_period(
        default_cfg, models, duration):
    # an empty trace would have no final estimate
    with pytest.raises(ValueError, match=f"duration {duration} s"):
        run_estimation_trial(models.koopman_load, default_cfg, 0.1, duration=duration)


def test_run_experiment4_refuses_a_phase_without_a_sample_period(default_cfg, models,
                                                                 monkeypatch):
    # at Ts = 25 s the 10 s drop-off phase rounds to no step: the runner
    # raises, naming the phase's duration, before the plant moves; drive
    # binds a stepper before a run's first step
    cfg = dataclasses.replace(default_cfg, plant=ArmParams(Ts=25.0, substeps=5000))
    steps, stepper = [], plant._stepper
    monkeypatch.setattr(plant, "_stepper", lambda *a: steps.append(a) or stepper(*a))
    with pytest.raises(ValueError, match=f"duration {harness.SORT_DROPOFF_DURATION} s"):
        run_experiment4(cfg, models)
    assert steps == []


def test_run_experiment4_writes_its_records(default_cfg, models, tmp_path, monkeypatch):
    # short phases keep this quick; the CSV has one column per record field
    # and one line per object, with the bool success written as 1 or 0
    monkeypatch.setattr(harness, "SORT_OBJECTS", 2)
    monkeypatch.setattr(harness, "SORT_ESTIMATION_DURATION", 2.0)
    monkeypatch.setattr(harness, "SORT_DROPOFF_DURATION", 1.0)
    outcomes = run_experiment4(default_cfg, models, outdir=tmp_path)
    header, *rows = (tmp_path / "experiment4_sorting.csv").read_text().strip().splitlines()
    assert header == "object,payload,w_estimate,chosen_bin,true_bin,placement_error,success"
    assert np.array_equal(outcomes.object, [0, 1])
    table = np.array([[float(c) for c in row.split(",")] for row in rows])
    assert np.array_equal(table, [list(o) for o in outcomes])
    assert all(row.split(",")[-1] in ("0", "1") for row in rows)


def test_run_experiment4_objects_match_lone_oracle_runs(default_cfg, models, monkeypatch):
    # two objects with short phases in one drive call; each record is the
    # object driven alone on one state by the oracle, with the same
    # excitation, observer and drop-off controller, both of its generators
    # seeded cfg.seed * 10000 + i
    monkeypatch.setattr(harness, "SORT_OBJECTS", 2)
    monkeypatch.setattr(harness, "SORT_ESTIMATION_DURATION", 2.0)
    monkeypatch.setattr(harness, "SORT_DROPOFF_DURATION", 1.0)
    calls = drive_calls(monkeypatch)
    cfg = dataclasses.replace(default_cfg, seed=1)
    outcomes = run_experiment4(cfg, models)
    assert calls == [2]
    params, model, K_est = cfg.plant, models.koopman_load, 40
    targets = bin_targets(params)
    drop_mpc = dataclasses.replace(cfg.mpc_config(), r_weight=harness.DROPOFF_R_WEIGHT)
    payloads = np.random.default_rng(cfg.seed).uniform(0.0, 0.25, size=2)
    for i, payload in enumerate(payloads):
        seed = 10000 + i
        state = EstimatorState(cfg=cfg.estimator, d=model.d)
        commands = ramp_and_hold(np.random.default_rng(seed), m=2, Ts=params.Ts)
        dropoff = []

        def policy(k, y):
            if k < K_est:
                u = np.clip(next(commands), 0.0, 1.0)
                obs.update(state, model, y, u)
                return u
            if not dropoff:
                # the padded constant table the one-row reference stands for
                target = targets[bin_index(state.w_hat[0])]
                ref = harness.Reference(lambda t: target, params.Ts, 1.0)
                dropoff.append(Controller(model, drop_mpc, ref.table,
                                          known_load=state.w_hat.copy()))
            return dropoff[0].step(y)

        Y, _ = reference_run(params, payload, K_est + 20, np.random.default_rng(seed), policy)
        assert len(dropoff[0].logs) == 20
        w, true_bin = state.w_hat[0], bin_index(payload)
        err = np.linalg.norm(Y[-1, -2:] - targets[bin_index(w)])
        assert outcomes[i].tolist() == (i, payload, w, bin_index(w), true_bin, err,
                                        bin_index(w) == true_bin and err <= harness.CUP_RADIUS)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

MODEL_NAMES = ("baseline", "koopman", "koopman_load")


def fit_args(models_path, seed=0):
    """argv of ``klmpc fit`` whose config, written beside ``models_path``,
    is a two-run 5 s campaign seeded ``seed`` with a 5 s holdout."""
    path = models_path.with_suffix(".config.json")
    path.write_text(json.dumps({"campaign": {"loads": [0.1, 0.2], "trials": 1, "duration": 5.0,
                                             "seed": seed},
                                "fit": {"holdout_duration": 5.0}}))
    return ["--config", str(path), "fit", str(models_path)]


@pytest.fixture(scope="module")
def models_doc(tmp_path_factory, models):
    """The session's fitted models, written as ``klmpc fit`` writes them."""
    path = tmp_path_factory.mktemp("models") / "models.json"
    harness.write_models(models, path)
    return path


def test_cli_fit_writes_the_three_models(tmp_path, capsys):
    # fit collects the document's campaign and writes the three models into
    # one document, one printed line per model
    models_path = tmp_path / "models.json"
    assert cli.main(fit_args(models_path)) == 0
    assert tuple(json.loads(models_path.read_text())) == MODEL_NAMES
    models = harness.read_models(models_path, ExperimentConfig())
    assert all(getattr(models, name).n == 4 for name in MODEL_NAMES)
    assert models.baseline.basis.projection.n_components == 0
    assert (models.koopman.p, models.koopman_load.p) == (0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == list(MODEL_NAMES)
    assert lines[3] == f"wrote 3 models to {models_path}"


def test_cli_fit_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(fit_args(a, seed=5)) == 0
    assert cli.main(fit_args(b, seed=5)) == 0
    assert a.read_bytes() == b.read_bytes()


def no_collection(monkeypatch) -> list:
    """Replace the campaign runner, as the harness imports it, by a spy;
    returns the list of calls it records."""
    calls = []
    monkeypatch.setattr(harness, "collect_training_data", lambda *a: calls.append(a))
    return calls


def no_models(monkeypatch) -> list:
    """Replace the models document's entry reader and the fit by spies;
    returns the list of calls they record."""
    calls = []
    monkeypatch.setattr(edmd, "model_from_dict", lambda *a: calls.append(a))
    monkeypatch.setattr(harness, "fit_models", lambda *a: calls.append(a))
    return calls


def test_cli_fit_campaign_without_runs_is_one_error_line(tmp_path, capsys, monkeypatch):
    calls = no_collection(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"campaign": {"trials": 0}}))
    models_path = tmp_path / "models.json"
    assert cli.main(["--config", str(path), "fit", str(models_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: CampaignConfig: 'trials' must be >= 1")
    assert len(err.strip().splitlines()) == 1
    assert calls == [] and not models_path.exists()


@pytest.mark.parametrize("flag, value", [
    ("--trials", "0"), ("--trials", "-1"), ("--duration", "0"), ("--duration", "-2.5"),
    ("--loads", "0.1,0.5"),
])
def test_cli_fit_refuses_campaign_flags_and_their_document_values(tmp_path, capsys, monkeypatch, flag, value):
    # fit takes its campaign from the document alone: the former flag is
    # an unknown argument, and its value written as the document's campaign
    # field meets the field's check, one error line naming the field, before
    # any run is simulated
    calls = no_collection(monkeypatch)
    models_path = tmp_path / "models.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", str(models_path), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    field = flag[2:]
    path = tmp_path / "config.json"
    text = f"[{value}]" if field == "loads" else value
    path.write_text(json.dumps({"campaign": {field: json.loads(text)}}))
    assert cli.main(["--config", str(path), "fit", str(models_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: CampaignConfig: ") and f"'{field}' must be" in err
    assert len(err.strip().splitlines()) == 1
    assert calls == [] and not models_path.exists()


def test_cli_fit_loads_must_be_numbers(tmp_path, capsys, monkeypatch):
    calls = no_collection(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"campaign": {"loads": [0.1, "abc"]}}))
    models_path = tmp_path / "models.json"
    assert cli.main(["--config", str(path), "fit", str(models_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'loads' must be a list of finite numbers" in err
    assert '"abc"' in err and len(err.strip().splitlines()) == 1
    assert calls == [] and not models_path.exists()


# each id names the campaign the document leaves without runs
@pytest.mark.parametrize("doc, key", [
    ({"campaign": {"trials": 0}}, "trials"),
    ({"campaign": {"loads": []}}, "loads"),
    ({"campaign": {"trials": -1}}, "trials"),
], ids=["doc0-training", "doc1-training", "doc3-training"])
def test_cli_campaign_without_runs_fails_before_fitting(tmp_path, capsys, monkeypatch,
                                                        doc, key):
    # such a campaign cannot be built: the config is refused as it is read,
    # one error line naming the field, and neither campaign is simulated
    calls = no_collection(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    models_path = tmp_path / "models.json"
    for command in (["fit", str(models_path)], ["track", str(models_path)]):
        assert cli.main(["--config", str(path), *command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}' must be" in err
        assert len(err.strip().splitlines()) == 1
    assert calls == [] and not models_path.exists()


@pytest.mark.parametrize("argv, doc_seed", [(["--seed", "-1"], None), ([], -1)])
def test_cli_negative_seed_fails_before_fitting(tmp_path, capsys, monkeypatch, argv, doc_seed):
    # from the flag or from the document
    path = tmp_path / "config.json"
    path.write_text(json.dumps({} if doc_seed is None else {"seed": doc_seed}))
    calls = no_models(monkeypatch)
    assert cli.main([*argv, "--config", str(path), "estimate", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'seed' must be >= 0" in err
    assert len(err.strip().splitlines()) == 1
    assert calls == []


@pytest.mark.parametrize("argv, seed", [([], 7), (["--seed", "2"], 2), (["--seed", "0"], 0)])
def test_cli_seed_flag_replaces_the_document_seed_only_when_given(tmp_path, monkeypatch,
                                                                  models_doc, argv, seed):
    # without --seed the document's seed reaches the runner; a given --seed,
    # 0 included, replaces it and no other field
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 7, "Nh": 8}))
    runs = []
    monkeypatch.setattr(harness, "run_experiment2",
                        lambda cfg, models, outdir=None: runs.append(cfg) or [])
    assert cli.main([*argv, "--config", str(path), "estimate", str(models_doc)]) == 0
    assert runs == [dataclasses.replace(config_from_json(path), seed=seed)]


def test_cli_fit_reproduces_the_experiment_model(tmp_path):
    # fit collects the document's campaign, the one fit_models trains on,
    # whatever --seed is, and writes the arrays of all three models
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"campaign": {"loads": [0.0, 0.3], "trials": 1, "duration": 10.0},
                                "fit": {"holdout_duration": 5.0}}))
    models_path = tmp_path / "models.json"
    assert cli.main(["--seed", "3", "--config", str(path), "fit", str(models_path)]) == 0
    want = fit_models(dataclasses.replace(config_from_json(path), seed=3))
    got = harness.read_models(models_path, config_from_json(path))
    for name in MODEL_NAMES:
        assert np.array_equal(getattr(got, name).A, getattr(want, name).A)
        assert np.array_equal(getattr(got, name).B, getattr(want, name).B)


def test_python_dash_m_klmpc_runs_the_cli(tmp_path):
    src = str(Path(klmpc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "klmpc", "--help"], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: klmpc")
    assert "{fit,track,estimate,sort}" in proc.stdout


def test_python_dash_m_klmpc_cli_names_the_entry_points(tmp_path):
    # the module is not an entry point: numpy is loaded before it could pin
    # the BLAS threads, so it runs nothing and says which two commands to use
    src = str(Path(klmpc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "klmpc.cli", "fit", "M.json"], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "`klmpc`" in line and "`python -m klmpc`" in line
    assert list(tmp_path.iterdir()) == []


def test_cli_fits_on_one_blas_thread(tmp_path, models_doc):
    # with no thread count in its environment the command pins one BLAS
    # thread, as this suite does, so it writes the session fit's document;
    # on a one-core host the thread count cannot differ, and this cannot fail
    src = str(Path(klmpc.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key not in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "klmpc", "fit", "M.json"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "M.json").read_bytes() == models_doc.read_bytes()


def test_cli_errors(tmp_path, capsys, monkeypatch):
    # missing config file -> diagnostic and exit 2, before any campaign runs
    calls = no_collection(monkeypatch)
    models_path = tmp_path / "models.json"
    assert cli.main(["--config", str(tmp_path / "missing.json"), "fit", str(models_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert calls == [] and not models_path.exists()
    # unknown subcommand, the former collect, fit's former --kind and an
    # experiment without its models document -> argparse exits 2
    for argv in (["frobnicate"], ["collect", str(tmp_path / "d.csv")],
                 ["fit", str(models_path), "--kind", "koopman"], ["track"],
                 ["sort", "--out", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    assert calls == [] and not models_path.exists()


def test_cli_fit_makes_the_models_directory(tmp_path):
    # the document's directory need not exist, as an --out directory need not
    argv = fit_args(tmp_path / "models.json")
    models_path = tmp_path / "new" / "nested" / "models.json"
    assert cli.main(argv[:-1] + [str(models_path)]) == 0
    assert tuple(json.loads(models_path.read_text())) == MODEL_NAMES


def test_cli_fit_onto_a_directory_fails_before_fitting(tmp_path, capsys, monkeypatch):
    # the write after the fit would fail: the same error line comes first
    monkeypatch.setattr(harness, "fit_models", lambda cfg: pytest.fail("fit_models ran"))
    assert cli.main(["fit", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert not any(tmp_path.iterdir())


def test_cli_fit_into_a_blocked_directory_fails_before_fitting(tmp_path, capsys, monkeypatch):
    # a regular file where the directory would go is one error line, and
    # nothing is fitted
    monkeypatch.setattr(harness, "fit_models", lambda cfg: pytest.fail("fit_models ran"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["fit", str(blocker / "sub" / "models.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert blocker.read_text() == ""


@pytest.mark.parametrize("doc", [{"campaign": {"duration": 1e12}}, {"plant": {"Ts": 1e-12}}])
def test_cli_run_too_large_to_allocate_is_one_error_line(tmp_path, capsys, doc):
    # 2e13 or more samples per run: the campaign's first array needs
    # petabytes, beyond any address space, so its allocation fails at once
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    models_path = tmp_path / "models.json"
    assert cli.main(["--config", str(path), "fit", str(models_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and len(err.strip().splitlines()) == 1
    assert not models_path.exists()


@pytest.mark.parametrize("doc, key", [
    ({"bogus": 1}, "bogus"),
    ({"estimator": {"nope": 2}}, "nope"),
    ({"campaign": 3}, "campaign"),
    ({"outdir": "results"}, "outdir"),
    ({"q_weight": 1.0}, "q_weight"),
    ({"estimator": {"reduced": True}}, "reduced"),
    ({"fit": {"holdout_trials": 1}}, "holdout_trials"),
])
def test_cli_bad_config_is_one_error_line(tmp_path, capsys, monkeypatch, doc, key):
    calls = no_collection(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=key):
        config_from_json(path)
    models_path = tmp_path / "models.json"
    assert cli.main(["--config", str(path), "fit", str(models_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert len(err.strip().splitlines()) == 1
    assert calls == [] and not models_path.exists()


@pytest.mark.parametrize("doc, key", [
    ({"Nh": "x"}, "Nh"),
    ({"campaign": {"trials": 1.5}}, "trials"),
    ({"campaign": {"loads": [0.1, "a"]}}, "loads"),
    ({"estimator": {"Nw": True}}, "Nw"),
    ({"plant": {"k": True}}, "k"),
    ({"plant": {"Ts": 0.0}}, "Ts"),
    ({"plant": {"Ts": float("nan")}}, "Ts"),
    ({"plant": {"tau_max": float("inf")}}, "tau_max"),
    ({"campaign": {"loads": [0.1, float("-inf")]}}, "loads"),
    ({"Nh": 0}, "Nh"),
    ({"fit": {"energy": 2.0}}, "energy"),
    ({"fit": {"d": -1}}, "d"),
    ({"campaign": {"duration": -2.5}}, "duration"),
    ({"r_weight": -1}, "r_weight"),
    ({"r_weight": 0}, "r_weight"),
    ({"seed": -1}, "seed"),
    ({"campaign": {"seed": -1}}, "seed"),
    ({"campaign": {"duration": 0}}, "duration"),
    ({"campaign": {"loads": [0.1, 0.5]}}, "loads"),
    ({"fit": {"holdout_duration": float("inf")}}, "holdout_duration"),
    ({"campaign": {"trials": -1}}, "trials"),
])
def test_cli_bad_config_value_fails_before_fitting(tmp_path, capsys, monkeypatch,
                                                  doc, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"'{key}' must be"):
        config_from_json(path)
    calls = no_models(monkeypatch)
    assert cli.main(["--config", str(path), "sort", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert len(err.strip().splitlines()) == 1
    assert calls == []


def test_cli_estimate_from_the_document_matches_the_fitted_models(tmp_path, default_cfg,
                                                                  models, models_doc):
    # a read document runs the bits of the models it was written from
    cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
    assert cli.main(["--seed", "0", "estimate", str(models_doc), "--out", str(cli_dir)]) == 0
    run_experiment2(default_cfg, models, outdir=lib_dir)
    names = sorted(path.name for path in lib_dir.iterdir())
    assert names and sorted(path.name for path in cli_dir.iterdir()) == names
    for name in names:
        assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes()


@pytest.mark.parametrize("command", ["track", "estimate", "sort"])
def test_cli_runs_the_models_document_without_fitting(tmp_path, capsys, monkeypatch,
                                                      models_doc, command):
    # track runs one short trial per controller to keep the test quick, and
    # prints the table of the trials it ran
    monkeypatch.setattr(harness, "fit_models", lambda cfg: pytest.fail("fit_models ran"))
    monkeypatch.setattr(harness, "EXP1_PAYLOADS", (0.1,))
    monkeypatch.setattr(harness, "EXP1_DURATION", 2.0)
    exp1, returned = harness.run_experiment1, []

    def spy_exp1(*args, **kwargs):
        returned.append(exp1(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(harness, "run_experiment1", spy_exp1)
    assert cli.main(["--seed", "0", command, str(models_doc), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out and any(tmp_path.iterdir())
    if command == "track":
        [trials] = returned
        assert out == tracking_markdown(trials) + "\n"


def refusals(monkeypatch, capsys, path, *argv) -> list:
    """The error line of each of track, estimate and sort on the models
    document ``path`` with the further arguments ``argv``, each exit 2
    before any trial runs."""
    for name in ("run_experiment1", "run_experiment2", "run_experiment4"):
        monkeypatch.setattr(harness, name, lambda *a, **k: pytest.fail("a trial ran"))
    errors = []
    for command in ("track", "estimate", "sort"):
        assert cli.main([command, str(path), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        errors.append(err)
    return errors


def library_refusal(path) -> Exception:
    """The error of the library reader on the models document ``path``."""
    with pytest.raises((OSError, ValueError)) as exc:
        harness.read_models(path, ExperimentConfig())
    return exc.value


def identity_entry(n: int, m: int) -> dict:
    """The entry of a p = 0 identity-basis model with n outputs and m inputs."""
    model = edmd.KoopmanModel(A=np.eye(n), B=np.zeros((n, m)),
                              basis=lifting.identity_basis(n, m, 0),
                              Ts=ExperimentConfig().plant.Ts)
    return edmd.model_to_dict(model)


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc.pop("koopman_load"), "'koopman_load'"),
    (lambda doc: doc["koopman"].update(Ts=0.1), "'koopman' has Ts = 0.1"),
    (lambda doc: doc.update(baseline=identity_entry(2, 2)), "'baseline' has n = 2"),
    (lambda doc: doc.update(baseline=identity_entry(4, 1)), "m = 1"),
    (lambda doc: doc.update(koopman_load=doc["koopman"]), "p = 0"),
], ids=["missing-model", "Ts", "outputs", "inputs", "load-dimension"])
def test_cli_refuses_a_document_that_does_not_fit_the_config(tmp_path, capsys, monkeypatch,
                                                             models_doc, edit, named):
    doc = json.loads(models_doc.read_text())
    edit(doc)
    path = tmp_path / "models.json"
    path.write_text(json.dumps(doc))
    # the library reader refuses the document with the CLI's message, a
    # missing model as a ValueError too
    exc = library_refusal(path)
    assert type(exc) is ValueError
    for err in refusals(monkeypatch, capsys, path):
        assert named in err and err == f"error: {exc}\n"


@pytest.mark.parametrize("content, named", [
    (None, "No such file"),
    (b"{", "models document"),
    (b"\xff", "models document"),
    (b"[]", "expected a JSON object"),
], ids=["missing", "not-json", "not-text", "not-an-object"])
def test_cli_refuses_an_unreadable_document(tmp_path, capsys, monkeypatch, content, named):
    path = tmp_path / "models.json"
    if content is not None:
        path.write_bytes(content)
    exc = library_refusal(path)
    for err in refusals(monkeypatch, capsys, path):
        assert named in err and err == f"error: {exc}\n"


@pytest.mark.parametrize("content", [b"{", b"\xff", b"[]"],
                         ids=["not-json", "not-text", "not-an-object"])
def test_cli_refuses_an_unreadable_config(tmp_path, capsys, monkeypatch, content):
    # the config reader is the models document's: its refusal names the
    # file, and no campaign is collected, no model fitted and none read
    path = tmp_path / "config.json"
    path.write_bytes(content)
    with pytest.raises(ValueError) as exc:
        config_from_json(path)
    assert str(exc.value).startswith(f"config {path}: ")
    collected, read_or_fitted = no_collection(monkeypatch), no_models(monkeypatch)
    models_path = tmp_path / "models.json"
    for command in ("fit", "track", "estimate", "sort"):
        assert cli.main(["--config", str(path), command, str(models_path)]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert collected == read_or_fitted == [] and not models_path.exists()


def test_cli_out_into_a_blocked_directory_fails_before_any_trial(tmp_path, capsys, monkeypatch,
                                                                 models_doc):
    # a regular file where the --out directory would go is one error line
    # once the config and the document are checked, and no trial runs
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x"
    assert (refusals(monkeypatch, capsys, models_doc, "--out", str(out))
            == [f"error: [Errno 20] Not a directory: '{out}'\n"] * 3)


def test_read_models_gives_the_fitted_models(default_cfg, models, models_doc):
    # the set read from fit's document is the session fit: every entry
    # writes the same JSON, and A and B are bit-equal and column-major
    read = harness.read_models(models_doc, default_cfg)
    assert read.holdout is None
    for name in harness.MODEL_LOADS:
        got, want = getattr(read, name), getattr(models, name)
        assert edmd.model_to_dict(got) == edmd.model_to_dict(want)
        for X, Y in ((got.A, want.A), (got.B, want.B)):
            assert X.tobytes() == Y.tobytes() and X.flags.f_contiguous


def diverging_models_doc(models_doc, tmp_path):
    """The models document ``models_doc`` with every A scaled by 1e200."""
    doc = json.loads(models_doc.read_text())
    for entry in doc.values():
        entry["A"] = (1e200 * np.array(entry["A"])).tolist()
    path = tmp_path / "models.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_track_fails_closed_on_a_diverging_model(tmp_path, capsys, models_doc):
    # the condensed Hessians overflow, and track stops with one error line
    # before any command reaches the arm (warnings are errors here, so no
    # RuntimeWarning escapes either)
    path = diverging_models_doc(models_doc, tmp_path)
    assert cli.main(["--seed", "0", "track", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Condenser: ") and len(err.strip().splitlines()) == 1
    assert "not finite with a positive definite Hessian" in err


@pytest.mark.parametrize("command", ["estimate", "sort"])
def test_cli_observer_fails_closed_on_a_diverging_model(tmp_path, capsys, models_doc,
                                                        command):
    # the load equations are finite but their norm overflows: the first
    # window estimate stops the run with one error line, where every window
    # was read as blind to the load and estimate printed 0.0 g
    path = diverging_models_doc(models_doc, tmp_path)
    assert cli.main(["--seed", "0", command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert err.startswith("error: load equations: ") and "norm overflows" in err


def test_config_checks_every_field_type(tmp_path):
    # a value of the wrong type in any field, top level or nested, is
    # refused by name
    path = tmp_path / "config.json"
    doc = json.loads(json.dumps(dataclasses.asdict(ExperimentConfig()), default=list))
    for section, value in doc.items():
        for key, v in value.items() if isinstance(value, dict) else [(None, value)]:
            bad = json.loads(json.dumps(doc))
            if key is None:
                bad[section] = "x"
            else:
                bad[section][key] = "x"
            path.write_text(json.dumps(bad))
            with pytest.raises(ValueError, match=f"'{key or section}' must be"):
                config_from_json(path)


def test_config_reader_checks_every_leaf_field():
    # every field of the config tree is a sub-config with a dataclass
    # default, or has a default whose type the reader checks
    def leaves(cls, where):
        for f in dataclasses.fields(cls):
            if dataclasses.is_dataclass(f.default_factory):
                yield from leaves(f.default_factory, f"{where}.{f.name}")
            else:
                yield f"{where}.{f.name}", f.default

    found = dict(leaves(ExperimentConfig, "config"))
    assert {"config.Nh", "config.plant.Ts", "config.campaign.loads"} <= set(found)
    assert {name: type(default).__name__ for name, default in found.items()
            if type(default) not in edmd.VALUE_KINDS} == {}


def test_fit_models_collects_both_campaigns_in_one_call(monkeypatch):
    cfg = ExperimentConfig(campaign=CampaignConfig(loads=(0.0, 0.3), trials=1, duration=10.0),
                           fit=FitConfig(holdout_duration=5.0))
    camp, fit = cfg.campaign, cfg.fit
    holdout_camp = CampaignConfig(loads=camp.loads, trials=1,
                                  duration=fit.holdout_duration, seed=camp.seed + 1)
    collect = harness.collect_training_data
    calls = []

    def spy(params, campaigns):
        calls.append(list(campaigns))
        return collect(params, campaigns)

    monkeypatch.setattr(harness, "collect_training_data", spy)
    ms = fit_models(cfg)
    assert calls == [[camp, holdout_camp]]
    training, holdout = collect(cfg.plant, [camp, holdout_camp])
    Ts, n, m = cfg.plant.Ts, 4, 2
    basis = lifting.fit_basis(edmd.assemble_snapshots(*training, fit.d), fit.energy,
                              n=n, m=m, d=fit.d)
    reference = {"baseline": row_stacked_fit(training, lifting.identity_basis(n, m, fit.d), Ts),
                 "koopman": row_stacked_fit(training, basis, Ts),
                 "koopman_load": row_stacked_fit(training, basis, Ts, with_load=True)}
    for name, model in reference.items():
        assert np.array_equal(getattr(ms, name).A, model.A)
        assert np.array_equal(getattr(ms, name).B, model.B)
    for got, want in zip(ms.holdout, holdout, strict=True):
        assert np.array_equal(got, want)


def test_fit_models_traced_peak(monkeypatch, default_cfg, models, training):
    # with the campaigns collected beforehand, the fit holds no snapshot
    # array and the PCA centres its monomial block in place, so the peak is
    # the KL fit's: Psi_a and its pseudoinverse (2.18 Psi_a measured; the
    # row-stacked snapshots and the centred copy made it 2.60)
    monkeypatch.setattr(harness, "collect_training_data",
                        lambda params, campaigns: (training, models.holdout))
    peak, ms = traced_peak(lambda: fit_models(default_cfg))
    for name in ("baseline", "koopman", "koopman_load"):
        assert np.array_equal(getattr(ms, name).A, getattr(models, name).A)
        assert np.array_equal(getattr(ms, name).B, getattr(models, name).B)
    kl = ms.koopman_load
    pairs = len(training[1]) * (training[1].shape[1] - kl.d)
    assert peak <= 2.25 * pairs * (kl.n_z + kl.m) * 8


def test_fit_models_factors_each_data_matrix_once_in_place(factorisations):
    # every data matrix is factored once, by the QR that runs in its own
    # column-major copy, and the PCA's monomial block by the same QR in
    # place; every SVD sees only a square R factor: the SVD gufunc's copies
    # of a tall matrix and its U are never formed.  tracemalloc cannot see
    # those buffers; these shapes can.
    cfg = ExperimentConfig(campaign=CampaignConfig(loads=(0.0, 0.3), trials=1, duration=10.0),
                           fit=FitConfig(holdout_duration=5.0))
    ms = fit_models(cfg)
    [(_, U, _)] = harness.collect_training_data(cfg.plant, [cfg.campaign])
    pairs = len(U) * (U.shape[1] - cfg.fit.d)
    ne = ms.koopman.basis.identity_count
    assert factorisations["dgeqrf"] == [
        (pairs, ms.baseline.n_z + ms.baseline.m), (pairs, ne * (ne + 1) // 2),
        (pairs, ms.koopman.n_z + ms.koopman.m), (pairs, ms.koopman_load.n_z + ms.koopman_load.m)]
    assert factorisations["svd_s"]
    assert all(rows == cols for rows, cols in factorisations["svd_s"])


def test_write_csv_round_trip(tmp_path):
    # every float reads back bit for bit, and a float array gives the bytes
    # np.savetxt gives with the same format; an int or a bool is a whole
    # number, and a string cell is written as it is
    rng = np.random.default_rng(5)
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1e16, 2.0**53 + 1,
               np.inf, -np.inf]
    data = np.concatenate([special, rng.standard_normal(200)
                           * 10.0 ** rng.integers(-300, 300, 200)]).reshape(-1, 5)
    path, ref = tmp_path / "data.csv", tmp_path / "ref.csv"
    harness.write_csv(path, ["a", "b", "c", "d", "e"], data)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c,d,e"
    back = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert np.array_equal(back.view(np.int64), data.view(np.int64))
    np.savetxt(ref, data, fmt=harness.CSV_FLOAT_FMT, delimiter=",", header="a,b,c,d,e",
               comments="")
    assert path.read_bytes() == ref.read_bytes()
    harness.write_csv(path, ["name", "i", "flag", "x"],
                      [["KL-MPC", 7, True, 0.1], ["K-MPC", -3, False, -0.0]])
    assert path.read_text() == "name,i,flag,x\nKL-MPC,7,1,0.10000000000000001\nK-MPC,-3,0,-0\n"
