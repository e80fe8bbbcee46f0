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

from klmpc import cli, harness, lifting, observer as obs
from klmpc.edmd import load_model, load_trajectories
from klmpc.lifting import delay_embed
from klmpc.mpc import Controller
from klmpc.observer import EstimatorState
from klmpc.plant import ramp_and_hold
from klmpc.harness import (
    BIN_COUNT,
    CONTROLLERS,
    CampaignConfig,
    EstimateTrace,
    ExperimentConfig,
    FitConfig,
    TrackingReport,
    bin_index,
    bin_targets,
    circle_reference,
    config_from_json,
    config_to_json,
    figure_eight_reference,
    fit_models,
    point_reference,
    report_from_csv,
    run_experiment1,
    run_experiment2,
    run_estimation_trial,
    run_experiment3,
    run_tracking_trial,
)

from oracles import reference_estimate_instant, reference_rows, reference_run


def test_config_json_round_trip(tmp_path):
    cfg = ExperimentConfig(
        plant=dataclasses.replace(ExperimentConfig().plant, noise_std=0.0),
        Nh=8, r_weight=1e-4, seed=42)
    path = tmp_path / "config.json"
    config_to_json(cfg, path)
    assert config_from_json(path) == cfg


def test_library_configs_refuse_nan():
    # the range checks of the top-level config and its fit settings refuse
    # NaN on the library path, naming the field
    for cls, name in ((FitConfig, "d"), (FitConfig, "energy"), (ExperimentConfig, "q_weight"),
                      (ExperimentConfig, "r_weight"), (ExperimentConfig, "Nh")):
        with pytest.raises(ValueError, match=f"'{name}'"):
            cls(**{name: float("nan")})


def test_config_defaults_for_missing_fields(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"seed": 7, "campaign": {"trials": 1}}))
    cfg = config_from_json(path)
    assert cfg.seed == 7
    assert cfg.campaign.trials == 1
    assert cfg.Nh == ExperimentConfig().Nh


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


def test_reference_table_matches_per_step_evaluation():
    # one call of the function on every step time gives, bit for bit, the
    # rows of one call per step, also on the held tail past the end
    params, Nh = ExperimentConfig().plant, ExperimentConfig().Nh
    for ref in (figure_eight_reference(params, duration=20.0),
                circle_reference(params, duration=30.0),
                circle_reference(params, duration=1.23),
                point_reference(params, [0.1, -0.9], duration=5.0)):
        K = int(round(ref.duration / ref.Ts))
        ks = np.arange(K + Nh + 6)
        want = reference_rows(ref, ks)
        assert np.array_equal(ref.table, want[:len(ref.table)])
        assert np.array_equal([ref(k) for k in ks], want)
        assert np.array_equal(ref.targets(ks), want[:, -2:])
        assert np.array_equal(ref(-3), want[0])


def test_controller_horizon_is_the_next_reference_rows(default_cfg, models):
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


def test_point_reference_constant():
    params = ExperimentConfig().plant
    ref = point_reference(params, [0.1, -0.9], duration=5.0)
    for k in (0, 5, 1000):
        assert np.array_equal(ref(k)[-2:], [0.1, -0.9])


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


def test_tracking_report_statistics_and_markdown():
    payloads = (0.025, 0.075, 0.125, 0.175, 0.225, 0.275)
    rng = np.random.default_rng(0)
    rmse = {name: list(rng.uniform(0.01, 0.1, size=6)) for name in CONTROLLERS}
    report = TrackingReport(payloads=payloads, rmse=rmse)
    for name in CONTROLLERS:
        assert report.mean(name) == pytest.approx(np.mean(rmse[name]), abs=1e-12)
        assert report.std(name) == pytest.approx(np.std(rmse[name]), abs=1e-12)
    md = report.to_markdown()
    header = md.splitlines()[0]
    for p in payloads:
        assert f"{1000 * p:g} g" in header
    assert "Avg." in header and "Std. Dev." in header
    assert len(md.strip().splitlines()) == 2 + len(CONTROLLERS)


def test_tracking_report_csv_round_trip(tmp_path):
    payloads = (0.025, 0.125)
    rmse = {"K-MPC": [0.0123456789012345, 0.05], "KL-MPC": [0.01, 0.02]}
    report = TrackingReport(payloads=payloads, rmse=rmse)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    back = report_from_csv(path)
    assert back.payloads == payloads
    for name in rmse:
        assert back.rmse[name] == rmse[name]


def test_equilibrium_point_regulation(default_cfg, models):
    # degenerate single-point reference at the hanging position: the
    # known-load controller holds station (bounded by model bias, well below
    # moving-reference tracking error)
    eq = np.array([0.0, -(default_cfg.plant.L1 + default_cfg.plant.L2)])
    ref = point_reference(default_cfg.plant, eq, 5.0)
    res = run_tracking_trial(models.koopman_load, default_cfg, 0.0, ref, 5.0,
                             known_load=0.0, seed=3)
    assert res.rmse < 0.03


def test_run_experiment1_report_and_outputs(default_cfg, models, tmp_path):
    report = run_experiment1(default_cfg, models, payloads=(0.125,), duration=5.0,
                             outdir=tmp_path)
    assert set(report.rmse) == set(CONTROLLERS)
    assert all(len(v) == 1 and v[0] > 0 for v in report.rmse.values())
    back = report_from_csv(tmp_path / "experiment1_rmse.csv")
    for name in CONTROLLERS:
        assert back.rmse[name] == report.rmse[name]
    assert (tmp_path / "experiment1_rmse.md").read_text() == report.to_markdown()


def test_run_experiment2_trace_format(default_cfg, models, tmp_path):
    traces = run_experiment2(default_cfg, models, payloads=(0.125,), duration=8.0,
                             outdir=tmp_path)
    assert len(traces) == 1
    trace = traces[0]
    assert trace.t.shape == trace.w_hat.shape == trace.w_instant.shape
    lines = (tmp_path / "experiment2_w125g.csv").read_text().splitlines()
    assert lines[0] == "step,t,w_true1,w_instant1,w_hat1"
    assert len(lines) == trace.t.size + 1


def test_estimate_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    times = np.arange(4) * 0.05
    EstimateTrace(payload=0.125, t=times, w_instant=np.full(4, 0.1),
                  w_hat=np.full(4, 0.12)).to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,t,w_true1,w_instant1,w_hat1"
    assert len(lines) == 5
    row = [float(v) for v in lines[1].split(",")]
    assert row == [0.0, 0.0, 0.125, 0.1, 0.12]


def test_run_experiment3_matches_known_load(default_cfg, models, tmp_path):
    # unknown-load tracking settles to roughly the known-load error: after
    # the estimate converges (final 10 s of 30 s) the ratio stays <= 1.25
    results = run_experiment3(default_cfg, models, outdir=tmp_path)
    tail = slice(400, None)  # final 10 s at Ts = 0.05
    for i, res in enumerate(results):
        # first scheduled estimates have not happened yet: w_init in force
        assert np.allclose(res.w_hat_trace[:default_cfg.estimator.Ne],
                           default_cfg.estimator.w_init, atol=1e-12)
        known = run_tracking_trial(
            models.koopman_load, default_cfg, res.payload,
            circle_reference(default_cfg.plant, duration=30.0), 30.0,
            known_load=res.payload, seed=default_cfg.seed * 100 + 50 + i)
        ratio = (np.sqrt(np.mean(res.errors[tail] ** 2))
                 / np.sqrt(np.mean(known.errors[tail] ** 2)))
        assert ratio <= 1.25
        # the step log: one row per step, the live estimate as one column
        lines = (tmp_path / f"experiment3_w{1000 * res.payload:g}g.csv").read_text().splitlines()
        assert lines[0] == ("step,t,y1,y2,y3,y4,r1,r2,r3,r4,u1,u2,w_hat1,"
                            "qp_iters,converged,kkt_residual,solve_ms")
        assert len(lines) == 601
        assert [float(c) for c in lines[-1].split(",")[:2]] == [599, res.logs[-1].t]


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
    w_instant = w_hat[:d + 1] + [
        reference_estimate_instant(model, Y[k], delay_embed(Y[k - 1 - d:k], U[k - 1 - d:k - 1], d)[0],
                                   U[k - 1], est, fallback=[w_hat[k]])[0][0]
        for k in range(d + 1, K)]
    assert state.updates == 2
    assert np.array_equal(trace.t, np.arange(K) * cfg.plant.Ts)
    assert np.array_equal(trace.w_hat, w_hat)
    assert np.array_equal(trace.w_instant, w_instant)


@pytest.mark.parametrize("duration", [0.0, 0.02])
def test_tracking_trial_refuses_a_duration_without_a_sample_period(
        default_cfg, models, duration):
    # under half a period rounds to no step: no NaN RMSE from an empty trial
    ref = circle_reference(default_cfg.plant, duration=30.0)
    with pytest.raises(ValueError, match=f"duration {duration} s"):
        run_tracking_trial(models.koopman_load, default_cfg, 0.1, ref, duration,
                           known_load=0.1)


@pytest.mark.parametrize("duration", [0.0, 0.02])
def test_estimation_trial_refuses_a_duration_without_a_sample_period(
        default_cfg, models, duration):
    # an empty trace would have no final estimate
    with pytest.raises(ValueError, match=f"duration {duration} s"):
        run_estimation_trial(models.koopman_load, default_cfg, 0.1, duration=duration)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def collect_args(dataset, seed=0):
    return ["--seed", str(seed), "collect", str(dataset),
            "--loads", "0.1", "--trials", "1", "--duration", "5.0"]


def test_cli_collect_and_fit(tmp_path, capsys):
    dataset = tmp_path / "data.csv"
    assert cli.main(collect_args(dataset)) == 0
    trajs = load_trajectories(dataset)
    assert len(trajs) == 1 and np.array_equal(trajs[0].w, [0.1])
    for kind in ("baseline", "koopman"):
        model_path = tmp_path / f"{kind}.json"
        assert cli.main(["fit", str(dataset), str(model_path),
                         "--kind", kind]) == 0
        model = load_model(model_path)
        assert model.C.shape[0] == 4
    out = capsys.readouterr().out
    assert "wrote" in out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, where", [
    ("t,u1,y1,y2\n0,0.5,0.1,0.2\n0.05,0.5,0.1,0.2\n", "header"),
    ("a,b\n0,1\n0.05,1\n", "header"),
    ("t,y1,y2\n0,0.1,0.2\n", "header"),
    ("", "header"),
    ("t,y1,u1,w1\n0,0.1,0.5,0.1\n0.05,nan,0.5,0.1\n", "line 3"),
    ("t,y1,u1,w1\n0,0.1,0.5,0.1\n0.05,-inf,0.5,0.1\n", "line 3"),
    ("t,y1,u1,w1\n0,0.1,0.5\n", "line 2"),
    ("t,y1,u1,w1\n0,0.1,0.5,0.1,7\n", "line 2"),
    ("t,y1,u1,w1\n0,0.1,abc,0.1\n", "line 2"),
    ("t,y1,u1,w1\n", "no data rows"),
])
def test_cli_fit_rejects_malformed_dataset(tmp_path, capsys, text, where):
    # a header other than t,y1..yn,u1..um[,w1..wp], a bad cell or no data:
    # one error line naming the file, exit 2, no numpy warning, no model
    dataset, model_path = tmp_path / "bad.csv", tmp_path / "model.json"
    dataset.write_text(text)
    with pytest.raises(ValueError, match="bad.csv"):
        load_trajectories(dataset)
    assert cli.main(["fit", str(dataset), str(model_path), "--kind", "koopman"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and where in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not model_path.exists()


def test_cli_fit_baseline_skips_dictionary(tmp_path, monkeypatch):
    dataset = tmp_path / "data.csv"
    assert cli.main(collect_args(dataset)) == 0

    def no_basis(*args, **kwargs):
        raise AssertionError("baseline fit must not fit a dictionary basis")

    monkeypatch.setattr(lifting, "fit_basis", no_basis)
    model_path = tmp_path / "baseline.json"
    assert cli.main(["fit", str(dataset), str(model_path),
                     "--kind", "baseline"]) == 0
    assert load_model(model_path).basis.projection.n_components == 0


def test_cli_collect_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(collect_args(a, seed=5)) == 0
    assert cli.main(collect_args(b, seed=5)) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flag, value", [
    ("--trials", "0"), ("--trials", "-1"), ("--duration", "0"), ("--duration", "-2.5"),
])
def test_cli_collect_rejects_non_positive_flag(tmp_path, capsys, flag, value):
    # zero is a value, not "not given": it must not fall back to the config
    dataset = tmp_path / "d.csv"
    assert cli.main(["collect", str(dataset), "--loads", "0.1", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be positive")
    assert len(err.strip().splitlines()) == 1
    assert not dataset.exists()


def test_cli_collect_campaign_without_runs_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"campaign": {"trials": 0}}))
    dataset = tmp_path / "d.csv"
    assert cli.main(["--config", str(path), "collect", str(dataset)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no trajectories")
    assert len(err.strip().splitlines()) == 1
    assert not dataset.exists()


@pytest.mark.parametrize("doc, name", [
    ({"campaign": {"trials": 0}}, "training"),
    ({"campaign": {"loads": []}}, "training"),
    ({"fit": {"holdout_trials": 0}}, "holdout"),
])
def test_cli_campaign_without_runs_fails_before_fitting(tmp_path, capsys, monkeypatch,
                                                        doc, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))

    def no_fit(*args, **kwargs):
        raise AssertionError("an empty campaign must be refused before fitting")

    monkeypatch.setattr(harness, "fit_kinds", no_fit)
    assert cli.main(["--config", str(path), "track"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: the {name} campaign has no runs")
    assert len(err.strip().splitlines()) == 1


def test_cli_seed_env_fallback(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("KLMPC_SEED", "11")
    assert cli.main(["collect", str(a), "--loads", "0.1", "--trials", "1",
                     "--duration", "2.0"]) == 0
    monkeypatch.delenv("KLMPC_SEED")
    assert cli.main(["--seed", "11", "collect", str(b), "--loads", "0.1",
                     "--trials", "1", "--duration", "2.0"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_report(tmp_path, capsys):
    report = TrackingReport(payloads=(0.025, 0.125),
                            rmse={"K-MPC": [0.02, 0.03]})
    path = tmp_path / "report.csv"
    report.to_csv(path)
    assert cli.main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "| K-MPC |" in out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [
    "",
    "garbage\n",
    "controller,payload,rmse\nK-MPC,0.1,0.02\n",
    "controller,rmse_abcg,avg,std\nK-MPC,0.02,0.02,0.0\n",
    "controller,rmse_25g,rmse_125g,avg,std\nK-MPC,0.02\n",
    "controller,rmse_25g,rmse_125g,avg,std\nK-MPC,0.02,abc,0.1,0.1\n",
    "controller,rmse_25g,avg,std\nK-MPC,0.02,0.02,0.0\nKL-MPC\n",
])
def test_cli_report_rejects_malformed_csv(tmp_path, capsys, text):
    # no rmse_<g>g column, or a short or non-numeric row: one error line,
    # exit 2, no table and no numpy warning
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad.csv"):
        report_from_csv(path)
    assert cli.main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.strip().splitlines()) == 1


def test_cli_seed_env_must_be_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KLMPC_SEED", "abc")
    dataset = tmp_path / "d.csv"
    assert cli.main(["collect", str(dataset), "--loads", "0.1", "--trials", "1",
                     "--duration", "1.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: KLMPC_SEED must be an integer") and "'abc'" in err
    assert len(err.strip().splitlines()) == 1
    assert not dataset.exists()


def test_python_dash_m_klmpc_runs_the_cli(tmp_path):
    src = str(Path(klmpc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "klmpc", "--help"], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: klmpc")
    assert "report" in proc.stdout


def test_cli_errors(tmp_path, capsys):
    # missing input file -> diagnostic and exit 2
    assert cli.main(["fit", str(tmp_path / "missing.csv"),
                     str(tmp_path / "model.json")]) == 2
    assert "error:" in capsys.readouterr().err
    # unknown subcommand -> argparse exits nonzero
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


@pytest.mark.parametrize("doc, key", [
    ({"bogus": 1}, "bogus"),
    ({"estimator": {"nope": 2}}, "nope"),
    ({"campaign": 3}, "campaign"),
    ({"outdir": "results"}, "outdir"),
])
def test_cli_bad_config_is_one_error_line(tmp_path, capsys, doc, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=key):
        config_from_json(path)
    assert cli.main(["--config", str(path), "collect", str(tmp_path / "d.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("doc, key", [
    ({"Nh": "x"}, "Nh"),
    ({"campaign": {"trials": 1.5}}, "trials"),
    ({"campaign": {"loads": [0.1, "a"]}}, "loads"),
    ({"estimator": {"reduced": 1}}, "reduced"),
    ({"plant": {"k": True}}, "k"),
    ({"plant": {"Ts": 0.0}}, "Ts"),
    ({"plant": {"Ts": float("nan")}}, "Ts"),
    ({"plant": {"tau_max": float("inf")}}, "tau_max"),
    ({"campaign": {"loads": [0.1, float("-inf")]}}, "loads"),
    ({"Nh": 0}, "Nh"),
    ({"fit": {"energy": 2.0}}, "energy"),
    ({"fit": {"d": -1}}, "d"),
    ({"q_weight": -1}, "q_weight"),
    ({"r_weight": -1}, "r_weight"),
    ({"r_weight": 0}, "r_weight"),
])
def test_cli_bad_config_value_fails_before_fitting(tmp_path, capsys, monkeypatch,
                                                  doc, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"'{key}' must be"):
        config_from_json(path)
    fitted = []
    monkeypatch.setattr(harness, "fit_models", lambda *a, **k: fitted.append(a))
    assert cli.main(["--config", str(path), "sort"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert len(err.strip().splitlines()) == 1
    assert fitted == []


def test_config_checks_every_field_type(tmp_path):
    # a value of the wrong type in any field, top level or nested, is
    # refused by name
    path = tmp_path / "config.json"
    config_to_json(ExperimentConfig(), path)
    doc = json.loads(path.read_text())
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


def test_fit_models_collects_both_campaigns_in_one_call(monkeypatch):
    cfg = ExperimentConfig(campaign=CampaignConfig(loads=(0.0, 0.3), trials=1, duration=10.0),
                           fit=FitConfig(holdout_duration=5.0))
    camp, fit = cfg.campaign, cfg.fit
    training_spec = (camp.trials, camp.duration, camp.seed)
    holdout_spec = (fit.holdout_trials, fit.holdout_duration, camp.seed + 1)
    collect = harness.collect_training_data
    calls = []

    def spy(params, loads, campaigns):
        calls.append(list(campaigns))
        return collect(params, loads, campaigns)

    monkeypatch.setattr(harness, "collect_training_data", spy)
    ms = fit_models(cfg)
    assert calls == [[training_spec, holdout_spec]]
    training, holdout = collect(cfg.plant, camp.loads, [training_spec, holdout_spec])
    models = harness.fit_kinds(training, fit)
    for kind, attr in (("baseline", "baseline"), ("koopman", "koopman"),
                       ("koopman-load", "koopman_load")):
        assert np.array_equal(getattr(ms, attr).A, models[kind].A)
        assert np.array_equal(getattr(ms, attr).B, models[kind].B)
    for got, want in zip(ms.holdout, holdout, strict=True):
        assert np.array_equal(got.y, want.y) and np.array_equal(got.u, want.u)
