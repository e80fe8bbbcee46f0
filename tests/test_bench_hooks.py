"""The benchmark's hook points: every layer entry point its tracer wraps and
every per-sample call a workload probes must resolve on the package, its
trial adapters must run on short trials, and its self-test must pass.  No
whole workload is run; a rename in the package that would crash
``bench/run.py`` fails here instead.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def test_layer_tracer_resolves_and_restores_every_point(workloads):
    tracer = workloads.layer_tracer()      # looks every point up: a KeyError or
    originals = [(owner, attr, original)   # AttributeError on a missing one
                 for owner, attr, original, _ in tracer._points]
    tracer.install()
    tracer.uninstall()
    for owner, attr, original in originals:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original


def test_layer_tracer_records_every_fit_stage(workloads):
    # the per-layer fit metrics sum these spans: a fit that stops calling a
    # wrapped point where the tracer patches it would read 0 there
    h = workloads.harness
    cfg = h.ExperimentConfig(
        campaign=h.CampaignConfig(loads=(0.0, 0.3), trials=1, duration=10.0),
        fit=h.FitConfig(holdout_duration=5.0))
    tracer = workloads.layer_tracer()
    tracer.install()
    try:
        h.fit_models(cfg)
    finally:
        tracer.uninstall()
    counts = {name: tracer.names.count(name) for name in (
        "harness.fit_models", "edmd.fit_linear_baseline", "edmd.fit_koopman",
        "edmd.assemble_snapshots", "lifting.fit_basis", "numkit.pca_fit", "numkit.pinv")}
    # the baseline fit is a fit_koopman too, and each of the three takes one pinv
    assert counts == {"harness.fit_models": 1, "edmd.fit_linear_baseline": 1,
                      "edmd.fit_koopman": 3, "edmd.assemble_snapshots": 1,
                      "lifting.fit_basis": 1, "numkit.pca_fit": 1, "numkit.pinv": 3}


@pytest.mark.parametrize("name", ["track_known", "estimate_open", "track_unknown"])
def test_workload_online_points_resolve(workloads, name):
    workload = workloads.WORKLOADS[name]
    probe = workloads.OnlineProbe(workload, workloads.Tally())
    probe.install()
    probe.uninstall()
    assert len(probe.points) >= 1
    for owner, attr in probe.points:
        assert callable(owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))


@pytest.mark.parametrize("known_load", [True, False])
def test_tracking_trial_adapter_runs(workloads, default_cfg, models, known_load):
    # 1 s of KL-MPC on the circle, with the true load or the live observer
    payload = 0.125
    ref = workloads.harness.circle_reference(default_cfg.plant, duration=1.0)
    extra = ({"known_load": payload} if known_load
             else {"est_cfg": default_cfg.estimator})
    out = workloads._tracking_trial(models.koopman_load, default_cfg, payload, ref,
                                    1.0, "KL-MPC", 3, **extra)
    assert out.label == "KL-MPC" and out.payload == payload
    assert out.steps == out.solves == 20
    assert 0 <= out.unconverged <= out.solves
    assert math.isfinite(out.rmse) and out.rmse > 0
    assert (out.load_err is None) == known_load
    if not known_load:
        assert 0.0 <= out.load_err <= 0.3


def test_estimation_trial_adapter_runs(workloads, default_cfg, models):
    out = workloads._estimation_trial(models.koopman_load, default_cfg, 0.2, 1.0, 5)
    assert out.label == "observer" and out.steps == 20
    assert out.rmse is None and np.isfinite(out.load_err)


def test_window_record_counts_the_observers_scheduled_windows(workloads, default_cfg,
                                                              models):
    # the benchmark's degenerate ratio divides the windows its record marks
    # skipped by those it marks due: over an open-loop run whose sensor is
    # frozen for its first 60 steps, the due windows are the schedule's, and
    # they are the estimator's estimates plus its skipped windows
    obs, plant = workloads.observer, workloads.plant
    model, est, Ts = models.koopman_load, default_cfg.estimator, default_cfg.plant.Ts
    state = obs.EstimatorState(cfg=est, d=model.d)
    excite = plant.excitation(np.random.default_rng(2), Ts)
    first, records = {}, []

    def policy(k, y):
        u = excite(k, y)
        args = (state, model, y if k >= 60 else first.setdefault("y", y), u)
        records.append(workloads._window_record(args, {}, obs.update(*args)))
        return u

    plant.drive(default_cfg.plant, [plant.Run(0.2, np.random.default_rng(3), 150, policy)])
    due = [d for d, _ in records]
    skipped = sum(g for _, g in records)
    assert due == [k % est.Ne == 0 and k >= est.Nw + model.d for k in range(150)]
    assert sum(due) == state.updates + skipped
    assert skipped > 0 and state.updates > 0


def test_workload_lengths_are_the_harness_lengths(workloads):
    # the benchmark keeps its own copies of the experiment lengths: a change
    # of length in the harness must be followed there
    h = workloads.harness
    assert (workloads.EXP1_DURATION, workloads.EXP2_DURATION, workloads.EXP3_DURATION) == (
        h.EXP1_DURATION, h.EXP2_DURATION, h.EXP3_DURATION)


def test_bench_selftest_passes():
    run = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
