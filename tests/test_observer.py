"""Load estimation against the bilinear self-consistency oracle: exact
recovery, window-vs-instant robustness, the update schedule, and the
degenerate/clamped paths.
"""

import dataclasses

import numpy as np
import pytest

from klmpc import numkit, observer as obs
from klmpc.edmd import assemble_snapshots, fit_koopman
from klmpc.observer import EstimatorConfig, EstimatorState

from oracles import (
    BILINEAR_TS,
    bilinear_basis,
    bilinear_step,
    fit_bilinear_model,
    reference_estimate_instant,
    reference_window_system,
    simulate_bilinear,
)


# on the pure bilinear plant the constant and load columns of the stacked
# system are collinear, so the reduced solve is the identifying mode; the
# drifted variant (c0 != 0) has independent columns and exercises the
# default full-stack solve
DRIFT = 0.05


@pytest.fixture(scope="module")
def model():
    return fit_bilinear_model()


@pytest.fixture(scope="module")
def model_drift():
    return fit_bilinear_model(c0=DRIFT)


def history_for(w, K, rng, noise=0.0, x0=0.5, c0=0.0):
    """(y, u) record list from the true bilinear recursion."""
    x = x0
    records = []
    for _ in range(K):
        u = float(rng.uniform(-1.0, 1.0))
        y = x + (rng.normal(0.0, noise) if noise else 0.0)
        records.append((np.array([y]), np.array([u])))
        x = bilinear_step(x, u, w, c0)
    return records


def test_instant_self_consistency(model):
    cfg = EstimatorConfig()
    w = 0.125
    x, u = 0.8, 0.3
    history = [(np.array([x]), np.array([u])),
               (np.array([bilinear_step(x, u, w)]), np.array([0.0]))]
    w_hat, degenerate = obs.estimate_instant(model, history, cfg, reduced=True)
    assert not degenerate
    assert abs(w_hat[0] - w) < 1e-8


def test_window_self_consistency(model):
    cfg = EstimatorConfig(Nw=30)
    rng = np.random.default_rng(0)
    history = history_for(0.225, 31, rng)
    w_hat, degenerate = obs.estimate_window(model, history, cfg, reduced=True)
    assert not degenerate
    assert abs(w_hat[0] - 0.225) < 1e-8


def test_window_self_consistency_full_mode(model_drift):
    cfg = EstimatorConfig(Nw=30)
    rng = np.random.default_rng(10)
    history = history_for(0.225, 31, rng, c0=DRIFT)
    w_hat, degenerate = obs.estimate_window(model_drift, history, cfg)
    assert not degenerate
    assert abs(w_hat[0] - 0.225) < 1e-8


def test_window_of_one_equals_instant(model):
    rng = np.random.default_rng(1)
    history = history_for(0.18, 4, rng, noise=1e-3)
    w_win, _ = obs.estimate_window(model, history, EstimatorConfig(Nw=1))
    w_inst, _ = obs.estimate_instant(model, history, EstimatorConfig(Nw=30))
    assert np.array_equal(w_win, w_inst)


def test_instant_matches_triple_form(models, model_drift):
    # the newest transition of a history, bit for bit as the estimate from
    # its explicit (y_next, yd_prev, u_prev) triple, in both solve modes
    rng = np.random.default_rng(13)
    cfg = EstimatorConfig(w_min=-10.0, w_max=10.0)
    for model in (models.koopman_load, model_drift):
        d, n, m = model.d, model.n, model.m
        for _ in range(20):
            history = [(rng.normal(size=n), rng.uniform(0.0, 1.0, size=m))
                       for _ in range(d + 2 + int(rng.integers(0, 4)))]
            ys, us = map(np.array, zip(*history))
            yd_prev = np.concatenate([ys[-2 - i] for i in range(d + 1)]
                                     + [us[-2 - i] for i in range(1, d + 1)])
            for reduced in (False, True):
                got = obs.estimate_instant(model, history, cfg, fallback=[0.05],
                                           reduced=reduced)
                want = reference_estimate_instant(model, ys[-1], yd_prev, us[-2], cfg,
                                                  fallback=[0.05], reduced=reduced)
                assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_full_and_reduced_modes_agree_on_exact_data(model_drift):
    # on exact data the unconstrained solve's leading coefficient is 1, and
    # both modes recover the same load
    model = model_drift
    cfg = EstimatorConfig(Nw=20)
    rng = np.random.default_rng(2)
    history = history_for(0.1, 21, rng, c0=DRIFT)
    w_full, _ = obs.estimate_window(model, history, cfg, reduced=False)
    w_red, _ = obs.estimate_window(model, history, cfg, reduced=True)
    assert abs(w_full[0] - w_red[0]) < 1e-8
    # the unconstrained solve of the stacked system has leading entry 1
    v = numkit.lstsq(*obs.window_system(model, history, cfg.Nw))
    assert abs(v[0] - 1.0) < 1e-6


def test_window_system_matches_row_by_row_oracle(models, model_drift):
    # the one-shot lift and column-block products reorder sums, so the
    # stacked system agrees with the gamma_matrix oracle to a few ulps
    rng = np.random.default_rng(11)
    kl = models.koopman_load
    arm_history = [(rng.normal(size=4), rng.uniform(0.0, 1.0, size=2))
                   for _ in range(40)]
    for model, history in ((kl, arm_history),
                           (model_drift, history_for(0.2, 40, rng, c0=DRIFT))):
        for Nw in (1, 30, len(history) - model.d - 1):
            M, rhs = obs.window_system(model, history, Nw)
            M_ref, rhs_ref = reference_window_system(model, history, Nw)
            assert M.shape == M_ref.shape == (model.n * Nw, model.p + 1)
            assert np.max(np.abs(M - M_ref)) <= 1e-12 * np.max(np.abs(M_ref))
            assert np.max(np.abs(rhs - rhs_ref)) <= 1e-12 * np.max(np.abs(rhs_ref))


def test_degenerate_geometry_returns_fallback(model):
    # zero out the load columns of A: the output becomes insensitive to w
    N = model.basis.n_lifted
    A = model.A.copy()
    A[:, N:] = 0.0
    blind = dataclasses.replace(model, A=A)
    cfg = EstimatorConfig()
    fallback = np.array([0.07])
    history = [(np.array([0.8]), np.array([0.1])), (np.array([0.5]), np.array([0.0]))]
    w_hat, degenerate = obs.estimate_instant(blind, history, cfg, fallback=fallback)
    assert degenerate
    assert np.array_equal(w_hat, fallback)


def test_estimate_clamped_to_bounds(model):
    # adversarial next output pushes the raw estimate far past w_max
    cfg = EstimatorConfig()
    history = [(np.array([1.0]), np.array([0.0])), (np.array([5.0]), np.array([0.0]))]
    w_hat, degenerate = obs.estimate_instant(model, history, cfg, reduced=True)
    assert not degenerate
    assert w_hat[0] == cfg.w_max


def test_window_beats_instant_under_noise(model):
    # Monte Carlo: the stacked window estimate is more robust to output noise
    cfg = EstimatorConfig(Nw=30)
    rng = np.random.default_rng(3)
    w_true = 0.15
    err_win, err_inst = [], []
    for _ in range(100):
        history = history_for(w_true, 31, rng, noise=1e-3,
                              x0=float(rng.normal()))
        w_win, _ = obs.estimate_window(model, history, cfg, reduced=True)
        w_inst, _ = obs.estimate_instant(model, history, cfg, reduced=True)
        err_win.append(w_win[0] - w_true)
        err_inst.append(w_inst[0] - w_true)
    assert np.sqrt(np.mean(np.square(err_win))) < np.sqrt(np.mean(np.square(err_inst)))


def test_window_requires_enough_history(model):
    cfg = EstimatorConfig(Nw=10)
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        obs.estimate_window(model, history_for(0.1, 10, rng), cfg)


def test_estimators_require_augmented_model():
    rng = np.random.default_rng(5)
    snaps = assemble_snapshots([simulate_bilinear(0.0, 30, rng)], d=0)
    plain = fit_koopman(snaps, bilinear_basis(), BILINEAR_TS, with_load=False)
    cfg = EstimatorConfig()
    with pytest.raises(ValueError):
        obs.estimate_instant(plain, [(np.zeros(1), np.zeros(1))] * 2, cfg)
    with pytest.raises(ValueError):
        obs.estimate_window(plain, [], cfg)


def test_update_schedule_counts(model):
    cfg = EstimatorConfig(Nw=5, Ne=3, Nr=10)
    rng = np.random.default_rng(6)
    K = 30
    records = history_for(0.2, K, rng)
    state = EstimatorState(cfg=cfg, d=model.d)
    for k, (y, u) in enumerate(records):
        obs.update(state, model, y, u)
        # one window estimate per Ne steps, once the buffer holds Nw+d+1
        expected = sum(1 for j in range(k + 1)
                       if j % cfg.Ne == 0 and j + 1 >= cfg.Nw + model.d + 1)
        assert state.updates == expected
    assert state.updates == 8


def test_update_keeps_copies_of_the_callers_arrays(model):
    state = EstimatorState(cfg=EstimatorConfig(), d=model.d)
    y, u = np.array([0.1]), np.array([0.2])
    obs.update(state, model, y, u)
    y[0], u[0] = 99.0, -7.0
    assert np.array_equal(state.history[0][0], [0.1])
    assert np.array_equal(state.history[0][1], [0.2])


def test_degenerate_schedule_tracks_latest_estimate(model):
    # Ne = 1, Nr = 0: the smoothed value is just the newest window estimate
    cfg = EstimatorConfig(Nw=5, Ne=1, Nr=0)
    rng = np.random.default_rng(7)
    state = EstimatorState(cfg=cfg, d=model.d)
    for y, u in history_for(0.12, 20, rng, noise=1e-3):
        obs.update(state, model, y, u)
        if state.updates:
            direct, _ = obs.estimate_window(model, state.history, cfg)
            assert np.allclose(state.w_hat, direct, atol=1e-12)
    assert state.updates > 0


def test_smoothed_estimate_in_convex_hull(model):
    cfg = EstimatorConfig(Nw=5, Ne=2, Nr=50)
    rng = np.random.default_rng(8)
    state = EstimatorState(cfg=cfg, d=model.d)
    for y, u in history_for(0.2, 40, rng, noise=5e-3):
        obs.update(state, model, y, u)
    assert state.updates > 0
    samples = np.array([e[0] for e in state.estimates])
    assert samples.min() - 1e-12 <= state.w_hat[0] <= samples.max() + 1e-12


def test_constant_load_noiseless_estimate_is_constant(model_drift):
    # default (full-stack) schedule on the drifted plant: every window
    # estimate is exact, so the smoothed value never moves
    cfg = EstimatorConfig(Nw=10, Ne=4, Nr=20)
    rng = np.random.default_rng(9)
    state = EstimatorState(cfg=cfg, d=model_drift.d)
    seen = []
    for y, u in history_for(0.175, 40, rng, c0=DRIFT):
        obs.update(state, model_drift, y, u)
        if state.updates:
            seen.append(state.w_hat[0])
    assert seen
    assert np.allclose(seen, 0.175, atol=1e-8)


def test_stationary_window_is_skipped(model):
    cfg = EstimatorConfig(Nw=5, Ne=1)
    state = EstimatorState(cfg=cfg, d=model.d)
    for _ in range(20):
        obs.update(state, model, np.array([0.4]), np.array([0.0]))
    assert state.updates == 0
    assert state.degenerate
    assert np.array_equal(state.w_hat, cfg.w_init)


def test_config_contract():
    cfg = EstimatorConfig()
    assert cfg.w_init[0] == pytest.approx(0.15)
    assert np.array_equal(cfg.clamp(np.array([-1.0, 0.1, 2.0])),
                          [cfg.w_min, 0.1, cfg.w_max])
    with pytest.raises(ValueError):
        EstimatorConfig(Nw=0)
    with pytest.raises(ValueError):
        EstimatorConfig(Ne=0)
    with pytest.raises(ValueError):
        EstimatorConfig(Nr=-1)
    with pytest.raises(ValueError):
        EstimatorConfig(w_min=0.4, w_max=0.3)


def test_save_estimate_trace(tmp_path):
    path = tmp_path / "trace.csv"
    steps = np.arange(4)
    times = steps * 0.05
    obs.save_estimate_trace(path, steps, times, np.full(4, 0.1),
                            np.full(4, 0.12), w_true=np.full(4, 0.125))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,t,w_true1,w_instant1,w_hat1"
    assert len(lines) == 5
    row = [float(v) for v in lines[1].split(",")]
    assert row == [0.0, 0.0, 0.125, 0.1, 0.12]
