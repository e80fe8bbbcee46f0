"""Load estimation against the bilinear self-consistency oracle: exact
recovery, window-vs-instant robustness, the update schedule, and the
degenerate/clamped paths.
"""

import dataclasses

import numpy as np
import pytest

from klmpc import numkit, observer as obs
from klmpc.edmd import fit_koopman
from klmpc.observer import EstimatorConfig, EstimatorState

from klmpc.plant import Run, drive, excitation

from oracles import (
    BILINEAR_TS,
    bilinear_basis,
    bilinear_step,
    fit_bilinear_model,
    reference_estimate_instant,
    reference_estimator,
    reference_update,
    reference_window_system,
    simulate_bilinear,
)


# on the pure bilinear plant the constant and load columns of the stacked
# system are collinear, so the solve pins the constant coefficient at 1; the
# drifted variant (c0 != 0) has independent columns and exercises the
# full-stack solve
DRIFT = 0.05


@pytest.fixture(scope="module")
def model():
    return fit_bilinear_model()


@pytest.fixture(scope="module")
def model_drift():
    return fit_bilinear_model(c0=DRIFT)


def history_for(w, K, rng, noise=0.0, x0=0.5, c0=0.0):
    """(K, 2) [y | u] record array from the true bilinear recursion."""
    x = x0
    records = np.zeros((K, 2))
    for k in range(K):
        u = float(rng.uniform(-1.0, 1.0))
        records[k] = x + (rng.normal(0.0, noise) if noise else 0.0), u
        x = bilinear_step(x, u, w, c0)
    return records


def test_instant_self_consistency(model):
    cfg = EstimatorConfig()
    w = 0.125
    x, u = 0.8, 0.3
    history = np.array([[x, u], [bilinear_step(x, u, w), 0.0]])
    w_hat = obs.estimate_instant(model, history, cfg)
    assert w_hat is not None
    assert abs(w_hat[0] - w) < 1e-8


def test_window_self_consistency(model, caplog):
    # the collinear window is rank-deficient, so the solve pins the
    # constant coefficient at 1 and identifies w, without a warning; the
    # full stack's minimum-norm answer would not be w
    cfg = EstimatorConfig(Nw=30)
    rng = np.random.default_rng(0)
    history = history_for(0.225, 31, rng)
    with caplog.at_level("WARNING"):
        w_hat = obs.estimate_window(model, history, cfg)
    assert not caplog.records
    assert w_hat is not None
    assert abs(w_hat[0] - 0.225) < 1e-8


def test_window_self_consistency_full_mode(model_drift):
    cfg = EstimatorConfig(Nw=30)
    rng = np.random.default_rng(10)
    history = history_for(0.225, 31, rng, c0=DRIFT)
    w_hat = obs.estimate_window(model_drift, history, cfg)
    assert w_hat is not None
    assert abs(w_hat[0] - 0.225) < 1e-8


def test_full_rank_window_is_factored_once(monkeypatch, models):
    # the rank that picks the full solve comes from the solve's own SVD
    svd, shapes = np.linalg.svd, []

    def svd_spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    rng = np.random.default_rng(4)
    history = np.hstack([rng.normal(size=(40, 4)), rng.uniform(0.0, 1.0, size=(40, 2))])
    model = models.koopman_load
    M, _ = obs.window_system(model, history, 30)
    shapes.clear()
    assert obs.estimate_window(model, history, EstimatorConfig(Nw=30)) is not None
    assert shapes == [M.shape]


def test_window_of_one_equals_instant(model):
    rng = np.random.default_rng(1)
    history = history_for(0.18, 4, rng, noise=1e-3)
    w_win = obs.estimate_window(model, history, EstimatorConfig(Nw=1))
    w_inst = obs.estimate_instant(model, history, EstimatorConfig(Nw=30))
    assert np.array_equal(w_win, w_inst)


def test_instant_matches_triple_form(models, model_drift):
    # the newest transition of a history, bit for bit as the estimate from
    # its explicit (y_next, yd_prev, u_prev) triple; the arm's four output
    # rows take the full solve, the drifted plant's one row the pinned one
    rng = np.random.default_rng(13)
    cfg = EstimatorConfig(w_min=-10.0, w_max=10.0)
    for model in (models.koopman_load, model_drift):
        d, n, m = model.d, model.n, model.m
        for _ in range(20):
            K = d + 2 + int(rng.integers(0, 4))
            ys, us = rng.normal(size=(K, n)), rng.uniform(0.0, 1.0, size=(K, m))
            yd_prev = np.concatenate([ys[-2 - i] for i in range(d + 1)]
                                     + [us[-2 - i] for i in range(1, d + 1)])
            got = obs.estimate_instant(model, np.hstack([ys, us]), cfg)
            want = reference_estimate_instant(model, ys[-1], yd_prev, us[-2], cfg)
            assert got is not None and np.array_equal(got, want)


def test_full_and_reduced_modes_agree_on_exact_data(model_drift):
    # on exact data the unconstrained solve's leading coefficient is 1, and
    # the full solve and the solve with the constant pinned at 1 recover the
    # same load
    model = model_drift
    cfg = EstimatorConfig(Nw=20)
    rng = np.random.default_rng(2)
    history = history_for(0.1, 21, rng, c0=DRIFT)
    w_full = obs.estimate_window(model, history, cfg)
    M, rhs = obs.window_system(model, history, cfg.Nw)
    w_red = numkit.lstsq(M[:, 1:], rhs - M[:, 0])
    assert abs(w_full[0] - w_red[0]) < 1e-8
    # the unconstrained solve of the stacked system has leading entry 1
    v = numkit.lstsq(M, rhs)
    assert abs(v[0] - 1.0) < 1e-6


def test_window_system_matches_row_by_row_oracle(models, model_drift):
    # the one-shot lift and column-block products reorder sums, so the
    # stacked system agrees with the gamma_matrix oracle to a few ulps
    rng = np.random.default_rng(11)
    kl = models.koopman_load
    arm_history = np.hstack([rng.normal(size=(40, 4)), rng.uniform(0.0, 1.0, size=(40, 2))])
    for model, history in ((kl, arm_history),
                           (model_drift, history_for(0.2, 40, rng, c0=DRIFT))):
        for Nw in (1, 30, len(history) - model.d - 1):
            M, rhs = obs.window_system(model, history, Nw)
            M_ref, rhs_ref = reference_window_system(model, history, Nw)
            assert M.shape == M_ref.shape == (model.n * Nw, model.p + 1)
            assert np.max(np.abs(M - M_ref)) <= 1e-12 * np.max(np.abs(M_ref))
            assert np.max(np.abs(rhs - rhs_ref)) <= 1e-12 * np.max(np.abs(rhs_ref))


def test_degenerate_geometry_returns_none(model):
    # zero out the load columns of A: the output becomes insensitive to w
    N = model.basis.n_lifted
    A = model.A.copy()
    A[:, N:] = 0.0
    blind = dataclasses.replace(model, A=A)
    history = np.array([[0.8, 0.1], [0.5, 0.0]])
    assert obs.estimate_instant(blind, history, EstimatorConfig()) is None
    assert obs.estimate_window(blind, history, EstimatorConfig(Nw=1)) is None


def test_non_finite_window_returns_none(model):
    # a NaN output in the window's oldest or newest record fails closed:
    # no estimate, and the observer keeps its previous one
    cfg = EstimatorConfig(Nw=5, Ne=1)
    for row in (0, -1):
        history = history_for(0.2, 6 + model.d, np.random.default_rng(12))
        history[row, 0] = np.nan
        assert obs.estimate_window(model, history, cfg) is None
        state = EstimatorState(cfg=cfg, d=model.d)
        for y, u in history:
            obs.update(state, model, y, u)
        assert state.degenerate and state.updates == 0
        assert np.array_equal(state.w_hat, cfg.w_init)


@pytest.mark.filterwarnings("error")
def test_infinite_outputs_make_degenerate_windows_without_a_warning(models):
    # two consecutive infinite outputs would give inf - inf in the motion
    # test; the record's finiteness is tested first, so every window that
    # holds them is degenerate, no warning is raised, and the estimate stays
    model = models.koopman_load
    cfg = EstimatorConfig(Nw=5, Ne=1, Nr=4)
    window = cfg.Nw + model.d + 1
    rng = np.random.default_rng(4)
    state = EstimatorState(cfg=cfg, d=model.d)
    for k in range(window + 3):
        y = np.full(model.n, np.inf) if k in (2, 3) else rng.normal(size=model.n)
        obs.update(state, model, y, rng.uniform(size=model.m))
        if k >= window - 1:  # the windows of steps window-1 .. window+2 hold step 3
            assert state.degenerate
    assert state.updates == 0
    assert np.array_equal(state.w_hat, cfg.w_init)


@pytest.mark.filterwarnings("error")
def test_rhs_out_of_range_is_refused_without_a_warning(default_cfg, models):
    # with the KL B x 1e308 the load equations' right-hand side is finite,
    # but its norm overflows: the window is refused with the "out of range"
    # ValueError of an M whose norm overflows, before the solve could warn
    model = models.koopman_load
    huge_b = dataclasses.replace(model, B=model.B * 1e308)
    Y, U, _ = models.holdout
    rows = default_cfg.estimator.Nw + model.d + 1
    history = np.hstack([Y[0, :rows], U[0, :rows]])
    M, rhs = obs.window_system(huge_b, history, default_cfg.estimator.Nw)
    assert np.all(np.isfinite(M)) and np.all(np.isfinite(rhs))
    with pytest.raises(ValueError, match="norm overflows; the model's matrices are out of range"):
        obs.estimate_window(huge_b, history, default_cfg.estimator)


def test_estimate_clamped_to_bounds(model):
    # adversarial next output pushes the raw estimate far past w_max
    cfg = EstimatorConfig()
    history = np.array([[1.0, 0.0], [5.0, 0.0]])
    w_hat = obs.estimate_instant(model, history, cfg)
    assert w_hat is not None
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
        w_win = obs.estimate_window(model, history, cfg)
        w_inst = obs.estimate_instant(model, history, cfg)
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
    plain = fit_koopman(simulate_bilinear((0.0,), 30, rng), bilinear_basis(), BILINEAR_TS,
                        with_load=False)
    cfg = EstimatorConfig()
    with pytest.raises(ValueError):
        obs.estimate_instant(plain, np.zeros((2, 2)), cfg)
    with pytest.raises(ValueError):
        obs.estimate_window(plain, np.zeros((0, 2)), cfg)


def test_update_schedule_counts(model):
    cfg = EstimatorConfig(Nw=5, Ne=3, Nr=10)
    rng = np.random.default_rng(6)
    K = 30
    records = history_for(0.2, K, rng)
    state = EstimatorState(cfg=cfg, d=model.d)
    for k, (y, u) in enumerate(records):
        obs.update(state, model, y, u)
        assert len(state.history) == min(k + 1, cfg.Nw + model.d + 1)
        # one window estimate per Ne steps, once the buffer holds Nw+d+1
        expected = sum(1 for j in range(k + 1)
                       if j % cfg.Ne == 0 and j + 1 >= cfg.Nw + model.d + 1)
        assert state.updates == expected
    assert state.updates == 8


def test_update_keeps_copies_of_the_callers_arrays(model):
    state = EstimatorState(cfg=EstimatorConfig(), d=model.d)
    assert len(state.history) == 0
    y, u = np.array([0.1]), np.array([0.2])
    obs.update(state, model, y, u)
    y[0], u[0] = 99.0, -7.0
    assert np.array_equal(state.history, [[0.1, 0.2]])


def test_degenerate_schedule_tracks_latest_estimate(model):
    # Ne = 1, Nr = 0: the smoothed value is just the newest window estimate
    cfg = EstimatorConfig(Nw=5, Ne=1, Nr=0)
    rng = np.random.default_rng(7)
    state = EstimatorState(cfg=cfg, d=model.d)
    for y, u in history_for(0.12, 20, rng, noise=1e-3):
        obs.update(state, model, y, u)
        if state.updates:
            direct = obs.estimate_window(model, state.history, cfg)
            assert np.allclose(state.w_hat, direct, atol=1e-12)
    assert state.updates > 0


def test_update_matches_deque_oracle_on_the_arm(default_cfg, models):
    # a 400-step exp2-style open-loop run of the arm under the default
    # schedule: after every record the array-record observer holds the
    # deque-of-(y, u) oracle's estimate bit for bit
    model, est, Ts = models.koopman_load, default_cfg.estimator, default_cfg.plant.Ts
    state = EstimatorState(cfg=est, d=model.d)
    ref = reference_estimator(est, model.d)
    excite = excitation(np.random.default_rng(4), Ts)

    def policy(k, y):
        u = excite(k, y)
        obs.update(state, model, y, u)
        reference_update(ref, model, y, u)
        assert np.array_equal(state.w_hat, ref.w_hat)
        assert (state.degenerate, state.updates) == (ref.degenerate, ref.updates)
        return u

    drive(default_cfg.plant, [Run(0.125, np.random.default_rng(5), 400, policy)])
    assert state.step == 400 and state.updates == ref.updates >= 30


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
    # NaN fails every range check, and the load bounds must be finite
    for kwargs, name in (({"w_min": np.nan}, "w_min"), ({"w_max": np.nan}, "w_max"),
                         ({"w_max": np.inf}, "w_max"), ({"w_min": -np.inf}, "w_min"),
                         ({"Nw": np.nan}, "Nw"), ({"Nr": np.nan}, "Nr")):
        with pytest.raises(ValueError, match=name):
            EstimatorConfig(**kwargs)
