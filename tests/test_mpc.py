"""Condensation against hand/finite-difference oracles, the box-QP solver
against active-set enumeration, and the closed-loop controller contracts.
"""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klmpc import mpc
from klmpc.edmd import KoopmanModel
from klmpc.lifting import delay_embed, embedded_dim, identity_basis
from klmpc.mpc import (
    Condenser,
    Controller,
    MpcConfig,
    kkt_residual,
    solve_box_qp,
)
from klmpc.harness import write_records
from klmpc.observer import EstimatorConfig

from oracles import (
    bilinear_step,
    enumerate_box_qp,
    fit_bilinear_model,
    qp_objective,
    random_box_qp,
    reference_condensed_f,
    reference_condenser,
)

TS = 0.05


def scalar_model(a=1.0, b=1.0):
    return KoopmanModel(A=np.array([[a]]), B=np.array([[b]]),
                        basis=identity_basis(1, 1, 0), Ts=TS)


def scalar_cfg(Nh=1, q=1.0, r=1.0, lo=-1.0, hi=1.0):
    return MpcConfig(Nh=Nh, q=(q,), r_weight=r, u_min=lo, u_max=hi)


def sine_reference(rows):
    """(rows, 1) moving reference, one row per step."""
    return 0.6 * np.sin(0.3 * np.arange(rows))[:, None]


def rollout_cost(model, cfg, z0, ref, U):
    """Direct evaluation of the tracking cost, independent of Condenser,
    with the weights as the matrices Q = diag(q) and R = r_weight I."""
    Nh, m, n = cfg.Nh, model.m, model.n
    Q, R = np.diag(cfg.q), cfg.r_weight * np.eye(m)
    z = np.asarray(z0, dtype=float)
    ref = np.asarray(ref, dtype=float).reshape(Nh, n)
    cost = 0.0
    for i in range(Nh):
        u = U[i * m:(i + 1) * m]
        z = model.A @ z + model.B @ u
        e = z[:n] - ref[i]
        cost += e @ Q @ e + u @ R @ u
    return cost


def test_condense_hand_oracle():
    # z+ = z + u, Nh = 1, Q = R = 1, z0 = 1, r = 0: cost (1+u)^2 + u^2
    cond = Condenser(scalar_model(), scalar_cfg())
    f = cond.qp(np.array([1.0]), np.array([0.0]))
    assert np.allclose(cond.H, [[4.0]], atol=1e-12)
    assert np.allclose(f, [2.0], atol=1e-12)
    res = solve_box_qp(cond.H, f, cond.lower, cond.upper, tol=1e-10)
    assert abs(res.x[0] + 0.5) < 1e-9
    # interior stationarity
    assert np.allclose(cond.H @ res.x + f, 0.0, atol=1e-8)


def test_condense_zero_tracking_weight():
    cond = Condenser(scalar_model(), scalar_cfg(q=0.0))
    f = cond.qp(np.array([3.0]), np.array([1.0]))
    assert np.allclose(f, 0.0, atol=1e-12)
    res = solve_box_qp(cond.H, f, cond.lower, cond.upper, tol=1e-10)
    assert abs(res.x[0]) < 1e-9


def test_condense_matches_finite_difference_hessian():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
    model = KoopmanModel(A=A, B=rng.normal(size=(3, 2)),
                         basis=identity_basis(2, 2, 0), Ts=TS)
    cfg = MpcConfig(Nh=3, q=(1.0, 2.0), r_weight=0.1, u_min=-1.0, u_max=1.0)
    z0 = rng.normal(size=3)
    ref = rng.normal(size=(3, 2))
    cond = Condenser(model, cfg)
    f = cond.qp(z0, ref)
    dim = f.shape[0]
    h = 1e-5
    H_fd = np.zeros((dim, dim))
    f_fd = np.zeros(dim)
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = h
        f_fd[i] = (rollout_cost(model, cfg, z0, ref, ei)
                   - rollout_cost(model, cfg, z0, ref, -ei)) / (2 * h)
        for j in range(dim):
            ej = np.zeros(dim)
            ej[j] = h
            H_fd[i, j] = (rollout_cost(model, cfg, z0, ref, ei + ej)
                          - rollout_cost(model, cfg, z0, ref, ei - ej)
                          - rollout_cost(model, cfg, z0, ref, -ei + ej)
                          + rollout_cost(model, cfg, z0, ref, -ei - ej)) / (4 * h * h)
    # the quadratic model is 1/2 U'HU + f'U: FD of the rollout gives H and f
    assert np.allclose(cond.H, H_fd, rtol=1e-4, atol=1e-4)
    assert np.allclose(f, f_fd, rtol=1e-4, atol=1e-4)


def test_condensed_f_matches_expanded_form(models, default_cfg):
    # f is formed from the gain 2 M' Qbar cached at build, bit for bit as
    # the expanded product
    rng = np.random.default_rng(12)
    cfg = default_cfg.mpc_config()
    for model in (models.baseline, models.koopman, models.koopman_load):
        cond = Condenser(model, cfg)
        for _ in range(50):
            z0 = rng.normal(size=model.A.shape[0])
            ref = rng.normal(size=(cfg.Nh, model.n))
            assert np.array_equal(cond.qp(z0, ref),
                                  reference_condensed_f(model, cfg, z0, ref))


def test_condenser_matches_blockwise_oracle(models, default_cfg):
    # each Markov block C A^l B is formed once per lag and placed on its
    # diagonal; S, P and H keep every bit of forming each block in place
    cfg = default_cfg.mpc_config()
    for model in (models.baseline, models.koopman, models.koopman_load):
        cond = Condenser(model, cfg)
        for name, oracle in zip("S P H lower upper".split(), reference_condenser(model, cfg)):
            assert getattr(cond, name).tobytes() == oracle.tobytes(), name


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), extra=st.integers(0, 3),
       m=st.integers(1, 3), Nh=st.integers(1, 6), log_r=st.floats(-6.0, 2.0),
       lo=st.floats(-10.0, 10.0), width=st.floats(1e-3, 10.0))
def test_condenser_matches_the_matrix_form_on_random_settings(seed, n, extra, m, Nh,
                                                              log_r, lo, width):
    # per-output weights (some zero), one input weight and one box give the
    # arrays of the matrix form diag(q), r_weight I and tiled bounds, bit for bit
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n + extra, n + extra))
    A *= rng.uniform(0.5, 1.0) / np.max(np.abs(np.linalg.eigvals(A)))
    model = KoopmanModel(A=A, B=rng.normal(size=(n + extra, m)),
                         basis=identity_basis(n, m, 0), Ts=TS)
    q = tuple(rng.uniform(0.0, 5.0, n) * (rng.random(n) < 0.7))
    cfg = MpcConfig(Nh=Nh, q=q, r_weight=10.0**log_r, u_min=lo, u_max=lo + width)
    cond = Condenser(model, cfg)
    for name, oracle in zip("S P H lower upper".split(), reference_condenser(model, cfg)):
        assert getattr(cond, name).tobytes() == oracle.tobytes(), name
    assert Controller(model, cfg, np.zeros((1, n))).u_neutral.tobytes() == np.full(
        m, 0.5 * (cfg.u_min + cfg.u_max)).tobytes()


def test_condense_reference_length_check():
    # a one-entry reference would broadcast silently into S z0 - ref, so the
    # length is checked before the product; two entries are refused the same way
    cond = Condenser(scalar_model(), scalar_cfg(Nh=3))
    for entries in (1, 2):
        with pytest.raises(ValueError, match=f"reference has {entries} entries, expected 3"):
            cond.qp(np.array([0.0]), np.zeros(entries))


@pytest.mark.parametrize("model", [
    scalar_model(a=1e200),          # A^2 overflows: H is not finite
    # two inputs with one huge column: H is finite but singular to rounding
    KoopmanModel(A=np.eye(1), B=np.full((1, 2), 1e150), basis=identity_basis(1, 2, 0), Ts=TS),
    # A^2 overflows in S alone: H and P stay finite, H positive definite
    scalar_model(a=1e160, b=1e-200),
], ids=["not-finite", "singular", "free-response-not-finite"])
def test_condenser_refuses_a_model_it_cannot_condense(model):
    # one ValueError and no RuntimeWarning (warnings are errors here)
    cfg = MpcConfig(Nh=2, q=(1.0,), r_weight=1e-5, u_min=0.0, u_max=1.0)
    with pytest.raises(ValueError, match="not finite with a positive definite Hessian"):
        Condenser(model, cfg)


@pytest.mark.parametrize("weights", [1, 3])
def test_condenser_refuses_a_q_that_does_not_fit_the_model(weights):
    # one output weight per model output: a 2-output model refuses 1 or 3 weights
    # with one ValueError naming q, its length and n, not numpy's matmul message
    model = KoopmanModel(A=0.5 * np.eye(2), B=np.ones((2, 1)), basis=identity_basis(2, 1, 0), Ts=TS)
    cfg = MpcConfig(Nh=2, q=(1.0,) * weights, r_weight=1e-3, u_min=0.0, u_max=1.0)
    with pytest.raises(ValueError, match=f"^Condenser: 'q' has length {weights}, but the model "
                                         "has n = 2$"):
        Condenser(model, cfg)


def test_solver_clipped_scalar():
    # min 1/2 u^2 - u over [0, 0.4] -> u* = 0.4
    H, f, lo, hi = np.array([[1.0]]), np.array([-1.0]), np.array([0.0]), np.array([0.4])
    res = solve_box_qp(H, f, lo, hi, tol=1e-10)
    assert res.converged
    assert abs(res.x[0] - 0.4) < 1e-12
    assert kkt_residual(res.x, H @ res.x + f, lo, hi) <= 1e-10
    # an interior non-stationary point has the full gradient as residual
    x = np.array([0.2])
    assert kkt_residual(x, H @ x + f, lo, hi) == pytest.approx(0.8)


def test_solver_against_enumeration_oracle():
    rng = np.random.default_rng(1)
    for _ in range(60):
        H, f, lo, hi = random_box_qp(rng, int(rng.integers(2, 9)))
        res = solve_box_qp(H, f, lo, hi, tol=1e-8, max_iter=200)
        x_ref = enumerate_box_qp(H, f, lo, hi)
        assert abs(qp_objective(H, f, res.x) - qp_objective(H, f, x_ref)) < 1e-6
        assert res.kkt_residual <= 1e-6
        assert np.all(res.x >= lo - 1e-12) and np.all(res.x <= hi + 1e-12)


def test_solver_deterministic():
    rng = np.random.default_rng(2)
    H, f, lo, hi = random_box_qp(rng, 6)
    a = solve_box_qp(H, f, lo, hi, tol=1e-10, max_iter=200)
    b = solve_box_qp(H, f, lo, hi, tol=1e-10, max_iter=200)
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations


def test_solver_warm_start_reaches_same_optimum():
    rng = np.random.default_rng(3)
    H, f, lo, hi = random_box_qp(rng, 6)
    cold = solve_box_qp(H, f, lo, hi, tol=1e-10, max_iter=200)
    warm = solve_box_qp(H, f, lo, hi, tol=1e-10, max_iter=200,
                        x0=rng.uniform(lo, hi))
    assert np.allclose(cold.x, warm.x, atol=1e-9)


def test_solver_iteration_cap_stays_feasible():
    # a capped solve's iterate is in the box: projecting it again keeps every bit
    rng = np.random.default_rng(4)
    H, f, lo, hi = random_box_qp(rng, 8)
    for max_iter in (0, 1):
        res = solve_box_qp(H, f, lo, hi, tol=1e-14, max_iter=max_iter)
        assert np.all(res.x >= lo - 1e-12) and np.all(res.x <= hi + 1e-12)
        assert np.clip(res.x, lo, hi).tobytes() == res.x.tobytes()
        assert res.converged == (res.kkt_residual <= 1e-14)


@pytest.mark.filterwarnings("error")
def test_solver_singular_block_falls_back_to_steepest_descent():
    # a singular free block takes the steepest-descent step -g_f and leaves
    # the pinned coordinates as given, whatever the caller's floating-point
    # state, and with no warning
    H = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    g = np.array([-1.0, -2.0, 3.0])
    for state in ({}, {"all": "ignore"}, {"all": "raise"}):
        with np.errstate(**state):
            d = mpc._free_newton(H, g, np.array([True, True, False]), np.full(3, 7.0))
        assert np.array_equal(d, [1.0, 2.0, 7.0])
    # on a singular QP the fallback steps cycle between [0, 0] and [1, 1];
    # the solver stops inside the box and reports what its residual says
    H, f, lo, hi = H[:2, :2], np.array([-1.0, -1.0]), np.zeros(2), np.full(2, 2.0)
    with np.errstate(all="raise"):
        res = solve_box_qp(H, f, lo, hi, tol=1e-8)
    assert np.all(np.isfinite(res.x))
    assert np.all(0.0 <= res.x) and np.all(res.x <= 2.0)
    assert res.converged == (kkt_residual(res.x, H @ res.x + f, lo, hi) <= 1e-8)


@settings(max_examples=150, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       log_cond=st.floats(0.0, 6.0), tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
def test_solver_properties_on_random_box_qps(seed, n, log_cond, tol):
    # strictly convex box QPs with cond(H) = 10^log_cond
    rng = np.random.default_rng(seed)
    _, f, lo, hi = random_box_qp(rng, n)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = (Q * np.logspace(0.0, log_cond, n)) @ Q.T
    H = 0.5 * (H + H.T)
    qp = H, f, lo, hi
    res = solve_box_qp(*qp, tol=tol)
    # the result is in the box, so the controller does not project it again
    assert np.all(lo <= res.x) and np.all(res.x <= hi)
    assert np.clip(res.x, lo, hi).tobytes() == res.x.tobytes()
    assert res.converged == (kkt_residual(res.x, H @ res.x + f, lo, hi) <= tol)
    if res.converged and res.iterations > 0:
        # capped one iteration short, the same path stops and says so
        capped = solve_box_qp(*qp, tol=tol, max_iter=res.iterations - 1)
        assert capped.iterations == res.iterations - 1
        assert not capped.converged and capped.kkt_residual > tol
        assert np.all(lo <= capped.x) and np.all(capped.x <= hi)
        assert np.clip(capped.x, lo, hi).tobytes() == capped.x.tobytes()


def test_solver_holds_released_coordinate_pushed_outward():
    # both gradients point into the box at x = 0, but the joint Newton step
    # drives x2 below its bound; holding x2 and re-solving for x1 alone
    # reaches the optimum (1, 0) in one step
    res = solve_box_qp(np.array([[1.0, 0.9], [0.9, 1.0]]), np.array([-1.0, -0.5]),
                       np.zeros(2), np.full(2, 5.0), tol=1e-10)
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-12)


def nth_box_qp(k):
    """The k-th QP (from 0) of the stream test_solver_against_enumeration_oracle
    draws from, sizes 2..8."""
    rng = np.random.default_rng(1)
    for _ in range(k):
        random_box_qp(rng, int(rng.integers(2, 9)))
    return random_box_qp(rng, int(rng.integers(2, 9)))


@pytest.mark.parametrize("k, held, passes", [
    (123, 2, 1), (126, 2, 1), (1401, 3, 1), (1557, 3, 1), (411, 1, 2), (690, 1, 2),
])
def test_solver_hold_loop_matches_enumeration_oracle(k, held, passes, monkeypatch):
    # QPs on which one pass of the hold loop holds two or three coordinates,
    # or the loop re-solves twice in one iteration: the solver still reaches
    # the enumerated optimum, and every hold loop leaves a nonempty step
    calls = []
    newton = mpc._free_newton

    def spy(H, g, free, d):
        # d comes in zero exactly on a hold-loop re-solve
        resolve = not d.any()
        d = newton(H, g, free, d)
        calls.append((int(free.sum()), resolve, d.any()))
        return d

    monkeypatch.setattr(mpc, "_free_newton", spy)
    H, f, lo, hi = nth_box_qp(k)
    res = solve_box_qp(H, f, lo, hi, tol=1e-8, max_iter=200)
    # one (first solve, hold passes...) group per iteration
    starts = [i for i, (_, resolve, _) in enumerate(calls) if not resolve] + [len(calls)]
    groups = [calls[a:b] for a, b in zip(starts, starts[1:])]
    assert max(len(grp) - 1 for grp in groups) == passes
    assert max(before[0] - after[0] for grp in groups
               for before, after in zip(grp, grp[1:])) == held
    assert all(grp[-1][2] for grp in groups if len(grp) > 1)
    x_ref = enumerate_box_qp(H, f, lo, hi)
    assert abs(qp_objective(H, f, res.x) - qp_objective(H, f, x_ref)) < 1e-6
    assert res.kkt_residual <= 1e-6
    assert np.all(res.x >= lo - 1e-12) and np.all(res.x <= hi + 1e-12)


def test_receding_horizon_shift_property():
    # constant reference, exact model: re-solving from the predicted next
    # state reproduces the previous solution shifted by one block
    model = scalar_model(a=0.5)
    cfg = MpcConfig(Nh=20, q=(1.0,), r_weight=1.0, u_min=-10.0, u_max=10.0)
    cond = Condenser(model, cfg)
    ref = np.zeros(cfg.Nh)
    tol = 1e-10
    z0 = np.array([1.0])
    first = solve_box_qp(cond.H, cond.qp(z0, ref), cond.lower, cond.upper,
                         tol=tol, max_iter=300)
    z1 = model.A @ z0 + model.B @ first.x[:1]
    second = solve_box_qp(cond.H, cond.qp(z1, ref), cond.lower, cond.upper,
                          tol=tol, max_iter=300)
    assert np.max(np.abs(second.x[:-1] - first.x[1:])) <= 10 * tol


def test_end_effector_weight(default_cfg):
    # the arm's tracking cost weighs the end effector's position, its last two
    # outputs, by 1; the inputs share one weight and the box [0, 1]
    cfg = default_cfg.mpc_config()
    assert cfg.q == (0.0, 0.0, 1.0, 1.0)
    assert (cfg.r_weight, cfg.u_min, cfg.u_max) == (default_cfg.r_weight, 0.0, 1.0)


def test_mpc_config_validation():
    good = {"Nh": 1, "q": (1.0, 0.0), "r_weight": 1.0, "u_min": 0.0, "u_max": 1.0}
    MpcConfig(**good)
    MpcConfig(**{**good, "q": (0.0, 0.0)})  # a zero output weight is allowed
    # one ValueError naming its field; NaN fails each check
    for key, value, name in (
            ("Nh", 0, "'Nh'"), ("Nh", np.nan, "'Nh'"), ("Nh", 2.5, "'Nh'"), ("Nh", True, "'Nh'"),
            ("q", (1.0, -1e-3), "'q'"), ("q", (np.nan, 1.0), "'q'"), ("q", (1.0, np.inf), "'q'"),
            ("q", 1.0, "'q'"),
            ("r_weight", 0.0, "'r_weight'"), ("r_weight", -1.0, "'r_weight'"),
            ("r_weight", np.nan, "'r_weight'"), ("r_weight", np.inf, "'r_weight'"),
            ("u_min", 1.0, "'u_min' and 'u_max'"), ("u_min", 2.0, "'u_min' and 'u_max'"),
            ("u_min", np.nan, "'u_min'"), ("u_min", -np.inf, "'u_min'"),
            ("u_max", np.nan, "'u_max'"), ("u_max", np.inf, "'u_max'")):
        with pytest.raises(ValueError, match=f"^MpcConfig: .*{name}"):
            MpcConfig(**{**good, key: value})


def test_the_qp_stopping_rule_is_stated_once():
    # the QP's tolerance and iteration cap are MpcConfig's class constants,
    # not constructor fields, and solve_box_qp's defaults are the same two
    assert ([f.name for f in dataclasses.fields(MpcConfig)]
            == ["Nh", "q", "r_weight", "u_min", "u_max"])
    cfg = scalar_cfg()
    assert (cfg.qp_tol, cfg.qp_max_iter) == (1e-8, 100)
    defaults = solve_box_qp.__kwdefaults__
    assert (defaults["tol"], defaults["max_iter"]) == (MpcConfig.qp_tol, MpcConfig.qp_max_iter)


def test_controller_neutral_at_equilibrium():
    # model equilibrium at the origin, reference at the origin: the returned
    # input is the neutral command
    model = KoopmanModel(A=0.9 * np.eye(2), B=0.1 * np.eye(2),
                         basis=identity_basis(2, 2, 0), Ts=TS)
    cfg = MpcConfig(Nh=5, q=(1.0, 1.0), r_weight=0.01, u_min=-1.0, u_max=1.0)
    ctrl = Controller(model, cfg, np.zeros((1, 2)))
    u = ctrl.step(np.zeros(2))
    assert np.allclose(u, 0.0, atol=1e-8)
    assert ctrl.estimator is None  # p = 0 bypasses the observer


def test_controller_known_load_bypasses_estimator():
    model = fit_bilinear_model()
    cfg = scalar_cfg(Nh=4, r=0.01)
    ctrl = Controller(model, cfg, np.zeros((1, 1)), known_load=0.2)
    assert ctrl.estimator is None
    assert np.array_equal(ctrl.w_hat, [0.2])
    u = ctrl.step(np.array([0.3]))
    assert cfg.u_min <= u[0] <= cfg.u_max


def test_controller_refuses_a_bad_known_load():
    # the load must have the model's p entries, all finite, when the
    # controller is built; a p = 0 model takes no load
    cfg = scalar_cfg(Nh=4, r=0.01)
    for model, load in ((fit_bilinear_model(), [0.1, 0.2]),
                        (fit_bilinear_model(), np.nan),
                        (fit_bilinear_model(), [np.inf]),
                        (scalar_model(), 0.2)):
        with pytest.raises(ValueError, match="known_load must be"):
            Controller(model, cfg, np.zeros((1, 1)), known_load=load)


def test_controller_refuses_a_load_model_without_a_load_source():
    # a load-augmented model needs a known load or the experiment's observer
    # settings; no default observer stands in for them
    with pytest.raises(ValueError, match="known_load or est_cfg"):
        Controller(fit_bilinear_model(), scalar_cfg(Nh=4, r=0.01), np.zeros((1, 1)))


@pytest.mark.parametrize("d", [0, 1, 2])
def test_controller_embeds_its_start_up_window_and_logged_steps(d, monkeypatch):
    # the embedded output at each step is the delay embedding of a window
    # built here: step 0's output d times, d neutral inputs, then the
    # accepted outputs and the inputs returned; 30 steps outgrow the log's
    # first buffer, and a non-finite measurement leaves no row
    rng = np.random.default_rng(d)
    n, m = 2, 1
    n_z = embedded_dim(n, m, d)
    A = rng.normal(size=(n_z, n_z))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    model = KoopmanModel(A=A, B=rng.normal(size=(n_z, m)),
                         basis=identity_basis(n, m, d), Ts=TS)
    cfg = MpcConfig(Nh=3, q=(1.0,) * n, r_weight=0.1, u_min=-1.0, u_max=2.0)
    lifted, lift = [], KoopmanModel.lift

    def recording_lift(self, yd, w=None):
        lifted.append(yd.copy())
        return lift(self, yd, w)

    monkeypatch.setattr(KoopmanModel, "lift", recording_lift)
    ctrl = Controller(model, cfg, rng.normal(size=(2, n)))
    ys, us = [], []
    for k in range(31):
        y = np.full(n, np.nan) if k == 15 else rng.normal(size=n)
        u = ctrl.step(y)
        if k != 15:
            ys.append(y)
            us.append(u)
    assert ctrl.rejected == 1 and len(ctrl.logs) == len(lifted) == 30
    window_y = np.vstack([np.tile(ys[0], (d, 1)), ys])
    window_u = np.vstack([np.tile(ctrl.u_neutral, (d, 1)), us])
    for k, yd in enumerate(lifted):
        assert np.array_equal(yd, delay_embed(window_y[k:k + d + 1], window_u[k:k + d], d)[0])
    assert np.array_equal(ctrl.logs.step, np.arange(30))
    assert np.array_equal(ctrl.logs.y, ys) and np.array_equal(ctrl.logs.u, us)
    # a measurement of the wrong shape is refused, not broadcast into the log
    for bad in (np.zeros(1), np.zeros(n + 1)):
        with pytest.raises(ValueError, match="measurement must have shape"):
            ctrl.step(bad)
    assert len(ctrl.logs) == 30


def test_controller_closed_loop_estimation_schedule():
    # full loop on the exact bilinear plant: inputs stay in bounds, one
    # window estimate per Ne steps once the buffer fills, and the estimate
    # converges to the true load on exact data
    # drifted bilinear plant so the default full-stack window solve is
    # well-posed (the pure plant's constant and load columns are collinear)
    c0 = 0.05
    model = fit_bilinear_model(c0=c0)
    est_cfg = EstimatorConfig(Nw=10, Ne=5, Nr=8)
    cfg = scalar_cfg(Nh=6, r=0.01)
    w_true = 0.22
    # moving reference keeps the window non-stationary, so no scheduled
    # estimate is skipped
    ctrl = Controller(model, cfg, sine_reference(100), est_cfg=est_cfg)
    x = 0.0
    K = 60
    for k in range(K):
        u = ctrl.step(np.array([x]))
        assert cfg.u_min <= u[0] <= cfg.u_max
        x = bilinear_step(x, u[0], w_true, c0)
    # the estimator takes each step's record at the end of that step
    expected = sum(1 for j in range(K)
                   if j % est_cfg.Ne == 0 and j + 1 >= est_cfg.Nw + model.d + 1)
    assert ctrl.estimator.updates == expected
    assert abs(ctrl.w_hat[0] - w_true) < 1e-6
    # before the first estimate the controller runs on w_init
    early = [lg.w_hat[0] for lg in ctrl.logs[:est_cfg.Ne]]
    assert np.allclose(early, est_cfg.w_init[0], atol=1e-12)


def test_controller_feeds_the_observer_each_steps_record():
    # after each step the estimator's newest record is that step's measured
    # output and applied input, and it holds one record per step
    model = fit_bilinear_model(c0=0.05)
    ctrl = Controller(model, scalar_cfg(Nh=6, r=0.01), sine_reference(50),
                      est_cfg=EstimatorConfig(Nw=5, Ne=2, Nr=4))
    x = 0.0
    for k in range(1, 21):
        u = ctrl.step(np.array([x]))
        history = ctrl.estimator.history
        assert np.array_equal(history[-1], np.concatenate([ctrl.logs[-1].y, u]))
        assert len(history) == min(k, 5 + model.d + 1)
        assert ctrl.estimator.step == len(ctrl.logs) == k
        x = bilinear_step(x, u[0], 0.22, 0.05)


def test_controller_holds_input_on_non_finite_measurement(caplog):
    # a NaN measurement mid-sequence: the last input is held, no QP is
    # solved, and the controller carries on exactly as a twin that never
    # saw the NaN
    model = fit_bilinear_model(c0=0.05)
    cfg = scalar_cfg(Nh=6, r=0.01)

    def make():
        return Controller(model, cfg, sine_reference(50),
                          est_cfg=EstimatorConfig(Nw=5, Ne=2, Nr=4))

    first = make()
    assert np.array_equal(first.step(np.array([np.inf])), first.u_neutral)
    assert first.rejected == 1 and len(first.logs) == 0

    ctrl, twin = make(), make()
    x = 0.0
    for k in range(30):
        u = ctrl.step(np.array([x]))
        assert np.array_equal(u, twin.step(np.array([x])))
        if k == 12:
            with caplog.at_level("WARNING", logger="klmpc.mpc"):
                held = ctrl.step(np.array([np.nan]))
            assert np.array_equal(held, u)
            assert len(ctrl.logs) == len(twin.logs)
            assert "non-finite measurement" in caplog.text
        x = bilinear_step(x, u[0], 0.22, 0.05)
    assert ctrl.rejected == 1 and twin.rejected == 0
    assert ctrl.estimator.updates == twin.estimator.updates > 0
    assert np.array_equal(ctrl.w_hat, twin.w_hat)


def test_controller_step_refuses_a_non_finite_input(monkeypatch):
    # a QP whose plan is not finite fails the step closed: no input is
    # returned, and no step is logged or warm-starts the next
    ctrl = Controller(scalar_model(a=0.5), scalar_cfg(Nh=3), np.zeros((1, 1)))
    monkeypatch.setattr(mpc, "solve_box_qp", lambda *qp, **kw: mpc.QpResult(
        x=np.full(3, np.nan), converged=False, iterations=0, kkt_residual=np.nan))
    with pytest.raises(ValueError, match="controller step 0: .* non-finite input"):
        ctrl.step(np.array([0.1]))
    assert len(ctrl.logs) == 0 and ctrl.warm_start is None


def test_controller_step_refuses_a_huge_measurement_quietly(default_cfg, models):
    # a finite measurement too large to square lifts to inf and NaN without
    # an overflow RuntimeWarning (warnings are errors here), or, through the
    # baseline's identity lift, to a finite state whose QP linear term
    # squares to inf; every model's step fails closed with its ValueError
    # alone, before the solve
    for model, load in ((models.baseline, None), (models.koopman, None),
                        (models.koopman_load, 0.1)):
        ctrl = Controller(model, default_cfg.mpc_config(), np.zeros((10, model.n)),
                          known_load=load)
        with pytest.raises(ValueError, match="controller step 0: .* non-finite input"):
            ctrl.step(np.full(model.n, 1e200))
        assert len(ctrl.logs) == 0


def test_controller_step_refusal_names_a_huge_known_load(default_cfg, models):
    # an ordinary measurement lifted with a huge known load puts the QP's
    # linear term out of range: the refusal names the load it was lifted with
    model = models.koopman_load
    ctrl = Controller(model, default_cfg.mpc_config(), np.zeros((10, model.n)),
                      known_load=1e200)
    with pytest.raises(ValueError, match=r"at known load \[1.e\+200\] puts the QP's linear"):
        ctrl.step(np.array([0.0, -0.5, 0.0, -1.0]))
    assert len(ctrl.logs) == 0


def test_controller_reference_must_be_rows_of_outputs():
    for bad in (np.zeros(5), np.zeros((0, 1)), np.zeros((5, 2))):
        with pytest.raises(ValueError, match="reference must be"):
            Controller(scalar_model(), scalar_cfg(), bad)


def circle_rows(rows=10):
    """An arc of ``rows`` arm outputs, a reference every model can track."""
    s = np.linspace(0.0, 1.0, rows)
    return np.column_stack([np.cos(s), np.sin(s), np.zeros(rows), np.full(rows, -1.0)])


def test_controller_refuses_a_non_finite_reference(default_cfg, models):
    # refused when built, under the reference's name, not at a later step
    # under an ordinary measurement's
    for bad in (np.nan, np.inf, -np.inf):
        reference = circle_rows()
        reference[3:] = bad
        with pytest.raises(ValueError, match="reference has non-finite entries"):
            Controller(models.koopman, default_cfg.mpc_config(), reference)


@pytest.mark.parametrize("name, load", [("baseline", None), ("koopman", None),
                                        ("koopman_load", 0.1)])
def test_controller_step_refusal_names_a_huge_reference(default_cfg, models, name, load):
    # a huge finite reference puts an ordinary measurement's linear term out
    # of range: the refusal names the horizon's reference rows on every
    # model, not the measurement or the known load
    cfg = default_cfg.mpc_config()
    reference = circle_rows()
    reference[3:] = 1e200
    ctrl = Controller(getattr(models, name), cfg, reference, known_load=load)
    with pytest.raises(ValueError, match=rf"^controller step 0: reference rows 1\.\.{cfg.Nh} "
                                         r"put the QP's linear term out of range"):
        ctrl.step(np.array([0.0, -0.5, 0.0, -1.0]))
    assert len(ctrl.logs) == 0


def test_controller_keeps_its_own_copy_of_the_reference(default_cfg, models):
    # the table is checked when the controller is built, so a caller that
    # later writes NaN into its own array must not reach the steps
    table = circle_rows()
    ctrl = Controller(models.koopman, default_cfg.mpc_config(), table)
    twin = Controller(models.koopman, default_cfg.mpc_config(), table.copy())
    table[:] = np.nan
    y = np.array([0.0, -0.5, 0.0, -1.0])
    assert np.array_equal(ctrl.step(y), twin.step(y))
    assert np.array_equal(ctrl.logs.r, twin.logs.r)


def test_controller_holds_the_reference_past_its_end():
    # a 3-row reference behaves as the same rows padded with the last one
    # past every horizon
    model, cfg = scalar_model(a=0.5), scalar_cfg(Nh=4, r=0.01)
    short = sine_reference(3)
    padded = np.vstack([short, np.repeat(short[-1:], 20, axis=0)])
    ctrl, twin = Controller(model, cfg, short), Controller(model, cfg, padded)
    y = np.array([0.0])
    for _ in range(12):
        u = ctrl.step(y)
        assert np.array_equal(u, twin.step(y))
        y = model.A @ y + model.B @ u
    assert np.array_equal([lg.r for lg in ctrl.logs], [lg.r for lg in twin.logs])
    assert np.array_equal(ctrl.logs[-1].r, short[-1])


def test_step_log_keeps_copies_of_the_callers_arrays():
    # a caller that reuses its measurement buffer, or writes into the
    # returned command, leaves the log as it was when the step ran
    ctrl = Controller(scalar_model(a=0.5), scalar_cfg(Nh=3, r=0.01),
                      np.full((1, 1), 0.2))
    y = np.array([0.1])
    u = ctrl.step(y)
    logged_u = u.copy()
    y[0], u[0] = 99.0, -7.0
    assert np.array_equal(ctrl.logs[0].y, [0.1])
    assert np.array_equal(ctrl.logs[0].u, logged_u)


def test_step_log_records_a_capped_solve_as_unconverged(tmp_path, monkeypatch):
    # no iteration allowed: the first QP stops short of its optimum, and
    # the log and its CSV say so
    model = scalar_model(a=0.5)
    monkeypatch.setattr(MpcConfig, "qp_max_iter", 0)
    cfg = scalar_cfg(Nh=3, r=0.01)
    ctrl = Controller(model, cfg, np.full((1, 1), 0.2))
    ctrl.step(np.array([0.0]))
    [log] = ctrl.logs
    assert not log.converged
    assert log.kkt_residual > cfg.qp_tol and log.qp_iters == 0
    path = tmp_path / "log.csv"
    write_records(path, ctrl.logs)
    header, row = path.read_text().strip().splitlines()
    assert row.split(",")[header.split(",").index("converged")] == "0"


def test_step_log_times_the_solve_alone(monkeypatch):
    # a condensation that takes 50 ms is not counted in solve_ms
    qp = Condenser.qp

    def slow_qp(self, *args):
        time.sleep(0.05)
        return qp(self, *args)

    monkeypatch.setattr(mpc.Condenser, "qp", slow_qp)
    ctrl = Controller(scalar_model(a=0.5), scalar_cfg(Nh=3, r=0.01), np.full((1, 1), 0.2))
    for _ in range(3):
        ctrl.step(np.array([0.0]))
    assert len(ctrl.logs) == 3 and np.all(ctrl.logs.solve_ms < 50.0)


def test_step_log_csv(tmp_path):
    model = scalar_model(a=0.5)
    cfg = scalar_cfg(Nh=3, r=0.01)
    ctrl = Controller(model, cfg, np.full((1, 1), 0.2))
    y = np.array([0.0])
    for _ in range(5):
        u = ctrl.step(y)
        y = model.A @ y + model.B @ u
    path = tmp_path / "log.csv"
    write_records(path, ctrl.logs)
    lines = path.read_text().strip().splitlines()
    # p = 0: no w_hat columns
    assert lines[0] == "step,t,y1,r1,u1,qp_iters,converged,kkt_residual,solve_ms"
    assert len(lines) == 6
    assert all(lg.converged for lg in ctrl.logs)
    assert [line.split(",")[6] for line in lines[1:]] == ["1"] * 5
    with pytest.raises(ValueError):
        write_records(tmp_path / "empty.csv", [])
    # a synthetic record: a (0,) field gives no column, a (2,) field two, and
    # an int and a bool are written as floats; every cell reads back exactly
    rng = np.random.default_rng(4)
    records = np.recarray(3, dtype=[("none", float, (0,)), ("pair", float, (2,)),
                                    ("count", int), ("flag", bool), ("x", float)])
    records.pair = rng.normal(size=(3, 2)) * 10.0 ** rng.integers(-300, 300, size=(3, 2))
    records.count = [0, -7, 2**52 + 1]
    records.flag = [True, False, True]
    records.x = [np.pi, -0.0, 5e-324]
    path = tmp_path / "records.csv"
    write_records(path, records)
    header, *rows = path.read_text().strip().splitlines()
    assert header == "pair1,pair2,count,flag,x"
    assert rows[1].split(",")[2:4] == ["-7", "0"]
    table = np.array([[float(c) for c in row.split(",")] for row in rows])
    assert np.array_equal(table[:, :2], records.pair)
    assert np.array_equal(table[:, 2], records.count)
    assert np.array_equal(table[:, 3], records.flag)
    assert np.array_equal(table[:, 4], records.x) and np.signbit(table[1, 4])
