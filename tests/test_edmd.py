"""Snapshot assembly and EDMD fitting: exact recovery on linear and bilinear
plants, structural invariants of the extracted (A, B, C), and persistence.
"""

import numpy as np
import pytest

from klmpc import edmd
from klmpc.edmd import (
    KoopmanModel,
    Trajectory,
    assemble_snapshots,
    fit_koopman,
    fit_linear_baseline,
    one_step_rmse,
    predict_one_step,
)
from klmpc.lifting import identity_basis, lift_g

from oracles import bilinear_basis, fit_bilinear_model, simulate_bilinear

TS = 0.05


def linear_trajectory(A, B, K, rng, x0=None):
    n, m = A.shape[0], B.shape[1]
    x = rng.normal(size=n) if x0 is None else np.asarray(x0, dtype=float)
    ys = np.zeros((K, n))
    us = rng.uniform(-1.0, 1.0, size=(K, m))
    for k in range(K):
        ys[k] = x
        x = A @ x + B @ us[k]
    return Trajectory(t=np.arange(K) * TS, y=ys, u=us)


def test_snapshot_count_minimal():
    rng = np.random.default_rng(0)
    traj = linear_trajectory(np.eye(1) * 0.5, np.eye(1), 3, rng)
    assert assemble_snapshots([traj], d=1)[0].shape == (1, 3)
    assert assemble_snapshots([traj], d=0)[0].shape == (2, 1)


def test_snapshots_never_straddle_trajectories():
    rng = np.random.default_rng(1)
    t1 = linear_trajectory(np.eye(1) * 0.5, np.eye(1), 10, rng)
    t2 = linear_trajectory(np.eye(1) * 0.5, np.eye(1), 6, rng)
    a, b, U, W = assemble_snapshots([t1, t2], d=1)
    assert a.shape[0] == b.shape[0] == U.shape[0] == (10 - 2) + (6 - 2)
    assert W is None
    # the last pair of the first run ends on that run's last sample, and the
    # second run starts from its own first embedding
    assert np.array_equal(b[7], [t1.y[9, 0], t1.y[8, 0], t1.u[8, 0]])
    assert np.array_equal(a[8], [t2.y[1, 0], t2.y[0, 0], t2.u[0, 0]])
    assert np.array_equal(U[8], t2.u[1])


def test_snapshot_b_is_next_a():
    rng = np.random.default_rng(2)
    traj = linear_trajectory(np.eye(2) * 0.8, np.ones((2, 1)), 12, rng)
    for d in (0, 1, 2):
        a, b, U, _ = assemble_snapshots([traj], d)
        assert np.array_equal(b[:-1], a[1:])
        assert np.array_equal(U, traj.u[d:-1])


def test_snapshot_loads_repeat_per_row():
    rng = np.random.default_rng(12)
    runs = [simulate_bilinear(w, 6, rng) for w in (0.1, 0.25)]
    _, _, _, W = assemble_snapshots(runs, d=1)
    assert np.array_equal(W[:, 0], [0.1] * 4 + [0.25] * 4)
    unannotated = Trajectory(t=runs[0].t, y=runs[0].y, u=runs[0].u)
    assert assemble_snapshots([runs[0], unannotated], d=1)[3] is None


def test_assemble_rejects_bad_trajectories():
    rng = np.random.default_rng(3)
    short = linear_trajectory(np.eye(1) * 0.5, np.eye(1), 2, rng)
    with pytest.raises(ValueError):
        assemble_snapshots([short], d=1)
    bad_t = Trajectory(t=np.array([0.0, 0.05, 0.2]), y=np.zeros((3, 1)),
                       u=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        assemble_snapshots([bad_t], d=0)


def test_exact_recovery_scalar():
    # x+ = 0.9 x + 0.1 u recovered exactly from noiseless data
    rng = np.random.default_rng(4)
    traj = linear_trajectory(np.array([[0.9]]), np.array([[0.1]]), 50, rng)
    snaps = assemble_snapshots([traj], d=0)
    model = fit_koopman(snaps, identity_basis(1, 1, 0), TS)
    assert abs(model.A[0, 0] - 0.9) < 1e-8
    assert abs(model.B[0, 0] - 0.1) < 1e-8


def test_rank_deficient_fit_warns_and_stays_finite(caplog):
    # a duplicated input column makes the lifted data matrix rank-deficient:
    # the fit says so and falls back on the pseudoinverse's minimum-norm
    # solution, which splits the input gain evenly over the copies
    rng = np.random.default_rng(6)
    traj = linear_trajectory(np.array([[0.9]]), np.array([[0.1]]), 50, rng)
    traj = Trajectory(t=traj.t, y=traj.y, u=np.hstack([traj.u, traj.u]))
    with caplog.at_level("WARNING", logger="klmpc.edmd"):
        model = fit_koopman(assemble_snapshots([traj], d=0),
                            identity_basis(1, 2, 0), TS)
    assert "rank-deficient (2 < 3)" in caplog.text
    assert np.all(np.isfinite(model.A)) and np.all(np.isfinite(model.B))
    assert abs(model.A[0, 0] - 0.9) < 1e-8
    assert np.allclose(model.B, [[0.05, 0.05]], atol=1e-8)


def test_fit_factors_data_matrix_once(monkeypatch):
    # the rank check reads the singular values of the pseudoinverse's own
    # SVD: one factorisation of Psi_a per fit, and no matrix_rank
    rng = np.random.default_rng(6)
    traj = linear_trajectory(np.array([[0.9]]), np.array([[0.1]]), 50, rng)
    snaps = assemble_snapshots([traj], d=0)
    want = fit_koopman(snaps, identity_basis(1, 1, 0), TS)
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    def no_rank(*args, **kwargs):
        raise AssertionError("the fit must not factor Psi_a a second time")

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "matrix_rank", no_rank)
    got = fit_koopman(snaps, identity_basis(1, 1, 0), TS)
    assert calls == [(snaps[0].shape[0], 2)]
    assert np.array_equal(got.A, want.A) and np.array_equal(got.B, want.B)


def test_exact_recovery_multivariate():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(4, 2))
    trajs = [linear_trajectory(A, B, 30, rng) for _ in range(3)]
    model = fit_linear_baseline(assemble_snapshots(trajs, d=0), n=4, m=2,
                                d=0, Ts=TS)
    assert np.linalg.norm(model.A - A) < 1e-8
    assert np.linalg.norm(model.B - B) < 1e-8
    assert model.bottom_block_residual < 1e-8


def test_frozen_system_gives_identity():
    # b == a with zero input for varied states: the fit must be the identity
    x = np.array([[1.0], [-2.0], [0.5], [3.0]])
    model = fit_koopman((x, x, np.zeros((4, 1)), None), identity_basis(1, 1, 0), TS)
    assert abs(model.A[0, 0] - 1.0) < 1e-8
    assert abs(model.B[0, 0]) < 1e-8


def test_duplicate_snapshots_invariance():
    rng = np.random.default_rng(6)
    traj = linear_trajectory(np.array([[0.7]]), np.array([[0.3]]), 30, rng)
    snaps = assemble_snapshots([traj], d=0)
    m1 = fit_koopman(snaps, identity_basis(1, 1, 0), TS)
    twice = tuple(np.vstack([side, side]) for side in snaps[:3]) + (None,)
    m2 = fit_koopman(twice, identity_basis(1, 1, 0), TS)
    assert np.allclose(m1.A, m2.A, atol=1e-8)
    assert np.allclose(m1.B, m2.B, atol=1e-8)


def test_output_matrix_is_projection():
    model = fit_bilinear_model()
    n = model.n
    assert np.array_equal(model.C[:, :n], np.eye(n))
    assert np.array_equal(model.C[:, n:], np.zeros((n, model.n_z - n)))
    # C @ lift == the leading output coordinates, exactly
    yd = np.array([0.37])
    assert np.array_equal(model.C @ model.lift(yd, 0.1), yd)


def test_bilinear_heldout_one_step():
    model = fit_bilinear_model()
    rng = np.random.default_rng(99)
    held = simulate_bilinear(0.15, 60, rng)
    assert one_step_rmse(model, [held]) < 1e-8


def test_one_step_rmse_matches_per_snapshot_loop(models):
    # the batched prediction reorders sums, so agreement is to a few ulps
    held = models.holdout[:2]
    for model in (models.baseline, models.koopman, models.koopman_load):
        err2, count = 0.0, 0
        for a, b, u, w in zip(*assemble_snapshots(held, model.d)):
            pred = predict_one_step(model, a, u, w if model.p else None)
            err2 += float(np.sum((pred - b[: model.n]) ** 2))
            count += model.n
        assert one_step_rmse(model, held) == pytest.approx(np.sqrt(err2 / count),
                                                           rel=1e-12)


def test_fit_requires_enough_snapshots():
    rng = np.random.default_rng(7)
    traj = linear_trajectory(np.array([[0.9]]), np.array([[0.1]]), 2, rng)
    snaps = assemble_snapshots([traj], d=0)  # 1 snapshot < n_z + m = 2
    with pytest.raises(ValueError):
        fit_koopman(snaps, identity_basis(1, 1, 0), TS)
    empty = (np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 1)), None)
    with pytest.raises(ValueError):
        fit_koopman(empty, identity_basis(1, 1, 0), TS)


def test_with_load_requires_annotations():
    rng = np.random.default_rng(8)
    traj = linear_trajectory(np.array([[0.9]]), np.array([[0.1]]), 20, rng)
    snaps = assemble_snapshots([traj], d=0)
    with pytest.raises(ValueError):
        fit_koopman(snaps, bilinear_basis(), TS, with_load=True)


def test_baseline_dimension():
    rng = np.random.default_rng(9)
    A = np.eye(4) * 0.5
    B = np.ones((4, 2)) * 0.1
    trajs = [linear_trajectory(A, B, 30, rng) for _ in range(2)]
    model = fit_linear_baseline(assemble_snapshots(trajs, d=1), n=4, m=2,
                                d=1, Ts=TS)
    assert model.n_z == 4 + (4 + 2) * 1
    assert model.p == 0


def test_predict_one_step_identity_model():
    basis = identity_basis(2, 1, 0)
    model = KoopmanModel(A=np.eye(2), B=np.zeros((2, 1)),
                         C=np.hstack([np.eye(2), np.zeros((2, 0))]),
                         basis=basis, Ts=TS)
    yd = np.array([1.5, -0.5])
    assert np.array_equal(predict_one_step(model, yd, 0.3), yd)


def test_lift_requires_load_when_augmented():
    model = fit_bilinear_model()
    with pytest.raises(ValueError):
        model.lift(np.array([0.1]))


def test_model_json_round_trip(tmp_path):
    model = fit_bilinear_model()
    path = tmp_path / "model.json"
    edmd.save_model(model, path)
    loaded = edmd.load_model(path)
    assert np.array_equal(loaded.A, model.A)
    assert np.array_equal(loaded.B, model.B)
    assert np.array_equal(loaded.C, model.C)
    assert loaded.p == model.p and loaded.Ts == model.Ts
    yd = np.array([0.7])
    assert np.array_equal(loaded.lift(yd, 0.1), model.lift(yd, 0.1))


def test_model_missing_key_names_it():
    doc = edmd.model_to_dict(fit_bilinear_model())
    del doc["C"]
    with pytest.raises(ValueError, match="'C'"):
        edmd.model_from_dict(doc)
    doc = edmd.model_to_dict(fit_bilinear_model())
    del doc["basis"]["quad_pairs"]
    with pytest.raises(ValueError, match="'quad_pairs'"):
        edmd.model_from_dict(doc)


def test_trajectory_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    trajs = [simulate_bilinear(w, 8, rng) for w in (0.0, 0.25)]
    path = tmp_path / "data.csv"
    edmd.save_trajectories(trajs, path)
    loaded = edmd.load_trajectories(path)
    assert len(loaded) == 2
    for orig, back in zip(trajs, loaded):
        assert np.array_equal(orig.t, back.t)
        assert np.array_equal(orig.y, back.y)
        assert np.array_equal(orig.u, back.u)
        assert np.array_equal(orig.w, back.w)


def test_trajectory_ts_validation():
    with pytest.raises(ValueError):
        Trajectory(t=np.array([0.0]), y=np.zeros((1, 1)), u=np.zeros((1, 1))).Ts
