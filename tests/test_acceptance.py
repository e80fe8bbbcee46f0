"""Acceptance gate: nine end-to-end criteria, each printing one PASS/FAIL
line (repeated in the terminal summary) with its measured numbers.
"""

import dataclasses
import filecmp
import time

import numpy as np

import conftest
from klmpc.edmd import assemble_snapshots, fit_linear_baseline, one_step_rmse
from klmpc.mpc import Condenser, solve_box_qp
from klmpc.observer import EstimatorConfig, estimate_window
from klmpc.plant import ArmParams, energy, step_zoh
from klmpc.harness import (fit_models, run_experiment1, run_experiment2, run_experiment4,
                           tracking_table)

from oracles import (
    enumerate_box_qp,
    fit_bilinear_model,
    qp_objective,
    random_box_qp,
    simulate_bilinear,
)
from test_edmd import linear_campaign
from test_observer import history_for


def record(name, passed, detail):
    line = f"{name}: {'PASS' if passed else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def test_ac1_exact_linear_recovery():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    A *= 0.85 / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(4, 2))
    t0 = time.perf_counter()
    campaign = linear_campaign(A, B, 101, rng, runs=2)  # 200 snapshots
    model = fit_linear_baseline(campaign, d=0, Ts=0.05)
    elapsed = time.perf_counter() - t0
    err = float(np.linalg.norm(model.A - A) + np.linalg.norm(model.B - B))
    pairs = len(assemble_snapshots(*campaign, d=0))
    record("AC-1", err < 1e-8 and pairs == 200 and elapsed < 1.0,
           f"(A,B) error {err:.2e} from 200 snapshots in {elapsed:.2f} s")


def test_ac2_exact_augmented_recovery():
    model = fit_bilinear_model()
    rng = np.random.default_rng(1)
    held = simulate_bilinear((0.15,), 80, rng)
    pred_err = one_step_rmse(model, held)
    # the pure oracle's constant and load columns are collinear, so the
    # solve pins the constant coefficient at 1 on this plant
    w_hat = estimate_window(model, history_for(0.15, 31, rng), EstimatorConfig(Nw=30))
    est_err = abs(w_hat[0] - 0.15) if w_hat is not None else float("inf")
    record("AC-2",
           pred_err < 1e-8 and est_err < 1e-8,
           f"held-out one-step error {pred_err:.2e}, "
           f"window-estimate error {est_err:.2e}")


def test_ac3_model_ordering(default_cfg):
    t0 = time.perf_counter()
    ms = fit_models(default_cfg)
    r_l = one_step_rmse(ms.baseline, ms.holdout)
    r_k = one_step_rmse(ms.koopman, ms.holdout)
    r_kl = one_step_rmse(ms.koopman_load, ms.holdout)
    elapsed = time.perf_counter() - t0
    gap_kl = 1.0 - r_kl / r_k
    gap_k = 1.0 - r_k / r_l
    record("AC-3",
           r_kl < r_k < r_l and gap_kl >= 0.05 and gap_k >= 0.05
           and elapsed < 120.0,
           f"holdout RMSE KL {r_kl:.5f} < K {r_k:.5f} < L {r_l:.5f} "
           f"(gaps {100 * gap_kl:.1f}%, {100 * gap_k:.1f}%) in {elapsed:.0f} s")


def test_ac4_observer_convergence(default_cfg, models):
    t0 = time.perf_counter()
    traces = run_experiment2(default_cfg, models=models, duration=16.0)
    elapsed = time.perf_counter() - t0
    errors = []
    for trace in traces:
        k15 = int(np.searchsorted(trace.t, 15.0))
        errors.append(abs(trace.w_hat[k15] - trace.payload))
    detail = ", ".join(f"{1000 * e:.1f} g" for e in errors)
    record("AC-4", max(errors) < 0.025 and elapsed < 60.0,
           f"|w_hat - w| at 15 s: {detail} (limit 25 g) in {elapsed:.0f} s")


def test_ac5_tracking_improvement(default_cfg, models):
    t0 = time.perf_counter()
    _, rows = tracking_table(run_experiment1(default_cfg, models=models))
    elapsed = time.perf_counter() - t0
    _, kl_mean, kl_std = rows["KL-MPC"]
    _, k_mean, k_std = rows["K-MPC"]
    mean_ratio, std_ratio = kl_mean / k_mean, kl_std / k_std
    record("AC-5", mean_ratio <= 0.80 and std_ratio <= 0.50 and elapsed < 600.0,
           f"KL/K mean ratio {mean_ratio:.3f} (limit 0.80), "
           f"std ratio {std_ratio:.3f} (limit 0.50) in {elapsed:.0f} s")


def test_ac6_sorting(default_cfg, models):
    t0 = time.perf_counter()
    per_seed = []
    for seed in (0, 5):
        cfg = dataclasses.replace(default_cfg, seed=seed)
        outcomes = run_experiment4(cfg, models=models)
        per_seed.append(sum(o.success for o in outcomes))
    elapsed = time.perf_counter() - t0
    record("AC-6", all(ok == 5 for ok in per_seed) and elapsed < 300.0,
           f"sorted {per_seed[0]}/5 (seed 0) and {per_seed[1]}/5 (seed 5) "
           f"in {elapsed:.0f} s")


def test_ac7_qp_solver_soundness(default_cfg, models):
    rng = np.random.default_rng(2)
    worst_obj, worst_kkt = 0.0, 0.0
    for _ in range(500):
        H, f, lo, hi = random_box_qp(rng, int(rng.integers(2, 13)))
        res = solve_box_qp(H, f, lo, hi, tol=1e-8, max_iter=200)
        x_ref = enumerate_box_qp(H, f, lo, hi)
        worst_obj = max(worst_obj,
                        abs(qp_objective(H, f, res.x) - qp_objective(H, f, x_ref)))
        worst_kkt = max(worst_kkt, res.kkt_residual)
    # timing at the production dimension: Nh = 12, m = 2 -> 24 variables
    cond = Condenser(models.koopman_load, default_cfg.mpc_config())
    z0 = models.koopman_load.lift(np.concatenate(
        [[0.0, -0.5, 0.0, -1.0], [0.0, -0.5, 0.0, -1.0], [0.5, 0.5]]), 0.1)
    ref = np.tile([0.0, 0.0, 0.05, -0.95], default_cfg.Nh)
    f = cond.qp(z0, ref)
    times = []
    for _ in range(100):
        t0 = time.perf_counter()
        solve_box_qp(cond.H, f, cond.lower, cond.upper, tol=1e-8, max_iter=100)
        times.append(time.perf_counter() - t0)
    per_solve_ms = 1e3 * float(np.median(times))
    record("AC-7",
           worst_obj < 1e-6 and worst_kkt <= 1e-6 and per_solve_ms < 5.0,
           f"500 QPs: max objective gap {worst_obj:.2e}, max KKT "
           f"{worst_kkt:.2e}; dim-24 solve {per_solve_ms:.2f} ms (limit 5 ms)")


def test_ac8_integrator_validity():
    params = ArmParams(k=0.0, c=0.0, noise_std=0.0)
    q, w = np.array([0.5, -0.3, 0.2, -0.1]), 0.1
    e0 = energy(q, params, w)
    drift = 0.0
    for _ in range(200):  # 10 s at Ts = 0.05, h = 0.005
        q, _ = step_zoh(q, np.array([0.5, 0.5]), params, w)
        drift = max(drift, abs(energy(q, params, w) - e0))
    eq = np.zeros(4)
    for _ in range(40):
        eq, _ = step_zoh(eq, np.array([0.5, 0.5]),
                         ArmParams(noise_std=0.0), 0.0)
    eq_err = float(np.max(np.abs(eq)))
    record("AC-8", drift < 1e-6 and eq_err < 1e-12,
           f"energy drift {drift:.2e} J over 10 s (limit 1e-6), "
           f"equilibrium drift {eq_err:.1e} (limit 1e-12)")


def test_ac9_determinism(default_cfg, models, tmp_path):
    produced = []
    for rerun in ("first", "second"):
        outdir = tmp_path / rerun
        run_experiment1(default_cfg, models, payloads=(0.125,), duration=5.0, outdir=outdir)
        run_experiment2(default_cfg, models, payloads=(0.125,), duration=8.0, outdir=outdir)
        produced.append(sorted(p.name for p in outdir.iterdir()))
    assert produced[0] == produced[1]
    identical = all(
        filecmp.cmp(tmp_path / "first" / name, tmp_path / "second" / name,
                    shallow=False)
        for name in produced[0])
    record("AC-9", identical and len(produced[0]) >= 3,
           f"{len(produced[0])} output files byte-identical across reruns")
