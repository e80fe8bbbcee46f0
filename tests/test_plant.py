"""Simulated arm: equilibrium and hand-solved dynamics oracles, integrator
convergence and energy conservation, output geometry, the integrator against
its row-wise oracle and batched against row-by-row evaluation, and the data
campaign.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klmpc.plant import (
    ArmParams,
    Run,
    W_MAX,
    collect_training_data,
    drive,
    dynamics,
    energy,
    excitation,
    mass_matrix,
    ramp_and_hold,
    step_zoh,
)

from oracles import (
    reference_advance,
    reference_campaign,
    reference_dynamics,
    reference_positions,
    reference_run,
)


def hold(u):
    """Policy that holds one command."""
    return lambda k, y: np.asarray(u, dtype=float)


def test_params_validation():
    ArmParams(k=0.0, c=0.0)  # conservative configuration is allowed
    with pytest.raises(ValueError):
        ArmParams(L1=0.0)
    with pytest.raises(ValueError):
        ArmParams(Ts=-0.05)
    with pytest.raises(ValueError):
        ArmParams(k=-1.0)
    with pytest.raises(ValueError):
        ArmParams(noise_std=-1e-3)
    with pytest.raises(ValueError):
        ArmParams(substeps=0)
    # NaN fails every range check, naming the field
    for name in ("L1", "Ts", "k", "c", "noise_std"):
        with pytest.raises(ValueError, match=f"'{name}'"):
            ArmParams(**{name: float("nan")})


def test_state_payload_bounds():
    params = ArmParams()

    def run(w):
        return Run(w, np.random.default_rng(0), 1, hold([0.5, 0.5]))

    drive(params, [run(W_MAX)])
    with pytest.raises(ValueError):
        drive(params, [run(0.1), run(W_MAX + 1e-6)])
    with pytest.raises(ValueError):
        drive(params, [run(-1e-6)])
    with pytest.raises(ValueError):
        drive(params, [run(float("nan"))])


def test_hanging_equilibrium_derivative_zero():
    params = ArmParams()
    for w in (0.0, 0.15, 0.3):
        dq = dynamics(np.zeros(4), np.zeros(2), params, w)
        assert np.allclose(dq, 0.0, atol=1e-15)


def test_torque_response_hand_solve():
    # theta = omega = 0, tau = (1, 0): alpha = M(0)^{-1} (1, 0)
    params = ArmParams()
    w = 0.1
    dq = dynamics(np.zeros(4), np.array([1.0, 0.0]), params, w)
    m2p = params.m2 + w
    M0 = np.array([
        [(params.m1 + m2p) * params.L1**2, m2p * params.L1 * params.L2],
        [m2p * params.L1 * params.L2, m2p * params.L2**2],
    ])
    alpha = np.linalg.solve(M0, np.array([1.0, 0.0]))
    assert np.allclose(dq[:2], 0.0, atol=1e-15)
    assert np.allclose(dq[2:], alpha, atol=1e-12)


def test_mass_matrix_positive_definite():
    rng = np.random.default_rng(0)
    params = ArmParams()
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, size=4)
        M = mass_matrix(q, params, float(rng.uniform(0.0, 0.3)))
        assert np.all(np.linalg.eigvalsh(M) > 0)


def test_neutral_input_fixes_equilibrium():
    params = ArmParams(noise_std=0.0)
    q = np.zeros(4)
    for _ in range(20):
        q, y = step_zoh(q, np.array([0.5, 0.5]), params, 0.0)
    assert np.allclose(q, 0.0, atol=1e-12)
    assert np.allclose(y, [0.0, -0.5, 0.0, -1.0], atol=1e-12)


def test_energy_conservation():
    # k = c = 0, tau = 0 (u = 0.5): drift < 1e-6 J over 10 s at h = 0.005
    params = ArmParams(k=0.0, c=0.0, noise_std=0.0, Ts=0.05, substeps=10)
    q, w = np.array([0.5, -0.3, 0.2, -0.1]), 0.1
    e0 = energy(q, params, w)
    drift = 0.0
    for _ in range(200):
        q, _ = step_zoh(q, np.array([0.5, 0.5]), params, w)
        drift = max(drift, abs(energy(q, params, w) - e0))
    assert drift < 1e-6


def test_substep_halving_convergence():
    # 4th-order integrator: halving the substep changes a 5 s run by < 1e-7
    base = ArmParams(noise_std=0.0, substeps=10)
    fine = dataclasses.replace(base, substeps=20)
    rng = np.random.default_rng(1)
    policy = ramp_and_hold(rng, m=2, Ts=base.Ts)
    us = [np.clip(next(policy), 0.0, 1.0) for _ in range(100)]
    q1 = q2 = np.zeros(4)
    for u in us:
        q1, _ = step_zoh(q1, u, base, 0.2)
        q2, _ = step_zoh(q2, u, fine, 0.2)
    assert np.max(np.abs(q1 - q2)) < 1e-7


def test_output_geometry_invariants():
    params = ArmParams(noise_std=0.0)
    rng = np.random.default_rng(2)
    policy = ramp_and_hold(rng, m=2, Ts=params.Ts)
    q = np.zeros(4)
    for _ in range(100):
        q, y = step_zoh(q, np.clip(next(policy), 0.0, 1.0), params, 0.25)
        p1, p2 = y[:2], y[2:]
        assert np.linalg.norm(p1) <= params.L1 + 1e-9
        assert np.linalg.norm(p2 - p1) <= params.L2 + 1e-9
        tip = params.L1 * np.array([np.sin(q[0]), -np.cos(q[0])])
        assert np.allclose(p1, tip, atol=1e-15)
        assert np.allclose(p2, tip + params.L2 * np.array([np.sin(q[1]), -np.cos(q[1])]),
                           atol=1e-15)


def test_command_bounds_enforced():
    params = ArmParams()
    with pytest.raises(ValueError):
        step_zoh(np.zeros(4), np.array([1.2, 0.5]), params, 0.0)
    with pytest.raises(ValueError):
        step_zoh(np.zeros(4), np.array([0.5, -0.1]), params, 0.0)


def test_non_finite_commands_rejected():
    params = ArmParams()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            step_zoh(np.zeros(4), np.array([bad, 0.5]), params, 0.0)
    q = np.array([0.1, -0.2, 0.3, 0.0])
    before = q.copy()
    with pytest.raises(ValueError):
        step_zoh(q, np.array([0.5, np.nan]), params, 0.1)
    assert np.array_equal(q, before)  # the plant does not move on a rejected command
    with pytest.raises(ValueError):
        drive(params, [Run(0.1, np.random.default_rng(0), 3, hold([0.5, np.nan]))])


_rows = st.lists(
    st.tuples(*[st.floats(-3.0, 3.0) for _ in range(4)],   # theta1, theta2, omega1, omega2
              st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),  # tau1, tau2
              st.floats(0.0, W_MAX)),                      # payload
    min_size=1, max_size=16)


@settings(max_examples=60, deadline=None, database=None)
@given(_rows)
# om2**2 on a numpy scalar calls pow(), which glibc rounds one ulp off x*x
# at this state; a lone state must still square exactly, as a stack does
@example([(1.2960441655458848, -2.354641815204415, -0.8767878576175852, 2.4226847631984496,
           0.5983013973583118, 1.4704700824657504, 0.26893820958353504)])
def test_batched_dynamics_matches_rows(rows):
    params = ArmParams()
    data = np.array(rows)
    q, tau, w = data[:, :4], data[:, 4:6], data[:, 6]
    batched = dynamics(q, tau, params, w)
    single = np.array([dynamics(q[i], tau[i], params, w[i]) for i in range(len(rows))])
    assert np.array_equal(batched, single)


@pytest.mark.parametrize("B, per_row", [
    (None, False), (1, False), (1, True), (2, False), (2, True), (21, False), (21, True),
])
def test_integrator_matches_row_wise_oracle(B, per_row):
    # one (4,) state or a (B, 4) stack with a scalar or per-row payload: the
    # derivative and 20 sample periods from random states equal the row-wise
    # RK4 bit for bit (B = 2 is the batch as long as the joint axis)
    params = ArmParams(k=1.0, c=0.3)
    rng = np.random.default_rng(B or 0)
    shape = () if B is None else (B,)
    q = rng.uniform(-3.0, 3.0, shape + (4,))
    w = rng.uniform(0.0, W_MAX, shape) if per_row else 0.175
    tau = rng.uniform(-params.tau_max, params.tau_max, shape + (2,))
    assert np.array_equal(dynamics(q, tau, params, w), reference_dynamics(q, tau, params, w))
    want = q
    for _ in range(20):
        u = rng.uniform(0.0, 1.0, shape + (2,))
        q, y = step_zoh(q, u, params, w)
        want = reference_advance(want, u, params, w)
        assert q.shape == want.shape and np.array_equal(q, want)
        assert np.array_equal(np.reshape(y, (-1, 4)),
                              [reference_positions(row, params) for row in np.reshape(q, (-1, 4))])


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(*[st.floats(-3.0, 3.0) for _ in range(4)],  # state
                          st.floats(0.0, 1.0), st.floats(0.0, 1.0),   # command
                          st.floats(0.0, W_MAX)),                     # payload
                min_size=1, max_size=16))
@example([(-2.350986451755757, 2.001792965522819, -2.350986451755757, 0.0, 0.0, 0.0, 1e-12)])
def test_step_zoh_matches_row_wise_oracle(rows):
    params = ArmParams()
    data = np.array(rows)
    q, u, w = data[:, :4], data[:, 4:6], data[:, 6]
    tau = params.tau_max * (2.0 * u - 1.0)
    assert np.array_equal(step_zoh(q, u, params, w)[0], reference_advance(q, u, params, w))
    assert np.array_equal(dynamics(q, tau, params, w), reference_dynamics(q, tau, params, w))
    # the first row alone takes the (4,) path
    assert np.array_equal(step_zoh(q[0], u[0], params, w[0])[0],
                          reference_advance(q[0], u[0], params, w[0]))


def test_collect_training_data_matches_run_by_run():
    params = ArmParams(k=1.0, c=0.3)
    loads = [0.05, 0.25]
    # one campaign; then campaigns of different lengths, trials and seeds,
    # whose shorter runs leave the batch first whichever order they come in;
    # last, the longest campaign has no runs and must not hold the batch open
    for campaigns in ([(2, 2.0, 4)],
                      [(1, 1.0, 7), (2, 2.0, 4)],
                      [(2, 2.0, 4), (1, 1.0, 7), (3, 1.5, 11)],
                      [(0, 3.0, 1), (1, 1.0, 7), (2, 2.0, 4)]):
        got = collect_training_data(params, loads, campaigns)
        want = reference_campaign(params, loads, campaigns)
        assert len(got) == len(want) == len(campaigns)
        for (trials, duration, _), trajs, runs in zip(campaigns, got, want):
            assert len(trajs) == len(runs) == trials * len(loads)
            for traj, (ys, us) in zip(trajs, runs):
                assert len(traj) == int(round(duration / params.Ts)) + 1
                assert np.array_equal(traj.y, ys)
                assert np.array_equal(traj.u, us)
    # `drive` under the campaigns: runs of unequal lengths (one of none),
    # with open-loop and feedback policies, each drawing its policy and its
    # noise from separate generators, leave the batch as they end and equal
    # each run driven alone and the hand-written one-run loop
    specs = [(0.05, 3, 1), (0.3, 17, 2), (0.0, 0, 3), (0.15, 9, 4), (0.2, 17, 5)]

    def make(w, steps, seed):
        policy = excitation(np.random.default_rng(seed + 100), params.Ts)
        if seed % 2:
            excite = policy
            policy = lambda k, y: np.clip(excite(k, y) + 5.0 * y[[0, 2]], 0.0, 1.0)
        return Run(w, np.random.default_rng(seed), steps, policy)

    batch = drive(params, [make(*spec) for spec in specs])
    for spec, (Y, U) in zip(specs, batch, strict=True):
        [(Y1, U1)] = drive(params, [make(*spec)])
        run = make(*spec)
        Y2, U2 = reference_run(params, run.w, run.steps, run.rng, run.policy)
        assert Y.shape == (spec[1] + 1, 4) and U.shape == (spec[1], 2)
        assert np.array_equal(Y, Y1) and np.array_equal(U, U1)
        assert np.array_equal(Y, Y2) and np.array_equal(U, U2)


def test_noiseless_determinism():
    params = ArmParams(noise_std=0.0)
    runs = [drive(params, [Run(0.1, np.random.default_rng(7), 30, hold([0.7, 0.3]))])[0][0]
            for _ in range(2)]
    assert np.array_equal(runs[0], runs[1])


def test_seeded_noise_determinism():
    params = ArmParams(noise_std=1e-3)
    a, b = drive(params, [Run(0.1, np.random.default_rng(5), 10, hold([0.6, 0.4]))
                          for _ in range(2)])
    assert np.array_equal(a[0], b[0])


def test_payload_monotonicity():
    # heavier payloads observably slow the arm: the mean (and peak) link-1
    # deflection over 2 s of u = (0.8, 0.8) decreases strictly with w
    # (the single final sample is oscillation-phase sensitive)
    params = ArmParams(noise_std=0.0)
    means, peaks = [], []
    for w in (0.0, 0.15, 0.3):
        q = np.zeros(4)
        th1 = []
        for _ in range(40):
            q, _ = step_zoh(q, np.array([0.8, 0.8]), params, w)
            th1.append(abs(q[0]))
        means.append(np.mean(th1))
        peaks.append(np.max(th1))
    assert means[0] > means[1] > means[2]
    assert peaks[0] > peaks[1] > peaks[2]


def test_collect_training_data_shape():
    params = ArmParams()
    [trajs] = collect_training_data(params, [0.1], [(1, 1.0, 0)])
    assert len(trajs) == 1
    traj = trajs[0]
    assert len(traj) == 21  # 1 s at Ts = 0.05 inclusive of both endpoints
    assert traj.Ts == pytest.approx(params.Ts)
    assert np.array_equal(traj.w, [0.1])


def test_collect_training_data_structure():
    params = ArmParams()
    [trajs] = collect_training_data(params, [0.0, 0.2], [(2, 2.0, 3)])
    assert len(trajs) == 4
    for traj in trajs:
        assert np.all(traj.u >= 0.0) and np.all(traj.u <= 1.0)
        assert traj.w.shape == (1,)
    # distinct trials explore distinct inputs
    assert not np.array_equal(trajs[0].u, trajs[1].u)


def test_collect_training_data_deterministic():
    params = ArmParams()
    [a] = collect_training_data(params, [0.05], [(1, 1.0, 9)])
    [b] = collect_training_data(params, [0.05], [(1, 1.0, 9)])
    assert np.array_equal(a[0].y, b[0].y)
    assert np.array_equal(a[0].u, b[0].u)


def test_collect_training_data_without_runs_is_empty():
    params = ArmParams()
    assert collect_training_data(params, [0.1], [(0, 1.0, 0)]) == [[]]
    assert collect_training_data(params, [], [(2, 1.0, 0), (1, 0.5, 1)]) == [[], []]
    assert collect_training_data(params, [0.1], []) == []


@pytest.mark.parametrize("campaign, match", [
    ((-1, 1.0, 0), "campaign 1: trials"),
    ((1, 0.0, 0), "campaign 1: duration"),
    ((1, 0.02, 0), "campaign 1: duration"),
    ((1, -1.0, 0), "campaign 1: duration"),
])
def test_collect_training_data_rejects_bad_campaign(campaign, match):
    with pytest.raises(ValueError, match=match):
        collect_training_data(ArmParams(), [0.1], [(1, 1.0, 0), campaign])


def test_collect_training_data_load_bounds():
    with pytest.raises(ValueError):
        collect_training_data(ArmParams(), [0.5], [(1, 1.0, 0)])
    with pytest.raises(ValueError, match="payloads must lie"):
        collect_training_data(ArmParams(), [float("nan")], [(1, 1.0, 0)])


def test_ramp_and_hold_stays_in_range():
    rng = np.random.default_rng(4)
    policy = ramp_and_hold(rng, m=2, Ts=0.05)
    us = np.array([next(policy) for _ in range(500)])
    assert np.all(us >= 0.0) and np.all(us <= 1.0)
    # actually moves: ramps connect distinct hold levels
    assert np.ptp(us, axis=0).min() > 0.1
