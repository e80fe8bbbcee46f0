"""Simulated arm: the row-wise oracle's equilibrium and hand-solved torque
response, integrator convergence, energy conservation measured by the
oracle's independent energy, output geometry, the integrator against its
row-wise oracle bit for bit (lone states, stacks and per-row payloads), and
the data campaign.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klmpc import plant
from klmpc.plant import (
    ArmParams,
    CampaignConfig,
    Run,
    W_MAX,
    collect_training_data,
    drive,
    excitation,
    ramp_and_hold,
    step_zoh,
)

from oracles import (
    reference_advance,
    reference_campaign,
    reference_dynamics,
    reference_energy,
    reference_positions,
    reference_run,
)


# the stiffer arm on which the hypothesis examples below were found
STIFF_ARM = ArmParams(k=5.0, c=0.4)


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
        dq = reference_dynamics(np.zeros(4), np.zeros(2), params, w)
        assert np.allclose(dq, 0.0, atol=1e-15)


def test_torque_response_hand_solve():
    # theta = omega = 0, tau = (1, 0): alpha = M(0)^{-1} (1, 0)
    params = ArmParams()
    w = 0.1
    dq = reference_dynamics(np.zeros(4), np.array([1.0, 0.0]), params, w)
    m2p = params.m2 + w
    M0 = np.array([
        [(params.m1 + m2p) * params.L1**2, m2p * params.L1 * params.L2],
        [m2p * params.L1 * params.L2, m2p * params.L2**2],
    ])
    alpha = np.linalg.solve(M0, np.array([1.0, 0.0]))
    assert np.allclose(dq[:2], 0.0, atol=1e-15)
    assert np.allclose(dq[2:], alpha, atol=1e-12)


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
    e0 = reference_energy(q, params, w)
    drift = 0.0
    for _ in range(200):
        q, _ = step_zoh(q, np.array([0.5, 0.5]), params, w)
        drift = max(drift, abs(reference_energy(q, params, w) - e0))
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


@pytest.mark.parametrize("B, per_row", [
    (None, False), (1, False), (1, True), (2, False), (2, True), (21, False), (21, True),
])
def test_integrator_matches_row_wise_oracle(B, per_row):
    # one (4,) state or a (B, 4) stack with a scalar or per-row payload: 20
    # sample periods from random states equal the row-wise RK4 bit for bit
    # (B = 2 is the batch as long as the joint axis)
    params = ArmParams()
    rng = np.random.default_rng(B or 0)
    shape = () if B is None else (B,)
    q = rng.uniform(-3.0, 3.0, shape + (4,))
    w = rng.uniform(0.0, W_MAX, shape) if per_row else 0.175
    # an unused draw that keeps the commands below as they are drawn
    rng.uniform(-params.tau_max, params.tau_max, shape + (2,))
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
# om2**2 on a numpy scalar calls pow(), which glibc rounds one ulp off x*x
# at this state; a lone state must still square exactly, as a stack does
# (found with torques (0.5983013973583118, 1.4704700824657504), here the
# commands u = (tau / tau_max + 1) / 2)
@example([(1.2960441655458848, -2.354641815204415, -0.8767878576175852, 2.4226847631984496,
           0.649575349339578, 0.8676175206164376, 0.26893820958353504)])
def test_step_zoh_matches_row_wise_oracle(rows):
    params = STIFF_ARM
    data = np.array(rows)
    q, u, w = data[:, :4], data[:, 4:6], data[:, 6]
    assert np.array_equal(step_zoh(q, u, params, w)[0], reference_advance(q, u, params, w))
    # the first row alone takes the (4,) path
    assert np.array_equal(step_zoh(q[0], u[0], params, w[0])[0],
                          reference_advance(q[0], u[0], params, w[0]))


@settings(max_examples=200, deadline=None, database=None)
@given(st.tuples(*[st.floats(-3.0, 3.0) for _ in range(4)]),   # state
       st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),    # command
       st.floats(0.0, W_MAX))                                   # payload
# om2**2 on a numpy scalar calls pow(), which glibc rounds one ulp off x*x
# at this state; the RK4 step absorbs that ulp, so the derivative is
# checked on its own
@example((1.2960441655458848, -2.354641815204415, -0.8767878576175852, 2.4226847631984496),
         (0.649575349339578, 0.8676175206164376), 0.26893820958353504)
def test_lone_state_derivative_matches_row_wise_oracle(q, u, w):
    params = STIFF_ARM
    q = np.array(q)
    tau = params.tau_max * (2.0 * np.array(u) - 1.0)
    got = plant._rhs(q, tau, plant._payload_terms(params, w, ()))
    assert np.array_equal(got, reference_dynamics(q, tau, params, w))


def test_collect_training_data_matches_run_by_run():
    params = ArmParams()
    loads = (0.05, 0.25)
    # one campaign; then campaigns of different lengths, trials and seeds,
    # whose shorter runs leave the batch first whichever order they come in
    for specs in ([(2, 2.0, 4)],
                  [(1, 1.0, 7), (2, 2.0, 4)],
                  [(2, 2.0, 4), (1, 1.0, 7), (3, 1.5, 11)]):
        campaigns = [CampaignConfig(loads=loads, trials=trials, duration=duration, seed=seed)
                     for trials, duration, seed in specs]
        got = collect_training_data(params, campaigns)
        want = reference_campaign(params, campaigns)
        assert len(got) == len(want) == len(campaigns)
        for camp, (Y, U, w), runs in zip(campaigns, got, want):
            steps = int(round(camp.duration / params.Ts))
            assert Y.shape == (len(runs), steps + 1, 4) and U.shape == (len(runs), steps, 2)
            assert len(runs) == camp.trials * len(loads)
            assert np.array_equal(w, np.repeat(loads, camp.trials))
            assert np.array_equal(Y, [ys for ys, _ in runs])
            assert np.array_equal(U, [us for _, us in runs])
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
    [(Y, U, w)] = collect_training_data(params, [CampaignConfig(loads=(0.1,), trials=1,
                                                                duration=1.0)])
    assert Y.shape == (1, 21, 4)  # 1 s at Ts = 0.05 inclusive of both endpoints
    assert U.shape == (1, 20, 2)  # one command per sample period
    assert np.array_equal(w, [0.1])


def test_collect_training_data_structure():
    params = ArmParams()
    [(Y, U, w)] = collect_training_data(params, [CampaignConfig(loads=(0.0, 0.2), trials=2,
                                                                duration=2.0, seed=3)])
    assert len(Y) == len(U) == 4
    assert np.all(U >= 0.0) and np.all(U <= 1.0)
    assert np.array_equal(w, [0.0, 0.0, 0.2, 0.2])  # load-major
    # distinct trials explore distinct inputs
    assert not np.array_equal(U[0], U[1])


def test_collect_training_data_deterministic():
    params = ArmParams()
    camp = CampaignConfig(loads=(0.05,), trials=1, duration=1.0, seed=9)
    [a] = collect_training_data(params, [camp])
    [b] = collect_training_data(params, [camp])
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x, y)


def test_collect_training_data_without_runs_is_empty():
    assert collect_training_data(ArmParams(), []) == []


@pytest.mark.parametrize("campaign, match", [
    ({"trials": -1}, "'trials' must be >= 1"),
    ({"duration": 0.0}, "'duration' must be finite and > 0"),
    ({"duration": 0.02}, "campaign 1: duration"),
    ({"duration": -1.0}, "'duration' must be finite and > 0"),
    ({"trials": 0}, "'trials' must be >= 1"),
    ({"duration": float("inf")}, "'duration' must be finite and > 0"),
    ({"loads": ()}, "'loads' must be a non-empty list"),
])
def test_collect_training_data_rejects_bad_campaign(campaign, match):
    # a campaign is refused where it is built; a duration under one sample
    # period, which only the arm knows, is refused naming the campaign
    with pytest.raises(ValueError, match=match):
        collect_training_data(ArmParams(), [
            CampaignConfig(duration=1.0),
            CampaignConfig(**{"loads": (0.1,), "trials": 1, "duration": 1.0, **campaign})])


def test_collect_training_data_load_bounds():
    # a load outside [0, W_MAX] is refused with the campaign, before any run
    for loads in ((0.5,), (0.1, W_MAX + 1e-6), (-1e-6,), (float("nan"),)):
        with pytest.raises(ValueError, match="'loads' must be"):
            CampaignConfig(loads=loads)


def test_diverging_integrator_fails_closed():
    # a sample period far past the RK4's stability limit drives the state to
    # infinity; the plant raises, naming the step, instead of handing NaN on
    params = ArmParams(Ts=40.0)
    run = Run(0.1, np.random.default_rng(0), 5, excitation(np.random.default_rng(1), params.Ts))
    with pytest.raises(ValueError, match=r"diverged.*Ts = 40\.0 s in 10 substeps"):
        drive(params, [run])


def test_ramp_and_hold_stays_in_range():
    rng = np.random.default_rng(4)
    policy = ramp_and_hold(rng, m=2, Ts=0.05)
    us = np.array([next(policy) for _ in range(500)])
    assert np.all(us >= 0.0) and np.all(us <= 1.0)
    # actually moves: ramps connect distinct hold levels
    assert np.ptp(us, axis=0).min() > 0.1
