"""Simulated two-link elastic arm: point-mass double pendulum with joint
springs and dampers, torque inputs through a zero-order hold, an unknown tip
payload, and seeded Gaussian sensor noise on the measured positions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .edmd import Trajectory

W_MAX = 0.3


@dataclass(frozen=True)
class ArmParams:
    L1: float = 0.5          # link lengths (m)
    L2: float = 0.5
    m1: float = 0.2          # link tip masses (kg)
    m2: float = 0.2
    g: float = 9.81          # gravity (m/s^2)
    k: float = 5.0           # joint stiffness (N*m/rad)
    c: float = 0.4           # joint damping (N*m*s/rad)
    tau_max: float = 2.0     # torque scale (N*m)
    Ts: float = 0.05         # sample period (s)
    substeps: int = 10       # RK4 substeps per sample
    noise_std: float = 1e-3  # sensor noise sigma (m)
    seed: int = 0

    def __post_init__(self):
        for name in ("L1", "L2", "m1", "m2", "g", "tau_max", "Ts"):
            if getattr(self, name) <= 0:
                raise ValueError(f"ArmParams.{name} must be positive")
        # k = c = 0 is allowed: the undamped, spring-free pendulum is the
        # energy-conservation check configuration
        if self.k < 0 or self.c < 0 or self.noise_std < 0 or self.substeps < 1:
            raise ValueError(
                "ArmParams: k, c, noise_std >= 0 and substeps >= 1 required")


@dataclass(frozen=True)
class ArmState:
    """Absolute joint angles from the downward vertical, their rates, and
    the payload mass carried at the tip."""

    theta1: float = 0.0
    theta2: float = 0.0
    omega1: float = 0.0
    omega2: float = 0.0
    w: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.w <= W_MAX):
            raise ValueError(f"payload {self.w} outside [0, {W_MAX}] kg")

    @property
    def q(self) -> np.ndarray:
        return np.array([self.theta1, self.theta2, self.omega1, self.omega2])


def _mass(c12, m2p, params: ArmParams) -> np.ndarray:
    """Mass matrix from cos(theta1 - theta2) and the loaded tip mass m2 + w."""
    off = m2p * params.L1 * params.L2 * c12
    M = np.empty(c12.shape + (2, 2))
    M[..., 0, 0] = (params.m1 + m2p) * params.L1**2
    M[..., 0, 1] = off
    M[..., 1, 0] = off
    M[..., 1, 1] = m2p * params.L2**2
    return M


def mass_matrix(state_q: np.ndarray, params: ArmParams, w) -> np.ndarray:
    """Joint-space mass matrix: (2, 2) for one (4,) state, (B, 2, 2) for a
    (B, 4) stack with a scalar or per-row (B,) payload."""
    th1, th2, _, _ = np.asarray(state_q).T
    return _mass(np.cos(th1 - th2), params.m2 + w, params)


def dynamics(q: np.ndarray, tau: np.ndarray, params: ArmParams, w) -> np.ndarray:
    """State derivative (w1, w2, a1, a2) of the spring-damper double pendulum
    with the payload folded into the second tip mass.

    ``q`` is one (4,) state or a (B, 4) stack with per-row torques ``tau``
    (B, 2) and payloads ``w`` (B,) or scalar; every row is computed exactly
    as it would be on its own.
    """
    q = np.asarray(q)
    th1, th2, om1, om2 = q.T
    tau1, tau2 = np.asarray(tau).T
    m2p = params.m2 + w
    d12 = th1 - th2
    s12 = np.sin(d12)
    M = _mass(np.cos(d12), m2p, params)
    rhs = np.empty(th1.shape + (2, 1))
    rhs[..., 0, 0] = (tau1
                      - m2p * params.L1 * params.L2 * s12 * om2**2
                      - (params.m1 + m2p) * params.g * params.L1 * np.sin(th1)
                      - params.k * th1
                      - params.c * om1)
    rhs[..., 1, 0] = (tau2
                      + m2p * params.L1 * params.L2 * s12 * om1**2
                      - m2p * params.g * params.L2 * np.sin(th2)
                      - params.k * th2
                      - params.c * om2)
    dq = np.empty(q.shape)
    dq[..., 0] = om1
    dq[..., 1] = om2
    dq[..., 2:] = np.linalg.solve(M, rhs)[..., 0]
    return dq


def _rk4_step(q: np.ndarray, tau: np.ndarray, h: float, params: ArmParams, w) -> np.ndarray:
    k1 = dynamics(q, tau, params, w)
    k2 = dynamics(q + 0.5 * h * k1, tau, params, w)
    k3 = dynamics(q + 0.5 * h * k2, tau, params, w)
    k4 = dynamics(q + h * k3, tau, params, w)
    return q + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _advance(q: np.ndarray, u, params: ArmParams, w) -> np.ndarray:
    """Integrate states (4,) or (B, 4) over one sample period under the
    zero-order-held commands u in [0, 1]^2, (2,) or (B, 2).

    Torque is tau_max * (2u - 1) per joint.  A non-finite or out-of-range
    command raises before the plant moves.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError(f"commands must be finite, got {u}")
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError(f"commands must lie in [0, 1], got {u}")
    tau = params.tau_max * (2.0 * u - 1.0)
    h = params.Ts / params.substeps
    for _ in range(params.substeps):
        q = _rk4_step(q, tau, h, params, w)
    return q


def _positions(q: np.ndarray, params: ArmParams) -> np.ndarray:
    """Noiseless (x, y) of the link-1 tip and end effector for states (4,)
    or (B, 4)."""
    th1, th2, _, _ = np.asarray(q).T
    y = np.empty(th1.shape + (4,))
    y[..., 0] = params.L1 * np.sin(th1)
    y[..., 1] = -params.L1 * np.cos(th1)
    y[..., 2] = y[..., 0] + params.L2 * np.sin(th2)
    y[..., 3] = y[..., 1] - params.L2 * np.cos(th2)
    return y


def output_of(state: ArmState, params: ArmParams) -> np.ndarray:
    """Noiseless measured output: (x, y) of the link-1 tip and end effector."""
    return _positions(state.q, params)


def energy(state: ArmState, params: ArmParams) -> float:
    """Total mechanical energy, including spring potential; conserved when
    k = c = 0 and tau = 0."""
    q = state.q
    om = q[2:]
    M = mass_matrix(q, params, state.w)
    kinetic = 0.5 * om @ M @ om
    m2p = params.m2 + state.w
    potential = (-(params.m1 + m2p) * params.g * params.L1 * np.cos(state.theta1)
                 - m2p * params.g * params.L2 * np.cos(state.theta2)
                 + 0.5 * params.k * (state.theta1**2 + state.theta2**2))
    return float(kinetic + potential)


def step_zoh(state: ArmState, u, params: ArmParams, rng=None):
    """Advance one sample period under a zero-order-held command u in [0,1]^2.

    Torque is tau_max * (2u - 1) per joint.  Returns (next_state, output);
    sensor noise is added to the output when a generator is supplied and
    noise_std > 0.  A non-finite or out-of-range command raises ValueError.
    """
    q = _advance(state.q, u, params, state.w)
    nxt = replace(state, theta1=float(q[0]), theta2=float(q[1]),
                  omega1=float(q[2]), omega2=float(q[3]))
    y = output_of(nxt, params)
    if rng is not None and params.noise_std > 0:
        y = y + rng.normal(0.0, params.noise_std, size=y.shape)
    return nxt, y


class Arm:
    """Single-owner plant instance: owns its state and noise generator."""

    def __init__(self, params: ArmParams, w: float = 0.0, state: ArmState = None,
                 seed: int = None):
        self.params = params
        self.state = state if state is not None else ArmState(w=w)
        self.rng = np.random.default_rng(params.seed if seed is None else seed)

    def measure(self) -> np.ndarray:
        y = output_of(self.state, self.params)
        if self.params.noise_std > 0:
            y = y + self.rng.normal(0.0, self.params.noise_std, size=y.shape)
        return y

    def step(self, u) -> np.ndarray:
        self.state, y = step_zoh(self.state, u, self.params, rng=self.rng)
        return y


def ramp_and_hold(rng, m: int, Ts: float, hold_range=(0.25, 1.5), ramp_range=(0.1, 0.5)):
    """Generator of randomized ramp-and-hold commands sampled at Ts: hold a
    uniform-random u, then ramp linearly to the next one."""
    u_cur = rng.uniform(0.0, 1.0, size=m)
    while True:
        hold_steps = max(1, int(round(rng.uniform(*hold_range) / Ts)))
        for _ in range(hold_steps):
            yield u_cur.copy()
        u_next = rng.uniform(0.0, 1.0, size=m)
        ramp_steps = max(1, int(round(rng.uniform(*ramp_range) / Ts)))
        for i in range(1, ramp_steps + 1):
            yield u_cur + (u_next - u_cur) * (i / ramp_steps)
        u_cur = u_next


def collect_training_data(params: ArmParams, loads, trials: int, duration: float,
                          seed: int = 0) -> list:
    """Run the randomized ramp-and-hold campaign: ``trials`` runs per load,
    each ``duration`` seconds, recorded at Ts.  Deterministic under the seed.

    All runs are integrated together, one batched step per sample period.
    Each run keeps its own generator (a child of the seed) for its commands
    and sensor noise, drawn in the same order as a lone ``Arm`` would, so
    every run is identical to simulating it by itself.
    """
    loads = [float(w) for w in loads]
    if any(w < 0 or w > W_MAX for w in loads):
        raise ValueError(f"loads must lie in [0, {W_MAX}] kg")
    K = int(round(duration / params.Ts)) + 1
    w = np.repeat(loads, trials)
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(w.size)]
    policies = [ramp_and_hold(rng, m=2, Ts=params.Ts) for rng in rngs]

    def measure(q):
        y = _positions(q, params)
        if params.noise_std > 0:
            y = y + np.array([rng.normal(0.0, params.noise_std, size=4)
                              for rng in rngs])
        return y

    q = np.zeros((w.size, 4))
    ys = np.zeros((w.size, K, 4))
    us = np.zeros((w.size, K, 2))
    ys[:, 0] = measure(q)
    for k in range(K - 1):
        for i, policy in enumerate(policies):
            us[i, k] = np.clip(next(policy), 0.0, 1.0)
        q = _advance(q, us[:, k], params, w)
        ys[:, k + 1] = measure(q)
    us[:, K - 1] = us[:, K - 2]
    return [Trajectory(t=np.arange(K) * params.Ts, y=ys[i], u=us[i],
                       w=np.array([w[i]]))
            for i in range(w.size)]
