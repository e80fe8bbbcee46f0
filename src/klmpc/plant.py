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


def _payload_terms(params: ArmParams, w, shape: tuple) -> tuple:
    """The right-hand side's constants at fixed payloads: m2p*L1*L2,
    (m1+m2p)*g*L1 and m2p*g*L2 with m2p = m2 + w, and a (shape + (2, 2))
    mass-matrix buffer whose constant diagonal is filled in.

    Each product is formed in the order the expanded formulas use, so every
    derivative rounds exactly as if computed from scratch.
    """
    m2p = params.m2 + w
    m1p = params.m1 + m2p
    M = np.empty(shape + (2, 2))
    M[..., 0, 0] = m1p * params.L1**2
    M[..., 1, 1] = m2p * params.L2**2
    return (m2p * params.L1 * params.L2, m1p * params.g * params.L1,
            m2p * params.g * params.L2, M)


def mass_matrix(state_q: np.ndarray, params: ArmParams, w) -> np.ndarray:
    """Joint-space mass matrix: (2, 2) for one (4,) state, (B, 2, 2) for a
    (B, 4) stack with a scalar or per-row (B,) payload."""
    th1, th2, _, _ = np.asarray(state_q).T
    ll, _, _, M = _payload_terms(params, w, th1.shape)
    M[..., 0, 1] = M[..., 1, 0] = ll * np.cos(th1 - th2)
    return M


def _rhs(q: np.ndarray, tau: np.ndarray, params: ArmParams, terms: tuple) -> np.ndarray:
    """State derivative from the payload terms of :func:`_payload_terms`;
    overwrites the off-diagonal of their mass-matrix buffer."""
    th1, th2, om1, om2 = q.T
    tau1, tau2 = tau.T
    ll, g1, g2, M = terms
    d12 = th1 - th2
    s12 = np.sin(d12)
    M[..., 0, 1] = M[..., 1, 0] = ll * np.cos(d12)
    rhs = np.empty(th1.shape + (2, 1))
    rhs[..., 0, 0] = (tau1
                      - ll * s12 * om2**2
                      - g1 * np.sin(th1)
                      - params.k * th1
                      - params.c * om1)
    rhs[..., 1, 0] = (tau2
                      + ll * s12 * om1**2
                      - g2 * np.sin(th2)
                      - params.k * th2
                      - params.c * om2)
    dq = np.empty(q.shape)
    dq[..., 0] = om1
    dq[..., 1] = om2
    dq[..., 2:] = np.linalg.solve(M, rhs)[..., 0]
    return dq


def dynamics(q: np.ndarray, tau: np.ndarray, params: ArmParams, w) -> np.ndarray:
    """State derivative (w1, w2, a1, a2) of the spring-damper double pendulum
    with the payload folded into the second tip mass.

    ``q`` is one (4,) state or a (B, 4) stack with per-row torques ``tau``
    (B, 2) and payloads ``w`` (B,) or scalar; every row is computed exactly
    as it would be on its own.
    """
    q = np.asarray(q)
    return _rhs(q, np.asarray(tau), params, _payload_terms(params, w, q.shape[:-1]))


def _rk4_step(q: np.ndarray, tau: np.ndarray, h: float, params: ArmParams,
              terms: tuple) -> np.ndarray:
    k1 = _rhs(q, tau, params, terms)
    k2 = _rhs(q + 0.5 * h * k1, tau, params, terms)
    k3 = _rhs(q + 0.5 * h * k2, tau, params, terms)
    k4 = _rhs(q + h * k3, tau, params, terms)
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
    terms = _payload_terms(params, w, np.shape(q)[:-1])
    for _ in range(params.substeps):
        q = _rk4_step(q, tau, h, params, terms)
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


def collect_training_data(params: ArmParams, loads, campaigns) -> list:
    """Run randomized ramp-and-hold campaigns over ``loads``; return one list
    of trajectories per campaign, in the order given.

    Each campaign is a ``(trials, duration, seed)`` triple: ``trials`` runs
    per load (load-major), each ``duration`` seconds recorded at Ts.
    Deterministic under the seeds.  A campaign with no runs (zero trials or
    no loads) gives an empty list; a negative trial count or a duration
    under one sample period raises ValueError naming the campaign.

    The runs of all campaigns are integrated together, one batched step per
    sample period.  The longest campaigns come first in the batch, so the
    runs still going are always a leading slice and a run leaves when its
    campaign ends.  Each run keeps its own generator (a child of its
    campaign's seed) for its commands and sensor noise, drawn in the same
    order as a lone ``Arm`` would, so every run is identical to simulating
    it by itself.
    """
    loads = [float(w) for w in loads]
    if any(w < 0 or w > W_MAX for w in loads):
        raise ValueError(f"loads must lie in [0, {W_MAX}] kg")
    for c, (trials, duration, _) in enumerate(campaigns):
        if trials < 0:
            raise ValueError(f"campaign {c}: trials must be >= 0, got {trials}")
        if not duration >= params.Ts:
            raise ValueError(f"campaign {c}: duration {duration} s is under one "
                             f"sample period ({params.Ts} s)")
    lengths = [int(round(duration / params.Ts)) + 1 for _, duration, _ in campaigns]
    # campaign -> (first row, end row, K, ys, us), inserted in batch order
    blocks = {}
    w, rngs = np.zeros(0), []
    for c in sorted(range(len(campaigns)), key=lambda c: -lengths[c]):
        trials, _, seed = campaigns[c]
        K, runs = lengths[c], np.repeat(loads, trials)
        blocks[c] = (w.size, w.size + runs.size, K,
                     np.zeros((runs.size, K, 4)), np.zeros((runs.size, K, 2)))
        w = np.concatenate([w, runs])
        rngs += [np.random.default_rng(s)
                 for s in np.random.SeedSequence(seed).spawn(runs.size)]
    if not w.size:
        return [[] for _ in campaigns]
    policies = [ramp_and_hold(rng, m=2, Ts=params.Ts) for rng in rngs]
    # a campaign without runs takes no part in the stepping
    batch = [block for block in blocks.values() if block[1] > block[0]]

    def measure(q):
        y = _positions(q, params)
        if params.noise_std > 0:
            y = y + np.array([rng.normal(0.0, params.noise_std, size=4)
                              for rng in rngs[:len(q)]])
        return y

    q = np.zeros((w.size, 4))
    u = np.zeros((w.size, 2))
    y = measure(q)
    for lo, hi, _, ys, _ in batch:
        ys[:, 0] = y[lo:hi]
    for k in range(max(block[2] for block in batch) - 1):
        live = [block for block in batch if k < block[2] - 1]
        n = live[-1][1]
        for i in range(n):
            u[i] = np.clip(next(policies[i]), 0.0, 1.0)
        q[:n] = _advance(q[:n], u[:n], params, w[:n])
        y = measure(q[:n])
        for lo, hi, _, ys, us in live:
            us[:, k] = u[lo:hi]
            ys[:, k + 1] = y[lo:hi]
    out = []
    for c in range(len(campaigns)):
        lo, _, K, ys, us = blocks[c]
        us[:, K - 1] = us[:, K - 2]
        out.append([Trajectory(t=np.arange(K) * params.Ts, y=ys[i], u=us[i],
                               w=np.array([w[lo + i]]))
                    for i in range(len(ys))])
    return out
