"""Simulated two-link elastic arm: point-mass double pendulum with joint
springs and dampers, torque inputs through a zero-order hold, an unknown tip
payload, and seeded Gaussian sensor noise on the measured positions.

A state is a (4,) array, or a (B, 4) stack of them.  :func:`drive` is the one
loop that steps the arm: the data campaigns and every experiment are
policies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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

    def __post_init__(self):
        for name in ("L1", "L2", "m1", "m2", "g", "tau_max", "Ts"):
            if getattr(self, name) <= 0:
                raise ValueError(f"ArmParams.{name} must be positive")
        # k = c = 0 is allowed: the undamped, spring-free pendulum is the
        # energy-conservation check configuration
        if self.k < 0 or self.c < 0 or self.noise_std < 0 or self.substeps < 1:
            raise ValueError(
                "ArmParams: k, c, noise_std >= 0 and substeps >= 1 required")


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


def energy(q: np.ndarray, params: ArmParams, w: float) -> float:
    """Total mechanical energy of a (4,) state carrying payload w, including
    spring potential; conserved when k = c = 0 and tau = 0."""
    q = np.asarray(q, dtype=float)
    om = q[2:]
    kinetic = 0.5 * om @ mass_matrix(q, params, w) @ om
    m2p = params.m2 + w
    potential = (-(params.m1 + m2p) * params.g * params.L1 * np.cos(q[0])
                 - m2p * params.g * params.L2 * np.cos(q[1])
                 + 0.5 * params.k * (q[0]**2 + q[1]**2))
    return float(kinetic + potential)


def _measure(q: np.ndarray, params: ArmParams, rngs) -> np.ndarray:
    """Positions of states (4,) or (B, 4), plus sensor noise drawn from one
    generator per row when ``rngs`` holds them and noise_std > 0."""
    y = _positions(q, params)
    if len(rngs) and params.noise_std > 0:
        y = y + np.reshape([rng.normal(0.0, params.noise_std, size=4) for rng in rngs],
                           y.shape)
    return y


def step_zoh(q: np.ndarray, u, params: ArmParams, w, rngs=()) -> tuple:
    """Advance states (4,) or (B, 4) with payloads w over one sample period
    under the zero-order-held commands u in [0, 1]^2; return the next states
    and their measured outputs.

    Torque is tau_max * (2u - 1) per joint.  Sensor noise is drawn from
    ``rngs``, one generator per row.  A non-finite or out-of-range command
    raises ValueError before the plant moves.
    """
    q = _advance(q, u, params, w)
    return q, _measure(q, params, rngs)


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


def excitation(rng, Ts: float):
    """Open-loop policy ``(k, y) -> u`` of clipped ramp-and-hold commands
    drawn from ``rng``; it ignores the measurement."""
    commands = ramp_and_hold(rng, m=2, Ts=Ts)
    return lambda k, y: np.clip(next(commands), 0.0, 1.0)


@dataclass(frozen=True)
class Run:
    """One run for :func:`drive`: payload ``w`` (kg), sensor-noise generator,
    sample periods, and a policy ``(k, y) -> u`` giving the command held over
    period k from the output measured at its start."""

    w: float
    rng: np.random.Generator
    steps: int
    policy: Callable


def drive(params: ArmParams, runs) -> list:
    """Drive each run from rest, all runs in lockstep; return one ``(Y, U)``
    per run, in the order given: its ``steps + 1`` measured outputs and the
    ``steps`` commands applied.

    Each period the policies of the runs still going are called in turn,
    then their states advance together through one :func:`step_zoh`.  The
    longest runs come first in the batch, so the runs still going are always
    a leading slice and a run leaves when its steps are done.  A run draws
    from its own generator and its policy's in the order it would alone (the
    initial measurement, then per period the policy, the step and the noise),
    and the batched arithmetic is that of a lone state, so every run is
    identical to driving it by itself.
    """
    order = sorted(range(len(runs)), key=lambda i: -runs[i].steps)
    batch = [runs[i] for i in order]
    w = np.array([run.w for run in batch])
    if not np.all((w >= 0.0) & (w <= W_MAX)):
        raise ValueError(f"payloads must lie in [0, {W_MAX}] kg")
    steps = np.array([run.steps for run in batch], dtype=int)
    rngs = [run.rng for run in batch]
    K = int(steps.max(initial=0))
    q = np.zeros((len(batch), 4))
    Y = np.empty((len(batch), K + 1, 4))
    U = np.empty((len(batch), K, 2))
    Y[:, 0] = _measure(q, params, rngs)
    for k in range(K):
        n = int(np.count_nonzero(steps > k))
        for i in range(n):
            U[i, k] = batch[i].policy(k, Y[i, k])
        # a lone run steps as a (4,) state, whose numpy-scalar arithmetic is
        # about twice as fast as that of a (1, 4) stack and rounds the same
        rows = slice(0, n) if n > 1 else 0
        q[rows], Y[rows, k + 1] = step_zoh(q[rows], U[rows, k], params, w[rows], rngs[:n])
    return [(Y[j, :steps[j] + 1], U[j, :steps[j]]) for j in np.argsort(order)]


def collect_training_data(params: ArmParams, loads, campaigns) -> list:
    """Run randomized ramp-and-hold campaigns over ``loads``; return one list
    of trajectories per campaign, in the order given.

    Each campaign is a ``(trials, duration, seed)`` triple: ``trials`` runs
    per load (load-major), each ``duration`` seconds recorded at Ts.
    Deterministic under the seeds.  A campaign with no runs (zero trials or
    no loads) gives an empty list; a negative trial count or a duration
    under one sample period raises ValueError naming the campaign.

    The runs of all campaigns are one :func:`drive` batch.  Each run draws
    its commands and sensor noise from one generator, a child of its
    campaign's seed, and repeats its last command on its last sample.
    """
    for c, (trials, duration, _) in enumerate(campaigns):
        if trials < 0:
            raise ValueError(f"campaign {c}: trials must be >= 0, got {trials}")
        if not duration >= params.Ts:
            raise ValueError(f"campaign {c}: duration {duration} s is under one "
                             f"sample period ({params.Ts} s)")
    runs, ends = [], []
    for trials, duration, seed in campaigns:
        steps = int(round(duration / params.Ts))
        rngs = [np.random.default_rng(s)
                for s in np.random.SeedSequence(seed).spawn(len(loads) * trials)]
        runs += [Run(float(w), rng, steps, excitation(rng, params.Ts))
                 for w, rng in zip(np.repeat(loads, trials), rngs)]
        ends.append(len(runs))
    recorded = drive(params, runs)
    return [[Trajectory(t=np.arange(len(Y)) * params.Ts, y=Y,
                        u=np.concatenate([U, U[-1:]]), w=np.array([run.w]))
             for run, (Y, U) in zip(runs[lo:hi], recorded[lo:hi])]
            for lo, hi in zip([0] + ends[:-1], ends)]
