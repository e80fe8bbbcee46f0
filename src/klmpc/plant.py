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
from .numkit import lapack

W_MAX = 0.3


@dataclass(frozen=True)
class ArmParams:
    L1: float = 0.5          # link lengths (m)
    L2: float = 0.5
    m1: float = 0.2          # link tip masses (kg)
    m2: float = 0.2
    g: float = 9.81          # gravity (m/s^2)
    k: float = 1.0           # joint stiffness (N*m/rad)
    c: float = 0.3           # joint damping (N*m*s/rad)
    tau_max: float = 2.0     # torque scale (N*m)
    Ts: float = 0.05         # sample period (s)
    substeps: int = 10       # RK4 substeps per sample
    noise_std: float = 1e-3  # sensor noise sigma (m)

    def __post_init__(self):
        # each check is written so that NaN fails it; k = c = 0 is allowed:
        # the undamped, spring-free pendulum is the energy-conservation check
        # configuration
        for name in ("L1", "L2", "m1", "m2", "g", "tau_max", "Ts"):
            if not getattr(self, name) > 0:
                raise ValueError(f"ArmParams: {name!r} must be > 0, got {getattr(self, name)}")
        for name in ("k", "c", "noise_std"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"ArmParams: {name!r} must be >= 0, got {getattr(self, name)}")
        if not self.substeps >= 1:
            raise ValueError(f"ArmParams: 'substeps' must be >= 1, got {self.substeps}")


def _payload_terms(params: ArmParams, w, shape: tuple) -> tuple:
    """The right-hand side's constants at fixed payloads, for states of batch
    shape ``shape`` (``()`` for one state, ``(B,)`` for B of them), with
    m2p = m2 + w:

    - ``ll`` = m2p*L1*L2;
    - ``coriolis`` = (-ll, +ll), the Coriolis coefficient of each joint row;
    - ``gravity`` = ((m1+m2p)*g*L1, m2p*g*L2), one row per joint;
    - ``stiff`` = (k, k, c, c) against the state rows (th1, th2, om1, om2);
    - ``M``, a (shape + (2, 2)) mass-matrix buffer with its constant
      diagonal filled in, and ``coupling``, a (2,) + shape view of its two
      off-diagonal entries.

    Each product is formed in the order the expanded formulas use, and a
    negation is exact, so every derivative rounds exactly as if computed
    from scratch.
    """
    m2p = params.m2 + w
    m1p = params.m1 + m2p
    ll = m2p * params.L1 * params.L2
    rows = np.empty((4,) + shape)
    rows[0] = -ll
    rows[1] = ll
    rows[2] = m1p * params.g * params.L1
    rows[3] = m2p * params.g * params.L2
    stiff = np.array([params.k, params.k, params.c, params.c]).reshape(
        (4,) + (1,) * len(shape))
    M = np.empty(shape + (2, 2))
    M[..., 0, 0] = m1p * params.L1**2
    M[..., 1, 1] = m2p * params.L2**2
    coupling = M.reshape(shape + (4,))[..., 1:3].T
    return ll, rows[:2], rows[2:], stiff, M, coupling


def mass_matrix(state_q: np.ndarray, params: ArmParams, w) -> np.ndarray:
    """Joint-space mass matrix: (2, 2) for one (4,) state, (B, 2, 2) for a
    (B, 4) stack with a scalar or per-row (B,) payload."""
    th1, th2 = np.asarray(state_q).T[:2]
    ll, _, _, _, M, coupling = _payload_terms(params, w, th1.shape)
    coupling[...] = ll * np.cos(th1 - th2)
    return M


def _rhs(q: np.ndarray, tau: np.ndarray, terms: tuple) -> np.ndarray:
    """Derivative of states in structure-of-arrays form: ``q`` is (4,) + shape
    with rows (th1, th2, om1, om2), ``tau`` is (2,) + shape, and ``terms``
    come from :func:`_payload_terms`, whose mass-matrix buffer this
    overwrites.

    Both joint rows are one expression, rounded as the expanded per-joint
    formulas are, left to right: torque, Coriolis (its sign carried by the
    ``coriolis`` row), gravity, spring, damper.
    """
    ll, coriolis, gravity, stiff, M, coupling = terms
    th, om = q[:2], q[2:]
    d12 = q[0] - q[1]
    coupling[...] = ll * np.cos(d12)
    f = coriolis * np.sin(d12)
    f *= np.square(om[::-1])
    f += tau
    f -= gravity * np.sin(th)
    kc = stiff * q
    f -= kc[:2]
    f -= kc[2:]
    dq = np.empty_like(q)
    dq[:2] = om
    # straight into the derivative; the mass matrix is positive definite
    lapack.solve(M, f.T[..., None], signature="dd->d", out=dq[2:].T[..., None])
    return dq


def dynamics(q: np.ndarray, tau: np.ndarray, params: ArmParams, w) -> np.ndarray:
    """State derivative (w1, w2, a1, a2) of the spring-damper double pendulum
    with the payload folded into the second tip mass.

    ``q`` is one (4,) state or a (B, 4) stack with per-row torques ``tau``
    (B, 2) and payloads ``w`` (B,) or scalar; every row is computed exactly
    as it would be on its own.
    """
    q = np.asarray(q, dtype=float)
    terms = _payload_terms(params, w, q.shape[:-1])
    return _rhs(np.ascontiguousarray(q.T), np.asarray(tau, dtype=float).T, terms).T


# a diverging state overflows on the way; the check at the end reports it
@np.errstate(over="ignore", invalid="ignore")
def _advance(q: np.ndarray, u, params: ArmParams, w) -> np.ndarray:
    """Integrate states (4,) or (B, 4) over one sample period under the
    zero-order-held commands u in [0, 1]^2, (2,) or (B, 2).

    Torque is tau_max * (2u - 1) per joint.  A non-finite or out-of-range
    command raises before the plant moves, and a state the RK4 step drives
    out of the finite numbers raises after.  The RK4 substeps run on the
    (4,) + batch transpose of the states, one row per state variable.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError(f"commands must be finite, got {u}")
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError(f"commands must lie in [0, 1], got {u}")
    tau = params.tau_max * (2.0 * np.ascontiguousarray(u.T) - 1.0)
    q = np.array(np.asarray(q, dtype=float).T, order="C")
    terms = _payload_terms(params, w, q.shape[1:])
    h = params.Ts / params.substeps
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(params.substeps):
        k1 = _rhs(q, tau, terms)
        k2 = _rhs(q + half * k1, tau, terms)
        k3 = _rhs(q + half * k2, tau, terms)
        k4 = _rhs(q + h * k3, tau, terms)
        # q + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right; the two
        # operands of a sum commute exactly, so k2 can hold the running sum
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= sixth
        q = q + k2
    if not np.all(np.isfinite(q)):
        raise ValueError(f"the arm state diverged: the RK4 step of Ts = {params.Ts} s "
                         f"in {params.substeps} substeps is unstable for this arm")
    return q.T


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


def ramp_and_hold(rng, m: int, Ts: float):
    """Generator of randomized ramp-and-hold commands sampled at Ts: hold a
    uniform-random u for 0.25-1.5 s, then ramp linearly to the next one over
    0.1-0.5 s."""
    u_cur = rng.uniform(0.0, 1.0, size=m)
    while True:
        hold_steps = max(1, int(round(rng.uniform(0.25, 1.5) / Ts)))
        for _ in range(hold_steps):
            yield u_cur.copy()
        u_next = rng.uniform(0.0, 1.0, size=m)
        ramp_steps = max(1, int(round(rng.uniform(0.1, 0.5) / Ts)))
        for i in range(1, ramp_steps + 1):
            yield u_cur + (u_next - u_cur) * (i / ramp_steps)
        u_cur = u_next


def excitation(rng, Ts: float):
    """Open-loop policy ``(k, y) -> u`` of clipped ramp-and-hold commands
    drawn from ``rng``; it ignores the measurement."""
    commands = ramp_and_hold(rng, m=2, Ts=Ts)
    # np.clip(u, 0, 1) as two ufunc calls, without np.clip's Python dispatch;
    # they differ only on -0.0, which ramp_and_hold never yields
    return lambda k, y: np.minimum(np.maximum(next(commands), 0.0), 1.0)


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
        # a lone run steps as a (4,) state, which is faster than a (1, 4)
        # stack and rounds the same
        rows = slice(0, n) if n > 1 else 0
        q[rows], Y[rows, k + 1] = step_zoh(q[rows], U[rows, k], params, w[rows], rngs[:n])
    return [(Y[j, :steps[j] + 1], U[j, :steps[j]]) for j in np.argsort(order)]


@dataclass(frozen=True)
class CampaignConfig:
    """Ramp-and-hold data campaign: ``trials`` runs per load in ``loads``
    (kg, load-major), each ``duration`` seconds, seeded by ``seed``.  The
    default is the desk-scale training campaign across the payload range."""

    loads: tuple = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
    trials: int = 2
    duration: float = 40.0
    seed: int = 0

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.loads or not all(0.0 <= w <= W_MAX for w in self.loads):
            raise ValueError(f"CampaignConfig: 'loads' must be a non-empty list of "
                             f"payloads in [0, {W_MAX}] kg, got {list(self.loads)}")
        if not self.trials >= 1:
            raise ValueError(f"CampaignConfig: 'trials' must be >= 1, got {self.trials}")
        if not 0.0 < self.duration < np.inf:
            raise ValueError(f"CampaignConfig: 'duration' must be finite and > 0, "
                             f"got {self.duration}")
        if not self.seed >= 0:
            raise ValueError(f"CampaignConfig: 'seed' must be >= 0, got {self.seed}")


def collect_training_data(params: ArmParams, campaigns) -> list:
    """Run the ramp-and-hold :class:`CampaignConfig` campaigns; return one
    list of trajectories per campaign, in the order given, each recorded at
    Ts in load-major order.  Deterministic under the seeds.  A duration under
    one sample period raises ValueError naming the campaign.

    The runs of all campaigns are one :func:`drive` batch.  Each run draws
    its commands and sensor noise from one generator, a child of its
    campaign's seed, and repeats its last command on its last sample.
    """
    runs, ends = [], []
    for c, camp in enumerate(campaigns):
        if not camp.duration >= params.Ts:
            raise ValueError(f"campaign {c}: duration {camp.duration} s is under one "
                             f"sample period ({params.Ts} s)")
        steps = int(round(camp.duration / params.Ts))
        rngs = [np.random.default_rng(s) for s in
                np.random.SeedSequence(camp.seed).spawn(len(camp.loads) * camp.trials)]
        runs += [Run(float(w), rng, steps, excitation(rng, params.Ts))
                 for w, rng in zip(np.repeat(camp.loads, camp.trials), rngs)]
        ends.append(len(runs))
    recorded = drive(params, runs)
    return [[Trajectory(t=np.arange(len(Y)) * params.Ts, y=Y,
                        u=np.concatenate([U, U[-1:]]), w=np.array([run.w]))
             for run, (Y, U) in zip(runs[lo:hi], recorded[lo:hi])]
            for lo, hi in zip([0] + ends[:-1], ends)]
