"""Simulated two-link elastic arm: point-mass double pendulum with joint
springs and dampers, torque inputs through a zero-order hold, an unknown tip
payload, and seeded Gaussian sensor noise on the measured positions.

:func:`drive` is the one loop that steps the arm: the data campaigns and each
experiment are one batch of their runs' policies, and each run stays
bit-identical to driving it alone.  One :func:`_stepper` is bound per
batch; a run that has ended rides along at zero torque until the longest
run ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkit import lapack

W_MAX = 0.3
# (n, m): the arm's measured outputs, the (x, y) of both link tips, and its
# commanded inputs, one per joint
ARM_SHAPE = (4, 2)


def check_counts(owner: str, least: int, **fields) -> None:
    """Refuse the first of ``fields`` that is not an int or a numpy integer
    of at least ``least``, with one ValueError naming it; a bool is an int
    to isinstance, but no count."""
    for name, value in fields.items():
        if type(value) is bool or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{owner}: {name!r} must be >= {least} and an integer, "
                             f"got {value!r}")


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
        check_counts("ArmParams", 1, substeps=self.substeps)


def _payload_terms(params: ArmParams, w: np.ndarray) -> tuple:
    """The right-hand side's constants for B runs of payloads ``w``, (B,),
    with m2p = m2 + w, one column per run:

    - ``ll`` = m2p*L1*L2 in both rows of a (2, B) array;
    - ``coriolis`` = (-ll, +ll), the Coriolis coefficient of each joint row;
    - ``gravity`` = ((m1+m2p)*g*L1, m2p*g*L2), one row per joint;
    - ``stiff`` = (k, k, c, c) against the state rows (th1, th2, om1, om2);
    - ``M``, a (2, 2, B) mass-matrix buffer with its constant diagonal
      filled in, as its (B, 2, 2) transposed view, and ``coupling``, its
      two off-diagonal rows as one contiguous (2, B) view.

    Each product is formed in the order the expanded formulas use, and a
    negation is exact, so every derivative rounds exactly as if computed
    from scratch.
    """
    m2p = params.m2 + w
    m1p = params.m1 + m2p
    ll = m2p * params.L1 * params.L2
    coriolis = np.array([-ll, ll])
    gravity = np.array([m1p * params.g * params.L1, m2p * params.g * params.L2])
    stiff = np.repeat([[params.k], [params.k], [params.c], [params.c]], w.size, axis=1)
    M = np.empty((2, 2) + w.shape)
    M[0, 0] = m1p * params.L1**2
    M[1, 1] = m2p * params.L2**2
    coupling = M.reshape(4, -1)[1:3]
    return np.array([ll, ll]), coriolis, gravity, stiff, M.transpose(2, 0, 1), coupling


def _rk4_stage(terms: tuple, tau: np.ndarray, x: np.ndarray, dq: np.ndarray) -> Callable:
    """Bind one RK4 stage: a call writes into ``dq`` the derivative of the
    states ``x``, both (4, B) with rows (th1, th2, om1, om2), under the
    torques ``tau``, (2, B), into buffers bound here.  Both joint rows are one
    expression, rounded as the per-joint formulas are, left to right: torque,
    Coriolis (its sign carried by ``coriolis``), gravity, spring, damper;
    ``lapack.solve1`` (dgesv) solves ``terms``' mass matrices for the accelerations.
    """
    ll, coriolis, gravity, stiff, M, coupling = terms
    th1, th2, th, om, om_swapped = x[0], x[1], x[:2], x[2:], x[3:1:-1]
    d12, (f, sines, trig), kc = np.empty(th1.shape), np.empty((3,) + th.shape), np.empty(x.shape)
    spring, damper, rates, rhs, acc = kc[:2], kc[2:], dq[:2], f.T, dq[2:].T
    sin, cos, square, solve1 = np.sin, np.cos, np.square, lapack.solve1
    multiply, add, subtract = np.multiply, np.add, np.subtract

    def stage():
        subtract(th1, th2, d12)
        multiply(ll, cos(d12, trig), coupling)
        multiply(coriolis, sin(d12, trig), f)
        multiply(f, square(om_swapped, sines), f)
        add(f, tau, f)
        subtract(f, multiply(gravity, sin(th, sines), sines), f)
        multiply(stiff, x, kc)
        subtract(f, spring, f)
        subtract(f, damper, f)
        rates[...] = om
        solve1(M, rhs, acc, signature="dd->d")

    return stage


def _stepper(params: ArmParams, q: np.ndarray, w: np.ndarray) -> Callable:
    """Bind ``advance(u)`` for B runs of payloads ``w``, (B,): it moves their
    states ``q``, a C-contiguous (4, B) array of rows (th1, th2, om1, om2), in
    place over one sample period of the held commands u in [0, 1]^2, (B, 2)
    or (2,) for B = 1, at torque tau_max * (2u - 1) per joint.  A command
    outside the box, NaN included, raises ValueError before the plant moves,
    and a state driven out of the finite numbers raises after.  Payload
    terms, buffers, stages and full (4, B) RK4 constants are made here once.
    """
    terms = _payload_terms(params, w)
    tau, x = np.empty((2,) + w.shape), np.empty_like(q)
    k1, k2, k3, k4 = np.empty((4,) + q.shape)
    stage1, stage2, stage3, stage4 = (_rk4_stage(terms, tau, src, k)
                                      for src, k in ((q, k1), (x, k2), (x, k3), (x, k4)))
    h = params.Ts / params.substeps
    half, h, sixth, two = (np.full(q.shape, c) for c in (0.5 * h, h, h / 6.0, 2.0))
    multiply, add = np.multiply, np.add

    # a diverging state overflows on the way; the check at the end reports it
    @np.errstate(over="ignore", invalid="ignore")
    def advance(u):
        u = np.asarray(u, dtype=float)
        # NaN fails both comparisons and an infinity one of them
        if not np.all((u >= 0.0) & (u <= 1.0)):
            raise ValueError(f"commands must be finite and lie in [0, 1], got {u}")
        multiply(params.tau_max, 2.0 * u.reshape(-1, 2).T - 1.0, tau)
        for _ in range(params.substeps):
            stage1()
            add(q, multiply(half, k1, x), x)
            stage2()
            add(q, multiply(half, k2, x), x)
            stage3()
            add(q, multiply(h, k3, x), x)
            stage4()
            # q + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right; the
            # two operands of a sum commute exactly, so k2 holds the sum
            add(add(multiply(k2, two, k2), k1, k2), multiply(k3, two, k3), k2)
            add(q, multiply(add(k2, k4, k2), sixth, k2), q)
        if not np.all(np.isfinite(q)):
            raise ValueError(f"the arm state diverged: the RK4 step of Ts = {params.Ts} s "
                             f"in {params.substeps} substeps is unstable for this arm")

    return advance


def _measure(q: np.ndarray, params: ArmParams, rngs) -> np.ndarray:
    """(x, y) of the link-1 tip and end effector, (B, 4), for the states
    ``q``, (4, B) with rows (th1, th2, om1, om2), plus sensor noise drawn
    from one generator per run when ``rngs`` holds them and noise_std > 0."""
    th1, th2 = q[0], q[1]
    y = np.empty(th1.shape + (4,))
    y[:, 0] = params.L1 * np.sin(th1)
    y[:, 1] = -params.L1 * np.cos(th1)
    y[:, 2] = y[:, 0] + params.L2 * np.sin(th2)
    y[:, 3] = y[:, 1] - params.L2 * np.cos(th2)
    if len(rngs) and params.noise_std > 0:
        y = y + np.reshape([rng.normal(0.0, params.noise_std, size=4) for rng in rngs],
                           y.shape)
    return y


def step_zoh(q: np.ndarray, u, params: ArmParams, w, rngs=()) -> tuple:
    """Advance states (4,) or (B, 4) with payloads w over one sample period
    under the zero-order-held commands u in [0, 1]^2, (2,) or (B, 2); return
    the next states and their measured outputs, with sensor noise drawn from
    ``rngs``, one generator per row.  One call of a :func:`_stepper` bound to
    a copy of the states (a lone state as a batch of one), so it refuses and
    rounds as :func:`drive` does and leaves its inputs as they were.
    """
    q = np.asarray(q, dtype=float)
    state = np.array(q.reshape(-1, 4).T, order="C")
    _stepper(params, state, np.broadcast_to(w, state.shape[1:]))(u)
    y = _measure(state, params, rngs)
    return (state.T, y) if q.ndim == 2 else (state[:, 0], y[0])


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
    """Open-loop policy ``(k, y) -> u`` of ramp-and-hold commands drawn from
    ``rng``; it ignores the measurement."""
    commands = ramp_and_hold(rng, m=ARM_SHAPE[1], Ts=Ts)
    return lambda k, y: next(commands)


@dataclass(frozen=True)
class Run:
    """One run for :func:`drive`: payload ``w`` (kg), sensor-noise generator,
    sample periods, and a policy ``(k, y) -> u`` giving the command held over
    period k from the output measured at its start."""

    w: float
    rng: np.random.Generator
    steps: int
    policy: Callable

    def __post_init__(self):
        check_counts("Run", 0, steps=self.steps)


def drive(params: ArmParams, runs) -> list:
    """Drive each run from rest, all runs in lockstep; return one ``(Y, U)``
    per run, in the order given: its ``steps + 1`` measured outputs and the
    ``steps`` commands applied.

    One :func:`_stepper` advances all states until the longest run ends.
    Each period the policies of the runs still going are called in turn; a
    run that has ended holds u = 0.5, zero torque, and still draws noise
    from its generator, which no caller reads after.  A run draws from its
    generator and its policy's in the order it would alone (the initial
    measurement, then per period the policy, the step and the noise), and
    the batched arithmetic is that of a lone state, so every run is
    identical to driving it by itself.
    """
    w = np.array([run.w for run in runs])
    if not np.all((w >= 0.0) & (w <= W_MAX)):
        raise ValueError(f"payloads must lie in [0, {W_MAX}] kg")
    rngs = [run.rng for run in runs]
    K = max((run.steps for run in runs), default=0)
    q = np.zeros((4, len(runs)))
    advance = _stepper(params, q, w)
    Y = np.empty((len(runs), K + 1, ARM_SHAPE[0]))
    U = np.full((len(runs), K, ARM_SHAPE[1]), 0.5)
    Y[:, 0] = _measure(q, params, rngs)
    for k in range(K):
        for i, run in enumerate(runs):
            if k < run.steps:
                U[i, k] = run.policy(k, Y[i, k])
        advance(U[:, k])
        Y[:, k + 1] = _measure(q, params, rngs)
    return [(Y[i, :run.steps + 1], U[i, :run.steps]) for i, run in enumerate(runs)]


def sample_steps(duration: float, Ts: float) -> int:
    """Sample periods of Ts in ``duration`` seconds, rounded; a duration
    under one period raises ValueError."""
    if not duration >= Ts:
        raise ValueError(f"duration {duration} s is under one sample period ({Ts} s)")
    return int(round(duration / Ts))


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
        check_counts("CampaignConfig", 1, trials=self.trials)
        if not 0.0 < self.duration < np.inf:
            raise ValueError(f"CampaignConfig: 'duration' must be finite and > 0, "
                             f"got {self.duration}")
        check_counts("CampaignConfig", 0, seed=self.seed)


def collect_training_data(params: ArmParams, campaigns) -> list:
    """Run the ramp-and-hold :class:`CampaignConfig` campaigns; return one
    ``(Y, U, w)`` per campaign, in the order given: the measured outputs
    (R, K+1, 4), the commands applied (R, K, 2) and the loads (R,) of its R
    runs, in load-major order.  Deterministic under the seeds.  A duration
    under one sample period raises ValueError naming the campaign.

    The runs of all campaigns are one :func:`drive` batch.  Each run draws
    its commands and sensor noise from one generator, a child of its
    campaign's seed.
    """
    runs, ends = [], []
    for c, camp in enumerate(campaigns):
        try:
            steps = sample_steps(camp.duration, params.Ts)
        except ValueError as exc:
            raise ValueError(f"campaign {c}: {exc}") from None
        rngs = [np.random.default_rng(s) for s in
                np.random.SeedSequence(camp.seed).spawn(len(camp.loads) * camp.trials)]
        runs += [Run(float(w), rng, steps, excitation(rng, params.Ts))
                 for w, rng in zip(np.repeat(camp.loads, camp.trials), rngs)]
        ends.append(len(runs))
    recorded = drive(params, runs)
    return [(np.stack([Y for Y, _ in recorded[lo:hi]]), np.stack([U for _, U in recorded[lo:hi]]),
             np.array([run.w for run in runs[lo:hi]]))
            for lo, hi in zip([0] + ends[:-1], ends)]
