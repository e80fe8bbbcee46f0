"""Receding-horizon tracking: condensation of the lifted linear model into a
dense box-constrained QP, a deterministic projected-Newton solver, and the
closed control loop with periodic load estimation.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import observer as obs
from .edmd import KoopmanModel
from .lifting import delay_embed
from .observer import EstimatorConfig, EstimatorState

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MpcConfig:
    Nh: int                      # horizon (steps)
    Q: np.ndarray                # output-error weight (n x n, PSD)
    R: np.ndarray                # input weight (m x m, PD)
    u_min: np.ndarray
    u_max: np.ndarray
    qp_tol: float = 1e-8
    qp_max_iter: int = 100

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.Nh >= 1:
            raise ValueError(f"MpcConfig: 'Nh' must be >= 1, got {self.Nh}")
        lo, hi = np.asarray(self.u_min, dtype=float), np.asarray(self.u_max, dtype=float)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all() and (lo < hi).all()):
            raise ValueError(f"MpcConfig: 'u_min' and 'u_max' must be finite with "
                             f"u_min < u_max componentwise, got {lo} and {hi}")
        if not 0.0 <= self.qp_tol < np.inf:
            raise ValueError(f"MpcConfig: 'qp_tol' must be finite and >= 0, got {self.qp_tol}")
        # Q PSD up to rounding of its entries, R PD; a non-finite entry fails
        Q, R = (np.asarray(W, dtype=float) for W in (self.Q, self.R))
        if not (np.all(np.isfinite(Q))
                and np.linalg.eigvalsh(Q + Q.T)[0] >= -1e-12 * np.abs(Q).max()):
            raise ValueError("MpcConfig: 'Q' must be positive semidefinite")
        if not (np.all(np.isfinite(R)) and np.linalg.eigvalsh(R + R.T)[0] > 0.0):
            raise ValueError("MpcConfig: 'R' must be positive definite")


def end_effector_weight(n: int, weight: float = 1.0) -> np.ndarray:
    """Output weight penalizing only the last two coordinates (the end
    effector position); intermediate outputs are unweighted."""
    Q = np.zeros((n, n))
    Q[-2, -2] = weight
    Q[-1, -1] = weight
    return Q


@dataclass(frozen=True)
class QpProblem:
    """min 1/2 U'HU + f'U subject to lower <= U <= upper."""

    H: np.ndarray
    f: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


class Condenser:
    """Precomputed condensation of a time-invariant lifted model under a
    fixed horizon: only the linear term depends on (z0, reference)."""

    def __init__(self, model: KoopmanModel, cfg: MpcConfig):
        A, B, C = model.A, model.B, model.C
        n, m, Nh = C.shape[0], B.shape[1], cfg.Nh
        # S: stacked C A^i (i = 1..Nh); M: block lower triangular C A^(i-1-j) B
        powers = [np.eye(A.shape[0])]
        for _ in range(Nh):
            powers.append(A @ powers[-1])
        S = np.vstack([C @ powers[i] for i in range(1, Nh + 1)])
        M = np.zeros((n * Nh, m * Nh))
        for i in range(1, Nh + 1):
            for j in range(i):
                M[(i - 1) * n:i * n, j * m:(j + 1) * m] = C @ powers[i - 1 - j] @ B
        Qbar = np.kron(np.eye(Nh), np.asarray(cfg.Q, dtype=float))
        Rbar = np.kron(np.eye(Nh), np.asarray(cfg.R, dtype=float))
        H = 2.0 * (M.T @ Qbar @ M + Rbar)
        self.model = model
        self.cfg = cfg
        self.S = S
        # the linear term's gain: f = P (S z0 - ref)
        self.P = (2.0 * M.T) @ Qbar
        self.H = 0.5 * (H + H.T)
        self.lower = np.tile(np.asarray(cfg.u_min, dtype=float), Nh)
        self.upper = np.tile(np.asarray(cfg.u_max, dtype=float), Nh)

    def qp(self, z0: np.ndarray, ref: np.ndarray) -> QpProblem:
        ref = np.asarray(ref, dtype=float).reshape(-1)
        if ref.shape[0] != self.S.shape[0]:
            raise ValueError(
                f"reference has {ref.shape[0]} entries, expected {self.S.shape[0]}"
            )
        f = self.P @ (self.S @ np.asarray(z0, dtype=float) - ref)
        return QpProblem(H=self.H, f=f, lower=self.lower, upper=self.upper)


@dataclass
class QpResult:
    x: np.ndarray
    converged: bool
    iterations: int
    kkt_residual: float


def kkt_residual(qp: QpProblem, x: np.ndarray) -> float:
    """Largest componentwise violation of box-constrained first-order
    optimality at x."""
    return _kkt_residual(qp, x, qp.H @ x + qp.f)


def _kkt_residual(qp: QpProblem, x: np.ndarray, g: np.ndarray) -> float:
    """:func:`kkt_residual` from the gradient g = H x + f at x."""
    at_lower = x <= qp.lower + 1e-12
    at_upper = x >= qp.upper - 1e-12
    r = np.abs(g)
    r[at_lower] = np.maximum(-g[at_lower], 0.0)
    r[at_upper] = np.maximum(g[at_upper], 0.0)
    # a coordinate pinned at both bounds is trivially optimal
    r[at_lower & at_upper] = 0.0
    return float(np.max(r)) if r.size else 0.0


def _free_newton(H: np.ndarray, g: np.ndarray, free: np.ndarray,
                 d: np.ndarray) -> np.ndarray:
    """Overwrite d on the free coordinates with the Newton step
    -H_ff^-1 g_f (steepest descent -g_f if H_ff is singular); return d."""
    idx = np.flatnonzero(free)
    if idx.size:
        try:
            d[idx] = np.linalg.solve(H[idx[:, None], idx], -g[idx])
        except np.linalg.LinAlgError:
            d[idx] = -g[idx]
    return d


def solve_box_qp(qp: QpProblem, tol: float = 1e-8, max_iter: int = 100,
                 x0: Optional[np.ndarray] = None) -> QpResult:
    """Deterministic projected-Newton solver for strictly convex box QPs.

    Each iteration pins the coordinates whose gradient pushes them outward at
    an active bound, takes a Newton step on the free block with a backtracking
    projected line search, and stops once the KKT residual is within tol.

    A coordinate released from a bound (its gradient points inward) can still
    get an outward Newton component, which the projection would clip, spoiling
    the step for the rest of the block.  Such coordinates are held where they
    are and the Newton step is re-solved on the others until every free
    coordinate at a bound moves inward.  If that leaves no step, the first
    Newton direction is used as it is.
    """
    H, f, lo, hi = qp.H, qp.f, qp.lower, qp.upper
    n = f.shape[0]
    x = np.clip(x0 if x0 is not None else np.zeros(n), lo, hi).astype(float)
    eps = 1e-10
    it = 0
    for it in range(1, max_iter + 1):
        g = H @ x + f
        res = _kkt_residual(qp, x, g)
        if res <= tol:
            return QpResult(x=x, converged=True, iterations=it - 1, kkt_residual=res)
        at_lower, at_upper = x <= lo + eps, x >= hi - eps
        free = ~((at_lower & (g > 0)) | (at_upper & (g < 0)))
        d = _free_newton(H, g, free, -g)
        outward = free & ((at_lower & (d < 0)) | (at_upper & (d > 0)))
        if outward.any():
            first = d
            while outward.any():
                free &= ~outward
                d = _free_newton(H, g, free, np.zeros(n))
                outward = free & ((at_lower & (d < 0)) | (at_upper & (d > 0)))
            if not d.any():
                d = first
        # projected backtracking line search on the objective
        obj = 0.5 * x @ H @ x + f @ x
        alpha = 1.0
        accepted = False
        for _ in range(60):
            x_new = np.clip(x + alpha * d, lo, hi)
            obj_new = 0.5 * x_new @ H @ x_new + f @ x_new
            if obj_new <= obj or np.array_equal(x_new, x):
                accepted = True
                break
            alpha *= 0.5
        x = x_new
        if not accepted:
            break
    res = kkt_residual(qp, x)
    return QpResult(x=x, converged=res <= tol, iterations=it, kkt_residual=res)


@dataclass
class StepLog:
    step: int
    t: float
    y: np.ndarray
    r: np.ndarray
    u: np.ndarray
    w_hat: np.ndarray
    qp_iters: int
    converged: bool
    kkt_residual: float
    solve_ms: float


class Controller:
    """Closed-loop tracking controller: delay-embeds the measurements, runs
    the load-estimation schedule (when the model is load-augmented and no
    fixed load is supplied), condenses, solves the box QP, and applies the
    first input block.

    ``reference`` holds one output row per step, held at its last row past
    the end (see ``harness.Reference.table``); step k tracks rows k+1..k+Nh.

    A measurement with a non-finite entry is rejected before any state
    changes: the last applied input (neutral before the first step) is held
    and ``rejected`` counts the event.
    """

    def __init__(self, model: KoopmanModel, mpc_cfg: MpcConfig,
                 reference: np.ndarray,
                 est_cfg: Optional[EstimatorConfig] = None,
                 known_load=None):
        self.model = model
        self.cfg = mpc_cfg
        reference = np.asarray(reference, dtype=float)
        if reference.ndim != 2 or not len(reference) or reference.shape[1] != model.n:
            raise ValueError(f"reference must be a (rows, {model.n}) array, got {reference.shape}")
        # held past the end: Nh copies of the last row let every step slice
        self.reference = np.vstack([reference] + [reference[-1:]] * mpc_cfg.Nh)
        self.last_row = reference.shape[0] - 1
        self.condenser = Condenser(model, mpc_cfg)
        self.known_load = None if known_load is None else np.atleast_1d(np.asarray(known_load, dtype=float))
        if model.p > 0 and self.known_load is None:
            cfg = est_cfg if est_cfg is not None else EstimatorConfig()
            self.estimator = EstimatorState(cfg=cfg, d=model.d)
        else:
            self.estimator = None
        self.u_neutral = 0.5 * (np.asarray(mpc_cfg.u_min, dtype=float)
                                + np.asarray(mpc_cfg.u_max, dtype=float))
        # y[k-d..k] and u[k-d-1..k-1]: the input history runs one step behind
        self.history_y = deque(maxlen=model.d + 1)
        self.history_u = deque(maxlen=model.d + 1)
        self.prev_U: Optional[np.ndarray] = None
        self.step_count = 0
        self.rejected = 0
        self.logs: list = []

    @property
    def w_hat(self) -> Optional[np.ndarray]:
        if self.known_load is not None:
            return self.known_load
        if self.estimator is not None:
            return self.estimator.w_hat
        return None

    def _warm_start(self) -> Optional[np.ndarray]:
        if self.prev_U is None:
            return None
        m = self.model.m
        return np.concatenate([self.prev_U[m:], self.prev_U[-m:]])

    def step(self, y_measured) -> np.ndarray:
        """Algorithm step: update estimate if due, solve the QP, return the
        first input block (always within bounds)."""
        y = np.atleast_1d(np.asarray(y_measured, dtype=float))
        if not np.all(np.isfinite(y)):
            self.rejected += 1
            logger.warning("controller step %d: non-finite measurement %s rejected, "
                           "holding the last input", self.step_count, y)
            return (self.history_u[-1] if self.history_u else self.u_neutral).copy()
        k = self.step_count
        # the estimator consumes completed (y, u) records, one step behind:
        # the newest of both histories, before this step's y is appended
        if self.estimator is not None and k > 0:
            obs.update(self.estimator, self.model, self.history_y[-1], self.history_u[-1])
        if not self.history_y:
            # prefill so delay embedding is defined from the first step
            self.history_y.extend([y.copy()] * self.model.d)
            self.history_u.extend([self.u_neutral] * (self.model.d + 1))
        self.history_y.append(y.copy())
        yd = delay_embed(np.array(self.history_y), np.array(self.history_u)[1:],
                         self.model.d)[0]
        z0 = self.model.lift(yd, self.w_hat)
        j = min(k, self.last_row)
        t0 = time.perf_counter()
        qp = self.condenser.qp(z0, self.reference[j + 1:j + 1 + self.cfg.Nh])
        result = solve_box_qp(qp, tol=self.cfg.qp_tol,
                              max_iter=self.cfg.qp_max_iter, x0=self._warm_start())
        solve_ms = (time.perf_counter() - t0) * 1e3
        self.prev_U = result.x
        m = self.model.m
        u = np.clip(result.x[:m], self.cfg.u_min, self.cfg.u_max)
        self.history_u.append(u.copy())
        self.logs.append(StepLog(
            step=k, t=k * self.model.Ts, y=y.copy(), r=self.reference[j].copy(),
            u=u.copy(), w_hat=(self.w_hat.copy() if self.w_hat is not None else np.zeros(0)),
            qp_iters=result.iterations, converged=result.converged,
            kkt_residual=result.kkt_residual,
            solve_ms=solve_ms,
        ))
        self.step_count += 1
        return u
