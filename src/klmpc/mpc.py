"""Receding-horizon tracking: condensation of the lifted linear model into a
dense box-constrained QP, a deterministic projected-Newton solver, and the
closed control loop with periodic load estimation.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from . import observer as obs
from .edmd import KoopmanModel
from .lifting import delay_embed
from .numkit import lapack
from .observer import EstimatorConfig, EstimatorState
from .plant import check_counts

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MpcConfig:
    """The tracking cost's weights and the input box: the output error
    weighed by diag(q), each input by r_weight, and every input held to
    [u_min, u_max]."""
    Nh: int                      # horizon (steps)
    q: tuple                     # output-error weight per output (>= 0)
    r_weight: float              # input weight (> 0)
    u_min: float
    u_max: float
    # the QP's stopping rule: KKT residual within qp_tol, or qp_max_iter iterations
    qp_tol: ClassVar[float] = 1e-8
    qp_max_iter: ClassVar[int] = 100

    def __post_init__(self):
        # each check is written so that NaN fails it
        check_counts("MpcConfig", 1, Nh=self.Nh)
        q = np.asarray(self.q, dtype=float)
        if not (q.ndim == 1 and np.all((q >= 0.0) & (q < np.inf))):
            raise ValueError(f"MpcConfig: 'q' must be finite weights >= 0, got {self.q}")
        if not 0.0 < self.r_weight < np.inf:
            raise ValueError(f"MpcConfig: 'r_weight' must be finite and > 0, got {self.r_weight}")
        if not -np.inf < self.u_min < self.u_max < np.inf:
            raise ValueError(f"MpcConfig: 'u_min' and 'u_max' must be finite with "
                             f"u_min < u_max, got {self.u_min} and {self.u_max}")


class Condenser:
    """Precomputed condensation of a time-invariant lifted model under a fixed
    horizon into a box QP: only its linear term f depends on (z0, reference).

    A model whose condensed S, P or H is not finite, or whose H is not
    positive definite, is refused; its overflow stays silent, so the refusal
    is the one report."""

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, model: KoopmanModel, cfg: MpcConfig):
        A, B = model.A, model.B
        n, m, Nh = model.n, B.shape[1], cfg.Nh
        if len(cfg.q) != n:
            raise ValueError(f"Condenser: 'q' has length {len(cfg.q)}, but the model has n = {n}")
        # S: stacked C A^i = (A^i)[:n] (i = 1..Nh); M: block lower triangular, block
        # row i the Markov parameters C A^i B, ..., C B (each formed once), then zeros
        powers = [np.eye(A.shape[0])]
        for _ in range(Nh):
            powers.append(A @ powers[-1])
        CA = [P[:n] for P in powers]
        markov = [CA[lag] @ B for lag in range(Nh)]
        S = np.vstack(CA[1:])
        zero = np.zeros((n, m))
        M = np.concatenate([np.concatenate(markov[i::-1] + [zero] * (Nh - 1 - i), axis=1)
                            for i in range(Nh)])
        Qbar = np.kron(np.eye(Nh), np.diag(np.asarray(cfg.q, dtype=float)))
        Rbar = cfg.r_weight * np.eye(Nh * m)
        H = 2.0 * (M.T @ Qbar @ M + Rbar)
        self.S = S
        # the linear term's gain: f = P (S z0 - ref)
        self.P = (2.0 * M.T) @ Qbar
        self.H = 0.5 * (H + H.T)
        try:
            if not all(np.all(np.isfinite(X)) for X in (self.S, self.P, self.H)):
                raise np.linalg.LinAlgError
            np.linalg.cholesky(self.H)
        except np.linalg.LinAlgError:
            raise ValueError(f"Condenser: the condensation of the n_z = {model.n_z} model "
                             f"is not finite with a positive definite Hessian") from None
        self.lower = np.full(Nh * m, float(cfg.u_min))
        self.upper = np.full(Nh * m, float(cfg.u_max))

    def qp(self, z0: np.ndarray, ref: np.ndarray) -> np.ndarray:
        """The QP's linear term f at the lifted state z0 and the Nh reference rows."""
        ref = np.asarray(ref, dtype=float).reshape(-1)
        if ref.shape[0] != self.S.shape[0]:
            raise ValueError(f"reference has {ref.shape[0]} entries, "
                             f"expected {self.S.shape[0]}")
        return self.P @ (self.S @ np.asarray(z0, dtype=float) - ref)


@dataclass
class QpResult:
    x: np.ndarray
    converged: bool
    iterations: int
    kkt_residual: float


def kkt_residual(x: np.ndarray, g: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    """Largest componentwise violation at x of first-order optimality for
    min 1/2 x'Hx + f'x subject to lower <= x <= upper, from the gradient
    g = H x + f at x."""
    at_lower = x <= lower + 1e-12
    at_upper = x >= upper - 1e-12
    r = np.abs(g)
    r[at_lower] = np.maximum(-g[at_lower], 0.0)
    r[at_upper] = np.maximum(g[at_upper], 0.0)
    # a coordinate pinned at both bounds is trivially optimal
    r[at_lower & at_upper] = 0.0
    return float(np.max(r)) if r.size else 0.0


@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def _free_newton(H: np.ndarray, g: np.ndarray, free: np.ndarray,
                 d: np.ndarray) -> np.ndarray:
    """Overwrite d on the free coordinates with the Newton step -H_ff^-1 g_f;
    return d.  A singular H_ff sets the invalid flag: steepest descent -g_f."""
    idx = np.flatnonzero(free)
    if idx.size:
        try:
            d[idx] = lapack.solve1(H[idx[:, None], idx], -g[idx], signature="dd->d")
        except FloatingPointError:
            d[idx] = -g[idx]
    return d


def solve_box_qp(H: np.ndarray, f: np.ndarray, lower: np.ndarray, upper: np.ndarray, *,
                 tol: float = MpcConfig.qp_tol, max_iter: int = MpcConfig.qp_max_iter,
                 x0: Optional[np.ndarray] = None) -> QpResult:
    """Deterministic projected-Newton solver for the strictly convex box QP
    min 1/2 x'Hx + f'x subject to lower <= x <= upper.

    Each iteration pins the coordinates whose gradient pushes them outward at
    an active bound, takes a Newton step on the free block with a backtracking
    projected line search, and stops once the KKT residual is within tol.

    A coordinate released from a bound (its gradient points inward) can still
    get an outward Newton component, which the projection would clip, spoiling
    the step for the rest of the block.  Such coordinates are held where they
    are and the Newton step is re-solved on the others until every free
    coordinate at a bound moves inward.  The step is never empty: g_F'd_F < 0
    and each held coordinate has g_j d_j >= 0, so one with g_j d_j < 0 stays free.

    The tol and max_iter defaults are MpcConfig's values, bound when this
    module is imported; a caller who wants other values passes them.
    """
    n = f.shape[0]
    x = np.clip(x0 if x0 is not None else np.zeros(n), lower, upper).astype(float)
    eps = 1e-10
    it = 0
    for it in range(1, max_iter + 1):
        g = H @ x + f
        res = kkt_residual(x, g, lower, upper)
        if res <= tol:
            return QpResult(x=x, converged=True, iterations=it - 1, kkt_residual=res)
        at_lower, at_upper = x <= lower + eps, x >= upper - eps
        free = ~((at_lower & (g > 0)) | (at_upper & (g < 0)))
        d = _free_newton(H, g, free, -g)
        while (outward := free & ((at_lower & (d < 0)) | (at_upper & (d > 0)))).any():
            free &= ~outward
            d = _free_newton(H, g, free, np.zeros(n))
        # projected backtracking line search on the objective
        obj = 0.5 * x @ H @ x + f @ x
        alpha = 1.0
        accepted = False
        for _ in range(60):
            x_new = np.clip(x + alpha * d, lower, upper)
            obj_new = 0.5 * x_new @ H @ x_new + f @ x_new
            if obj_new <= obj or np.array_equal(x_new, x):
                accepted = True
                break
            alpha *= 0.5
        x = x_new
        if not accepted:
            break
    res = kkt_residual(x, H @ x + f, lower, upper)
    return QpResult(x=x, converged=res <= tol, iterations=it, kkt_residual=res)


class Controller:
    """Closed-loop tracking controller: delay-embeds the measurements, runs
    the load-estimation schedule (when the model is load-augmented and no
    fixed load is supplied), condenses, solves the box QP, and applies the
    first input block.

    ``reference`` holds one output row per step, held at its last row past
    the end (see ``harness.Reference.table``); step k tracks rows k+1..k+Nh.
    ``known_load`` must have p finite entries; without it, p > 0 needs ``est_cfg``.

    ``logs`` is the step log, a record array with one row per step taken.
    It is the tail of one buffer whose first d rows are the start-up window
    (step 0's output, neutral inputs): step k embeds buffer rows k..k+d.

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
        if not np.all(np.isfinite(reference)):
            raise ValueError("reference has non-finite entries")
        # held past the end: Nh copies of the last row let every step slice
        self.reference = np.vstack([reference] + [reference[-1:]] * mpc_cfg.Nh)
        self.last_row = reference.shape[0] - 1
        self.condenser = Condenser(model, mpc_cfg)
        self.known_load = None if known_load is None else np.atleast_1d(np.asarray(known_load, dtype=float))
        if self.known_load is not None and not (self.known_load.shape == (model.p,)
                                                and np.all(np.isfinite(self.known_load))):
            raise ValueError(f"known_load must be {model.p} finite entries, got {self.known_load}")
        observed = model.p > 0 and self.known_load is None
        if observed and est_cfg is None:
            raise ValueError("a load-augmented model needs known_load or est_cfg")
        self.estimator = EstimatorState(cfg=est_cfg, d=model.d) if observed else None
        self.u_neutral = np.full(model.m, 0.5 * (mpc_cfg.u_min + mpc_cfg.u_max))
        n, m, d = model.n, model.m, model.d
        self._log = np.recarray(d + len(self.reference), dtype=[
            ("step", int), ("t", float), ("y", float, (n,)), ("r", float, (n,)),
            ("u", float, (m,)), ("w_hat", float, (model.p,)), ("qp_iters", int),
            ("converged", bool), ("kkt_residual", float), ("solve_ms", float)])
        self._log.u[:d] = self.u_neutral
        self._steps = 0
        # the last plan shifted by one block, repeating its final block
        self.warm_start: Optional[np.ndarray] = None
        self.rejected = 0

    @property
    def logs(self) -> np.recarray:
        return self._log[self.model.d:self.model.d + self._steps]

    @property
    def w_hat(self) -> Optional[np.ndarray]:
        if self.known_load is not None:
            return self.known_load
        return None if self.estimator is None else self.estimator.w_hat

    def step(self, y_measured) -> np.ndarray:
        """Algorithm step: lift with the current load estimate, solve the QP,
        feed this step's (y, u) to the estimator, and return the first input
        block (always within bounds).  A non-finite input is a ValueError."""
        y = np.atleast_1d(np.asarray(y_measured, dtype=float))
        if y.shape != (self.model.n,):
            raise ValueError(f"measurement must have shape ({self.model.n},), got {y.shape}")
        k, d = self._steps, self.model.d
        if not np.all(np.isfinite(y)):
            self.rejected += 1
            logger.warning("controller step %d: non-finite measurement %s rejected, "
                           "holding the last input", k, y)
            return (self._log.u[d + k - 1] if k else self.u_neutral).copy()
        if d + k == len(self._log):  # full: double the buffer
            self._log = np.concatenate([self._log, np.empty_like(self._log)]).view(np.recarray)
        # step 0's output also fills the start-up window
        self._log.y[d + k if k else 0:d + k + 1] = y
        yd = delay_embed(self._log.y[k:k + d + 1], self._log.u[k:k + d], d)[0]
        w_hat = self.w_hat
        z0 = self.model.lift(yd, w_hat)
        j = min(k, self.last_row)
        cond = self.condenser
        f = cond.qp(z0, self.reference[j + 1:j + 1 + self.cfg.Nh])
        # one refusal for every model, before the solve: a lift that is not
        # finite, or a huge finite one, gives f whose square quietly overflows;
        # a known load is lifted with the measurement, so it is named too;
        # when the lifted state's part of f squares finitely, the reference
        # rows are what put it out of range
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(f @ f):
                lifted = cond.P @ (cond.S @ z0)
                if np.isfinite(lifted @ lifted):
                    raise ValueError(f"controller step {k}: reference rows {j + 1}..{j + self.cfg.Nh} "
                                     f"put the QP's linear term out of range, which would give "
                                     f"a non-finite input")
                at = "" if self.known_load is None else f" at known load {self.known_load}"
                raise ValueError(f"controller step {k}: measurement {y}{at} puts the QP's "
                                 f"linear term out of range, which would give a non-finite input")
        t0 = time.perf_counter()
        result = solve_box_qp(cond.H, f, cond.lower, cond.upper, tol=self.cfg.qp_tol,
                              max_iter=self.cfg.qp_max_iter, x0=self.warm_start)
        solve_ms = (time.perf_counter() - t0) * 1e3
        m = self.model.m
        # the solver's iterates are projected onto the box, so u is within bounds
        u = result.x[:m]
        if not np.all(np.isfinite(u)):
            raise ValueError(f"controller step {k}: the QP gave a non-finite input {u}")
        self.warm_start = np.concatenate([result.x[m:], result.x[-m:]])
        self._log[d + k] = (k, k * self.model.Ts, y, self.reference[j], u,
                            () if w_hat is None else w_hat, result.iterations,
                            result.converged, result.kkt_residual, solve_ms)
        self._steps = k + 1
        # the estimator takes this step's record once it is complete, so the
        # next step lifts with an estimate that has seen it
        if self.estimator is not None:
            obs.update(self.estimator, self.model, y, u)
        return u
