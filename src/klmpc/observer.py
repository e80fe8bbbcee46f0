"""Online least-squares estimation of the unknown load from windowed
input/output history, with the periodic averaging schedule used by the
closed-loop controller.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import lifting, numkit
from .edmd import KoopmanModel
from .lifting import delay_embed

STATIONARY_MOTION_TOL = 1e-4


@dataclass(frozen=True)
class EstimatorConfig:
    """Schedule and bounds for the load estimator.

    Nw: measurement window length, Ne: steps between estimates, Nr: how many
    past window estimates enter the running average.  ``reduced`` switches the
    window solve from the full (1, w) stack to the reduced form that fixes the
    constant coefficient at 1 (see ``estimate_window``).
    """

    Nw: int = 30
    Ne: int = 12
    Nr: int = 24
    w_min: float = 0.0
    w_max: float = 0.3
    reduced: bool = False

    def __post_init__(self):
        if self.Nw < 1 or self.Ne < 1 or self.Nr < 0:
            raise ValueError("EstimatorConfig: need Nw >= 1, Ne >= 1, Nr >= 0")
        if self.w_min > self.w_max:
            raise ValueError("EstimatorConfig: w_min must not exceed w_max")

    def clamp(self, w: np.ndarray) -> np.ndarray:
        return np.clip(w, self.w_min, self.w_max)

    @property
    def w_init(self) -> np.ndarray:
        return np.atleast_1d(0.5 * (self.w_min + self.w_max))


def _load_system(model: KoopmanModel, Yd: np.ndarray, Y_next: np.ndarray,
                 U: np.ndarray):
    """Stacked load equations M (1, w) = rhs, n rows per transition.

    For each row of embedded outputs ``Yd`` with the input ``U`` applied from
    it and the output ``Y_next`` it led to, the block is
    C A Gamma(yd) = [CA_0 g, ..., CA_p g] with g = g(yd) and CA_c the c-th
    column block of C A, and the rhs is y_next - C B u.
    """
    G = lifting.lift_g_many(model.basis, Yd)
    N = G.shape[1]
    CA = model.C @ model.A
    M = np.stack([G @ CA[:, c * N:(c + 1) * N].T for c in range(model.p + 1)],
                 axis=2).reshape(-1, model.p + 1)
    rhs = (Y_next - U @ (model.C @ model.B).T).reshape(-1)
    return M, rhs


def _solve_load(M: np.ndarray, rhs: np.ndarray, cfg: EstimatorConfig,
                fallback=None, reduced=None):
    """Solve the stacked load equations M (1, w) = rhs for w.

    The default (full) form solves for the whole (1, w) stack by
    pseudoinverse, letting the constant coefficient soak up any systematic
    one-step model offset; the reduced form pins the constant coefficient at
    exactly 1 and solves for w alone.
    """
    if reduced is None:
        reduced = cfg.reduced
    if fallback is None:
        fallback = cfg.w_init
    w_cols = M[:, 1:]
    scale = max(np.linalg.norm(M), 1.0)
    if np.linalg.norm(w_cols) < 1e-9 * scale:
        return np.asarray(fallback, dtype=float).copy(), True
    if reduced:
        w = numkit.lstsq(w_cols, rhs - M[:, 0])
    else:
        v = numkit.lstsq(M, rhs)
        w = v[1:]
    if not np.all(np.isfinite(w)):
        return np.asarray(fallback, dtype=float).copy(), True
    return cfg.clamp(w), False


def window_system(model: KoopmanModel, history, Nw: int):
    """Stacked load equations M (1, w) = rhs over the last Nw transitions in
    ``history``, newest first.

    ``history`` is a time-ordered sequence of (y, u) pairs, long enough for
    Nw rows plus the delay embedding: len >= Nw + d + 1.
    """
    d = model.d
    if model.p < 1:
        raise ValueError("load equations need a load-augmented model")
    if len(history) < Nw + d + 1:
        raise ValueError(
            f"window_system: need {Nw + d + 1} records, got {len(history)}"
        )
    records = list(history)[-(Nw + d + 1):]
    ys = np.stack([np.atleast_1d(np.asarray(y, dtype=float)) for y, _ in records])
    us = np.stack([np.atleast_1d(np.asarray(u, dtype=float)) for _, u in records])
    Yd = delay_embed(ys[:-1], us[:-1], d)    # transitions k -> k+1, oldest first
    return _load_system(model, Yd[::-1], ys[d + 1:][::-1], us[d:-1][::-1])


def estimate_window(model: KoopmanModel, history, cfg: EstimatorConfig,
                    fallback=None, reduced=None):
    """Windowed load estimate (w_hat, degenerate) over the last Nw
    transitions in ``history`` (see :func:`window_system`); a window blind to
    the load returns the fallback with the flag set."""
    return _solve_load(*window_system(model, history, cfg.Nw), cfg, fallback, reduced)


def estimate_instant(model: KoopmanModel, history, cfg: EstimatorConfig,
                     fallback=None, reduced=None):
    """Load estimate from the newest transition in ``history`` alone: the
    window estimate with Nw = 1, whatever ``cfg.Nw`` is."""
    return _solve_load(*window_system(model, history, 1), cfg, fallback, reduced)


@dataclass
class EstimatorState:
    """Ring buffers and the smoothed estimate driven by the update schedule."""

    cfg: EstimatorConfig
    d: int
    w_hat: np.ndarray = None
    history: deque = None
    estimates: deque = None
    step: int = 0
    updates: int = 0
    degenerate: bool = False

    def __post_init__(self):
        if self.w_hat is None:
            self.w_hat = self.cfg.w_init.copy()
        if self.history is None:
            self.history = deque(maxlen=self.cfg.Nw + self.d + 1)
        if self.estimates is None:
            self.estimates = deque(maxlen=max(self.cfg.Nr, 1))


def update(state: EstimatorState, model: KoopmanModel, y, u) -> EstimatorState:
    """Push a copy of one (y, u) record; every Ne steps compute a window
    estimate and refresh the smoothed w_hat as the buffered estimates' mean.

    Near-stationary windows carry no load information and are skipped
    (estimate carries over).
    """
    cfg = state.cfg
    state.history.append((np.array(y, dtype=float, ndmin=1),
                          np.array(u, dtype=float, ndmin=1)))
    if state.step % cfg.Ne == 0 and len(state.history) >= cfg.Nw + state.d + 1:
        ys = np.stack([yk for yk, _ in state.history])
        if np.max(np.linalg.norm(np.diff(ys, axis=0), axis=1)) < STATIONARY_MOTION_TOL:
            state.degenerate = True
        else:
            w_new, degenerate = estimate_window(model, state.history, cfg,
                                                fallback=state.w_hat)
            state.degenerate = degenerate
            if not degenerate:
                pool = [w_new] + list(state.estimates)[-cfg.Nr:] if cfg.Nr > 0 else [w_new]
                state.w_hat = cfg.clamp(np.mean(pool, axis=0))
                state.estimates.append(w_new)
                state.updates += 1
    state.step += 1
    return state


def save_estimate_trace(path, steps, times, w_instant, w_hat, w_true=None) -> None:
    """Estimate trace CSV: step, t, w_true (if known), w_instant, w_hat."""
    cols = [np.asarray(steps, dtype=float), np.asarray(times, dtype=float)]
    header = ["step", "t"]
    wi = np.atleast_2d(np.asarray(w_instant, dtype=float).T).T
    wh = np.atleast_2d(np.asarray(w_hat, dtype=float).T).T
    p = wh.shape[1]
    if w_true is not None:
        wt = np.atleast_2d(np.asarray(w_true, dtype=float).T).T
        cols.extend(wt[:, i] for i in range(p))
        header.extend(f"w_true{i+1}" for i in range(p))
    cols.extend(wi[:, i] for i in range(p))
    header.extend(f"w_instant{i+1}" for i in range(p))
    cols.extend(wh[:, i] for i in range(p))
    header.extend(f"w_hat{i+1}" for i in range(p))
    np.savetxt(path, np.column_stack(cols), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
