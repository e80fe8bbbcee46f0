"""Online least-squares estimation of the unknown load from windowed
input/output history, with the periodic averaging schedule used by the
closed-loop controller.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import lifting, numkit
from .edmd import KoopmanModel
from .lifting import delay_embed

STATIONARY_MOTION_TOL = 1e-4


@dataclass(frozen=True)
class EstimatorConfig:
    """Schedule and bounds for the load estimator.

    Nw: measurement window length, Ne: steps between estimates, Nr: how many
    past window estimates enter the running average.
    """

    Nw: int = 30
    Ne: int = 12
    Nr: int = 24
    w_min: float = 0.0
    w_max: float = 0.3

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not (self.Nw >= 1 and self.Ne >= 1 and self.Nr >= 0):
            raise ValueError(f"EstimatorConfig: need Nw >= 1, Ne >= 1, Nr >= 0, "
                             f"got {self.Nw}, {self.Ne}, {self.Nr}")
        if not -np.inf < self.w_min <= self.w_max < np.inf:
            raise ValueError(f"EstimatorConfig: 'w_min' and 'w_max' must be finite with "
                             f"w_min <= w_max, got {self.w_min} and {self.w_max}")

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
    N, n = G.shape[1], model.n
    # C A and C B are the first n rows of A and B, copied row-major: a row
    # slice of the column-major A is strided, and BLAS rounds products with
    # it differently
    CA, CB = (np.ascontiguousarray(X[:n]) for X in (model.A, model.B))
    M = np.stack([G @ CA[:, c * N:(c + 1) * N].T for c in range(model.p + 1)],
                 axis=2).reshape(-1, model.p + 1)
    rhs = (Y_next - U @ CB.T).reshape(-1)
    return M, rhs


def _solve_load(M: np.ndarray, rhs: np.ndarray, cfg: EstimatorConfig):
    """Clamped w solving M (1, w) = rhs, or None when the equations are not
    finite, are blind to the load, or give a solve that is not finite.

    A full-column-rank M (at ``numkit.pinv``'s threshold) is solved for the
    whole (1, w) stack, so the constant coefficient soaks up any systematic
    one-step model offset; otherwise the constant is pinned at exactly 1.
    A finite M whose norm overflows comes from a model out of range, and is
    a ValueError.
    """
    if not np.all(np.isfinite(M)):
        return None
    w_cols = M[:, 1:]
    with np.errstate(over="ignore"):
        norm_w, norm_M = np.linalg.norm(w_cols), np.linalg.norm(M)
    if not np.isfinite(norm_M):
        raise ValueError("load equations: the entries are finite but their norm "
                         "overflows; the model's matrices are out of range")
    if norm_w < 1e-9 * max(norm_M, 1.0):
        return None
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == M.shape[1] and s[-1] > numkit.DEFAULT_RTOL * s[0]:
        w = numkit.lstsq(M, rhs)[1:]
    else:
        w = numkit.lstsq(w_cols, rhs - M[:, 0])
    return cfg.clamp(w) if np.all(np.isfinite(w)) else None


def window_system(model: KoopmanModel, history: np.ndarray, Nw: int):
    """Stacked load equations M (1, w) = rhs over the last Nw transitions in
    ``history``, newest first.

    ``history`` is a time-ordered (records, n + m) array, one [y | u] row per
    step, long enough for Nw rows plus the delay embedding:
    len >= Nw + d + 1.
    """
    d = model.d
    if model.p < 1:
        raise ValueError("load equations need a load-augmented model")
    if len(history) < Nw + d + 1:
        raise ValueError(
            f"window_system: need {Nw + d + 1} records, got {len(history)}"
        )
    records = history[-(Nw + d + 1):]
    ys, us = records[:, :model.n], records[:, model.n:]
    Yd = delay_embed(ys[:-1], us[:-1], d)    # transitions k -> k+1, oldest first
    return _load_system(model, Yd[::-1], ys[d + 1:][::-1], us[d:-1][::-1])


def estimate_window(model: KoopmanModel, history: np.ndarray, cfg: EstimatorConfig):
    """Windowed load estimate over the last Nw transitions in ``history``
    (see :func:`window_system`), or None (see ``_solve_load``)."""
    return _solve_load(*window_system(model, history, cfg.Nw), cfg)


def estimate_instant(model: KoopmanModel, history: np.ndarray, cfg: EstimatorConfig):
    """Load estimate from the newest transition in ``history`` alone: the
    window estimate with Nw = 1, whatever ``cfg.Nw`` is."""
    return _solve_load(*window_system(model, history, 1), cfg)


@dataclass
class EstimatorState:
    """The newest Nw + d + 1 records at most (``history``, one [y | u] row
    each, no rows before the first), and the buffered window estimates and
    their smoothed mean, driven by the update schedule."""

    cfg: EstimatorConfig
    d: int
    w_hat: np.ndarray = field(init=False)
    history: np.ndarray = field(init=False)
    estimates: deque = field(init=False)
    step: int = field(init=False, default=0)
    updates: int = field(init=False, default=0)
    degenerate: bool = field(init=False, default=False)

    def __post_init__(self):
        self.w_hat = self.cfg.w_init.copy()
        self.history = np.empty((0, 0))
        self.estimates = deque(maxlen=self.cfg.Nr)


def update(state: EstimatorState, model: KoopmanModel, y, u) -> EstimatorState:
    """Record one [y | u] row; every Ne steps compute a window estimate and
    refresh the smoothed w_hat as the buffered estimates' mean.

    Windows that hold a non-finite value, near-stationary windows (no load
    information) and windows blind to the load are skipped; the estimate
    carries over.
    """
    cfg = state.cfg
    row = np.concatenate([np.ravel(y), np.ravel(u)], dtype=float)[None]
    kept = state.history[-(cfg.Nw + state.d):]
    state.history = np.vstack([kept, row]) if len(kept) else row
    if state.step % cfg.Ne == 0 and len(state.history) >= cfg.Nw + state.d + 1:
        ys = state.history[:, :model.n]
        if (not np.all(np.isfinite(state.history))
                or np.max(np.linalg.norm(np.diff(ys, axis=0), axis=1)) < STATIONARY_MOTION_TOL):
            state.degenerate = True
        else:
            w_new = estimate_window(model, state.history, cfg)
            state.degenerate = w_new is None
            if w_new is not None:
                pool = [w_new, *state.estimates]
                state.w_hat = cfg.clamp(np.mean(pool, axis=0))
                state.estimates.append(w_new)
                state.updates += 1
    state.step += 1
    return state
