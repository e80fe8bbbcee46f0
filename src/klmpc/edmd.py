"""EDMD fitting: snapshot assembly, least-squares Koopman matrix, and
extraction of the (A, B, C) linear realization, with optional load
augmentation.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lifting, numkit
from .lifting import Basis, DelayEmbedded, delay_embed, identity_basis

logger = logging.getLogger(__name__)

CSV_FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class Trajectory:
    """One recorded run at uniform sampling: times, outputs, inputs, and the
    (constant) load applied during the run, if annotated."""

    t: np.ndarray           # (K,)
    y: np.ndarray           # (K, n)
    u: np.ndarray           # (K, m)
    w: Optional[np.ndarray] = None   # (p,)

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def Ts(self) -> float:
        dt = np.diff(self.t)
        if dt.size == 0:
            raise ValueError("trajectory has fewer than 2 samples")
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
            raise ValueError("trajectory is not uniformly sampled")
        return float(dt[0])


@dataclass(frozen=True)
class Snapshot:
    """Paired lifted-state transition sample (a, b, u) with optional load."""

    a: np.ndarray           # embedded output at step k
    b: np.ndarray           # embedded output at step k+1
    u: np.ndarray           # input applied between a and b
    w: Optional[np.ndarray] = None


def assemble_snapshots(trajectories, d: int) -> list:
    """Build delay-embedded snapshot pairs from uniformly sampled runs.

    The b-side snapshot is the embedding at k+1, so b[k] == a[k+1] and the
    fitted matrix is a genuine one-step transition map.  Pairs never straddle
    trajectory boundaries.
    """
    snapshots = []
    for traj in trajectories:
        K = len(traj)
        if K < d + 2:
            raise ValueError(
                f"trajectory of length {K} too short for d={d} (need >= {d + 2})"
            )
        traj.Ts  # raises on non-uniform sampling
        ys, us = traj.y, traj.u
        for k in range(d, K - 1):
            a = delay_embed(ys, us, k, d).vector
            b = delay_embed(ys, us, k + 1, d).vector
            snapshots.append(Snapshot(a=a, b=b, u=np.asarray(us[k], dtype=float),
                                      w=None if traj.w is None else np.asarray(traj.w, dtype=float)))
    return snapshots


@dataclass(frozen=True)
class KoopmanModel:
    """Discrete lifted linear model z+ = Az + Bu, y = Cz.

    C is exactly [I_n | 0].  ``p`` is the load dimension (0 when the model is
    not load-augmented), and n_z = N_g * (p + 1).  ``bottom_block_residual``
    is the Frobenius deviation of the fitted transition matrix's bottom block
    from [O | I], reported as a fit diagnostic.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    basis: Basis
    Ts: float
    p: int = 0
    bottom_block_residual: float = 0.0

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def n_z(self) -> int:
        return self.A.shape[0]

    def lift(self, yd, w=None) -> np.ndarray:
        """Lift an embedded output into the model's state space (g or gamma)."""
        if self.p > 0:
            if w is None:
                raise ValueError("load-augmented model requires a load value to lift")
            return lifting.lift_gamma(self.basis, yd, w)
        return lifting.lift_g(self.basis, yd)


def _snapshot_arrays(snapshots, with_load: bool):
    """Row-stack the a sides, b sides, inputs and (when ``with_load``) loads
    of a snapshot list."""
    A_side = np.stack([s.a for s in snapshots])
    B_side = np.stack([s.b for s in snapshots])
    U = np.stack([np.atleast_1d(s.u) for s in snapshots])
    if not with_load:
        return A_side, B_side, U, None
    if any(s.w is None for s in snapshots):
        raise ValueError("with_load requires a load on every snapshot")
    return A_side, B_side, U, np.stack([np.atleast_1d(s.w) for s in snapshots])


def _lift_rows(basis: Basis, Yd: np.ndarray, W: Optional[np.ndarray]) -> np.ndarray:
    if W is None:
        return lifting.lift_g_many(basis, Yd)
    return lifting.lift_gamma_many(basis, Yd, W)


def _lift_snapshot_sides(snapshots, basis: Basis, with_load: bool):
    A_side, B_side, U, W = _snapshot_arrays(snapshots, with_load)
    return (np.hstack([_lift_rows(basis, A_side, W), U]),
            np.hstack([_lift_rows(basis, B_side, W), U]), U.shape[1])


def fit_koopman(snapshots, basis: Basis, Ts: float, with_load: bool = False) -> KoopmanModel:
    """Least-squares fit of the lifted transition matrix and extraction of
    the (A, B, C) realization from its transpose partition."""
    if not snapshots:
        raise ValueError("fit_koopman: no snapshots")
    Psi_a, Psi_b, m = _lift_snapshot_sides(snapshots, basis, with_load)
    p = np.atleast_1d(snapshots[0].w).shape[0] if with_load else 0
    n_z = basis.n_lifted * (p + 1)
    if len(snapshots) < n_z + m:
        raise ValueError(
            f"fit_koopman: need at least n_z + m = {n_z + m} snapshots, "
            f"got {len(snapshots)}"
        )
    rank = np.linalg.matrix_rank(Psi_a)
    if rank < n_z + m:
        logger.warning(
            "fit_koopman: lifted data matrix is rank-deficient (%d < %d); "
            "fit proceeds via pseudoinverse", rank, n_z + m,
        )
    K_bar = numkit.pinv(Psi_a) @ Psi_b
    Kt = K_bar.T
    A = Kt[:n_z, :n_z]
    B = Kt[:n_z, n_z:]
    bottom = Kt[n_z:, :]
    target = np.hstack([np.zeros((m, n_z)), np.eye(m)])
    residual = float(np.linalg.norm(bottom - target))
    if residual > 1e-6:
        logger.info("fit_koopman: bottom-block residual %.3e", residual)
    n = basis.n
    C = np.hstack([np.eye(n), np.zeros((n, n_z - n))])
    return KoopmanModel(A=A, B=B, C=C, basis=basis, Ts=Ts, p=p,
                        bottom_block_residual=residual)


def fit_linear_baseline(snapshots, n: int, m: int, d: int, Ts: float) -> KoopmanModel:
    """Linear state-space baseline: identity-basis least squares (no
    dictionary, no load)."""
    return fit_koopman(snapshots, identity_basis(n, m, d), Ts, with_load=False)


def predict_one_step(model: KoopmanModel, yd, u, w=None) -> np.ndarray:
    """One-step output prediction C (A lift(yd, w) + B u)."""
    z = model.lift(yd, w)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return model.C @ (model.A @ z + model.B @ u)


def simulate_lifted(model: KoopmanModel, z0: np.ndarray, inputs) -> np.ndarray:
    """Pure linear rollout in the lifted space (no re-lifting); returns the
    output C z[j] after each input."""
    z = np.asarray(z0, dtype=float)
    if z.shape[0] != model.n_z:
        raise ValueError(f"z0 has dim {z.shape[0]}, model expects {model.n_z}")
    outputs = []
    for u in inputs:
        z = model.A @ z + model.B @ np.atleast_1d(np.asarray(u, dtype=float))
        outputs.append(model.C @ z)
    return np.asarray(outputs)


def one_step_rmse(model: KoopmanModel, trajectories) -> float:
    """Held-out one-step output RMSE over all valid snapshot pairs.

    All snapshots are lifted in one batch and predicted as
    (Z A' + U B') C', the row-stacked form of :func:`predict_one_step`.
    """
    snaps = assemble_snapshots(trajectories, model.d)
    Yd, Y_next, U, W = _snapshot_arrays(snaps, with_load=model.p > 0)
    Z = _lift_rows(model.basis, Yd, W)
    truth = Y_next[:, : model.n]
    pred = (Z @ model.A.T + U @ model.B.T) @ model.C.T
    return float(np.sqrt(np.sum((pred - truth) ** 2) / truth.size))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def model_to_dict(model: KoopmanModel) -> dict:
    return {
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "C": model.C.tolist(),
        "Ts": model.Ts,
        "p": model.p,
        "bottom_block_residual": model.bottom_block_residual,
        "basis": lifting.basis_to_dict(model.basis),
    }


def model_from_dict(doc: dict) -> KoopmanModel:
    return KoopmanModel(
        A=np.asarray(doc["A"], dtype=float),
        B=np.asarray(doc["B"], dtype=float),
        C=np.asarray(doc["C"], dtype=float),
        basis=lifting.basis_from_dict(doc["basis"]),
        Ts=float(doc["Ts"]),
        p=int(doc["p"]),
        bottom_block_residual=float(doc["bottom_block_residual"]),
    )


def save_model(model: KoopmanModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path) -> KoopmanModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def save_trajectories(trajectories, path) -> None:
    """Write a trajectory dataset as CSV: t, y1..yn, u1..um, w1..wp.

    Trajectories are separated by a restart of the time column; loads are
    repeated on every row.
    """
    trajectories = list(trajectories)
    n = trajectories[0].y.shape[1]
    m = trajectories[0].u.shape[1]
    p = 0 if trajectories[0].w is None else np.atleast_1d(trajectories[0].w).shape[0]
    header = (["t"] + [f"y{i+1}" for i in range(n)]
              + [f"u{i+1}" for i in range(m)] + [f"w{i+1}" for i in range(p)])
    rows = []
    for traj in trajectories:
        K = len(traj)
        block = [traj.t.reshape(K, 1), traj.y, traj.u]
        if p:
            block.append(np.tile(np.atleast_1d(traj.w), (K, 1)))
        rows.append(np.hstack(block))
    data = np.vstack(rows)
    np.savetxt(path, data, fmt=CSV_FLOAT_FMT, delimiter=",",
               header=",".join(header), comments="")


def load_trajectories(path) -> list:
    """Read a trajectory dataset written by :func:`save_trajectories`."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    names = header
    n = sum(1 for c in names if c.startswith("y"))
    m = sum(1 for c in names if c.startswith("u"))
    p = sum(1 for c in names if c.startswith("w"))
    t = data[:, 0]
    # trajectory boundaries: time restarts (non-increasing step)
    breaks = [0] + [i for i in range(1, len(t)) if t[i] <= t[i - 1]] + [len(t)]
    out = []
    for s, e in zip(breaks[:-1], breaks[1:]):
        block = data[s:e]
        w = block[0, 1 + n + m:] if p else None
        out.append(Trajectory(
            t=block[:, 0].copy(),
            y=block[:, 1:1 + n].copy(),
            u=block[:, 1 + n:1 + n + m].copy(),
            w=None if w is None else w.copy(),
        ))
    return out
