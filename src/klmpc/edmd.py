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
from .lifting import Basis, delay_embed, identity_basis

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


def assemble_snapshots(trajectories, d: int):
    """Build row-stacked delay-embedded snapshot pairs from uniformly sampled
    runs.

    Returns ``(a, b, U, W)``: the embeddings at steps k = d, ..., K-2 of each
    run, the embeddings at k+1, the inputs applied between them and the run
    loads (``W`` is None when any run is unannotated).  The b side is the
    a side shifted by one step within each run, so the fitted matrix is a
    genuine one-step transition map, and pairs never straddle runs.
    """
    a, b, U, W = [], [], [], []
    for traj in trajectories:
        K = len(traj)
        if K < d + 2:
            raise ValueError(
                f"trajectory of length {K} too short for d={d} (need >= {d + 2})"
            )
        traj.Ts  # raises on non-uniform sampling
        E = delay_embed(traj.y, traj.u, d)
        a.append(E[:-1])
        b.append(E[1:])
        U.append(np.asarray(traj.u[d:K - 1], dtype=float))
        W.append(None if traj.w is None
                 else np.tile(np.atleast_1d(np.asarray(traj.w, dtype=float)), (K - d - 1, 1)))
    W = None if any(w is None for w in W) else np.vstack(W)
    return np.vstack(a), np.vstack(b), np.vstack(U), W


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


def _lift_rows(basis: Basis, Yd: np.ndarray, W: Optional[np.ndarray],
               with_load: bool, out=None) -> np.ndarray:
    if not with_load:
        return lifting.lift_g_many(basis, Yd, out=out)
    if W is None:
        raise ValueError("with_load requires a load on every snapshot")
    return lifting.lift_gamma_many(basis, Yd, W, out=out)


def fit_koopman(snapshots, basis: Basis, Ts: float, with_load: bool = False) -> KoopmanModel:
    """Least-squares fit of the lifted transition matrix from the
    ``(a, b, U, W)`` arrays of :func:`assemble_snapshots`, and extraction of
    the (A, B, C) realization from its transpose partition.

    K_bar = pinv(Psi_a) Psi_b with Psi = [lift(Yd) | U].  Each data matrix
    is lifted straight into its leading columns, and only one is alive at a
    time: Psi_a is released once its pseudoinverse exists, and only then is
    Psi_b lifted.  A rank-deficient Psi_a is reported by the pseudoinverse,
    from the one SVD it takes.
    """
    a, b, U, W = snapshots
    if with_load and W is None:
        raise ValueError("with_load requires a load on every snapshot")
    p = W.shape[1] if with_load else 0
    m = U.shape[1]
    n_z = basis.n_lifted * (p + 1)
    if a.shape[0] < n_z + m:
        raise ValueError(
            f"fit_koopman: need at least n_z + m = {n_z + m} snapshots, "
            f"got {a.shape[0]}"
        )

    def data_matrix(Yd):
        Psi = np.empty((Yd.shape[0], n_z + m))
        _lift_rows(basis, Yd, W, with_load, out=Psi[:, :n_z])
        Psi[:, n_z:] = U
        return Psi

    Psi_a = data_matrix(a)
    pinv_a = numkit.pinv(Psi_a)
    del Psi_a
    K_bar = pinv_a @ data_matrix(b)
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


def one_step_rmse(model: KoopmanModel, trajectories) -> float:
    """Held-out one-step output RMSE over all valid snapshot pairs.

    All snapshots are lifted in one batch and predicted as
    (Z A' + U B') C', the row-stacked form of :func:`predict_one_step`.
    """
    Yd, Y_next, U, W = assemble_snapshots(trajectories, model.d)
    Z = _lift_rows(model.basis, Yd, W, with_load=model.p > 0)
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
    """Inverse of :func:`model_to_dict`; a missing key raises ValueError
    naming it."""
    try:
        return KoopmanModel(
            A=np.asarray(doc["A"], dtype=float),
            B=np.asarray(doc["B"], dtype=float),
            C=np.asarray(doc["C"], dtype=float),
            basis=lifting.basis_from_dict(doc["basis"]),
            Ts=float(doc["Ts"]),
            p=int(doc["p"]),
            bottom_block_residual=float(doc["bottom_block_residual"]),
        )
    except KeyError as exc:
        raise ValueError(f"model document is missing key {exc.args[0]!r}") from None


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
    if not trajectories:
        raise ValueError("no trajectories to write: the campaign has no runs")
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
