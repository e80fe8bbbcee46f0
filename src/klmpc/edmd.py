"""EDMD fitting: snapshot assembly, least-squares Koopman matrix, and
extraction of the (A, B, C) linear realization, with optional load
augmentation; the JSON model document; and the one CSV writer.

Fitting from recorded data other than a configured campaign is a library
call: :func:`assemble_snapshots` on a list of :class:`Trajectory`, then
:func:`fit_koopman`.
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


def write_csv(path, header, rows) -> None:
    """Write the header line, then one line per row: a string cell as it is,
    a number as ``CSV_FLOAT_FMT`` (an int or a bool as a whole number)."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else CSV_FLOAT_FMT % c
                              for c in row) + "\n")


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

    C = [I_n | 0] is derived, not stored.  ``p`` is the load dimension (0
    when the model is not load-augmented), and n_z = N_g * (p + 1).
    ``bottom_block_residual`` is the Frobenius deviation of the fitted
    transition matrix's bottom block from [O | I], a fit diagnostic.
    """

    A: np.ndarray
    B: np.ndarray
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

    @property
    def C(self) -> np.ndarray:
        return np.eye(self.n, self.n_z)

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
    # the bottom block's deviation from [O | I]
    residual = float(np.linalg.norm(Kt[n_z:] - np.eye(m, n_z + m, n_z)))
    if residual > 1e-6:
        logger.info("fit_koopman: bottom-block residual %.3e", residual)
    return KoopmanModel(A=A, B=B, basis=basis, Ts=Ts, p=p,
                        bottom_block_residual=residual)


def fit_linear_baseline(snapshots, n: int, m: int, d: int, Ts: float) -> KoopmanModel:
    """Linear state-space baseline: identity-basis least squares (no
    dictionary, no load)."""
    return fit_koopman(snapshots, identity_basis(n, m, d), Ts, with_load=False)


def one_step_rmse(model: KoopmanModel, trajectories) -> float:
    """Held-out one-step output RMSE over all valid snapshot pairs.

    All snapshots are lifted in one batch and predicted as
    (Z A' + U B') C', the row-stacked form of C (A lift(yd, w) + B u).
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
        "Ts": model.Ts,
        "p": model.p,
        "bottom_block_residual": model.bottom_block_residual,
        "basis": lifting.basis_to_dict(model.basis),
    }


def model_from_dict(doc: dict) -> KoopmanModel:
    """Inverse of :func:`model_to_dict`; a missing key raises ValueError
    naming it.  An older file's ``C`` must be [I_n | 0]."""
    try:
        model = KoopmanModel(
            A=np.asarray(doc["A"], dtype=float),
            B=np.asarray(doc["B"], dtype=float),
            basis=lifting.basis_from_dict(doc["basis"]),
            Ts=float(doc["Ts"]),
            p=int(doc["p"]),
            bottom_block_residual=float(doc["bottom_block_residual"]),
        )
    except KeyError as exc:
        raise ValueError(f"model document is missing key {exc.args[0]!r}") from None
    if "C" in doc and not np.array_equal(np.asarray(doc["C"], dtype=float), model.C):
        raise ValueError("model document: 'C' must be [I_n | 0]")
    return model


def save_models(models: dict, path) -> None:
    """Write named models as one JSON document, each entry the model's
    :func:`model_to_dict`."""
    with open(path, "w") as fh:
        json.dump({name: model_to_dict(model) for name, model in models.items()}, fh)
