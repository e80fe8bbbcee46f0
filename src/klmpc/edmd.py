"""EDMD fitting: least-squares Koopman matrix and extraction of the (A, B)
linear realization, with optional load augmentation, from a recorded
campaign; and a model's JSON entry, converted to and from a dict and read
strictly.  This module opens no file: the harness owns the models document.

A campaign is three arrays, as :func:`klmpc.plant.collect_training_data`
records it: outputs ``Y`` (R, K+1, n), commands ``U`` (R, K, m) and loads
``w`` (R,) or None.  It is the one form the fits and the scoring take,
and both lift it one way, block by block into a data matrix (see
:func:`_data_matrix`).  Fitting from recorded data other than a configured
campaign is a library call on such arrays.
"""

from __future__ import annotations

import json
import logging
import math
import textwrap
from dataclasses import dataclass

import numpy as np

from . import lifting, numkit
from .lifting import Basis, delay_embed, identity_basis

logger = logging.getLogger(__name__)


def _check_campaign(Y, U, w, d: int) -> tuple:
    """The campaign ``(Y, U, w)`` as float arrays, refused with one
    ValueError naming the shapes unless it is outputs (R, K+1, n) with
    K > d, the commands (R, K, m) applied between them, and loads (R,) or
    None."""
    Y = np.asarray(Y, dtype=float)
    U = np.asarray(U, dtype=float)
    if (Y.ndim != 3 or U.ndim != 3 or U.shape[:2] != (Y.shape[0], Y.shape[1] - 1)
            or (w is not None and np.shape(w) != Y.shape[:1]) or Y.shape[1] < d + 2):
        raise ValueError(
            f"campaign: need outputs (R, K+1, n) with K > d, commands "
            f"(R, K, m) and loads (R,), got {Y.shape}, {U.shape} and {np.shape(w)} at d={d}"
        )
    return Y, U, None if w is None else np.asarray(w, dtype=float)


def assemble_snapshots(Y, U, w, d: int) -> np.ndarray:
    """The row-stacked a side of the snapshot pairs of a ``(Y, U, w)``
    campaign: run after run, the embeddings at steps k = d, ..., K-1, which
    :func:`_data_matrix` lifts into its a side and ``fit_basis`` takes as
    its samples.  The loads are checked, not read."""
    Y, U, _ = _check_campaign(Y, U, w, d)
    E = delay_embed(Y[:, :-1], U, d)
    return E.reshape(-1, E.shape[-1])


@dataclass(frozen=True)
class KoopmanModel:
    """Discrete lifted linear model z+ = Az + Bu, y = z[:n]: the output map
    C = [I_n | 0] is a row selection, not stored.  ``p`` is the load
    dimension (0 when the model is not load-augmented), and n_z = N_g * (p + 1).
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

    def lift(self, yd, w=None) -> np.ndarray:
        """Lift an embedded output into the model's state space (g or gamma)."""
        if self.p > 0:
            if w is None:
                raise ValueError("load-augmented model requires a load value to lift")
            return lifting.lift_gamma(self.basis, yd, w)
        return lifting.lift_g(self.basis, yd)


def _data_matrix(basis: Basis, Y, U, w, shift: int) -> np.ndarray:
    """One side of the least-squares data matrix Psi = [lift(Yd) | U] of a
    checked campaign, a row per snapshot pair, run after run: ``shift`` 0
    gives the a side, which embeds ``Y[r, :K]``, and 1 the b side, which
    embeds ``Y[r, 1:]``, so a pair is one step of one run and never
    straddles runs.  ``w`` is None for the g lift, else the Gamma lift
    takes each run's load on its rows.

    Psi is filled in the row blocks of one batch lift of the whole side
    (:func:`lifting.row_blocks`): each block's rows are cut from the
    embedding of just the runs it meets and lifted straight into its rows
    of Psi, so every row has the bits of a lift of the row-stacked side, and
    no side's whole embedding is formed.  Lifting each run alone would not
    keep them: a run under about a hundred rows projects its monomials with
    other roundings.
    """
    R, K, m = U.shape
    rows = K - basis.d
    n_z = basis.n_lifted * (1 if w is None else 2)
    Psi = np.empty((R * rows, n_z + m))
    Psi[:, n_z:] = U[:, basis.d:].reshape(-1, m)
    for start, end in lifting.row_blocks(R * rows):
        r0, r1 = start // rows, -(-end // rows)
        E = delay_embed(Y[r0:r1, shift:K + shift], U[r0:r1, shift:], basis.d)
        cut = slice(start - r0 * rows, end - r0 * rows)
        Yd, out = E.reshape(-1, E.shape[-1])[cut], Psi[start:end, :n_z]
        if w is None:
            lifting.lift_g_many(basis, Yd, out=out)
        else:
            lifting.lift_gamma_many(basis, Yd, np.repeat(w[r0:r1], rows)[cut, None], out=out)
    return Psi


def fit_koopman(campaign, basis: Basis, Ts: float, with_load: bool = False) -> KoopmanModel:
    """Least-squares fit of the lifted transition matrix from the snapshot
    pairs of a ``(Y, U, w)`` campaign (see :func:`_data_matrix`), and
    extraction of the (A, B) realization from its transpose partition.

    K_bar = pinv(Psi_a) Psi_b with Psi = [lift(Yd) | U].  Only one data
    matrix is alive at a time, and no snapshot array: the pseudoinverse
    runs LAPACK's QR-first SVD in Psi_a's column-major copy and writes U'
    over Psi_a, which is released once the pseudoinverse exists, and only
    then is Psi_b built.  A rank-deficient Psi_a is logged here, with the
    rank the pseudoinverse's one SVD keeps.  A and B are column-major
    copies, the layout :func:`model_from_dict` reads them back in, so a
    fitted and a read model run the same bits.
    """
    Y, U, w = _check_campaign(*campaign, basis.d)
    if with_load and w is None:
        raise ValueError("with_load requires a load on every snapshot")
    p = int(with_load)
    m = U.shape[2]
    n_z = basis.n_lifted * (p + 1)
    pairs = Y.shape[0] * (U.shape[1] - basis.d)
    if pairs < n_z + m:
        raise ValueError(
            f"fit_koopman: need at least n_z + m = {n_z + m} snapshots, got {pairs}"
        )
    loads = w if with_load else None
    Psi_a = _data_matrix(basis, Y, U, loads, 0)
    pinv_a, rank = numkit.pinv(Psi_a, overwrite=True)
    del Psi_a
    if rank < n_z + m:
        logger.warning("fit_koopman: Psi_a is rank-deficient (%d < %d); the "
                       "minimum-norm solution is used", rank, n_z + m)
    K_bar = pinv_a @ _data_matrix(basis, Y, U, loads, 1)
    Kt = K_bar.T
    A, B = np.asfortranarray(Kt[:n_z, :n_z]), np.asfortranarray(Kt[:n_z, n_z:])
    # the bottom block's deviation from [O | I]
    residual = float(np.linalg.norm(Kt[n_z:] - np.eye(m, n_z + m, n_z)))
    if residual > 1e-6:
        logger.info("fit_koopman: bottom-block residual %.3e", residual)
    return KoopmanModel(A=A, B=B, basis=basis, Ts=Ts, p=p,
                        bottom_block_residual=residual)


def fit_linear_baseline(campaign, d: int, Ts: float) -> KoopmanModel:
    """Linear state-space baseline: identity-basis least squares (no
    dictionary, no load) on a ``(Y, U, w)`` campaign, with the n and m of its Y and U."""
    Y, U, _ = _check_campaign(*campaign, d)
    return fit_koopman(campaign, identity_basis(Y.shape[2], U.shape[2], d), Ts)


def one_step_rmse(model: KoopmanModel, campaign) -> float:
    """Held-out one-step output RMSE over all valid snapshot pairs of a
    ``(Y, U, w)`` campaign.

    The snapshots are lifted as the fit lifts them, into the a side
    Psi = [Z | U] of its data matrix, and predicted as the first n columns
    of Z A' + U B', the row-stacked form of A lift(yd, w) + B u.
    """
    Y, U, w = _check_campaign(*campaign, model.d)
    if model.p > 0 and w is None:
        raise ValueError("one_step_rmse: the load-augmented model needs the campaign's loads")
    Psi = _data_matrix(model.basis, Y, U, w if model.p > 0 else None, 0)
    pred = (Psi[:, :model.n_z] @ model.A.T + Psi[:, model.n_z:] @ model.B.T)[:, :model.n]
    truth = Y[:, model.d + 1:].reshape(-1, model.n)
    return float(np.sqrt(np.sum((pred - truth) ** 2) / truth.size))


# ---------------------------------------------------------------------------
# A model's entry in the models document
# ---------------------------------------------------------------------------

def model_to_dict(model: KoopmanModel) -> dict:
    return {
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "Ts": model.Ts,
        "p": model.p,
        "bottom_block_residual": model.bottom_block_residual,
        "basis": {
            "n": model.basis.n,
            "m": model.basis.m,
            "d": model.basis.d,
            "include_constant": model.basis.include_constant,
            "projection": {
                "mean": model.basis.projection.mean.tolist(),
                "components": model.basis.projection.components.tolist(),
                "energy_kept": model.basis.projection.energy_kept,
                "explained": model.basis.projection.explained.tolist(),
            },
        },
    }


def _is_array(v) -> bool:
    try:
        arr = np.array(v)
    except ValueError:               # rows of different lengths
        return False
    return isinstance(v, list) and arr.dtype.kind in "iuf" and bool(np.all(np.isfinite(arr)))


# JSON value checks and their descriptions, keyed by the type of the value a
# document's form holds; json parses NaN and Infinity, which no value accepts
VALUE_KINDS = {
    bool: (lambda v: type(v) is bool, "true or false"),
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) in (int, float) and math.isfinite(v), "a finite number"),
    tuple: (lambda v: _is_array(v) and np.ndim(v) == 1, "a list of finite numbers"),
    list: (_is_array, "an array of finite numbers"),
}


def check_document(doc, form: dict, where: str, complete: bool = True) -> None:
    """Refuse the JSON object ``doc`` unless its keys are those of ``form``
    (all of them when ``complete``) at every level, each with a value of the
    kind that ``form`` holds there.  The ValueError names the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(form))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    for key, proto in form.items():
        if key not in doc:
            if complete:
                raise ValueError(f"{where} is missing key {key!r}")
        elif isinstance(proto, dict):
            check_document(doc[key], proto, f"{where} {key!r}", complete)
        elif not VALUE_KINDS[type(proto)][0](doc[key]):
            raise ValueError(f"{where}: {key!r} must be {VALUE_KINDS[type(proto)][1]}, "
                             f"got {textwrap.shorten(json.dumps(doc[key], default=repr), 60)}")


# the form of every entry, as model_to_dict writes it for any model
_FORM = model_to_dict(KoopmanModel(A=np.zeros((1, 1)), B=np.zeros((1, 1)),
                                   basis=identity_basis(1, 1, 0), Ts=1.0))


def model_from_dict(doc, where: str = "model document") -> KoopmanModel:
    """Inverse of :func:`model_to_dict`, taking exactly the form it writes.
    A missing or unknown key, a value of the wrong kind (a non-finite matrix
    entry too), a projection off the basis's monomials, a matrix shape off
    the basis and ``p``, an ``energy_kept`` outside (0, 1], an ``explained``
    fraction outside [0, 1] or a negative ``bottom_block_residual`` is a
    ValueError.  ``A`` and ``B`` are read column-major, as
    :func:`fit_koopman` returns them."""
    check_document(doc, _FORM, where)
    b, proj, p = doc["basis"], doc["basis"]["projection"], doc["p"]
    mean, components, explained = (np.asarray(proj[key], dtype=float)
                                   for key in ("mean", "components", "explained"))
    ne = lifting.embedded_dim(b["n"], b["m"], b["d"])
    P, k = ne * (ne + 1) // 2, len(components)
    # an entry without components keeps its monomial mean or none, and
    # writes its (0, P) components as []
    for key, arr, shapes in (("mean", mean, [(P,), (0,)] if k == 0 else [(P,)]),
                             ("components", components, [(0,)] if k == 0 else [(k, P)]),
                             ("explained", explained, [(k,)])):
        if arr.shape not in shapes:
            raise ValueError(f"{where}: projection {key!r} {arr.shape} must be "
                             f"{' or '.join(map(str, shapes))} for {P} monomials "
                             f"and {k} components")
    if not 0.0 < proj["energy_kept"] <= 1.0:
        raise ValueError(f"{where}: projection 'energy_kept' must be in (0, 1], "
                         f"got {proj['energy_kept']}")
    if not np.all((explained >= 0.0) & (explained <= 1.0)):
        raise ValueError(f"{where}: projection 'explained' must have entries in [0, 1], "
                         f"got {proj['explained']}")
    if not doc["bottom_block_residual"] >= 0.0:
        raise ValueError(f"{where}: 'bottom_block_residual' must be >= 0, "
                         f"got {doc['bottom_block_residual']}")
    projection = numkit.PcaProjection(
        mean=mean, components=components.reshape(k, mean.size),
        energy_kept=float(proj["energy_kept"]), explained=explained)
    basis = Basis(n=b["n"], m=b["m"], d=b["d"], projection=projection,
                  include_constant=b["include_constant"])
    A, B = (np.array(doc[key], dtype=float, order="F") for key in ("A", "B"))
    n_z = basis.n_lifted * (p + 1)
    if A.shape != (n_z, n_z) or B.shape != (n_z, basis.m):
        raise ValueError(f"{where}: 'A' {A.shape} and 'B' {B.shape} must be {(n_z, n_z)} "
                         f"and {(n_z, basis.m)} for its basis and p = {p}")
    return KoopmanModel(A=A, B=B, basis=basis, Ts=float(doc["Ts"]), p=p,
                        bottom_block_residual=float(doc["bottom_block_residual"]))
