"""Lifting functions: delay embedding, degree-2 monomial dictionary with PCA
reduction, and the load-augmented lifting with its block-diagonal matrix form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import PcaProjection, pca_fit


def embedded_dim(n: int, m: int, d: int) -> int:
    """Dimension of the delay-embedded output: n + (n + m) * d."""
    return n + (n + m) * d


def delay_embed(y, u, d: int) -> np.ndarray:
    """Delay-embed time-ordered outputs ``y`` (K, n) and inputs ``u`` (K, m).

    Returns the (K - d, n + (n + m) d) rows for k = d, ..., K-1, each laid out
    as (y[k], y[k-1], ..., y[k-d], u[k-1], ..., u[k-d]).  Only u[:K-1] is
    read, so ``u`` may stop one step short of ``y``.
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    K = y.shape[0]
    if y.ndim != 2 or u.ndim != 2 or K <= d or u.shape[0] < K - 1:
        raise ValueError(
            f"delay_embed: need (K, n) outputs with K > d and at least K-1 "
            f"inputs, got y {y.shape}, u {u.shape}, d={d}"
        )
    return np.hstack([y[d - i:K - i] for i in range(d + 1)]
                     + [u[d - i:K - i] for i in range(1, d + 1)])


def _eval_quadratics(Y: np.ndarray) -> np.ndarray:
    """The degree-2 monomials y_i y_j (i <= j) of a batch of embedded
    outputs, in ``np.triu_indices`` order: coordinate i writes its products
    with coordinates i.. straight into its slice of one (K, P) array."""
    K, ne = Y.shape
    Q = np.empty((K, ne * (ne + 1) // 2))
    o = 0
    for i in range(ne):
        np.multiply(Y[:, i:i + 1], Y[:, i:], out=Q[:, o:o + ne - i])
        o += ne - i
    return Q


@dataclass(frozen=True)
class Basis:
    """Lifting dictionary g: identity coordinates, an optional constant
    function, and PCA-reduced degree-2 monomials of the embedded output.

    The first ``identity_count`` basis functions are exact coordinate
    identities, which is what lets the output matrix be a pure projection.
    The monomials are fixed by (n, m, d); only their PCA is learned.
    """

    n: int
    m: int
    d: int
    projection: PcaProjection
    include_constant: bool = True

    @property
    def identity_count(self) -> int:
        return embedded_dim(self.n, self.m, self.d)

    @property
    def n_lifted(self) -> int:
        return self.identity_count + int(self.include_constant) + self.projection.n_components


def fit_basis(samples: np.ndarray, energy: float, n: int, m: int, d: int) -> Basis:
    """Fit the lifting dictionary on a matrix of delay-embedded outputs.

    Identity coordinates and the constant function are kept verbatim; the
    degree-2 monomial block is reduced by PCA at the given energy fraction.

    The (K, P) monomial block is the fit's largest array.  It is handed to
    the PCA without a reference kept here, so the PCA can release it once
    it has centred a copy, and the PCA takes the spectrum from the P x P R
    factor, so the K x P left singular vectors, which a projection never
    uses, are not formed (see :func:`numkit.pca_fit`).
    """
    samples = np.asarray(samples, dtype=float)
    ne = embedded_dim(n, m, d)
    if samples.ndim != 2 or samples.shape[1] != ne:
        raise ValueError(f"fit_basis: samples must be K x {ne}, got {samples.shape}")
    n_mono = 1 + ne + ne * (ne + 1) // 2   # degree <= 2 monomials in ne variables
    if samples.shape[0] < n_mono:
        raise ValueError(f"fit_basis: need at least {n_mono} samples, got {samples.shape[0]}")
    projection = pca_fit(_eval_quadratics(samples), energy)
    return Basis(n=n, m=m, d=d, projection=projection)


def identity_basis(n: int, m: int, d: int) -> Basis:
    """Pure-identity basis (degree-1 coordinates only); used by the linear
    baseline model."""
    projection = PcaProjection(mean=np.zeros(0), components=np.zeros((0, 0)),
                               energy_kept=1.0)
    return Basis(n=n, m=m, d=d, projection=projection, include_constant=False)


def _output(out, shape: tuple) -> np.ndarray:
    if out is None:
        return np.empty(shape)
    if out.shape != shape or out.dtype != np.float64:
        raise ValueError(
            f"lift: out must be a float64 array of shape {shape}, "
            f"got {out.dtype} {out.shape}"
        )
    return out


def lift_g_many(basis: Basis, Yd: np.ndarray, *, out=None) -> np.ndarray:
    """Vectorized g-lifting of a batch of embedded outputs (rows).

    The lifts are written into one (K, n_lifted) array: ``out`` when given
    (an array or a column view of a wider one, such as the leading columns
    of a least-squares data matrix), else a new one.  The monomial block is
    centred in place and projected straight into its columns, so the only
    temporary is the (K, P) monomial array; the arithmetic is that of the
    projection ``(Q - mean) @ components.T``.
    """
    Yd = np.atleast_2d(np.asarray(Yd, dtype=float))
    if Yd.shape[1] != basis.identity_count:
        raise ValueError(
            f"lift: embedded output has dim {Yd.shape[1]}, "
            f"basis expects {basis.identity_count}"
        )
    G = _output(out, (Yd.shape[0], basis.n_lifted))
    ne = basis.identity_count
    G[:, :ne] = Yd
    if basis.include_constant:
        G[:, ne] = 1.0
    projection = basis.projection
    if projection.n_components > 0:
        Q = _eval_quadratics(Yd)
        Q -= projection.mean
        np.matmul(Q, projection.components.T,
                  out=G[:, ne + int(basis.include_constant):])
    return G


def lift_g(basis: Basis, yd) -> np.ndarray:
    """Evaluate g on one embedded output: identities, constant, projected
    quadratics, in that order."""
    return lift_g_many(basis, yd)[0]


def lift_gamma(basis: Basis, yd, w) -> np.ndarray:
    """Load-augmented lifting of one embedded output: (g, g*w_1, ...,
    g*w_p) stacked."""
    return lift_gamma_many(basis, yd, w)[0]


def lift_gamma_many(basis: Basis, Yd: np.ndarray, W: np.ndarray, *,
                    out=None) -> np.ndarray:
    """Vectorized gamma-lifting; W is (K, p) of per-sample loads.

    The lifts fill one (K, n_lifted (p+1)) array, ``out`` when given: g is
    lifted into its first block and each load block is multiplied from that
    in place, so no per-block array or concatenated copy is formed.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if not np.all(np.isfinite(W)):
        raise ValueError("gamma lift: loads contain non-finite entries")
    Yd = np.atleast_2d(np.asarray(Yd, dtype=float))
    N = basis.n_lifted
    Z = _output(out, (Yd.shape[0], N * (W.shape[1] + 1)))
    G = lift_g_many(basis, Yd, out=Z[:, :N])
    for i in range(W.shape[1]):
        np.multiply(G, W[:, i:i + 1], out=Z[:, (i + 1) * N:(i + 2) * N])
    return Z


def gamma_matrix(basis: Basis, yd, p: int) -> np.ndarray:
    """Block-diagonal concatenation of g(yd), p+1 times.

    Satisfies gamma_matrix(yd) @ (1, w) == lift_gamma(yd, w).
    """
    g = lift_g(basis, yd)
    N = g.shape[0]
    out = np.zeros((N * (p + 1), p + 1))
    for c in range(p + 1):
        out[c * N:(c + 1) * N, c] = g
    return out


def basis_to_dict(basis: Basis) -> dict:
    return {
        "n": basis.n,
        "m": basis.m,
        "d": basis.d,
        "include_constant": basis.include_constant,
        "projection": {
            "mean": basis.projection.mean.tolist(),
            "components": basis.projection.components.tolist(),
            "energy_kept": basis.projection.energy_kept,
            "explained": basis.projection.explained.tolist(),
        },
    }


def basis_from_dict(doc: dict) -> Basis:
    """Inverse of :func:`basis_to_dict`.  An older file's ``quad_pairs``
    must be the pairs this basis forms (none without a monomial block)."""
    proj = doc["projection"]
    mean = np.asarray(proj["mean"], dtype=float)
    projection = PcaProjection(
        mean=mean,
        components=np.asarray(proj["components"], dtype=float).reshape(
            len(proj["components"]), mean.shape[0]),
        energy_kept=float(proj["energy_kept"]),
        explained=np.asarray(proj["explained"], dtype=float),
    )
    basis = Basis(
        n=int(doc["n"]), m=int(doc["m"]), d=int(doc["d"]),
        projection=projection,
        include_constant=bool(doc["include_constant"]),
    )
    pairs = np.transpose(np.triu_indices(basis.identity_count)).tolist() if mean.size else []
    if [list(pq) for pq in doc.get("quad_pairs", pairs)] != pairs:
        raise ValueError("basis document: 'quad_pairs' must list the pairs "
                         "i <= j of the embedded output in order")
    return basis
