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
    """Delay-embed time-ordered outputs ``y`` (..., K, n) and inputs ``u``
    (..., K', m); leading axes are runs, embedded each on its own.

    Returns the (..., K - d, n + (n + m) d) rows for k = d, ..., K-1, each
    laid out as (y[k], y[k-1], ..., y[k-d], u[k-1], ..., u[k-d]).  Only
    u[:K-1] is read, so ``u`` may stop one step short of ``y``.
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    K = y.shape[-2] if y.ndim >= 2 else 0
    if (y.ndim < 2 or u.ndim != y.ndim or u.shape[:-2] != y.shape[:-2]
            or K <= d or u.shape[-2] < K - 1):
        raise ValueError(
            f"delay_embed: need (..., K, n) outputs with K > d and at least "
            f"K-1 inputs per run, got y {y.shape}, u {u.shape}, d={d}"
        )
    return np.concatenate([y[..., d - i:K - i, :] for i in range(d + 1)]
                          + [u[..., d - i:K - i, :] for i in range(1, d + 1)], axis=-1)


def _eval_quadratics(Y: np.ndarray, order: str = "C") -> np.ndarray:
    """The degree-2 monomials y_i y_j (i <= j) of a batch of embedded
    outputs, in ``np.triu_indices`` order: coordinate i writes its products
    with coordinates i.. straight into its slice of one (K, P) array, laid
    out in ``order``, which leaves every bit as it is."""
    K, ne = Y.shape
    Q = np.empty((K, ne * (ne + 1) // 2), order=order)
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

    The (K, P) monomial block is the fit's largest array, and the only one
    of its size: it is built column-major for the PCA to centre and factor
    in place, with the spectrum from the P x P R factor, so neither a copy
    nor the K x P left singular vectors are formed (see
    :func:`numkit.pca_fit`).  The batch lifts keep C-ordered blocks, whose
    projection bits depend on that layout.
    """
    samples = np.asarray(samples, dtype=float)
    ne = embedded_dim(n, m, d)
    if samples.ndim != 2 or samples.shape[1] != ne:
        raise ValueError(f"fit_basis: samples must be K x {ne}, got {samples.shape}")
    n_mono = 1 + ne + ne * (ne + 1) // 2   # degree <= 2 monomials in ne variables
    if samples.shape[0] < n_mono:
        raise ValueError(f"fit_basis: need at least {n_mono} samples, got {samples.shape[0]}")
    projection = pca_fit(_eval_quadratics(samples, order="F"), energy)
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


# Rows per monomial block of a batch lift.  Blocks of 256 rows or more give
# the one-shot projection's bits with OpenBLAS; 64-row blocks do not.
LIFT_BLOCK_ROWS = 512


def row_blocks(K: int) -> list:
    """The (start, end) row blocks of a K-row batch lift: ``LIFT_BLOCK_ROWS``
    rows each, the last taking the remainder, so a batch under twice that is
    one block."""
    bounds = [i * LIFT_BLOCK_ROWS for i in range(max(1, K // LIFT_BLOCK_ROWS))] + [K]
    return list(zip(bounds[:-1], bounds[1:]))


def lift_g_many(basis: Basis, Yd: np.ndarray, *, out=None) -> np.ndarray:
    """Vectorized g-lifting of a batch of embedded outputs (rows).

    The lifts are written into one (K, n_lifted) array: ``out`` when given
    (an array or a column view of a wider one, such as the leading columns
    of a least-squares data matrix), else a new one.  The monomials are
    formed in the :func:`row_blocks` of the batch, each block centred
    in place and projected straight into its rows, so the only temporary is
    one block of monomials; the result has the bits of the one-shot
    projection ``(Q - mean) @ components.T``.  A measurement too large to
    square gives inf or NaN lifts without a warning: its caller refuses them.
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
    if projection.n_components == 0:
        return G
    G_mono = G[:, ne + int(basis.include_constant):]
    with np.errstate(over="ignore", invalid="ignore"):
        for start, end in row_blocks(Yd.shape[0]):
            Q = _eval_quadratics(Yd[start:end])
            Q -= projection.mean
            np.matmul(Q, projection.components.T, out=G_mono[start:end])
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
    with np.errstate(over="ignore", invalid="ignore"):
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

