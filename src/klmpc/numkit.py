"""Dense linear-algebra kernel: SVD pseudoinverse, least squares, and PCA.

Everything here operates on plain numpy arrays and is pure: no module
state, safe to call from multiple threads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_RTOL = 1e-10

# The LAPACK (dgesv) gufuncs behind np.linalg.solve, whose checks cost more
# than a small solve: ``solve`` is (m,m),(m,k)->(m,k), ``solve1`` (m,m),(m)->(m),
# both called with signature="dd->d".  A singular matrix gives NaN and the
# invalid flag, not LinAlgError.
lapack = np.linalg._umath_linalg


def pinv(A: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via full SVD.

    Singular values up to ``DEFAULT_RTOL * sigma_max`` are treated as zero,
    and a warning gives the rank that is left when any is dropped.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("pinv: input matrix contains non-finite entries")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > DEFAULT_RTOL * s[0] if s.size else s.astype(bool)
    if not keep.all():
        logger.warning("pinv: %dx%d matrix is rank-deficient (%d < %d); the "
                       "minimum-norm solution is returned",
                       *A.shape, np.count_nonzero(keep), s.size)
    if not keep.any():
        return np.zeros((A.shape[1], A.shape[0]))
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return (Vt.T * s_inv) @ U.T


def lstsq(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Minimum-norm X minimizing ||A X - B||_F, i.e. pinv(A) @ B."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"lstsq: row mismatch, A has {A.shape[0]} rows, B has {B.shape[0]}"
        )
    return pinv(A) @ B


@dataclass(frozen=True)
class PcaProjection:
    """Mean-centered PCA projection with a deterministic sign convention.

    ``components`` has orthonormal rows (retained-dim x input-dim);
    ``explained`` holds the per-component explained-variance fractions.
    """

    mean: np.ndarray
    components: np.ndarray
    energy_kept: float
    explained: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def pca_fit(X: np.ndarray, energy: float) -> PcaProjection:
    """Fit PCA on samples-by-features data, keeping the minimal number of
    leading components whose cumulative explained variance reaches ``energy``.

    The sign of each component is fixed so its largest-magnitude entry is
    positive, making fits reproducible bit-for-bit.

    The singular values and right vectors come from the SVD of the n x n R
    factor of the centred data, so the K x n left vectors, which PCA never
    uses, are not formed.  For tall data (K >= 11n/6) this is the route
    LAPACK's gesdd takes internally, and the result is bit-identical to
    ``svd(Xc)``; otherwise it agrees to rounding.  The uncentred input is
    released before the factorisation, so when the caller keeps no reference
    to it, the peak is the centred copy plus numpy's QR working copies.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("pca_fit: need a 2-D sample matrix with at least 2 rows")
    if not (0.0 < energy <= 1.0):
        raise ValueError(f"pca_fit: energy must be in (0, 1], got {energy}")
    mean = X.mean(axis=0)
    Xc = X - mean
    del X
    _, s, Vt = np.linalg.svd(np.linalg.qr(Xc, mode="r"), full_matrices=False)
    var = s**2
    total = var.sum()
    if total <= 0.0:
        # zero-variance data: nothing to retain
        return PcaProjection(
            mean=mean,
            components=np.zeros((0, mean.shape[0])),
            energy_kept=float(energy),
            explained=np.zeros(0),
        )
    frac = var / total
    k = int(np.searchsorted(np.cumsum(frac), energy - 1e-12) + 1)
    k = min(k, Vt.shape[0])
    comps = Vt[:k].copy()
    for i in range(k):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return PcaProjection(
        mean=mean,
        components=comps,
        energy_kept=float(energy),
        explained=frac[:k].copy(),
    )
