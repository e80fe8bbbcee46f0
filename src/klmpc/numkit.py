"""Dense linear-algebra kernel: SVD pseudoinverse, least squares, and PCA.

Everything here operates on plain numpy arrays and is pure: no module
state, safe to call from multiple threads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import lapack_lite

logger = logging.getLogger(__name__)

DEFAULT_RTOL = 1e-10

# The LAPACK gufuncs behind np.linalg.  The dgesv ones behind
# np.linalg.solve, whose checks cost more than a small solve: ``solve`` is
# (m,m),(m,k)->(m,k), ``solve1`` (m,m),(m)->(m), both called with
# signature="dd->d"; a singular matrix gives NaN and the invalid flag, not
# LinAlgError.  ``svd_s`` (m,n)->(m,k),(k),(k,n) is np.linalg.svd's thin SVD
# and ``qr_r_raw`` (m,n)->(k) np.linalg.qr's Householder step, which leaves R
# in the upper triangle of its input; both flag a failure as invalid.
# ``lapack_lite`` holds the plain LAPACK routines ``dgeqrf`` and ``dorgqr``,
# which run in place on a column-major matrix (passed as its C-contiguous
# transpose) and report through ``info``.
lapack = np.linalg._umath_linalg


def _lapack_errors(message: str):
    """The floating-point state np.linalg runs its gufuncs under: a failure
    flagged as invalid is a LinAlgError with ``message``."""
    def fail(*_):
        raise np.linalg.LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def _lapack_lite(name: str, *args) -> None:
    """Call the ``lapack_lite`` routine ``name`` whose trailing arguments
    are ``work, lwork, info``: a workspace query, then the call itself.  A
    nonzero ``info`` is a LinAlgError."""
    routine = getattr(lapack_lite, name)
    work = np.zeros(1)
    info = routine(*args, work, -1, 0)["info"]
    if not info:
        work = np.zeros(max(1, int(work[0])))
        info = routine(*args, work, work.size, 0)["info"]
    if info:
        raise np.linalg.LinAlgError(f"{name} failed with info = {info}")


def _qr_svd_in_place(A: np.ndarray):
    """Thin SVD of a tall C-contiguous float64 ``A`` by dgesdd's own QR
    path, in buffers this call owns: returns ``(Ut, s, Vt, X)``.

    ``X`` is a column-major copy of ``A``, the one the SVD gufunc would
    form.  The Householder QR and then Q are formed in it in place, the SVD
    of R gives ``U_R``, ``s`` and ``Vt``, and ``Ut`` = (Q U_R)' is written
    over ``A`` by the NN dgemm that dgesdd ends with.  ``X`` is free for the
    caller to write over.  Each factor has ``np.linalg.svd``'s bits.
    """
    M, N = A.shape
    X = A.T.copy()
    tau = np.empty(N)
    _lapack_lite("dgeqrf", M, N, X, M, tau)
    R = np.triu(X[:, :N].T)
    _lapack_lite("dorgqr", M, N, N, X, M, tau)
    with _lapack_errors("SVD did not converge"):
        U_R, s, Vt = lapack.svd_s(R, signature="d->ddd")
    # U_R.T as a view would take another gemm kernel, and other bits
    Ut = np.matmul(np.ascontiguousarray(U_R.T), X, out=A.reshape(N, M))
    return Ut, s, Vt, X


def pinv(A: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the thin SVD.

    Singular values up to ``DEFAULT_RTOL * sigma_max`` are treated as zero,
    and a warning gives the rank that is left when any is dropped.

    The SVD has the bits of ``np.linalg.svd(A, full_matrices=False)``, and
    so has the result.  With ``overwrite`` on a C-contiguous float64 ``A``
    of shape (M, N) with M >= 11N/6, the bound past which LAPACK's dgesdd
    factors A = QR first, that QR path is run step by step
    (:func:`_qr_svd_in_place`): A's column-major copy holds Q and then the
    result, and ``A.reshape(N, M)`` holds U' afterwards, so the peak is two
    arrays of A's size.  Otherwise ``A`` is not written, and the SVD gufunc
    forms a column-major copy and U beside it: three.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("pinv: input matrix contains non-finite entries")
    if A.ndim != 2:
        raise np.linalg.LinAlgError(f"pinv: need a 2-D matrix, got {A.ndim} dimension(s)")
    rows, cols = A.shape
    if overwrite and cols >= 1 and rows >= cols * 11 // 6 and A.flags.c_contiguous:
        Ut, s, Vt, out = _qr_svd_in_place(A)
    else:
        with _lapack_errors("SVD did not converge"):
            U, s, Vt = lapack.svd_s(A, signature="d->ddd")
        Ut, out = U.T, None
    keep = s > DEFAULT_RTOL * s[0] if s.size else s.astype(bool)
    if not keep.all():
        logger.warning("pinv: %dx%d matrix is rank-deficient (%d < %d); the "
                       "minimum-norm solution is returned",
                       rows, cols, np.count_nonzero(keep), s.size)
    if not keep.any():
        return np.zeros((cols, rows))
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return np.matmul(Vt.T * s_inv, Ut, out=out)


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


def pca_fit(X: np.ndarray, energy: float, *, overwrite: bool = False) -> PcaProjection:
    """Fit PCA on samples-by-features data, keeping the minimal number of
    leading components whose cumulative explained variance reaches ``energy``.

    The sign of each component is fixed so its largest-magnitude entry is
    positive, making fits reproducible bit-for-bit.

    The singular values and right vectors come from the SVD of the n x n R
    factor of the centred data, so the K x n left vectors, which PCA never
    uses, are not formed.  For tall data (K >= 11n/6) this is the route
    LAPACK's gesdd takes internally, and the result is bit-identical to
    ``svd(Xc)``; otherwise it agrees to rounding.  The Householder QR of
    ``np.linalg.qr(Xc, mode="r")`` writes its result over the centred data,
    which is released once R is taken from it.  That gufunc factors a
    column-major copy of its input and copies the result back, so the peak
    is three arrays of the data's size: the input, its centred copy and the
    gufunc's copy.  With ``overwrite`` on a C-contiguous float64 ``X`` the
    data is centred in place and the QR's result is written over ``X``, so
    the peak is ``X`` and the gufunc's copy; ``X`` holds the Householder
    factorisation afterwards.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("pca_fit: need a 2-D sample matrix with at least 2 rows")
    if not (0.0 < energy <= 1.0):
        raise ValueError(f"pca_fit: energy must be in (0, 1], got {energy}")
    mean = X.mean(axis=0)
    Xc = X if overwrite and X.flags.c_contiguous else X.copy()
    Xc -= mean
    del X
    with _lapack_errors("Incorrect argument found while performing QR factorization"):
        lapack.qr_r_raw(Xc, signature="d->d")
    R = np.triu(Xc[:min(Xc.shape)])
    del Xc
    _, s, Vt = np.linalg.svd(R, full_matrices=False)
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
