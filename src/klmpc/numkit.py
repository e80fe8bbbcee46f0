"""Dense linear-algebra kernel: SVD pseudoinverse, least squares, and PCA.

The fit's pseudoinverse and its PCA factor a tall matrix one way: a
Householder QR run in place by LAPACK's dgeqrf on a column-major buffer,
then the SVD of the square R factor by ``np.linalg.svd``.  Everything here
operates on plain numpy arrays and keeps no module state.  Two calls write
their argument, to spare the fit a copy of its data matrix:
``pinv(A, overwrite=True)`` writes U' over a tall C-contiguous ``A``, and
``pca_fit`` centres an F-contiguous writeable float64 ``X`` and factors it
in place.  Every other call leaves its arguments as they were.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import lapack_lite

DEFAULT_RTOL = 1e-10

# numpy.linalg's private LAPACK entry points that the package calls, by
# module, checked at import; calls look them up on the module.  The one dgesv
# gufunc, ``solve1`` (m,m),(m)->(m) with signature="dd->d", skips
# np.linalg.solve's checks, which cost more than a small solve: a singular
# matrix gives NaN and the invalid flag, not LinAlgError.  ``dgeqrf`` and
# ``dorgqr`` run in place on a column-major matrix and report through ``info``.
PRIVATE_LAPACK = {"_umath_linalg": ("solve1",), "lapack_lite": ("dgeqrf", "dorgqr")}
lapack = np.linalg._umath_linalg


def _check_private_lapack(modules: dict) -> None:
    """Raise ImportError naming numpy's version and each name of
    ``PRIVATE_LAPACK`` missing from ``modules`` (module name -> module)."""
    missing = [f"numpy.linalg.{module}.{name}" for module, names in PRIVATE_LAPACK.items()
               for name in names if not callable(getattr(modules[module], name, None))]
    if missing:
        raise ImportError(f"numpy {np.__version__} lacks the LAPACK routines klmpc "
                          f"calls: {', '.join(missing)}")


_check_private_lapack({"_umath_linalg": lapack, "lapack_lite": lapack_lite})


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


def _householder_r(Xt: np.ndarray) -> tuple:
    """dgeqrf's Householder QR, in place, of the column-major M x N matrix
    whose C-contiguous transpose is ``Xt`` (N, M): returns its min(M, N) x N
    R factor and ``tau``, and ``Xt`` holds the reflectors."""
    N, M = Xt.shape
    tau = np.empty(min(M, N))
    _lapack_lite("dgeqrf", M, N, Xt, M, tau)
    return np.triu(Xt[:, :tau.size].T), tau


def pinv(A: np.ndarray, *, overwrite: bool = False) -> tuple:
    """Moore-Penrose pseudoinverse via the thin SVD, and the rank it keeps.

    Singular values up to ``DEFAULT_RTOL * sigma_max`` are treated as zero;
    the rank returned counts the others, so a caller reads A's numerical
    rank from the one SVD the pseudoinverse takes.

    The SVD has the bits of ``np.linalg.svd(A, full_matrices=False)``, and
    so has the result.  With ``overwrite`` on a C-contiguous float64 ``A``
    of shape (M, N), M >= 11N/6 (where LAPACK's dgesdd factors A = QR
    first), that QR path runs step by step: Q and then the result in A's
    column-major copy, and U' over ``A.reshape(N, M)`` by dgesdd's closing
    NN dgemm, so the peak is two arrays of A's size.  Otherwise ``A`` is not
    written, and ``np.linalg.svd`` forms a copy and U beside it: three.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("pinv: input matrix contains non-finite entries")
    if A.ndim != 2:
        raise np.linalg.LinAlgError(f"pinv: need a 2-D matrix, got {A.ndim} dimension(s)")
    rows, cols = A.shape
    if overwrite and cols >= 1 and rows >= cols * 11 // 6 and A.flags.c_contiguous:
        out = A.T.copy()
        R, tau = _householder_r(out)
        _lapack_lite("dorgqr", rows, cols, cols, out, rows, tau)
        U, s, Vt = np.linalg.svd(R, full_matrices=False)
        # U.T as a view would take another gemm kernel, and other bits
        Ut = np.matmul(np.ascontiguousarray(U.T), out, out=A.reshape(cols, rows))
    else:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        Ut, out = U.T, None
    keep = s > DEFAULT_RTOL * s[0] if s.size else s.astype(bool)
    rank = int(np.count_nonzero(keep))
    if not rank:
        return np.zeros((cols, rows)), 0
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return np.matmul(Vt.T * s_inv, Ut, out=out), rank


def lstsq(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Minimum-norm X minimizing ||A X - B||_F, i.e. pinv(A) @ B."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"lstsq: row mismatch, A has {A.shape[0]} rows, B has {B.shape[0]}"
        )
    return pinv(A)[0] @ B


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


SUM_BLOCK_ROWS = 256


def _column_sums(X: np.ndarray) -> np.ndarray:
    """The sum of ``X``'s rows, added one at a time in order, in any layout:
    the bits of ``X.sum(axis=0)`` on C-ordered data, where an F-ordered
    ``X`` sums each column pairwise.  Each block of rows is copied to C
    order behind the running sum and reduced into it."""
    K, P = X.shape
    block = np.empty((min(K, SUM_BLOCK_ROWS) + 1, P))
    total = np.zeros(P)
    for start in range(0, K, SUM_BLOCK_ROWS):
        rows = X[start:start + SUM_BLOCK_ROWS]
        block[0] = total
        block[1:len(rows) + 1] = rows
        np.add.reduce(block[:len(rows) + 1], axis=0, out=total)
    return total


def pca_fit(X: np.ndarray, energy: float) -> PcaProjection:
    """Fit PCA on samples-by-features data, keeping the minimal number of
    leading components whose cumulative explained variance reaches ``energy``.

    The sign of each component is fixed so its largest-magnitude entry is
    positive, making fits reproducible bit-for-bit.

    The singular values and right vectors come from the SVD of the n x n R
    factor of the centred data, so the K x n left vectors, which PCA never
    uses, are not formed; for tall data (K >= 11n/6) this is LAPACK's own
    route, bit for bit.  The mean has the bits of ``X.mean(axis=0)`` on
    C-ordered data in any layout.  An F-contiguous writeable float64 ``X``
    is centred and factored in place, and holds the QR afterwards; any
    other ``X`` is left as it is, and one column-major copy is factored.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("pca_fit: need a 2-D sample matrix with at least 2 rows")
    if not (0.0 < energy <= 1.0):
        raise ValueError(f"pca_fit: energy must be in (0, 1], got {energy}")
    mean = _column_sums(X) / X.shape[0]
    Xc = X if X.flags.f_contiguous and X.flags.writeable else X.copy(order="F")
    Xc -= mean
    R, _ = _householder_r(Xc.T)
    _, s, Vt = np.linalg.svd(R, full_matrices=False)
    var = s**2
    total = var.sum()
    # zero-variance data: nothing to retain
    frac = np.zeros(0) if total <= 0.0 else var / total
    k = min(int(np.searchsorted(np.cumsum(frac), energy - 1e-12) + 1), frac.size)
    comps = Vt[:k] * np.sign(Vt[np.arange(k), np.argmax(np.abs(Vt[:k]), axis=1)])[:, None]
    return PcaProjection(
        mean=mean,
        components=comps,
        energy_kept=float(energy),
        explained=frac[:k].copy(),
    )
