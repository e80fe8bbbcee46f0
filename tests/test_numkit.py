"""Pseudoinverse, least squares, and PCA against independent linear-algebra
oracles (Penrose conditions, normal equations, explicit SVD reconstructions).
"""

import os

import numpy as np
import pytest

import conftest
from klmpc import numkit
from oracles import pca_transform, reference_pca


def random_matrix(rng, rows, cols, rank=None):
    A = rng.normal(size=(rows, cols))
    if rank is not None:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        s[rank:] = 0.0
        A = (U * s) @ Vt
    return A


def test_pinv_identity():
    assert np.allclose(numkit.pinv(np.eye(3))[0], np.eye(3), atol=1e-12)


def test_pinv_rank_deficient_diag():
    A = np.diag([2.0, 0.0])
    assert np.allclose(numkit.pinv(A)[0], np.diag([0.5, 0.0]), atol=1e-12)


def test_pinv_zero_matrix():
    assert np.array_equal(numkit.pinv(np.zeros((3, 2)))[0], np.zeros((2, 3)))
    # on the in-place QR path too (3 >= 11 * 2 / 6)
    assert np.array_equal(numkit.pinv(np.zeros((3, 2)), overwrite=True)[0], np.zeros((2, 3)))


def test_pinv_returns_the_rank_it_keeps(caplog):
    # the rank is the caller's to report: numkit logs nothing
    rng = np.random.default_rng(3)
    with caplog.at_level("DEBUG", logger="klmpc.numkit"):
        ranks = [numkit.pinv(A)[1] for A in (random_matrix(rng, 6, 4),
                                             random_matrix(rng, 6, 4, rank=2),
                                             np.zeros((2, 3)))]
    assert ranks == [4, 2, 0]
    assert not caplog.records


def test_pinv_penrose_conditions():
    rng = np.random.default_rng(0)
    shapes = [(5, 3), (3, 5), (10, 10), (50, 20), (20, 50), (50, 50)]
    for rows, cols in shapes:
        for rank in (None, min(rows, cols) // 2):
            A = random_matrix(rng, rows, cols, rank=rank)
            P, _ = numkit.pinv(A)
            scale = np.linalg.norm(A)
            assert np.allclose(A @ P @ A, A, atol=1e-8 * max(scale, 1.0))
            assert np.allclose(P @ A @ P, P, atol=1e-8)
            assert np.allclose((A @ P).T, A @ P, atol=1e-8)
            assert np.allclose((P @ A).T, P @ A, atol=1e-8)


def test_pinv_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = random_matrix(rng, 8, 5)
        assert np.allclose(numkit.pinv(A)[0], np.linalg.pinv(A), atol=1e-10)


def svd_pinv(A):
    """Oracle: the pseudoinverse from np.linalg.svd's thin factors, with the
    singular values pinv drops set to zero."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > numkit.DEFAULT_RTOL * s[0]
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return (Vt.T * s_inv) @ U.T, U


@pytest.mark.parametrize("rows, cols, order", [
    (300, 7, "C"), (7, 7, "C"), (4, 9, "C"), (300, 7, "F"),
    (11, 7, "C"),                        # one row short of dgesdd's QR path
    (12, 7, "C"),                        # the first shape on it
    (5, 1, "C"),                         # one column: A.T is already C-contiguous
    (300, 54, "C"),                      # U_R.T as a view gives other bits here
])
def test_pinv_overwrite_keeps_every_bit(rows, cols, order):
    # the thin SVD's bits whether or not the QR path runs in place; only a
    # C-contiguous input with rows >= 11 cols / 6 is overwritten, and then
    # it holds U' in its first cols * rows entries
    rng = np.random.default_rng(rows + cols)
    A = np.asarray(random_matrix(rng, rows, cols), order=order)
    A[:, -1] = A[:, 0]                   # rank-deficient: a dropped value
    want, U = svd_pinv(A)
    original = A.copy(order="K")
    assert np.array_equal(numkit.pinv(A)[0], want)
    assert np.array_equal(A, original)
    assert np.array_equal(numkit.pinv(A, overwrite=True)[0], want)
    if order == "C" and rows >= cols * 11 // 6:
        assert np.array_equal(A.reshape(cols, rows), U.T)
    else:
        assert np.array_equal(A, original)


def test_pinv_in_place_reports_a_lapack_failure(monkeypatch):
    # a nonzero info from the QR path's LAPACK routines is a LinAlgError
    dgeqrf = numkit.lapack_lite.dgeqrf

    def failing(*args):
        return {**dgeqrf(*args), "info": -4}

    monkeypatch.setattr(numkit.lapack_lite, "dgeqrf", failing)
    with pytest.raises(np.linalg.LinAlgError, match="dgeqrf"):
        numkit.pinv(np.random.default_rng(0).normal(size=(30, 4)), overwrite=True)


def test_pinv_rejects_nonfinite():
    A = np.eye(2)
    A[0, 0] = np.nan
    with pytest.raises(ValueError):
        numkit.pinv(A)


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
def test_pinv_rejects_input_that_is_not_2d(shape):
    with pytest.raises(np.linalg.LinAlgError, match=f"got {len(shape)} dimension"):
        numkit.pinv(np.ones(shape))


def test_lstsq_exact_square():
    A = np.array([[2.0, 0.0], [0.0, 4.0]])
    b = np.array([2.0, 8.0])
    assert np.allclose(numkit.lstsq(A, b), [1.0, 2.0], atol=1e-12)


def test_lstsq_overdetermined_mean():
    # fitting a constant to two observations gives their mean
    A = np.array([[1.0], [1.0]])
    b = np.array([0.0, 2.0])
    assert np.allclose(numkit.lstsq(A, b), [1.0], atol=1e-12)


def test_lstsq_normal_equations_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        A = rng.normal(size=(30, 6))
        B = rng.normal(size=(30, 3))
        X = numkit.lstsq(A, B)
        X_ref = np.linalg.solve(A.T @ A, A.T @ B)
        assert np.allclose(X, X_ref, atol=1e-8)


def test_lstsq_first_order_optimality():
    # perturbing the minimizer never decreases the residual
    rng = np.random.default_rng(3)
    A = rng.normal(size=(25, 4))
    b = rng.normal(size=25)
    x = numkit.lstsq(A, b)
    base = np.linalg.norm(A @ x - b)
    for _ in range(50):
        dx = rng.normal(size=4) * 1e-3
        assert np.linalg.norm(A @ (x + dx) - b) >= base - 1e-12


def test_lstsq_row_mismatch():
    with pytest.raises(ValueError):
        numkit.lstsq(np.ones((3, 2)), np.ones(4))


def test_pca_line_through_origin():
    # samples on y = 2x: one component parallel to (1, 2)/sqrt(5)
    t = np.linspace(-1.0, 1.0, 40)
    X = np.stack([t, 2.0 * t], axis=1)
    proj = numkit.pca_fit(X, 0.99)
    assert proj.n_components == 1
    assert np.allclose(np.abs(proj.components[0]),
                       np.array([1.0, 2.0]) / np.sqrt(5.0), atol=1e-10)
    assert proj.components[0, 1] > 0  # sign convention


def test_pca_orthonormal_rows_and_ordering():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 8)) * np.array([5, 3, 2, 1, 0.5, 0.2, 0.1, 0.05])
    proj = numkit.pca_fit(X, 0.999)
    V = proj.components
    assert np.allclose(V @ V.T, np.eye(V.shape[0]), atol=1e-10)
    assert np.all(np.diff(proj.explained) <= 1e-12)
    assert np.all(proj.explained > 0)


def test_pca_minimal_energy_components():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 6)) * np.array([4, 2, 1, 0.5, 0.25, 0.1])
    for energy in (0.5, 0.9, 0.99, 1.0):
        proj = numkit.pca_fit(X, energy)
        # oracle: explicit SVD cumulative-energy count
        s = np.linalg.svd(X - X.mean(axis=0), compute_uv=False)
        frac = s**2 / np.sum(s**2)
        k_min = int(np.searchsorted(np.cumsum(frac), energy - 1e-12) + 1)
        assert proj.n_components == min(k_min, len(frac))
        assert np.sum(proj.explained) >= energy - 1e-9 or proj.n_components == len(frac)


def test_pca_reconstruction_error_identity():
    # squared reconstruction error fraction == 1 - kept explained variance
    rng = np.random.default_rng(6)
    X = rng.normal(size=(80, 10)) * np.linspace(3.0, 0.1, 10)
    proj = numkit.pca_fit(X, 0.9)
    Xc = X - proj.mean
    Xhat = pca_transform(proj, X) @ proj.components
    err = np.linalg.norm(Xc - Xhat, "fro") ** 2 / np.linalg.norm(Xc, "fro") ** 2
    assert abs(err - (1.0 - np.sum(proj.explained))) < 1e-8


def test_pca_zero_variance():
    X = np.ones((10, 3))
    proj = numkit.pca_fit(X, 0.99)
    assert proj.n_components == 0
    assert pca_transform(proj, X).shape == (10, 0)


def test_pca_transform_centers():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 4)) + 5.0
    proj = numkit.pca_fit(X, 1.0)
    assert np.allclose(pca_transform(proj, proj.mean[None, :]), 0.0, atol=1e-12)


def test_pca_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 5))
    a = numkit.pca_fit(X, 0.95)
    b = numkit.pca_fit(X, 0.95)
    assert np.array_equal(a.components, b.components)
    assert np.array_equal(a.explained, b.explained)


@pytest.mark.parametrize("rows, cols, rank", [
    (400, 12, None),    # tall: LAPACK's own QR-then-SVD route
    (14, 12, None),     # near-square
    (6, 12, None),      # wide: fewer samples than features
    (300, 12, 5),       # rank-deficient
])
def test_pca_matches_direct_svd_oracle(rows, cols, rank):
    # the R-factor route gives the spectrum and right vectors of a direct
    # SVD of the centred data
    rng = np.random.default_rng(rows + cols)
    X = random_matrix(rng, rows, cols, rank=rank) * np.linspace(4.0, 0.5, cols) + 3.0
    for energy in (0.9, 1.0):
        proj = numkit.pca_fit(X, energy)
        mean, comps, explained = reference_pca(X, energy)
        assert np.array_equal(proj.mean, mean)
        assert proj.n_components == comps.shape[0]
        if rank is not None and energy == 1.0:
            assert proj.n_components == rank
        assert np.allclose(proj.explained, explained, rtol=1e-12, atol=0.0)
        assert np.allclose(proj.components, comps, rtol=0.0, atol=1e-10)


def test_pca_does_not_modify_input():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 6)) + 2.0
    before = X.copy()
    numkit.pca_fit(X, 0.9)
    assert np.array_equal(X, before)


@pytest.mark.parametrize("rows, order", [
    (300, "C"), (300, "F"), (8, "C"), (1000, "C"), (1000, "F"), (4000, "C"), (4000, "F"),
])
def test_pca_overwrite_keeps_every_bit(rows, order):
    # the bits of the mean of the C-ordered data, np.linalg.qr's R of the
    # centred data and np.linalg.svd of R, in either layout; an F-contiguous
    # input is centred and factored in place, and holds R in its leading
    # upper triangle afterwards, and any other input is left as it is
    rng = np.random.default_rng(rows)
    X = np.asarray(rng.normal(size=(rows, 12)) * np.linspace(4.0, 0.5, 12) + 3.0,
                   order=order)
    original = X.copy(order="K")
    mean = np.ascontiguousarray(X).mean(axis=0)
    R = np.linalg.qr(original - mean, mode="r")
    _, s, Vt = np.linalg.svd(R, full_matrices=False)
    frac = s**2 / np.sum(s**2)
    got = numkit.pca_fit(X, 0.9)
    k = int(np.searchsorted(np.cumsum(frac), 0.9 - 1e-12) + 1)
    comps = np.array([v if v[np.argmax(np.abs(v))] > 0 else -v for v in Vt[:k]])
    assert np.array_equal(got.mean, mean)
    assert np.array_equal(got.explained, frac[:k])
    assert np.array_equal(got.components, comps)
    if order == "F":
        assert np.array_equal(np.triu(X[:12]), R)
    else:
        assert np.array_equal(X, original)


def test_pca_validation():
    with pytest.raises(ValueError):
        numkit.pca_fit(np.ones((1, 3)), 0.9)
    with pytest.raises(ValueError):
        numkit.pca_fit(np.ones((5, 3)), 0.0)
    with pytest.raises(ValueError):
        numkit.pca_fit(np.ones((5, 3)), 1.5)


def test_blas_threads_pinned_before_numpy_import():
    # fitted models differ in their last bits between BLAS thread counts, so
    # the suite's reference numbers hold only with the pin from conftest,
    # which takes effect only if numpy was not yet imported
    assert not conftest.NUMPY_PRELOADED
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        assert os.environ[var] == "1"


def test_blas_core_gives_the_reason_it_has_no_name(monkeypatch):
    # the summary's blas_core line falls back to "unknown (<reason>)" when
    # numpy bundles no OpenBLAS, or its library lacks the core-name lookup
    monkeypatch.setattr(conftest.ctypes, "CDLL", lambda path: object())
    assert conftest.blas_core().startswith("unknown (AttributeError(")
    monkeypatch.setattr(conftest.glob, "glob", lambda pattern: [])
    assert conftest.blas_core().startswith("unknown (IndexError(")
