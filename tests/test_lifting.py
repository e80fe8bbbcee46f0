"""Delay embedding, the degree-2 dictionary, and the load-augmented lifting,
checked against hand-built vectors, the block-diagonal matrix identity, the
per-block concatenation form, and bounds on their traced memory.
"""

import json
import tracemalloc

import numpy as np
import pytest

from klmpc import lifting
from klmpc.lifting import (
    Basis,
    delay_embed,
    embedded_dim,
    fit_basis,
    gamma_matrix,
    identity_basis,
    lift_g,
    lift_g_many,
    lift_gamma,
    lift_gamma_many,
)

from oracles import (
    monomial_pairs,
    pca_transform,
    reference_lift_g_many,
    reference_lift_gamma_many,
    reference_quadratics,
)


def make_basis(rng, n=2, m=1, d=1, energy=0.99, samples=200):
    ne = embedded_dim(n, m, d)
    X = rng.normal(size=(samples, ne))
    return fit_basis(X, energy, n=n, m=m, d=d), X


def test_delay_embed_scalar_example():
    # scalar y and u, d = 1: one row per k = 1, 2, laid out (y[k], y[k-1], u[k-1])
    ys = np.array([[1.0], [2.0], [3.0]])
    us = np.array([[5.0], [7.0], [9.0]])
    assert np.array_equal(delay_embed(ys, us, 1), [[2.0, 1.0, 5.0], [3.0, 2.0, 7.0]])
    # the last input is never read, so u may stop one step short of y
    assert np.array_equal(delay_embed(ys, us[:-1], 1), delay_embed(ys, us, 1))


def test_delay_embed_matches_per_index_layout():
    rng = np.random.default_rng(8)
    ys, us = rng.normal(size=(9, 3)), rng.normal(size=(9, 2))
    for d in (0, 1, 3):
        E = delay_embed(ys, us, d)
        assert E.shape == (9 - d, embedded_dim(3, 2, d))
        for row, k in zip(E, range(d, 9)):
            expected = np.concatenate([ys[k - i] for i in range(d + 1)]
                                      + [us[k - i] for i in range(1, d + 1)])
            assert np.array_equal(row, expected)


def test_delay_embed_no_delay():
    ys = np.array([[3.0, 4.0]])
    assert np.array_equal(delay_embed(ys, np.zeros((0, 1)), 0), [[3.0, 4.0]])


def test_delay_embed_requires_history():
    ys = np.array([[1.0], [2.0]])
    us = np.array([[0.0], [0.0]])
    with pytest.raises(ValueError):
        delay_embed(ys, us, 2)          # K <= d: no embedding defined
    with pytest.raises(ValueError):
        delay_embed(ys, us[:0], 1)      # fewer than K-1 inputs
    with pytest.raises(ValueError):
        delay_embed(ys[:, 0], us, 1)    # outputs must be (K, n)


def test_embedded_dim():
    assert embedded_dim(4, 2, 0) == 4
    assert embedded_dim(4, 2, 1) == 10
    # three 3-D sections with 9 pressure channels, one delay
    assert embedded_dim(9, 9, 1) == 27


def test_lift_g_layout():
    # identities verbatim, then the constant 1, then projected quadratics
    rng = np.random.default_rng(0)
    basis, _ = make_basis(rng)
    ne = basis.identity_count
    yd = rng.normal(size=ne)
    g = lift_g(basis, yd)
    assert g.shape == (basis.n_lifted,)
    assert np.array_equal(g[:ne], yd)
    assert g[ne] == 1.0
    quads = np.array([yd[i] * yd[j] for i, j in monomial_pairs(ne)])
    expected = pca_transform(basis.projection, quads[None, :])[0]
    assert np.allclose(g[ne + 1:], expected, atol=1e-12)


def test_lift_g_many_matches_loop():
    rng = np.random.default_rng(1)
    basis, _ = make_basis(rng)
    Yd = rng.normal(size=(7, basis.identity_count))
    G = lift_g_many(basis, Yd)
    for i in range(7):
        assert np.allclose(G[i], lift_g(basis, Yd[i]), atol=1e-12)


def test_lift_g_dimension_check():
    basis = identity_basis(2, 1, 0)
    with pytest.raises(ValueError):
        lift_g(basis, np.zeros(5))


def test_identity_basis_is_pure_identity():
    basis = identity_basis(3, 2, 1)
    yd = np.arange(1.0, 9.0)
    assert basis.n_lifted == basis.identity_count == 8
    assert np.array_equal(lift_g(basis, yd), yd)


def test_lift_gamma_hand_example():
    basis = identity_basis(2, 1, 0)
    yd = np.array([3.0, 4.0])
    assert np.array_equal(lift_gamma(basis, yd, 2.0), [3.0, 4.0, 6.0, 8.0])
    # zero load: second block vanishes
    assert np.array_equal(lift_gamma(basis, yd, 0.0), [3.0, 4.0, 0.0, 0.0])


def test_lift_gamma_rejects_nonfinite_load():
    basis = identity_basis(2, 1, 0)
    with pytest.raises(ValueError, match="non-finite"):
        lift_gamma(basis, np.zeros(2), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        lift_gamma_many(basis, np.zeros((3, 2)), np.array([[0.1], [np.inf], [0.2]]))


def test_gamma_matrix_identity():
    # gamma_matrix(yd) @ (1, w) == lift_gamma(yd, w)
    rng = np.random.default_rng(2)
    basis, _ = make_basis(rng)
    for p in (1, 2):
        for _ in range(10):
            yd = rng.normal(size=basis.identity_count)
            w = rng.uniform(0.0, 0.3, size=p)
            G = gamma_matrix(basis, yd, p)
            assert G.shape == (basis.n_lifted * (p + 1), p + 1)
            assert np.allclose(G @ np.concatenate([[1.0], w]),
                               lift_gamma(basis, yd, w), atol=1e-12)


def test_gamma_matrix_block_diagonal():
    rng = np.random.default_rng(3)
    basis, _ = make_basis(rng)
    yd = rng.normal(size=basis.identity_count)
    N = basis.n_lifted
    G = gamma_matrix(basis, yd, 2)
    for r in range(G.shape[0]):
        for c in range(G.shape[1]):
            if r // N != c:
                assert G[r, c] == 0.0


def test_lift_gamma_many_matches_loop():
    rng = np.random.default_rng(4)
    basis, _ = make_basis(rng)
    Yd = rng.normal(size=(5, basis.identity_count))
    W = rng.uniform(0.0, 0.3, size=(5, 1))
    Z = lift_gamma_many(basis, Yd, W)
    for i in range(5):
        assert np.allclose(Z[i], lift_gamma(basis, Yd[i], W[i]), atol=1e-12)


def test_fit_basis_deterministic():
    rng = np.random.default_rng(5)
    _, X = make_basis(rng)
    a = fit_basis(X, 0.99, n=2, m=1, d=1)
    b = fit_basis(X, 0.99, n=2, m=1, d=1)
    assert np.array_equal(a.projection.components, b.projection.components)
    assert np.array_equal(a.projection.mean, b.projection.mean)


def test_fit_basis_validation():
    ne = embedded_dim(2, 1, 1)
    # every monomial of degree <= 2 in ne variables: constant, linear, pairs
    n_mono = 1 + ne + ne * (ne + 1) // 2
    assert n_mono == 21
    fit_basis(np.random.default_rng(0).normal(size=(n_mono, ne)), 0.99, n=2, m=1, d=1)
    with pytest.raises(ValueError):
        fit_basis(np.zeros((n_mono - 1, ne)), 0.99, n=2, m=1, d=1)
    with pytest.raises(ValueError):
        fit_basis(np.zeros((100, ne + 1)), 0.99, n=2, m=1, d=1)


def test_fit_basis_zero_variance_quadratics():
    # constant samples: the quadratic block carries no variance, so only the
    # identities and the constant function survive
    ne = embedded_dim(2, 1, 0)
    X = np.ones((60, ne))
    basis = fit_basis(X, 0.99, n=2, m=1, d=0)
    assert basis.projection.n_components == 0
    assert basis.n_lifted == ne + 1


def test_basis_json_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    basis, _ = make_basis(rng)
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(lifting.basis_to_dict(basis)))
    loaded = lifting.basis_from_dict(json.loads(path.read_text()))
    assert loaded.n == basis.n and loaded.m == basis.m and loaded.d == basis.d
    assert "quad_pairs" not in lifting.basis_to_dict(basis)
    assert np.array_equal(loaded.projection.components,
                          basis.projection.components)
    assert np.array_equal(loaded.projection.mean, basis.projection.mean)
    yd = rng.normal(size=basis.identity_count)
    assert np.array_equal(lift_g(loaded, yd), lift_g(basis, yd))


def test_basis_json_round_trip_identity(tmp_path):
    basis = identity_basis(4, 2, 1)
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(lifting.basis_to_dict(basis)))
    loaded = lifting.basis_from_dict(json.loads(path.read_text()))
    assert loaded.n_lifted == basis.n_lifted
    assert not loaded.include_constant
    yd = np.arange(float(basis.identity_count))
    assert np.array_equal(lift_g(loaded, yd), yd)


def test_eval_quadratics_matches_per_pair_products():
    # one call per embedded coordinate gives every pair's product, bit for
    # bit, in row-major pair order
    rng = np.random.default_rng(10)
    for ne in (1, 6, 10):
        for rows in (1, 37, 2000):
            Y = rng.normal(size=(rows, ne))
            assert np.array_equal(lifting._eval_quadratics(Y), reference_quadratics(Y))


def test_basis_legacy_quad_pairs_load():
    # files written before the pairs were derived store them: the pairs the
    # basis forms load, and any other list is refused by name
    rng = np.random.default_rng(13)
    for basis in (make_basis(rng)[0], identity_basis(2, 1, 1)):
        doc = lifting.basis_to_dict(basis)
        pairs = monomial_pairs(basis.identity_count) if basis.projection.mean.size else []
        doc["quad_pairs"] = [list(pq) for pq in pairs]
        loaded = lifting.basis_from_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(loaded.projection.components, basis.projection.components)
        assert np.array_equal(loaded.projection.mean, basis.projection.mean)
        Yd = rng.normal(size=(5, basis.identity_count))
        assert np.array_equal(lift_g_many(loaded, Yd), lift_g_many(basis, Yd))
    basis = make_basis(rng)[0]
    pairs = monomial_pairs(basis.identity_count)
    for bad in (pairs[::-1], pairs[:-1], [(j, i) for i, j in pairs], []):
        doc = dict(lifting.basis_to_dict(basis), quad_pairs=[list(pq) for pq in bad])
        with pytest.raises(ValueError, match="'quad_pairs'"):
            lifting.basis_from_dict(doc)


@pytest.mark.parametrize("rows", [1, 30, 2000])
def test_lifts_equal_concatenation_form(rows):
    # filling one output array in place keeps every bit of the block form,
    # also when the output is the leading columns of a wider matrix
    rng = np.random.default_rng(rows)
    for basis in (make_basis(rng)[0], make_basis(rng, n=4, m=2, d=1, energy=0.9)[0],
                  identity_basis(2, 1, 1)):
        Yd = rng.normal(size=(rows, basis.identity_count))
        assert np.array_equal(lift_g_many(basis, Yd), reference_lift_g_many(basis, Yd))
        N = basis.n_lifted
        for p in (1, 2):
            W = rng.uniform(0.0, 0.3, size=(rows, p))
            want = reference_lift_gamma_many(basis, Yd, W)
            assert np.array_equal(lift_gamma_many(basis, Yd, W), want)
            for i in range(min(rows, 30)):   # one-row lifts run one-row products
                assert np.array_equal(lift_gamma(basis, Yd[i], W[i]),
                                      reference_lift_gamma_many(basis, Yd[i], W[i])[0])
            wide = np.full((rows, N * (p + 1) + 2), np.nan)
            Z = lift_gamma_many(basis, Yd, W, out=wide[:, :N * (p + 1)])
            assert np.shares_memory(Z, wide)
            assert np.array_equal(wide[:, :N * (p + 1)], want)
            assert np.all(np.isnan(wide[:, N * (p + 1):]))
        wide = np.full((rows, N + 1), np.nan)
        lift_g_many(basis, Yd, out=wide[:, :N])
        assert np.array_equal(wide[:, :N], reference_lift_g_many(basis, Yd))


def test_lift_out_must_match():
    basis = identity_basis(2, 1, 0)
    with pytest.raises(ValueError, match="out must be"):
        lift_g_many(basis, np.zeros((3, 2)), out=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="out must be"):
        lift_gamma_many(basis, np.zeros((3, 2)), np.ones((3, 1)),
                        out=np.zeros((3, 4), dtype=np.float32))


def traced_peak(fn):
    """Peak traced allocation of ``fn()`` above what was live before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        if not tracing:
            tracemalloc.stop()


# The default embedding (n=4, m=2, d=1) has 55 degree-2 monomials.  Bounds
# are in units of the (K, 55) monomial block Q and of the lift's output.
MEMORY_ROWS = 4000


def test_fit_basis_traced_peak():
    # the PCA releases the monomial block once it has centred a copy and
    # never forms the K x 55 left singular vectors: about 2 Q at the peak
    rng = np.random.default_rng(11)
    ne = embedded_dim(4, 2, 1)
    X = rng.normal(size=(MEMORY_ROWS, ne))
    q_bytes = MEMORY_ROWS * ne * (ne + 1) // 2 * X.itemsize
    peak, _ = traced_peak(lambda: fit_basis(X, 0.99, n=4, m=2, d=1))
    assert peak <= 2.25 * q_bytes


def test_eval_quadratics_traced_peak():
    # the monomial block is the only allocation: the fancy-index form
    # Y[:, I] * Y[:, J] would add two more arrays of its size inside
    # fit_basis, which sets the fit's peak memory
    Y = np.random.default_rng(14).normal(size=(11186, 10))
    peak, Q = traced_peak(lambda: lifting._eval_quadratics(Y))
    assert Q.shape == (11186, 55)
    assert peak <= 1.05 * Q.nbytes


def test_lift_gamma_many_traced_peak():
    # output plus the monomial block, no per-block arrays or concatenated
    # copy
    rng = np.random.default_rng(12)
    basis, X = make_basis(rng, n=4, m=2, d=1, samples=MEMORY_ROWS)
    W = rng.uniform(0.0, 0.3, size=(MEMORY_ROWS, 1))
    peak, Z = traced_peak(lambda: lift_gamma_many(basis, X, W))
    assert peak <= 1.6 * Z.nbytes
