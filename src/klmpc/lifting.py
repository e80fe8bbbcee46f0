"""Lifting functions: delay embedding, degree-2 monomial dictionary with PCA
reduction, and the load-augmented lifting with its block-diagonal matrix form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .numkit import PcaProjection, pca_fit


@dataclass(frozen=True)
class DelayEmbedded:
    """Current output plus d past outputs and d past inputs.

    Flattened layout: (y[k], y[k-1], ..., y[k-d], u[k-1], ..., u[k-d]).
    """

    y_current: np.ndarray
    y_past: tuple
    u_past: tuple

    @property
    def vector(self) -> np.ndarray:
        parts = [self.y_current, *self.y_past, *self.u_past]
        return np.concatenate([np.atleast_1d(np.asarray(p, dtype=float)) for p in parts])

    def __array__(self, dtype=None, copy=None):
        v = self.vector
        return v.astype(dtype) if dtype is not None else v


def embedded_dim(n: int, m: int, d: int) -> int:
    """Dimension of the delay-embedded output: n + (n + m) * d."""
    return n + (n + m) * d


def delay_embed(ys, us, k: int, d: int) -> DelayEmbedded:
    """Build the delay-embedded output at index k from time-ordered records.

    ``ys`` and ``us`` are indexable sequences of output / input vectors.
    Requires k >= d so the d past outputs and inputs exist.
    """
    if k < d:
        raise ValueError(f"delay_embed: need k >= d, got k={k}, d={d}")
    y_past = tuple(np.atleast_1d(np.asarray(ys[k - i], dtype=float)) for i in range(1, d + 1))
    u_past = tuple(np.atleast_1d(np.asarray(us[k - i], dtype=float)) for i in range(1, d + 1))
    return DelayEmbedded(
        y_current=np.atleast_1d(np.asarray(ys[k], dtype=float)),
        y_past=y_past,
        u_past=u_past,
    )


def monomial_exponents(n_embed: int, max_degree: int = 2) -> list:
    """All monomial exponent tuples of total degree <= max_degree.

    Ordered constant first, then degree-1 in coordinate order, then degree-2
    pairs (i, j) with i <= j.
    """
    if max_degree != 2:
        raise ValueError("only degree-2 dictionaries are supported")
    exps = [tuple([0] * n_embed)]
    for i in range(n_embed):
        e = [0] * n_embed
        e[i] = 1
        exps.append(tuple(e))
    for i in range(n_embed):
        for j in range(i, n_embed):
            e = [0] * n_embed
            e[i] += 1
            e[j] += 1
            exps.append(tuple(e))
    return exps


def _quad_pairs(n_embed: int) -> list:
    return [(i, j) for i in range(n_embed) for j in range(i, n_embed)]


def _eval_quadratics(Y: np.ndarray, pairs) -> np.ndarray:
    """Evaluate the degree-2 monomials on a batch of embedded outputs."""
    cols = [Y[:, i] * Y[:, j] for i, j in pairs]
    if not cols:
        return np.zeros((Y.shape[0], 0))
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class Basis:
    """Lifting dictionary g: identity coordinates, an optional constant
    function, and PCA-reduced degree-2 monomials of the embedded output.

    The first ``identity_count`` basis functions are exact coordinate
    identities, which is what lets the output matrix be a pure projection.
    """

    n: int
    m: int
    d: int
    projection: PcaProjection
    include_constant: bool = True
    quad_pairs: tuple = field(default_factory=tuple)

    @property
    def identity_count(self) -> int:
        return embedded_dim(self.n, self.m, self.d)

    @property
    def n_lifted(self) -> int:
        return self.identity_count + int(self.include_constant) + self.projection.n_components

    def monomials(self):
        """Exponent tuples spanned by this basis (identities + dictionary)."""
        ne = self.identity_count
        exps = monomial_exponents(ne)
        linear = exps[1 : 1 + ne]
        quads = []
        for i, j in self.quad_pairs:
            e = [0] * ne
            e[i] += 1
            e[j] += 1
            quads.append(tuple(e))
        out = list(linear)
        if self.include_constant:
            out.append(tuple([0] * ne))
        out.extend(quads)
        return out


def fit_basis(samples: np.ndarray, energy: float, n: int, m: int, d: int,
              max_degree: int = 2) -> Basis:
    """Fit the lifting dictionary on a matrix of delay-embedded outputs.

    Identity coordinates and the constant function are kept verbatim; the
    degree-2 monomial block is reduced by PCA at the given energy fraction.
    """
    samples = np.asarray(samples, dtype=float)
    ne = embedded_dim(n, m, d)
    if samples.ndim != 2 or samples.shape[1] != ne:
        raise ValueError(
            f"fit_basis: samples must be K x {ne}, got {samples.shape}"
        )
    n_mono = len(monomial_exponents(ne, max_degree))
    if samples.shape[0] < n_mono:
        raise ValueError(
            f"fit_basis: need at least {n_mono} samples, got {samples.shape[0]}"
        )
    pairs = tuple(_quad_pairs(ne))
    Q = _eval_quadratics(samples, pairs)
    projection = pca_fit(Q, energy)
    return Basis(n=n, m=m, d=d, projection=projection, quad_pairs=pairs)


def identity_basis(n: int, m: int, d: int) -> Basis:
    """Pure-identity basis (degree-1 coordinates only); used by the linear
    baseline model."""
    ne = embedded_dim(n, m, d)
    projection = PcaProjection(
        mean=np.zeros(0), components=np.zeros((0, 0)), energy_kept=1.0,
        explained=np.zeros(0),
    )
    return Basis(n=n, m=m, d=d, projection=projection, include_constant=False,
                 quad_pairs=())


def _as_embedded_matrix(basis: Basis, yd) -> np.ndarray:
    Y = np.asarray(yd, dtype=float)
    single = Y.ndim == 1
    Y = np.atleast_2d(Y)
    if Y.shape[1] != basis.identity_count:
        raise ValueError(
            f"lift: embedded output has dim {Y.shape[1]}, "
            f"basis expects {basis.identity_count}"
        )
    return Y, single


def lift_g_many(basis: Basis, Yd: np.ndarray) -> np.ndarray:
    """Vectorized g-lifting of a batch of embedded outputs (rows)."""
    Yd, _ = _as_embedded_matrix(basis, Yd)
    blocks = [Yd]
    if basis.include_constant:
        blocks.append(np.ones((Yd.shape[0], 1)))
    if basis.projection.n_components > 0:
        Q = _eval_quadratics(Yd, basis.quad_pairs)
        blocks.append(basis.projection.transform(Q))
    return np.concatenate(blocks, axis=1)


def lift_g(basis: Basis, yd) -> np.ndarray:
    """Evaluate g on one embedded output: identities, constant, projected
    quadratics, in that order."""
    Y, _ = _as_embedded_matrix(basis, yd)
    return lift_g_many(basis, Y)[0]


def lift_gamma(basis: Basis, yd, w) -> np.ndarray:
    """Load-augmented lifting: (g, g*w_1, ..., g*w_p) stacked."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if not np.all(np.isfinite(w)):
        raise ValueError("lift_gamma: load vector contains non-finite entries")
    g = lift_g(basis, yd)
    return np.concatenate([g] + [g * wi for wi in w])


def lift_gamma_many(basis: Basis, Yd: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Vectorized gamma-lifting; W is (K, p) of per-sample loads."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if not np.all(np.isfinite(W)):
        raise ValueError("lift_gamma_many: loads contain non-finite entries")
    G = lift_g_many(basis, Yd)
    blocks = [G] + [G * W[:, [i]] for i in range(W.shape[1])]
    return np.concatenate(blocks, axis=1)


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
        "quad_pairs": [list(pq) for pq in basis.quad_pairs],
        "projection": {
            "mean": basis.projection.mean.tolist(),
            "components": basis.projection.components.tolist(),
            "energy_kept": basis.projection.energy_kept,
            "explained": basis.projection.explained.tolist(),
        },
    }


def basis_from_dict(doc: dict) -> Basis:
    proj = doc["projection"]
    if proj["components"]:
        components = np.asarray(proj["components"], dtype=float)
    else:
        components = np.zeros((0, len(doc["quad_pairs"])))
    projection = PcaProjection(
        mean=np.asarray(proj["mean"], dtype=float),
        components=components,
        energy_kept=float(proj["energy_kept"]),
        explained=np.asarray(proj["explained"], dtype=float),
    )
    return Basis(
        n=int(doc["n"]), m=int(doc["m"]), d=int(doc["d"]),
        projection=projection,
        include_constant=bool(doc["include_constant"]),
        quad_pairs=tuple(tuple(pq) for pq in doc["quad_pairs"]),
    )


def save_basis(basis: Basis, path) -> None:
    with open(path, "w") as fh:
        json.dump(basis_to_dict(basis), fh)


def load_basis(path) -> Basis:
    with open(path) as fh:
        return basis_from_dict(json.load(fh))
