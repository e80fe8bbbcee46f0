"""Independent oracles shared across test modules.

- a scalar bilinear plant x+ = 0.9 x + 0.2 w x + 0.1 u whose load-augmented
  lifting is exactly linear, so identification and estimation must be exact;
- a brute-force active-set enumeration solver for box QPs;
- the arm's row-wise RK4, each joint its own expression over (B,) columns
  and the accelerations from ``np.linalg.solve``, which the plant's (2, B)
  integrator must match bit for bit; the arm's mechanical energy from the
  same per-joint mass matrix; one run of the arm stepped by hand with it on
  a single state, and data campaigns simulated one such run at a time;
- the observer's stacked load equations built row by row from the
  block-diagonal ``gamma_matrix``, the single-transition load estimate
  from an explicit (output, input, next-output) triple, and the observer's
  update schedule over a deque of (y, u) records with the full-stack solve;
- a reference evaluated step by step, and the condensed QP's matrices and
  linear term with every Markov block formed where it is placed;
- PCA by a direct SVD of the centred data, the projection of samples onto
  a fitted PCA, the degree-2 monomials one pair at a time, and the g/gamma
  lifts in their per-block concatenation form;
- the one-step output prediction of a fitted model from one embedded
  output, its open-loop end-effector error k steps ahead from every start
  of a campaign, and snapshot assembly one run at a time;
- the EDMD fit on row-stacked snapshots: one lift of each whole side and
  the pseudoinverse of a data matrix the fit keeps;
- the output matrix C = [I_n | 0], written out.
"""

import itertools
from collections import deque
from types import SimpleNamespace

import numpy as np

from klmpc import numkit, observer
from klmpc.edmd import KoopmanModel, fit_koopman
from klmpc.lifting import Basis, delay_embed, gamma_matrix, lift_g_many, lift_gamma_many
from klmpc.numkit import PcaProjection
from klmpc.plant import ramp_and_hold

BILINEAR_TS = 0.05


def bilinear_basis() -> Basis:
    """g(x) = (x, 1): identity coordinate plus the constant function, no
    quadratic dictionary."""
    projection = PcaProjection(mean=np.zeros(0), components=np.zeros((0, 0)),
                               energy_kept=1.0, explained=np.zeros(0))
    return Basis(n=1, m=1, d=0, projection=projection, include_constant=True)


def bilinear_step(x: float, u: float, w: float, c0: float = 0.0) -> float:
    # c0 adds a constant drift term; with c0 = 0 the constant and load
    # columns of the lifted one-step map are exactly collinear, so only the
    # observer solve that pins the constant coefficient at 1 identifies w
    return 0.9 * x + 0.2 * w * x + 0.1 * u + c0


def simulate_bilinear(ws, K: int, rng, c0: float = 0.0) -> tuple:
    """Roll the true bilinear recursion under uniform random inputs, one run
    of K samples per load in ``ws``; returns the campaign ``(Y, U, w)``."""
    Y, U = np.zeros((len(ws), K, 1)), np.zeros((len(ws), K - 1, 1))
    for r, w in enumerate(ws):
        x = float(rng.normal())
        us = rng.uniform(-1.0, 1.0, size=(K, 1))
        for k in range(K):
            Y[r, k, 0] = x
            x = bilinear_step(x, us[k, 0], w, c0)
        U[r] = us[:-1]
    return Y, U, np.array(ws, dtype=float)


def fit_bilinear_model(ws=(0.0, 0.1, 0.2, 0.3), K: int = 40, seed: int = 0,
                       c0: float = 0.0):
    """EDMD fit of the load-augmented bilinear plant; exact by construction."""
    rng = np.random.default_rng(seed)
    return fit_koopman(simulate_bilinear(ws, K, rng, c0=c0), bilinear_basis(), BILINEAR_TS,
                       with_load=True)


def enumerate_box_qp(H: np.ndarray, f: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray) -> np.ndarray:
    """Exact solver for min 1/2 x'Hx + f'x over [lo, hi] with H PD.

    Enumerates every active-set pattern (each coordinate free, at its lower
    bound, or at its upper bound), by active count, and returns the first
    pattern whose candidate satisfies the KKT conditions — which is the
    unique global optimum of a strictly convex QP.  The patterns of one
    count are solved together: every free block, against each of its bound
    choices, in one batched ``np.linalg.solve``.
    """
    n = f.shape[0]
    for r in range(n + 1):
        combos = list(itertools.combinations(range(n), r))
        act = np.array(combos, dtype=int).reshape(len(combos), r)
        is_free = np.ones((len(combos), n), dtype=bool)
        is_free[np.arange(len(combos))[:, None], act] = False
        free = np.nonzero(is_free)[1].reshape(len(combos), n - r)
        # the bound choices in itertools.product order: lower before upper,
        # the last active coordinate varying fastest; (patterns, 2^r, r)
        at_hi = (np.arange(2**r)[:, None] >> np.arange(r - 1, -1, -1) & 1).astype(bool)
        choices = np.where(at_hi, hi[act][:, None], lo[act][:, None])
        rhs = -(f[free][:, :, None]
                + H[free[:, :, None], act[:, None]] @ choices.transpose(0, 2, 1))
        Xf = np.linalg.solve(H[free[:, :, None], free[:, None]], rhs).transpose(0, 2, 1)
        feas = np.all((Xf >= lo[free][:, None] - 1e-12)
                      & (Xf <= hi[free][:, None] + 1e-12), axis=2)
        if not np.any(feas):
            continue
        # each candidate with its coordinates back in order
        X = np.take_along_axis(np.concatenate([choices, Xf], axis=2),
                               np.argsort(np.hstack([act, free]), axis=1)[:, None], axis=2)
        G = np.take_along_axis(X @ H.T + f, act[:, None], axis=2)
        ok = feas & np.all(np.where(at_hi, G <= 1e-9, G >= -1e-9), axis=2)
        idx = np.flatnonzero(ok)
        if idx.size:
            return X.reshape(-1, n)[idx[0]]
    raise RuntimeError("no KKT-consistent active set found")


def random_box_qp(rng, n: int):
    """Random strictly convex box QP with a mix of interior and active
    solutions."""
    A = rng.normal(size=(n, n))
    H = A @ A.T + 0.5 * np.eye(n)
    f = rng.normal(size=n) * 2.0
    lo = -rng.uniform(0.1, 1.0, size=n)
    hi = rng.uniform(0.1, 1.0, size=n)
    return H, f, lo, hi


def qp_objective(H, f, x) -> float:
    return float(0.5 * x @ H @ x + f @ x)


def _rowwise_payload_terms(params, w, shape: tuple) -> tuple:
    m2p = params.m2 + w
    m1p = params.m1 + m2p
    M = np.empty(shape + (2, 2))
    M[..., 0, 0] = m1p * params.L1**2
    M[..., 1, 1] = m2p * params.L2**2
    return (m2p * params.L1 * params.L2, m1p * params.g * params.L1,
            m2p * params.g * params.L2, M)


def _rowwise_rhs(q: np.ndarray, tau: np.ndarray, params, terms: tuple) -> np.ndarray:
    th1, th2, om1, om2 = q.T
    tau1, tau2 = tau.T
    ll, g1, g2, M = terms
    d12 = th1 - th2
    s12 = np.sin(d12)
    M[..., 0, 1] = M[..., 1, 0] = ll * np.cos(d12)
    rhs = np.empty(th1.shape + (2, 1))
    rhs[..., 0, 0] = (tau1
                      - ll * s12 * om2**2
                      - g1 * np.sin(th1)
                      - params.k * th1
                      - params.c * om1)
    rhs[..., 1, 0] = (tau2
                      + ll * s12 * om1**2
                      - g2 * np.sin(th2)
                      - params.k * th2
                      - params.c * om2)
    dq = np.empty(q.shape)
    dq[..., 0] = om1
    dq[..., 1] = om2
    dq[..., 2:] = np.linalg.solve(M, rhs)[..., 0]
    return dq


def _rowwise_rk4_step(q: np.ndarray, tau: np.ndarray, h: float, params,
                      terms: tuple) -> np.ndarray:
    k1 = _rowwise_rhs(q, tau, params, terms)
    k2 = _rowwise_rhs(q + 0.5 * h * k1, tau, params, terms)
    k3 = _rowwise_rhs(q + 0.5 * h * k2, tau, params, terms)
    k4 = _rowwise_rhs(q + h * k3, tau, params, terms)
    return q + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


# A (4,) state is evaluated as a one-row stack.  On numpy scalars ``x**2``
# calls the C library's pow(), which can differ from the correctly rounded
# x*x by one ulp (in about 0.08 % of values with glibc); arrays square
# exactly, and the plant squares exactly for one state and for a stack.


def reference_dynamics(q, tau, params, w) -> np.ndarray:
    """State derivative of states (4,) or (B, 4) under torques (2,) or
    (B, 2), each joint its own expression over (B,) columns, with the
    accelerations from ``np.linalg.solve``."""
    q, tau = np.asarray(q), np.asarray(tau)
    if q.ndim == 1:
        return reference_dynamics(q[None], tau[None], params, np.reshape(w, 1))[0]
    return _rowwise_rhs(q, tau, params, _rowwise_payload_terms(params, w, q.shape[:-1]))


def reference_advance(q, u, params, w) -> np.ndarray:
    """States (4,) or (B, 4) after one sample period under the held commands
    u, by the row-wise RK4 of :func:`reference_dynamics`."""
    if np.ndim(q) == 1:
        return reference_advance(np.asarray(q)[None], np.asarray(u)[None], params,
                                 np.reshape(w, 1))[0]
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError(f"commands must be finite, got {u}")
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError(f"commands must lie in [0, 1], got {u}")
    tau = params.tau_max * (2.0 * u - 1.0)
    h = params.Ts / params.substeps
    terms = _rowwise_payload_terms(params, w, np.shape(q)[:-1])
    for _ in range(params.substeps):
        q = _rowwise_rk4_step(q, tau, h, params, terms)
    return q


def reference_energy(q, params, w) -> float:
    """Total mechanical energy of a (4,) state carrying payload w, spring
    potential included, from the per-joint mass matrix and gravity terms;
    conserved when k = c = 0 and tau = 0.  The plant's integrator shares
    none of this arithmetic, so a wrong constant in it shows as drift."""
    th1, th2, om = q[0], q[1], q[2:]
    ll, g1, g2, M = _rowwise_payload_terms(params, w, ())
    M[0, 1] = M[1, 0] = ll * np.cos(th1 - th2)
    potential = (-g1 * np.cos(th1) - g2 * np.cos(th2)
                 + 0.5 * params.k * (th1**2 + th2**2))
    return float(0.5 * om @ M @ om + potential)


def reference_positions(q, params) -> np.ndarray:
    """Noiseless (x, y) of the link-1 tip and end effector of a (4,) state."""
    p1 = np.array([params.L1 * np.sin(q[0]), -params.L1 * np.cos(q[0])])
    return np.concatenate([p1, p1 + [params.L2 * np.sin(q[1]), -params.L2 * np.cos(q[1])]])


def reference_run(params, w: float, steps: int, rng, policy):
    """One run of the arm by hand, on a single (4,) state from rest and
    integrated by :func:`reference_advance`: the initial measurement, then
    per period the policy ``(k, y) -> u``, the step and the sensor noise,
    drawn from ``rng``.  Returns the ``steps + 1`` measured outputs and the
    ``steps`` commands."""

    def noise():
        if params.noise_std > 0:
            return rng.normal(0.0, params.noise_std, size=4)
        return 0.0

    q = np.zeros(4)
    ys = [np.array([0.0, -params.L1, 0.0, -params.L1 - params.L2]) + noise()]
    us = []
    for k in range(steps):
        us.append(np.array(policy(k, ys[-1]), dtype=float))
        q = reference_advance(q, us[-1], params, w)
        ys.append(reference_positions(q, params) + noise())
    return np.array(ys), np.array(us).reshape(steps, 2)


def reference_campaign(params, campaigns) -> list:
    """Ramp-and-hold ``CampaignConfig`` campaigns run by run with
    :func:`reference_run`, each run drawing its commands and its sensor noise
    from its own ``SeedSequence`` child; returns one list of (y, u) array
    pairs per campaign, in load-major run order."""
    out = []
    for camp in campaigns:
        steps = int(round(camp.duration / params.Ts))
        child_seeds = np.random.SeedSequence(camp.seed).spawn(len(camp.loads) * camp.trials)
        runs = []
        for idx, w in enumerate(np.repeat(camp.loads, camp.trials)):
            rng = np.random.default_rng(child_seeds[idx])
            policy = ramp_and_hold(rng, m=2, Ts=params.Ts)
            ys, us = reference_run(params, float(w), steps, rng,
                                   lambda k, y: np.clip(next(policy), 0.0, 1.0))
            runs.append((ys, us))
        out.append(runs)
    return out


def reference_window_system(model, history, Nw: int):
    """Load equations of the last Nw transitions in a (records, n + m)
    [y | u] history, newest first: C A Gamma(yd[k]) and y[k+1] - C B u[k],
    one embedding and one ``gamma_matrix`` per row."""
    d = model.d
    ys = [row[:model.n] for row in history]
    us = [row[model.n:] for row in history]
    j = len(history) - 1
    C = output_matrix(model)
    rows, rhs = [], []
    for k in range(j - 1, j - 1 - Nw, -1):
        yd = np.concatenate([ys[k - i] for i in range(d + 1)]
                            + [us[k - i] for i in range(1, d + 1)])
        rows.append(C @ model.A @ gamma_matrix(model.basis, yd, model.p))
        rhs.append(ys[k + 1] - C @ model.B @ us[k])
    return np.vstack(rows), np.concatenate(rhs)


def reference_estimate_instant(model, y_next, yd_prev, u_prev, cfg):
    """Load estimate from one transition given as a triple: the embedded
    output ``yd_prev``, the input ``u_prev`` applied from it and the output
    ``y_next`` it led to, each a single row of the load equations."""
    M, rhs = observer._load_system(model, *(np.atleast_2d(np.asarray(v, dtype=float))
                                            for v in (yd_prev, y_next, u_prev)))
    return observer._solve_load(M, rhs, cfg)


def reference_estimator(cfg, d: int) -> SimpleNamespace:
    """Fresh state for :func:`reference_update`."""
    return SimpleNamespace(cfg=cfg, d=d, w_hat=cfg.w_init.copy(), step=0, updates=0,
                           degenerate=False, history=deque(maxlen=cfg.Nw + d + 1),
                           estimates=deque(maxlen=cfg.Nr))


def reference_update(state, model, y, u):
    """The observer's update schedule over a deque of (y, u) copies: every
    Ne steps, once the deque holds Nw + d + 1 records, a window of enough
    motion is solved for the whole (1, w) stack by ``numkit.lstsq``, and
    the smoothed w_hat is the mean of the new estimate and the buffered
    ones."""
    cfg, d = state.cfg, state.d
    state.history.append((np.array(y, dtype=float, ndmin=1),
                          np.array(u, dtype=float, ndmin=1)))
    if state.step % cfg.Ne == 0 and len(state.history) == state.history.maxlen:
        ys = np.stack([yk for yk, _ in state.history])
        us = np.stack([uk for _, uk in state.history])
        if np.max(np.linalg.norm(np.diff(ys, axis=0), axis=1)) < observer.STATIONARY_MOTION_TOL:
            state.degenerate = True
        else:
            Yd = delay_embed(ys[:-1], us[:-1], d)
            M, rhs = observer._load_system(model, Yd[::-1], ys[d + 1:][::-1], us[d:-1][::-1])
            blind = np.linalg.norm(M[:, 1:]) < 1e-9 * max(np.linalg.norm(M), 1.0)
            w = None if blind else numkit.lstsq(M, rhs)[1:]
            state.degenerate = blind or not np.all(np.isfinite(w))
            if not state.degenerate:
                w = cfg.clamp(w)
                state.w_hat = cfg.clamp(np.mean([w, *state.estimates], axis=0))
                state.estimates.append(w)
                state.updates += 1
    state.step += 1


def reference_rows(ref, ks) -> np.ndarray:
    """A reference's (len(ks), n) rows, its function ``ref.fn`` called once
    per step at ``min(max(k, 0) Ts, duration)``, link-1 coordinates zero."""
    rows = np.zeros((len(ks), ref.table.shape[1]))
    for i, k in enumerate(ks):
        rows[i, -2:] = ref.fn(min(max(k, 0) * ref.Ts, ref.duration))
    return rows


def _reference_prediction(model, cfg):
    """S, the stacked C A^i (i = 1..Nh), and M, the block lower-triangular
    C A^(i-1-j) B, each block its own product of C, a power of A and B."""
    A, B, C = model.A, model.B, output_matrix(model)
    n, m, Nh = C.shape[0], B.shape[1], cfg.Nh
    powers = [np.eye(A.shape[0])]
    for _ in range(Nh):
        powers.append(A @ powers[-1])
    S = np.vstack([C @ powers[i] for i in range(1, Nh + 1)])
    M = np.zeros((n * Nh, m * Nh))
    for i in range(1, Nh + 1):
        for j in range(i):
            M[(i - 1) * n:i * n, j * m:(j + 1) * m] = C @ powers[i - 1 - j] @ B
    return S, M


def _reference_weights(cfg, m: int):
    """The matrix form of the config's weights and box: Q = diag(q),
    R = r_weight I_m, and u_min and u_max as per-input vectors."""
    return (np.diag(np.asarray(cfg.q, dtype=float)), cfg.r_weight * np.eye(m),
            np.full(m, float(cfg.u_min)), np.full(m, float(cfg.u_max)))


def reference_condenser(model, cfg):
    """The condensation's (S, P, H, lower, upper): the free response S, the
    linear term's gain P = 2 M' Qbar, the symmetrised Hessian
    2 (M' Qbar M + Rbar) and the box tiled over the horizon, with every
    Markov block of M formed where it is placed and the block-diagonal
    weights built from the matrices Q and R."""
    S, M = _reference_prediction(model, cfg)
    Q, R, lo, hi = _reference_weights(cfg, model.B.shape[1])
    Qbar = np.kron(np.eye(cfg.Nh), Q)
    Rbar = np.kron(np.eye(cfg.Nh), R)
    H = 2.0 * (M.T @ Qbar @ M + Rbar)
    return S, (2.0 * M.T) @ Qbar, 0.5 * (H + H.T), np.tile(lo, cfg.Nh), np.tile(hi, cfg.Nh)


def reference_condensed_f(model, cfg, z0, ref) -> np.ndarray:
    """Linear term 2 M' Qbar (S z0 - r) of the condensed QP, with S the
    stacked C A^i (i = 1..Nh), M the block lower-triangular C A^(i-1-j) B
    and Qbar the block-diagonal output weight."""
    S, M = _reference_prediction(model, cfg)
    Qbar = np.kron(np.eye(cfg.Nh), _reference_weights(cfg, model.B.shape[1])[0])
    return 2.0 * M.T @ Qbar @ (S @ z0 - np.reshape(ref, -1))


def reference_pca(X, energy: float):
    """PCA by a direct thin SVD of the centred data: (mean, components,
    explained) with the fewest leading components reaching ``energy`` and
    each component's largest-magnitude entry positive."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    _, s, Vt = np.linalg.svd(X - mean, full_matrices=False)
    frac = s**2 / np.sum(s**2)
    k = min(int(np.searchsorted(np.cumsum(frac), energy - 1e-12) + 1), Vt.shape[0])
    comps = Vt[:k].copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return mean, comps, frac[:k]


def pca_transform(projection: PcaProjection, X) -> np.ndarray:
    """Samples (rows of X) centred and projected onto the components."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return (X - projection.mean) @ projection.components.T


def monomial_pairs(ne: int) -> list:
    """The degree-2 monomials y_i y_j of ne variables as index pairs, i <= j,
    in row-major order."""
    return [(i, j) for i in range(ne) for j in range(i, ne)]


def reference_quadratics(Y) -> np.ndarray:
    """The (K, ne(ne+1)/2) monomial block, one product per pair."""
    Y = np.asarray(Y, dtype=float)
    return np.stack([Y[:, i] * Y[:, j] for i, j in monomial_pairs(Y.shape[1])], axis=1)


def reference_lift_g_many(basis: Basis, Yd) -> np.ndarray:
    """g lifts as blocks concatenated: identities, constant, projected
    per-pair monomials."""
    Yd = np.atleast_2d(np.asarray(Yd, dtype=float))
    blocks = [Yd]
    if basis.include_constant:
        blocks.append(np.ones((Yd.shape[0], 1)))
    if basis.projection.n_components > 0:
        Q = reference_quadratics(Yd)
        blocks.append(pca_transform(basis.projection, Q))
    return np.concatenate(blocks, axis=1)


def reference_lift_gamma_many(basis: Basis, Yd, W) -> np.ndarray:
    """gamma lifts as blocks concatenated: g, then g times each load."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    G = reference_lift_g_many(basis, Yd)
    return np.concatenate([G] + [G * W[:, [i]] for i in range(W.shape[1])], axis=1)


def predict_one_step(model, yd, u, w=None) -> np.ndarray:
    """One-step output prediction C (A lift(yd, w) + B u) from one embedded
    output."""
    z = model.lift(yd, w)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return output_matrix(model) @ (model.A @ z + model.B @ u)


def horizon_errors(model, campaign, steps: int) -> np.ndarray:
    """The open-loop end-effector errors of a fitted model ``steps`` samples
    ahead on a ``(Y, U, w)`` campaign, one per start k = d, ..., K - steps
    of each run: the recorded embedding at each start is lifted on its own
    with the run's load, the run's lifted starts are rolled forward together
    by z+ = A z + B u under the recorded inputs, and the last two outputs
    of each are compared with the recorded ones at k + steps."""
    Y, U, w = campaign
    d, n = model.d, model.n
    errors = []
    for r in range(len(Y)):
        E = delay_embed(Y[r], U[r], d)
        starts = np.arange(d, U.shape[1] - steps + 1)
        Z = np.array([model.lift(E[k - d], w[r] if model.p else None) for k in starts])
        for i in range(steps):
            Z = Z @ model.A.T + U[r, starts + i] @ model.B.T
        errors.append(np.linalg.norm(Z[:, n - 2:n] - Y[r, starts + steps, -2:], axis=1))
    return np.concatenate(errors)


def output_matrix(model) -> np.ndarray:
    """The (n, n_z) output matrix [I_n | 0] of a lifted model."""
    C = np.zeros((model.n, model.n_z))
    C[:, :model.n] = np.eye(model.n)
    return C


def reference_snapshots(Y, U, w, d: int):
    """Snapshot pairs of a ``(Y, U, w)`` campaign one run at a time: each
    run's 2-D delay embedding split into its a and b sides, the inputs
    between them and its load on every row, each side then row-stacked."""
    a, b, us, W = [], [], [], []
    for r in range(len(Y)):
        E = delay_embed(Y[r], U[r], d)
        a.append(E[:-1])
        b.append(E[1:])
        us.append(U[r][d:])
        if w is not None:
            W.append(np.tile(np.atleast_1d(w[r]), (len(E) - 1, 1)))
    return np.vstack(a), np.vstack(b), np.vstack(us), np.vstack(W) if W else None


def row_stacked_fit(campaign, basis: Basis, Ts: float, with_load: bool = False) -> KoopmanModel:
    """EDMD on the row-stacked snapshot pairs of a ``(Y, U, w)`` campaign:
    the pairs assembled one run at a time, one lift of each whole side, and
    K_bar = pinv(Psi_a) Psi_b with Psi = [lift(Yd) | U], Psi_a kept."""
    a, b, U, W = reference_snapshots(*campaign, basis.d)

    def data_matrix(Yd):
        Z = lift_gamma_many(basis, Yd, W) if with_load else lift_g_many(basis, Yd)
        return np.hstack([Z, U])

    Kt = (numkit.pinv(data_matrix(a))[0] @ data_matrix(b)).T
    m = U.shape[1]
    n_z = Kt.shape[0] - m
    return KoopmanModel(A=Kt[:n_z, :n_z], B=Kt[:n_z, n_z:], basis=basis, Ts=Ts,
                        p=int(with_load),
                        bottom_block_residual=float(np.linalg.norm(
                            Kt[n_z:] - np.eye(m, n_z + m, n_z))))
