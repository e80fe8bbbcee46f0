"""Snapshot assembly and EDMD fitting: exact recovery on linear and bilinear
plants, structural invariants of the extracted (A, B), and persistence.
"""

import dataclasses
import json

import numpy as np
import pytest

from klmpc import edmd
from klmpc.edmd import (
    KoopmanModel,
    assemble_snapshots,
    fit_koopman,
    fit_linear_baseline,
    one_step_rmse,
)
from klmpc.lifting import Basis, embedded_dim, fit_basis, identity_basis, lift_g
from klmpc.mpc import Condenser
from klmpc.numkit import PcaProjection
from klmpc.plant import CampaignConfig, collect_training_data

from conftest import traced_peak
from oracles import (
    bilinear_basis,
    fit_bilinear_model,
    horizon_errors,
    output_matrix,
    predict_one_step,
    reference_snapshots,
    row_stacked_fit,
    simulate_bilinear,
)

TS = 0.05


def linear_campaign(A, B, K, rng, runs=1):
    """``runs`` runs of K samples of x+ = A x + B u from random states under
    uniform random inputs, as a campaign ``(Y, U, None)`` without loads."""
    n, m = A.shape[0], B.shape[1]
    Y, U = np.zeros((runs, K, n)), np.zeros((runs, K - 1, m))
    for r in range(runs):
        x = rng.normal(size=n)
        us = rng.uniform(-1.0, 1.0, size=(K, m))
        for k in range(K):
            Y[r, k] = x
            x = A @ x + B @ us[k]
        U[r] = us[:-1]
    return Y, U, None


def test_snapshot_count_minimal():
    rng = np.random.default_rng(0)
    campaign = linear_campaign(np.eye(1) * 0.5, np.eye(1), 3, rng)
    assert assemble_snapshots(*campaign, d=1).shape == (1, 3)
    assert assemble_snapshots(*campaign, d=0).shape == (2, 1)


def test_snapshots_never_straddle_trajectories():
    rng = np.random.default_rng(1)
    Y, U_in, _ = linear_campaign(np.eye(1) * 0.5, np.eye(1), 10, rng, runs=2)
    a = assemble_snapshots(Y, U_in, None, d=1)
    assert a.shape[0] == 2 * (10 - 2)
    # the second run starts from its own first embedding; on the fit's b
    # side, with the identity lift, the last pair of the first run ends on
    # that run's last sample
    assert np.array_equal(a[8], [Y[1, 1, 0], Y[1, 0, 0], U_in[1, 0, 0]])
    basis = identity_basis(1, 1, 1)
    b = edmd._data_matrix(basis, Y, U_in, None, 1)
    assert np.array_equal(b[7, :3], [Y[0, 9, 0], Y[0, 8, 0], U_in[0, 8, 0]])
    assert np.array_equal(edmd._data_matrix(basis, Y, U_in, None, 0)[8, 3:], U_in[1, 1])


def test_snapshot_b_is_next_a():
    # the fit's two sides, with the identity lift: the b side is the a side
    # one step on, the a side's rows are assemble_snapshots' rows, and both
    # carry the input applied from the a side's step
    rng = np.random.default_rng(2)
    Y, U_in, _ = linear_campaign(np.eye(2) * 0.8, np.ones((2, 1)), 12, rng)
    for d in (0, 1, 2):
        basis = identity_basis(2, 1, d)
        ne = basis.identity_count
        a, b = (edmd._data_matrix(basis, Y, U_in, None, shift) for shift in (0, 1))
        assert np.array_equal(a[:, :ne], assemble_snapshots(Y, U_in, None, d))
        assert np.array_equal(b[:-1, :ne], a[1:, :ne])
        assert np.array_equal(a[:, ne:], U_in[0, d:]) and np.array_equal(b[:, ne:], a[:, ne:])


def test_snapshots_match_run_by_run_assembly():
    # the one batched embedding gives the rows, order and dtype of embedding
    # each run alone and stacking the runs
    rng = np.random.default_rng(13)
    Y, U, w = rng.normal(size=(3, 9, 4)), rng.uniform(size=(3, 8, 2)), np.array([0.0, 0.1, 0.3])
    for d in (0, 1, 2):
        for loads in (w, None):
            got = assemble_snapshots(Y, U, loads, d)
            want = reference_snapshots(Y, U, loads, d)[0]
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_snapshot_loads_repeat_per_row():
    # the a side does not read the loads; the fit's Gamma lift takes each
    # run's load on its rows, so the constant's load column is the load
    rng = np.random.default_rng(12)
    Y, U, w = simulate_bilinear((0.1, 0.25), 6, rng)
    assert np.array_equal(assemble_snapshots(Y, U, w, d=1), assemble_snapshots(Y, U, None, d=1))
    basis = dataclasses.replace(bilinear_basis(), d=1)
    Psi = edmd._data_matrix(basis, Y, U, w, 0)
    assert np.array_equal(Psi[:, 2 * basis.n_lifted - 1], [0.1] * 4 + [0.25] * 4)


def malformed_campaigns() -> dict:
    """Campaigns ``(Y, U, w)`` of one output and one input, each with the
    delay ``d`` it is refused at: runs too short for ``d``, run counts or
    step counts that disagree, and arrays of the wrong ``ndim``."""
    rng = np.random.default_rng(3)
    short = linear_campaign(np.eye(1) * 0.5, np.eye(1), 2, rng)
    Y, U, w = simulate_bilinear((0.1, 0.25), 6, rng)
    return {"too short for d": (short, 1),
            "fewer output runs": ((Y[:1], U, w), 0),
            "fewer command runs": ((Y, U[:1], w), 0),
            "fewer loads": ((Y, U, w[:1]), 0),
            "fewer commands": ((Y, U[:, :-1], w), 0),
            "fewer outputs": ((Y[:, :-2], U, w), 0),
            "one run, not a stack": ((Y[0], U[0], w[0]), 0)}


MALFORMED = malformed_campaigns()


def test_assemble_rejects_bad_trajectories():
    short, d = MALFORMED["too short for d"]
    with pytest.raises(ValueError, match="with K > d"):
        assemble_snapshots(*short, d=d)
    # run counts or step counts that disagree are refused naming the shapes
    for campaign, d in MALFORMED.values():
        with pytest.raises(ValueError, match=r"got \("):
            assemble_snapshots(*campaign, d=d)


@pytest.mark.parametrize("case", list(MALFORMED))
def test_fit_refuses_what_assembly_refuses(case):
    # one check for both: the fit refuses each campaign with assembly's message
    campaign, d = MALFORMED[case]
    with pytest.raises(ValueError) as want:
        assemble_snapshots(*campaign, d=d)
    for with_load in (False, True):
        with pytest.raises(ValueError) as got:
            fit_koopman(campaign, identity_basis(1, 1, d), TS, with_load=with_load)
        assert str(got.value) == str(want.value)


def test_exact_recovery_scalar():
    # x+ = 0.9 x + 0.1 u recovered exactly from noiseless data
    rng = np.random.default_rng(4)
    campaign = linear_campaign(np.array([[0.9]]), np.array([[0.1]]), 50, rng)
    model = fit_koopman(campaign, identity_basis(1, 1, 0), TS)
    assert abs(model.A[0, 0] - 0.9) < 1e-8
    assert abs(model.B[0, 0] - 0.1) < 1e-8


def test_rank_deficient_fit_warns_and_stays_finite(caplog):
    # a duplicated input column makes the lifted data matrix rank-deficient:
    # the fit says so and falls back on the pseudoinverse's minimum-norm
    # solution, which splits the input gain evenly over the copies
    rng = np.random.default_rng(6)
    Y, U, _ = linear_campaign(np.array([[0.9]]), np.array([[0.1]]), 50, rng)
    with caplog.at_level("WARNING", logger="klmpc.edmd"):
        model = fit_koopman((Y, np.concatenate([U, U], axis=2), None),
                            identity_basis(1, 2, 0), TS)
    # the fit reports it on its own logger, from the pseudoinverse's rank
    assert [(r.name, r.levelname) for r in caplog.records
            if "rank-deficient (2 < 3)" in r.getMessage()] == [("klmpc.edmd", "WARNING")]
    assert np.all(np.isfinite(model.A)) and np.all(np.isfinite(model.B))
    assert abs(model.A[0, 0] - 0.9) < 1e-8
    assert np.allclose(model.B, [[0.05, 0.05]], atol=1e-8)


def test_fit_factors_data_matrix_once(monkeypatch, factorisations):
    # the rank check reads the singular values of the pseudoinverse's own
    # SVD: one factorisation of Psi_a per fit, and no matrix_rank.  Psi_a is
    # factored by one in-place QR, and the SVD sees only its R factor.
    rng = np.random.default_rng(6)
    campaign = linear_campaign(np.array([[0.9]]), np.array([[0.1]]), 50, rng)
    want = fit_koopman(campaign, identity_basis(1, 1, 0), TS)
    factorisations["svd_s"].clear()
    factorisations["dgeqrf"].clear()

    def no_rank(*args, **kwargs):
        raise AssertionError("the fit must not factor Psi_a a second time")

    monkeypatch.setattr(np.linalg, "matrix_rank", no_rank)
    got = fit_koopman(campaign, identity_basis(1, 1, 0), TS)
    assert factorisations == {"svd_s": [(2, 2)], "dgeqrf": [(49, 2)]}
    assert np.array_equal(got.A, want.A) and np.array_equal(got.B, want.B)


def test_load_fit_traced_peak(default_cfg, models, training):
    # Psi_a, the pseudoinverse and one row block of embeddings and monomials:
    # the QR path writes U' over Psi_a and the pseudoinverse over its own
    # column-major copy, and neither the snapshot pairs nor a (K, 55)
    # monomial block are formed.  With a separate U and the whole block the
    # peak was 3.06 Psi_a; 2.16 measured.  The SVD gufunc's buffers, which
    # the QR path no longer forms, were never traced: test_harness's
    # factorisation shapes are what keeps them out.
    basis = models.koopman_load.basis
    peak, model = traced_peak(lambda: fit_koopman(training, basis, default_cfg.plant.Ts,
                                                  with_load=True))
    assert np.array_equal(model.A, models.koopman_load.A)
    assert np.array_equal(model.B, models.koopman_load.B)
    pairs = len(training[1]) * (training[1].shape[1] - model.d)
    assert peak <= 2.25 * pairs * (model.n_z + model.m) * 8


@pytest.fixture(scope="module")
def long_runs(default_cfg):
    """Two 60 s runs: 1,199 snapshot pairs each, more than two lift blocks."""
    [campaign] = collect_training_data(default_cfg.plant, [
        CampaignConfig(loads=(0.0, 0.3), trials=1, duration=60.0, seed=7)])
    return campaign


@pytest.fixture(scope="module")
def short_runs(default_cfg):
    """Forty 2 s runs of 39 pairs each, so that lift blocks cut through runs."""
    [campaign] = collect_training_data(default_cfg.plant, [
        CampaignConfig(loads=(0.0, 0.1, 0.2, 0.3), trials=10, duration=2.0, seed=8)])
    return campaign


@pytest.mark.parametrize("name", ["training", "holdout", "long_runs", "short_runs"])
def test_fit_has_the_bits_of_the_row_stacked_fit(request, default_cfg, models, name):
    # lifting into the data matrix block by block, from the campaign, gives
    # the bits of lifting the row-stacked snapshot pairs whole
    campaign = models.holdout if name == "holdout" else request.getfixturevalue(name)
    basis, Ts = models.koopman.basis, default_cfg.plant.Ts
    fits = [(fit_linear_baseline(campaign, d=basis.d, Ts=Ts),
             row_stacked_fit(campaign, identity_basis(4, 2, basis.d), Ts)),
            (fit_koopman(campaign, basis, Ts), row_stacked_fit(campaign, basis, Ts)),
            (fit_koopman(campaign, basis, Ts, with_load=True),
             row_stacked_fit(campaign, basis, Ts, with_load=True))]
    for got, want in fits:
        assert (got.n_z, got.p) == (want.n_z, want.p)
        assert np.array_equal(got.A, want.A) and np.array_equal(got.B, want.B)
        assert got.bottom_block_residual == want.bottom_block_residual


def test_exact_recovery_multivariate():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(4, 2))
    campaign = linear_campaign(A, B, 30, rng, runs=3)
    model = fit_linear_baseline(campaign, d=0, Ts=TS)
    assert np.linalg.norm(model.A - A) < 1e-8
    assert np.linalg.norm(model.B - B) < 1e-8
    assert model.bottom_block_residual < 1e-8


def test_frozen_system_gives_identity():
    # b == a with zero input for varied states, one two-sample run per
    # state: the fit must be the identity
    x = np.array([1.0, -2.0, 0.5, 3.0])
    Y = np.repeat(x[:, None, None], 2, axis=1)
    model = fit_koopman((Y, np.zeros((4, 1, 1)), None), identity_basis(1, 1, 0), TS)
    assert abs(model.A[0, 0] - 1.0) < 1e-8
    assert abs(model.B[0, 0]) < 1e-8


def test_duplicate_snapshots_invariance():
    rng = np.random.default_rng(6)
    campaign = linear_campaign(np.array([[0.7]]), np.array([[0.3]]), 30, rng)
    m1 = fit_koopman(campaign, identity_basis(1, 1, 0), TS)
    # every run twice: every snapshot pair twice
    twice = tuple(np.concatenate([runs, runs]) for runs in campaign[:2]) + (None,)
    m2 = fit_koopman(twice, identity_basis(1, 1, 0), TS)
    assert np.allclose(m1.A, m2.A, atol=1e-8)
    assert np.allclose(m1.B, m2.B, atol=1e-8)


def test_output_matrix_is_projection():
    # the output map is a row selection: the first n lifted coordinates are
    # the output, exactly, and the written-out C selects the same rows
    model = fit_bilinear_model()
    yd = np.array([0.37])
    z = model.lift(yd, 0.1)
    assert np.array_equal(z[:model.n], yd)
    assert np.array_equal(output_matrix(model) @ z, z[:model.n])


def test_bilinear_heldout_one_step():
    model = fit_bilinear_model()
    rng = np.random.default_rng(99)
    held = simulate_bilinear((0.15,), 60, rng)
    assert one_step_rmse(model, held) < 1e-8
    # without the campaign's loads the load model cannot be scored, and the
    # refusal names what is missing
    with pytest.raises(ValueError, match="load-augmented model needs the campaign's loads"):
        one_step_rmse(model, (*held[:2], None))


def test_one_step_rmse_matches_per_snapshot_loop(models):
    # the batched prediction reorders sums, so agreement is to a few ulps
    held = tuple(x[:2] for x in models.holdout)
    for model in (models.baseline, models.koopman, models.koopman_load):
        err2, count = 0.0, 0
        for a, b, u, w in zip(*reference_snapshots(*held, model.d)):
            pred = predict_one_step(model, a, u, w if model.p else None)
            err2 += float(np.sum((pred - b[: model.n]) ** 2))
            count += model.n
        assert one_step_rmse(model, held) == pytest.approx(np.sqrt(err2 / count),
                                                           rel=1e-12)


def test_horizon_error_orders_the_models(default_cfg, models):
    # over the MPC's horizon, as one step ahead (AC-3), the holdout's
    # open-loop end-effector errors order KL < K < L, by their median
    # (48 < 66 < 106 mm) and by their RMSE (78 < 94 < 173 mm)
    errors = [horizon_errors(model, models.holdout, default_cfg.Nh)
              for model in (models.koopman_load, models.koopman, models.baseline)]
    medians = [np.median(e) for e in errors]
    rmses = [np.sqrt(np.mean(e**2)) for e in errors]
    assert medians[0] < medians[1] < medians[2]
    assert rmses[0] < rmses[1] < rmses[2]


def test_fit_requires_enough_snapshots():
    rng = np.random.default_rng(7)
    campaign = linear_campaign(np.array([[0.9]]), np.array([[0.1]]), 2, rng)
    with pytest.raises(ValueError):   # 1 snapshot < n_z + m = 2
        fit_koopman(campaign, identity_basis(1, 1, 0), TS)
    empty = (np.zeros((0, 2, 1)), np.zeros((0, 1, 1)), None)
    with pytest.raises(ValueError):
        fit_koopman(empty, identity_basis(1, 1, 0), TS)


def test_with_load_requires_annotations():
    rng = np.random.default_rng(8)
    campaign = linear_campaign(np.array([[0.9]]), np.array([[0.1]]), 20, rng)
    with pytest.raises(ValueError):
        fit_koopman(campaign, bilinear_basis(), TS, with_load=True)


def test_baseline_dimension():
    rng = np.random.default_rng(9)
    A = np.eye(4) * 0.5
    B = np.ones((4, 2)) * 0.1
    campaign = linear_campaign(A, B, 30, rng, runs=2)
    model = fit_linear_baseline(campaign, d=1, Ts=TS)
    assert model.n_z == 4 + (4 + 2) * 1
    assert model.p == 0


def test_predict_one_step_identity_model():
    basis = identity_basis(2, 1, 0)
    model = KoopmanModel(A=np.eye(2), B=np.zeros((2, 1)), basis=basis, Ts=TS)
    yd = np.array([1.5, -0.5])
    assert np.array_equal(predict_one_step(model, yd, 0.3), yd)


def test_lift_requires_load_when_augmented():
    model = fit_bilinear_model()
    with pytest.raises(ValueError):
        model.lift(np.array([0.1]))


def test_model_json_round_trip(tmp_path):
    model = fit_bilinear_model()
    path = tmp_path / "models.json"
    edmd.save_models({"bilinear": model}, path)
    with open(path) as fh:
        doc = json.load(fh)
    assert list(doc) == ["bilinear"]
    loaded = edmd.model_from_dict(doc["bilinear"])
    assert np.array_equal(loaded.A, model.A)
    assert np.array_equal(loaded.B, model.B)
    assert loaded.p == model.p and loaded.Ts == model.Ts
    yd = np.array([0.7])
    assert np.array_equal(loaded.lift(yd, 0.1), model.lift(yd, 0.1))


def test_model_missing_key_names_it():
    # every key a model file still needs, at each level of the document
    for path in (("A",), ("B",), ("Ts",), ("p",), ("bottom_block_residual",),
                 ("basis",), ("basis", "d"), ("basis", "include_constant"),
                 ("basis", "projection"), ("basis", "projection", "mean")):
        doc = edmd.model_to_dict(fit_bilinear_model())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        with pytest.raises(ValueError, match=f"'{path[-1]}'"):
            edmd.model_from_dict(doc)


def test_model_document_stores_only_the_fit():
    doc = edmd.model_to_dict(fit_bilinear_model())
    assert "C" not in doc and "quad_pairs" not in doc["basis"]


def basis_round_trip(basis, path):
    """``basis`` written to ``path`` in a model entry, and read back."""
    N = basis.n_lifted
    model = KoopmanModel(A=np.eye(N), B=np.zeros((N, basis.m)), basis=basis, Ts=TS)
    path.write_text(json.dumps(edmd.model_to_dict(model)))
    return edmd.model_from_dict(json.loads(path.read_text())).basis


def test_basis_json_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    ne = embedded_dim(2, 1, 1)
    basis = fit_basis(rng.normal(size=(200, ne)), 0.99, n=2, m=1, d=1)
    loaded = basis_round_trip(basis, tmp_path / "basis.json")
    assert loaded.n == basis.n and loaded.m == basis.m and loaded.d == basis.d
    assert "quad_pairs" not in json.loads((tmp_path / "basis.json").read_text())["basis"]
    assert np.array_equal(loaded.projection.components,
                          basis.projection.components)
    assert np.array_equal(loaded.projection.mean, basis.projection.mean)
    yd = rng.normal(size=basis.identity_count)
    assert np.array_equal(lift_g(loaded, yd), lift_g(basis, yd))


def test_basis_json_round_trip_identity(tmp_path):
    basis = identity_basis(4, 2, 1)
    loaded = basis_round_trip(basis, tmp_path / "identity.json")
    assert loaded.n_lifted == basis.n_lifted
    assert not loaded.include_constant
    yd = np.arange(float(basis.identity_count))
    assert np.array_equal(lift_g(loaded, yd), yd)


def test_basis_json_round_trip_without_components(tmp_path):
    # a zero-variance fit keeps its monomial mean and no component: the
    # empty component list reads back as (0, P)
    ne = embedded_dim(2, 1, 0)
    basis = fit_basis(np.ones((60, ne)), 0.99, n=2, m=1, d=0)
    loaded = basis_round_trip(basis, tmp_path / "flat.json")
    assert loaded.projection.components.shape == basis.projection.components.shape == (0, 3)
    assert np.array_equal(loaded.projection.mean, basis.projection.mean)
    yd = np.arange(float(ne))
    assert np.array_equal(lift_g(loaded, yd), lift_g(basis, yd))


def test_fitted_models_read_back_as_written(models):
    # each entry that `klmpc fit` writes reads back into the same arrays and
    # writes the same JSON again
    for model in (models.baseline, models.koopman, models.koopman_load):
        entry = json.loads(json.dumps(edmd.model_to_dict(model)))
        loaded = edmd.model_from_dict(entry)
        assert json.dumps(edmd.model_to_dict(loaded)) == json.dumps(entry)
        assert np.array_equal(loaded.A, model.A) and np.array_equal(loaded.B, model.B)
        for name in ("mean", "components", "explained"):
            assert np.array_equal(getattr(loaded.basis.projection, name),
                                  getattr(model.basis.projection, name))
        basis_fields = ("n", "m", "d", "include_constant", "n_lifted")
        assert ([getattr(loaded.basis, name) for name in basis_fields]
                == [getattr(model.basis, name) for name in basis_fields])


def test_fitted_and_read_models_condense_alike(default_cfg, models):
    # the fit and the reader both give column-major A and B, so a read
    # model condenses to the fitted one's bits
    mpc_cfg = default_cfg.mpc_config()
    for model in (models.baseline, models.koopman, models.koopman_load):
        loaded = edmd.model_from_dict(json.loads(json.dumps(edmd.model_to_dict(model))))
        assert all(X.flags.f_contiguous for X in (model.A, model.B, loaded.A, loaded.B))
        fitted, read = Condenser(model, mpc_cfg), Condenser(loaded, mpc_cfg)
        for name in ("H", "S", "P"):
            assert np.array_equal(getattr(read, name), getattr(fitted, name))


def scalar_entry() -> dict:
    """The JSON entry of a p = 0 model whose identity basis lifts to one
    coordinate."""
    model = KoopmanModel(A=np.array([[0.5]]), B=np.array([[0.1]]),
                         basis=identity_basis(1, 1, 0), Ts=TS)
    return json.loads(json.dumps(edmd.model_to_dict(model)))


def projected_entry(**projection) -> dict:
    """The JSON entry of a p = 0 model whose basis (n = 2, m = 1, d = 0)
    keeps one component of its P = 3 monomials, with the ``projection``
    keys replaced."""
    basis = Basis(n=2, m=1, d=0, projection=PcaProjection(
        mean=np.zeros(3), components=np.eye(1, 3), energy_kept=1.0, explained=np.ones(1)))
    model = KoopmanModel(A=np.eye(4), B=np.zeros((4, 1)), basis=basis, Ts=TS)
    entry = json.loads(json.dumps(edmd.model_to_dict(model)))
    entry["basis"]["projection"].update(projection)
    return entry


def test_projected_entry_loads():
    assert edmd.model_from_dict(projected_entry()).basis.n_lifted == 4


def set_at(doc, path, value):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("mutate, named", [
    (lambda e: [e], "expected a JSON object"),
    (lambda e: set_at(e, ("Ts",), [1]), "'Ts'"),
    (lambda e: set_at(e, ("p",), None), "'p'"),
    (lambda e: set_at(e, ("A",), np.eye(3).tolist()), r"'A' \(3, 3\)"),
    (lambda e: set_at(e, ("B",), [[0.1], [0.2]]), r"'B' \(2, 1\)"),
    (lambda e: set_at(e, ("A",), [[float("nan")]]), "'A'"),
    (lambda e: set_at(e, ("bogus",), 1), "'bogus'"),
    (lambda e: set_at(e, ("p",), 2), r"\(3, 3\)"),
    (lambda e: set_at(e, ("C",), [[1.0]]), "'C'"),
    (lambda e: set_at(e, ("basis", "quad_pairs"), []), "'quad_pairs'"),
    (lambda e: set_at(e, ("basis", "bogus"), 1), "'bogus'"),
    (lambda e: set_at(e, ("basis", "projection", "bogus"), 1), "'bogus'"),
    (lambda e: set_at(e, ("basis",), 3), "'basis'"),
    (lambda e: set_at(e, ("basis", "include_constant"), 1), "'include_constant'"),
    (lambda e: set_at(e, ("basis", "n"), 1.5), "'n'"),
    (lambda e: set_at(e, ("A",), [[0.5], [0.5, 0.5]]), "'A'"),
    (lambda e: set_at(e, ("B",), [["0.1"]]), "'B'"),
    (lambda e: set_at(e, ("basis", "projection", "mean"), [True]), "'mean'"),
    (lambda e: projected_entry(mean=[0.0, 0.0], components=[[1.0, 0.0]]), "projection 'mean'"),
    (lambda e: projected_entry(components=[[1.0, 0.0]]), "projection 'components'"),
    (lambda e: projected_entry(explained=[0.5, 0.5]), "projection 'explained'"),
    (lambda e: set_at(e, ("basis", "projection", "energy_kept"), 7),
     r"'energy_kept' must be in \(0, 1\], got 7"),
    (lambda e: set_at(e, ("basis", "projection", "energy_kept"), 0),
     r"'energy_kept' must be in \(0, 1\], got 0"),
    (lambda e: projected_entry(explained=[-0.1]), r"'explained' must have entries in \[0, 1\]"),
    (lambda e: projected_entry(explained=[1.5]), r"'explained' .*, got \[1.5\]"),
    (lambda e: set_at(e, ("bottom_block_residual",), -1), "'bottom_block_residual' must be >= 0"),
])
def test_model_document_refuses_a_malformed_entry(mutate, named):
    # one ValueError naming the key or the shapes, never a TypeError
    entry = json.loads(json.dumps(mutate(scalar_entry())))
    with pytest.raises(ValueError, match=named):
        edmd.model_from_dict(entry)

