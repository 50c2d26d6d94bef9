import copy
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import cho_solve
from scipy.optimize import minimize

from levelkgp.config import MAX_JITTER, GPConfig, OptimizerConfig, default_bank_entries
from levelkgp.errors import (
    ConfigurationError,
    InputError,
    MissingStateError,
    ParameterError,
    SchemaError,
)
from levelkgp.gp import (
    LOG_2PI,
    ModelCache,
    Policy,
    StateGP,
    _bounds,
    _initial_theta,
    _lbfgsb_lockstep,
    _length_scales,
    _neg_lml_and_grad,
    _sigmoid,
    _softplus,
    fit_state_gp,
    gaussian_log_marginal,
    jittered_cholesky,
    residual_target,
    shift_normalize,
    unit_grams,
    zero_sum_basis,
)

from conftest import (
    V1_MODEL,
    default_bank,
    kron_covariance,
    random_policies,
    shift_normalize_row,
)

LEVELS = np.array([0.0, 1.0, 2.0, 3.0])
# SHA-256 of three default fits, recorded before the per-entry rank and the
# optimizer bounds left the config; the parameter layout must not move a bit
FIT_GOLDEN_SHA256 = "325d138da114259a21a8724cdec4496444e9060989f78881c50247a020906968"


def _fit(rng, state_id=0, restarts=2):
    policies = random_policies(rng)
    model = fit_state_gp(
        LEVELS,
        policies,
        optimizer=OptimizerConfig(restarts=restarts),
        state_id=state_id,
    )
    return model, policies


# -- Policy and normalization -------------------------------------------------


def test_policy_accepts_probability_vector():
    p = Policy([0.1, 0.2, 0.3, 0.4])
    assert len(p) == 4
    assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_policy_is_immutable():
    p = Policy([0.5, 0.5])
    with pytest.raises(ValueError):
        p.probs[0] = 0.9
    with pytest.raises(AttributeError):
        p.probs = np.array([1.0, 0.0])


@pytest.mark.parametrize(
    "bad",
    [
        [0.5, 0.6],
        [0.5, 0.4],
        [-0.1, 1.1],
        [1.5, -0.5],
        [np.nan, 1.0],
        [1.0],
        [[0.5, 0.5]],
    ],
)
def test_policy_rejects_invalid_vectors(bad):
    with pytest.raises(InputError):
        Policy(bad)


def test_shift_normalize_shifts_by_minimum():
    p = shift_normalize([0.2, -0.1, 0.3])
    # shift by 0.1 then divide by 0.7
    assert np.allclose(p.probs, [3.0 / 7.0, 0.0, 4.0 / 7.0])


def test_shift_normalize_keeps_nonnegative_input():
    p = shift_normalize([1.0, 3.0])
    assert np.allclose(p.probs, [0.25, 0.75])


def test_shift_normalize_degenerate_falls_back_to_uniform(caplog):
    with caplog.at_level("WARNING"):
        p = shift_normalize([0.0, 0.0, 0.0])
    assert np.allclose(p.probs, [1 / 3] * 3)
    assert any("degenerate" in r.message for r in caplog.records)


def test_shift_normalize_rows_match_per_row_oracle(rng, caplog):
    rows = rng.normal(0.2, 0.4, size=(40, 5))
    rows[::7] = 0.0
    rows[3] = -2.0
    with caplog.at_level("WARNING"):
        probs = shift_normalize(rows)
    assert np.array_equal(probs, np.stack([shift_normalize_row(r) for r in rows]))
    assert (rows.min(axis=1) < 0).sum() > 20
    assert np.array_equal(probs[3], np.full(5, 0.2))
    assert [r.message for r in caplog.records] == [
        "degenerate vector in shift_normalize, using uniform"
    ]


def test_shift_normalize_vector_matches_oracle(rng):
    for row in rng.normal(0.2, 0.4, size=(40, 5)):
        assert np.array_equal(shift_normalize(row).probs, shift_normalize_row(row))


def test_shift_normalize_rejects_bad_shapes():
    for bad in (0.5, [0.5], np.zeros((3, 1)), np.zeros((0, 4))):
        with pytest.raises(InputError):
            shift_normalize(bad)


def test_shift_normalize_rejects_non_finite():
    with pytest.raises(InputError):
        shift_normalize([np.inf, 0.0])


@given(st.integers(min_value=2, max_value=10))
def test_zero_sum_basis_is_orthonormal_and_zero_sum(dim):
    v = zero_sum_basis(dim)
    assert v.shape == (dim, dim - 1)
    assert np.allclose(v.T @ v, np.eye(dim - 1), atol=1e-12)
    assert np.allclose(np.ones(dim) @ v, 0.0, atol=1e-12)


# -- marginal likelihood --------------------------------------------------------


def test_gaussian_log_marginal_standard_normal_at_origin():
    # identity covariance, zero target, single output
    value = gaussian_log_marginal(np.eye(1), np.zeros(1))
    assert value == pytest.approx(-0.9189385332046727, abs=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gaussian_log_marginal_matches_dense_formula(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8))
    sigma = a @ a.T + 0.5 * np.eye(8)
    f = rng.standard_normal(8)
    chol = np.linalg.cholesky(sigma)
    got = gaussian_log_marginal(chol, f)
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    expected = -0.5 * f @ np.linalg.inv(sigma) @ f - 0.5 * logdet - 4 * math.log(2 * math.pi)
    assert got == pytest.approx(expected, abs=1e-8)


def _objective_at(theta, grams, target, dim, jitter):
    """The objective at one point: row 0 of a one-row stack."""
    values, grads = _neg_lml_and_grad(theta[None, :], grams, target, dim, jitter)
    return values[0], grads[0]


def test_objective_gradient_matches_finite_differences(rng):
    policies = random_policies(rng)
    dim = policies.shape[1] - 1
    resid = (policies - 1.0 / policies.shape[1]) @ zero_sum_basis(policies.shape[1])
    target = resid.T.ravel()
    entries = default_bank_entries()
    grams = unit_grams(LEVELS, LEVELS, _length_scales(entries))
    theta = _initial_theta(len(entries), dim, rng, perturb=True)
    value, grad = _objective_at(theta, grams, target, dim, 1e-6)
    eps = 1e-6
    for idx in rng.choice(theta.size, size=25, replace=False):
        bump = np.zeros(theta.size)
        bump[idx] = eps
        hi, _ = _objective_at(theta + bump, grams, target, dim, 1e-6)
        lo, _ = _objective_at(theta - bump, grams, target, dim, 1e-6)
        fd = (hi - lo) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, abs=1e-5, rel=1e-4)


def _neg_lml_and_grad_loop(theta, grams, target, dim, jitter):
    """The per-entry objective that the batched one replaced: its bit-for-bit oracle."""
    n = grams.shape[1]
    m = dim * n
    variances, weights, raw_kappas = [], [], []
    for chunk in theta.reshape(len(grams), -1):
        variances.append(math.exp(chunk[0]))
        weights.append(chunk[1 : 1 + dim * dim].reshape(dim, dim))
        raw_kappas.append(chunk[1 + dim * dim :])
    coregs = [w @ w.T + np.diag(_softplus(rk)) for w, rk in zip(weights, raw_kappas)]
    sigma = kron_covariance(grams, variances, coregs, jitter * np.eye(m))
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        return 1e12, np.zeros_like(theta)
    alpha = cho_solve((chol, True), target)
    lml = -0.5 * target @ alpha - np.log(np.diag(chol)).sum() - 0.5 * m * LOG_2PI
    sigma_inv = cho_solve((chol, True), np.eye(m))
    g4 = (np.outer(alpha, alpha) - sigma_inv).reshape(dim, n, dim, n)
    grad = np.zeros_like(theta)
    for slot, var, w, raw_kappa, b, gram in zip(
        grad.reshape(len(grams), -1), variances, weights, raw_kappas, coregs, grams
    ):
        mb = 0.5 * np.einsum("aibj,ij->ab", g4, var * gram)
        slot[0] = float(np.sum(mb * b))
        slot[1 : 1 + dim * dim] = ((mb + mb.T) @ w).ravel()
        slot[1 + dim * dim :] = np.diag(mb) * _sigmoid(raw_kappa)
    return -lml, -grad


@given(
    n_actions=st.integers(min_value=3, max_value=6),
    n_levels=st.integers(min_value=2, max_value=5),
    n_entries=st.integers(min_value=1, max_value=7),
    perturb=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_objective_matches_per_entry_loop_bit_for_bit(
    n_actions, n_levels, n_entries, perturb, seed
):
    rng = np.random.default_rng(seed)
    dim = n_actions - 1
    levels = np.arange(float(n_levels))
    target = residual_target(
        random_policies(rng, n_levels=n_levels, n_actions=n_actions), zero_sum_basis(n_actions)
    )
    grams = unit_grams(levels, levels, _length_scales(default_bank_entries()[:n_entries]))
    theta = _initial_theta(n_entries, dim, rng, perturb=perturb)
    # scaled and shifted, as the points L-BFGS-B visits away from the start
    theta = np.clip(theta * rng.uniform(0.5, 5.0) + rng.normal(0.0, 0.5, theta.size), -5, 5)
    value, grad = _objective_at(theta, grams, target, dim, 1e-6)
    want_value, want_grad = _neg_lml_and_grad_loop(theta, grams, target, dim, 1e-6)
    assert value == want_value
    assert np.array_equal(grad, want_grad)


def _stacked_objective_inputs(rng, n_actions, problems):
    """Grams of the default bank, random in-bounds theta and one target."""
    dim = n_actions - 1
    entries = default_bank_entries()
    grams = unit_grams(LEVELS, LEVELS, _length_scales(entries))
    low, high = np.array(_bounds(len(entries), dim)).T
    thetas = rng.uniform(low, high, size=(problems, low.size))
    target = residual_target(random_policies(rng, n_actions=n_actions), zero_sum_basis(n_actions))
    return grams, thetas, target, dim


@pytest.mark.parametrize("n_actions", [5, 2])
@pytest.mark.parametrize("problems", [1, 2, 4, 24])
def test_stacked_objective_rows_match_per_entry_loop(rng, n_actions, problems):
    grams, thetas, target, dim = _stacked_objective_inputs(rng, n_actions, problems)
    values, grads = _neg_lml_and_grad(thetas, grams, target, dim, 1e-6)
    assert values.shape == (problems,) and grads.shape == thetas.shape
    for theta, value, grad in zip(thetas, values, grads):
        want_value, want_grad = _neg_lml_and_grad_loop(theta, grams, target, dim, 1e-6)
        assert value == want_value
        assert np.array_equal(grad, want_grad)


def test_stacked_objective_isolates_a_non_positive_definite_row(rng):
    grams, thetas, target, dim = _stacked_objective_inputs(rng, 5, 4)
    # huge variances on rank-one B_z with kappa = 0: Sigma is singular to working precision
    slot = np.concatenate(([20.0], np.full(dim * dim, 5.0), np.full(dim, -800.0)))
    thetas[2] = np.tile(slot, len(grams))
    assert _neg_lml_and_grad_loop(thetas[2], grams, target, dim, 1e-6)[0] == 1e12
    values, grads = _neg_lml_and_grad(thetas, grams, target, dim, 1e-6)
    assert values[2] == 1e12
    assert np.array_equal(grads[2], np.zeros(thetas.shape[1]))
    for row in (0, 1, 3):
        want_value, want_grad = _neg_lml_and_grad_loop(thetas[row], grams, target, dim, 1e-6)
        assert values[row] == want_value
        assert np.array_equal(grads[row], want_grad)


# desk at seed 7: the training policies of state 1214, whose restart 0 converges at nit 68
STATE_1214_POLICIES = [
    [0.99, 0.0025, 0.0025, 0.0025, 0.0025],
    [0.43389636033206885, 0.1933076090054442, 0.12426534355416227, 0.12426534355416227,
     0.12426534355416227],
    [0.5302639007014095, 0.10672338133708088, 0.09136254198919071, 0.06313015104565309,
     0.20852002492666571],
    [0.7303120782862843, 0.04001285723168956, 0.04927988821194794, 0.05206413132668442,
     0.12833104494339362],
]


def _restart_problem(policies, state_id, restarts):
    """The objective's arguments and the starts that fit_state_gp uses for a state."""
    entries = default_bank_entries()
    dim = policies.shape[1] - 1
    target = residual_target(policies, zero_sum_basis(policies.shape[1]))
    grams = unit_grams(LEVELS, LEVELS, _length_scales(entries))
    rng = np.random.default_rng(np.random.SeedSequence([OptimizerConfig().seed, state_id]))
    starts = np.stack(
        [_initial_theta(len(entries), dim, rng, perturb=r > 0) for r in range(restarts)]
    )
    return (grams, target, dim, 1e-6), starts, _bounds(len(entries), dim)


def _assert_lockstep_matches_minimize(args, starts, bounds, max_iter):
    results = _lbfgsb_lockstep(
        lambda thetas: _neg_lml_and_grad(thetas, *args), starts, bounds, max_iter
    )
    assert len(results) == len(starts)
    for start, got in zip(starts, results):
        want = minimize(
            _objective_at, start, args=args, jac=True, method="L-BFGS-B",
            bounds=bounds, options={"maxiter": max_iter},
        )
        assert got.fun == want.fun
        assert np.array_equal(got.x, want.x)
        assert got.nit == want.nit
        assert got.status == want.status
    return results


@pytest.mark.parametrize("max_iter", [1, 2, 200])
@pytest.mark.parametrize("restarts", [1, 4])
def test_lockstep_lbfgsb_matches_scipy_minimize(max_iter, restarts):
    args, starts, bounds = _restart_problem(np.array(STATE_1214_POLICIES), 1214, restarts)
    results = _assert_lockstep_matches_minimize(args, starts, bounds, max_iter)
    if max_iter == 200:
        assert results[0].nit == 68 and results[0].status == 0


def test_lockstep_lbfgsb_matches_minimize_from_starts_outside_the_bounds(rng):
    args, starts, bounds = _restart_problem(random_policies(rng), 3, 2)
    starts[:, 0] = [-50.0, 50.0]  # the first log variance, outside (-12, 6)
    _assert_lockstep_matches_minimize(args, starts, bounds, 3)


def test_fit_logs_restarts_stopped_at_max_iter(caplog):
    policies = np.array(STATE_1214_POLICIES)
    with caplog.at_level("DEBUG", logger="levelkgp.gp"):
        fit_state_gp(LEVELS, policies, state_id=1214)
    lines = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
    assert lines == ["state 1214: 3 of 4 optimizer restarts stopped at max_iter=200"]
    caplog.clear()
    with caplog.at_level("INFO", logger="levelkgp.gp"):
        fit_state_gp(LEVELS, policies, state_id=1214)
    assert caplog.records == []


def log_marginal_likelihood(levels, policies, params, jitter=1e-6):
    """Oracle: LML of the residual coordinates under the given parameters."""
    resid = (policies - 1.0 / policies.shape[1]) @ zero_sum_basis(policies.shape[1])
    chol, _ = jittered_cholesky(params.covariance(levels, levels), jitter)
    return gaussian_log_marginal(chol, resid.T.ravel())


def test_fit_improves_marginal_likelihood(rng):
    policies = random_policies(rng)
    model = fit_state_gp(LEVELS, policies, optimizer=OptimizerConfig(restarts=2))
    baseline = log_marginal_likelihood(
        LEVELS, policies, default_bank(policies.shape[1] - 1)
    )
    assert model.lml >= baseline - 1e-9


# -- posterior queries -----------------------------------------------------------


def test_posterior_interpolates_training_policies(rng):
    model, policies = _fit(rng)
    means = model.predict_mean(LEVELS)
    assert np.abs(means - policies).max() <= 1e-3


def test_posterior_means_sum_to_one_everywhere(rng):
    model, _ = _fit(rng, state_id=1)
    grid = np.arange(0.0, 3.0001, 0.01)
    means = model.predict_mean(grid)
    assert np.abs(means.sum(axis=1) - 1.0).max() <= 1e-9


def test_predict_matches_dense_solve_oracle(rng):
    model, policies = _fit(rng, state_id=2)
    action_count = policies.shape[1]
    basis = zero_sum_basis(action_count)
    resid = (policies - 1.0 / action_count) @ basis
    target = resid.T.ravel()
    sigma = model.params.covariance(LEVELS, LEVELS) + model.jitter_used * np.eye(
        target.size
    )
    for level in (0.37, 1.5, 2.93):
        star = model.params.covariance([level], LEVELS)
        prior = model.params.covariance([level], [level])
        mean_coords = star @ np.linalg.solve(sigma, target)
        cov_coords = prior - star @ np.linalg.solve(sigma, star.T)
        expected_mean = 1.0 / action_count + basis @ mean_coords
        expected_cov = basis @ cov_coords @ basis.T
        pred = model.predict(level)
        assert np.allclose(pred.mean, expected_mean, atol=1e-8)
        assert np.allclose(pred.cov, 0.5 * (expected_cov + expected_cov.T), atol=1e-8)


def test_predictive_covariance_is_symmetric_and_nearly_psd(rng):
    model, _ = _fit(rng, state_id=3)
    for level in (0.0, 0.8, 1.9, 3.0):
        pred = model.predict(level)
        assert np.allclose(pred.cov, pred.cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(pred.cov).min() >= -1e-8


def test_predictive_variance_small_at_training_levels(rng):
    model, _ = _fit(rng, state_id=4)
    pred = model.predict(1.0)
    assert np.abs(np.diag(pred.cov)).max() <= 1e-3


def test_policy_at_returns_valid_policy(rng):
    model, _ = _fit(rng, state_id=5)
    for level in np.linspace(0, 3, 13):
        p = model.policy_at(float(level))
        assert isinstance(p, Policy)
        assert np.all(p.probs >= 0)
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_prediction_rejects_non_finite_level(rng):
    model, _ = _fit(rng, state_id=6)
    with pytest.raises(InputError):
        model.predict(float("nan"))
    with pytest.raises(InputError):
        model.predict_mean([0.5, np.inf])


# -- fitting interface ------------------------------------------------------------


def test_fit_is_deterministic(rng):
    policies = random_policies(rng)
    a = fit_state_gp(LEVELS, policies, state_id=11, optimizer=OptimizerConfig(restarts=2))
    b = fit_state_gp(LEVELS, policies, state_id=11, optimizer=OptimizerConfig(restarts=2))
    assert a.lml == b.lml
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )


def test_fit_golden_digest():
    draws = np.random.default_rng(5)
    docs = [
        json.dumps(
            fit_state_gp(
                (0, 1, 2, 3), draws.dirichlet(np.full(5, 0.6), size=4), state_id=sid
            ).to_dict(),
            sort_keys=True,
        )
        for sid in range(3)
    ]
    assert hashlib.sha256("".join(docs).encode()).hexdigest() == FIT_GOLDEN_SHA256


def test_fit_accepts_policy_objects(rng):
    rows = [Policy(p) for p in random_policies(rng)]
    model = fit_state_gp(LEVELS, rows, optimizer=OptimizerConfig(restarts=1))
    assert model.action_count == 5


@pytest.mark.parametrize(
    "levels,policies_shape",
    [
        ([0.0, 1.0, 1.0, 2.0], (4, 5)),
        ([0.0], (1, 5)),
        ([0.0, 1.0, 2.0], (4, 5)),
    ],
)
def test_fit_rejects_bad_training_sets(rng, levels, policies_shape):
    policies = random_policies(rng, n_levels=policies_shape[0], n_actions=policies_shape[1])
    with pytest.raises(InputError):
        fit_state_gp(levels, policies, optimizer=OptimizerConfig(restarts=1))


def test_fit_rejects_non_simplex_rows():
    rows = np.full((4, 5), 0.3)
    with pytest.raises(InputError):
        fit_state_gp(LEVELS, rows, optimizer=OptimizerConfig(restarts=1))


def test_serialization_round_trip_preserves_predictions(rng, tmp_path):
    model, _ = _fit(rng, state_id=42)
    path = tmp_path / "state_42.json"
    model.save(path)
    loaded = StateGP.load(path)
    grid = np.linspace(0, 3, 31)
    assert np.allclose(model.predict_mean(grid), loaded.predict_mean(grid), atol=1e-12)
    assert loaded.state_id == 42
    assert loaded.jitter_used == model.jitter_used


def test_hand_written_v1_model_loads_and_writes_back_unchanged(tmp_path):
    path = tmp_path / "state_17.json"
    path.write_text(json.dumps(V1_MODEL))
    model = StateGP.load(path)
    assert model.to_dict() == V1_MODEL
    training = np.array(V1_MODEL["policies"])
    assert np.abs(model.predict_mean(V1_MODEL["levels"]) - training).max() <= 1e-3


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("levels", [0.0, math.nan, 2.0, 3.0], "training levels must be finite"),
        ("policies", [[math.nan, 0.5, 0.5]] + V1_MODEL["policies"][1:], "policies must be finite"),
    ],
)
def test_model_load_rejects_nan_training_data(field, value, message):
    # np.linalg.cholesky does not raise on NaN; the check must come first
    with pytest.raises(InputError, match=message):
        StateGP.from_dict({**V1_MODEL, field: value})


def test_model_load_rejects_jitter_used_above_cap(tmp_path):
    at_cap = StateGP.from_dict({**V1_MODEL, "jitter_used": MAX_JITTER})
    assert at_cap.jitter_used == MAX_JITTER
    path = tmp_path / "state_17.json"
    path.write_text(json.dumps({**V1_MODEL, "jitter_used": 0.5}))
    with pytest.raises(InputError, match="jitter_used"):
        StateGP.load(path)


def _model_text(drop=(), **changes) -> str:
    doc = {**V1_MODEL, **changes}
    return json.dumps({k: v for k, v in doc.items() if k not in drop})


_V1_ENTRIES = V1_MODEL["bank"]["entries"]

# each raised a bare ValueError, KeyError, TypeError, AttributeError or
# JSONDecodeError before, or (a text state_id) loaded and broke ModelCache
BROKEN_MODEL_FILES = {
    "ragged policies": (
        _model_text(policies=[[0.5, 0.5]] + V1_MODEL["policies"][1:]), "model policies"
    ),
    "no levels": (_model_text(drop=["levels"]), "model levels: missing key 'levels'"),
    "no bank": (_model_text(drop=["bank"]), "model bank: missing key 'bank'"),
    "entry without weights": (
        _model_text(bank={"entries": [
            {k: v for k, v in _V1_ENTRIES[0].items() if k != "weights"}, _V1_ENTRIES[1]
        ]}),
        "model bank: missing key 'weights'",
    ),
    "bank as a list": (_model_text(bank=_V1_ENTRIES), "model bank"),
    "truncated": (json.dumps(V1_MODEL)[:-20], "not valid JSON"),
    "a list": (json.dumps([V1_MODEL]), "must hold a JSON object"),
    "text state_id": (_model_text(state_id="17"), "state_id '17' is not an integer"),
}


@pytest.mark.parametrize("key", sorted(BROKEN_MODEL_FILES))
def test_model_load_names_the_malformed_section(key, tmp_path):
    text, named = BROKEN_MODEL_FILES[key]
    path = tmp_path / "state_17.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=re.escape(named)):
        StateGP.load(path)


def test_serialization_rejects_unknown_version():
    with pytest.raises(InputError):
        StateGP.from_dict({"version": 99})


def test_gp_config_jitter_used_in_factorization(rng):
    policies = random_policies(rng)
    model = fit_state_gp(
        LEVELS,
        policies,
        optimizer=OptimizerConfig(restarts=1),
        gp_config=GPConfig(jitter=1e-5),
    )
    assert model.jitter_used == pytest.approx(1e-5)


# -- model cache -------------------------------------------------------------------


def test_cache_get_missing_raises():
    cache = ModelCache()
    with pytest.raises(MissingStateError):
        cache.get(7)


def test_cache_save_and_load_dir(rng, tmp_path):
    cache = ModelCache()
    for sid in (3, 1, 2):
        model, _ = _fit(rng, state_id=sid, restarts=1)
        cache.put(model)
    cache.save_dir(tmp_path / "models")
    loaded = ModelCache.load_dir(tmp_path / "models")
    assert loaded.state_ids() == [1, 2, 3]
    grid = np.linspace(0, 3, 7)
    for sid in (1, 2, 3):
        assert np.allclose(
            cache.get(sid).predict_mean(grid),
            loaded.get(sid).predict_mean(grid),
            atol=1e-12,
        )


def test_cache_save_dir_removes_models_of_other_states(rng, tmp_path):
    root = tmp_path / "models"
    cache = ModelCache()
    for sid in (1, 2):
        cache.put(_fit(rng, state_id=sid, restarts=1)[0])
    cache.save_dir(root)
    other = ModelCache()
    other.put(cache.get(2))
    other.save_dir(root)
    assert sorted(p.name for p in root.iterdir()) == ["state_2.json"]
    assert ModelCache.load_dir(root).state_ids() == [2]


def test_cache_load_dir_names_the_broken_file(rng, tmp_path):
    root = tmp_path / "models"
    cache = ModelCache()
    cache.put(_fit(rng, state_id=4, restarts=1)[0])
    cache.save_dir(root)
    doc = json.loads((root / "state_4.json").read_text())
    del doc["bank"]
    (root / "state_4.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="state_4.json"):
        ModelCache.load_dir(root)
    # the errors of the parameter checks, not only the schema's, name the file
    variance, kind, kappa = (copy.deepcopy(V1_MODEL) for _ in range(3))
    variance["bank"]["entries"][0]["variance"] = -0.5
    kind["bank"]["entries"][1]["kind"] = "rbf"
    kappa["bank"]["entries"][0]["kappa"] = [-0.05, 0.1]
    (root / "state_4.json").unlink()
    for doc, error in [
        (variance, ParameterError),
        (kind, ConfigurationError),
        ({**V1_MODEL, "jitter_used": 0}, ParameterError),
        (kappa, ParameterError),
    ]:
        (root / "state_17.json").write_text(json.dumps(doc))
        with pytest.raises(error, match="^state_17.json: "):
            ModelCache.load_dir(root)


def test_cache_load_missing_dir_raises(tmp_path):
    with pytest.raises(InputError):
        ModelCache.load_dir(tmp_path / "absent")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(InputError):
        ModelCache.load_dir(empty)
