import copy
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levelkgp import gp
from levelkgp.config import default_bank_entries
from levelkgp.errors import ConfigurationError, InputError, NumericalError, ParameterError
from levelkgp.gp import (
    LMCParams,
    _initial_theta,
    _length_scales,
    _neg_lml_and_grad,
    jittered_cholesky,
    unit_grams,
)

from conftest import V1_MODEL, default_bank, kron_covariance, random_policies

SQRT3 = math.sqrt(3.0)
LEVELS = np.array([0.0, 1.0, 2.0, 3.0])


def _single(variance, length_scale, weights=((0.0,),), kappa=(1.0,)):
    """One-entry parameters; the defaults give B = [[1]], a scalar kernel."""
    return LMCParams(
        variances=[variance],
        length_scales=[length_scale],
        weights=(np.asarray(weights, dtype=float),),
        kappas=[kappa],
    )


def _scalar(distance, variance, length_scale):
    params = _single(variance, length_scale)
    return float(params.covariance([distance], [0.0])[0, 0])


def test_matern_at_zero_distance_is_variance():
    assert _scalar(0.0, 2.5, 0.7) == pytest.approx(2.5, abs=0)


def test_matern_unit_parameters_at_unit_distance():
    # (1 + sqrt(3)) * exp(-sqrt(3)), evaluated independently
    expected = (1 + SQRT3) * math.exp(-SQRT3)
    assert expected == pytest.approx(0.4833577245965077, abs=1e-12)
    assert _scalar(1.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-12)


def test_matern_scaled_example():
    assert _scalar(2.0, 3.0, 1.0) == pytest.approx(0.4191940505769441, abs=1e-12)
    assert _scalar(0.5, 2.0, 0.25) == pytest.approx(0.27946270038462934, abs=1e-12)


def test_matern_negative_distance_uses_absolute_value():
    assert _scalar(-1.3, 1.0, 0.5) == pytest.approx(_scalar(1.3, 1.0, 0.5), abs=0)


@pytest.mark.parametrize("variance,length_scale", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_matern_rejects_bad_parameters(variance, length_scale):
    with pytest.raises(ParameterError):
        _single(variance, length_scale)


def test_bias_kernel_is_constant():
    g = _single(0.8, math.inf).covariance([0.0, 1.0, 2.5], [1.0, 3.0])
    assert g.shape == (3, 2)
    assert np.all(g == 0.8)


def test_infinite_length_scale_gram_is_exactly_one():
    x = np.array([0.0, 0.37, 1.0, 2.5, 3.0])
    y = np.array([1.0, 3.0, 0.0])
    assert np.array_equal(unit_grams(x, y, [math.inf]), np.ones((1, 5, 3)))
    mixed = unit_grams(x, y, [math.inf, 0.5])
    assert np.array_equal(mixed[0], np.ones((5, 3)))


def test_bias_kernel_rejects_nonpositive_variance():
    with pytest.raises(ParameterError):
        _single(0.0, math.inf)


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_coregionalization_matrix_is_psd(dim, rank, seed):
    rng = np.random.default_rng(seed)
    params = _single(
        1.0,
        math.inf,
        weights=rng.standard_normal((dim, rank)),
        kappa=np.abs(rng.standard_normal(dim)),
    )
    b = params.coregs[0]
    assert np.allclose(b, b.T)
    assert np.linalg.eigvalsh(b).min() >= -1e-10


def test_coregionalization_rejects_negative_kappa():
    with pytest.raises(ParameterError):
        _single(1.0, math.inf, weights=np.ones((2, 1)), kappa=[0.1, -0.1])


def test_coregionalization_rejects_shape_mismatch():
    with pytest.raises(ParameterError):
        _single(1.0, math.inf, weights=np.ones((3, 1)), kappa=np.ones(2))


def _random_bank(rng, dim, n_entries=3):
    variances = [float(rng.uniform(0.1, 2.0))]
    scales = [math.inf]
    for _ in range(n_entries - 1):
        variances.append(float(rng.uniform(0.1, 2.0)))
        scales.append(float(rng.uniform(0.2, 2.0)))
    return LMCParams(
        variances=variances,
        length_scales=scales,
        weights=tuple(rng.standard_normal((dim, 2)) for _ in scales),
        kappas=[np.abs(rng.standard_normal(dim)) for _ in scales],
    )


def _kernel_oracle(variance, length_scale, x, y):
    if math.isinf(length_scale):
        return variance
    s = SQRT3 * abs(x - y) / length_scale
    return variance * (1.0 + s) * math.exp(-s)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_lmc_covariance_matches_elementwise_oracle(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    bank = _random_bank(rng, dim)
    x = np.sort(rng.uniform(0, 3, size=int(rng.integers(2, 4))))
    y = np.sort(rng.uniform(0, 3, size=int(rng.integers(2, 4))))
    got = bank.covariance(x, y)
    # oracle: per-element sum over entries, output-major block layout
    expected = np.zeros((dim * x.size, dim * y.size))
    for var, scale, w, kappa in zip(
        bank.variances, bank.length_scales, bank.weights, bank.kappas
    ):
        b = w @ w.T + np.diag(kappa)
        for a in range(dim):
            for c in range(dim):
                for i in range(x.size):
                    for j in range(y.size):
                        expected[a * x.size + i, c * y.size + j] += b[
                            a, c
                        ] * _kernel_oracle(var, scale, x[i], y[j])
    assert np.allclose(got, expected, atol=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_lmc_covariance_transpose_symmetry(seed):
    rng = np.random.default_rng(seed)
    bank = _random_bank(rng, 3)
    x = rng.uniform(0, 3, size=4)
    y = rng.uniform(0, 3, size=2)
    assert np.allclose(bank.covariance(x, y), bank.covariance(y, x).T)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_lmc_self_covariance_symmetric_psd(seed):
    rng = np.random.default_rng(seed)
    bank = _random_bank(rng, 3)
    x = np.sort(rng.uniform(0, 3, size=4))
    sigma = bank.covariance(x, x)
    assert np.allclose(sigma, sigma.T, atol=1e-12)
    assert np.linalg.eigvalsh(sigma).min() >= -1e-8


@given(
    dim=st.integers(min_value=2, max_value=5),
    n_queries=st.integers(min_value=1, max_value=301),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_covariance_matches_kron_loop_bit_for_bit(dim, n_queries, seed):
    rng = np.random.default_rng(seed)
    entries = default_bank_entries()
    # model files may hold any width of W_z, narrower than D too
    params = LMCParams(
        variances=np.exp(rng.normal(size=len(entries))),
        length_scales=_length_scales(entries),
        weights=tuple(rng.standard_normal((dim, int(rng.integers(1, dim + 1)))) for _ in entries),
        kappas=np.abs(rng.standard_normal((len(entries), dim))),
    )
    queries = rng.uniform(-0.5, 3.5, size=n_queries)
    for x, y in ((queries, LEVELS), (LEVELS, LEVELS), (queries[:1], queries[:1])):
        grams = unit_grams(x, y, params.length_scales)
        zeros = np.zeros((dim * x.size, dim * y.size))
        want = kron_covariance(grams, params.variances, params.coregs, zeros)
        assert np.array_equal(params.covariance(x, y), want)
    # the objective's form: python-float variances on top of jitter * I
    grams = unit_grams(LEVELS, LEVELS, params.length_scales)
    variances = [float(v) for v in params.variances]
    start = 1e-6 * np.eye(dim * LEVELS.size)
    got = gp.lmc_covariance(grams, *gp.kron_factors(variances, params.coregs), start.copy())
    assert np.array_equal(got, kron_covariance(grams, variances, params.coregs, start.copy()))


def test_lmc_covariance_rejects_factors_not_laid_out():
    """The plain (Z,) variances and (Z, D, D) B_z are refused, not broadcast."""
    entries = default_bank_entries()
    theta = _initial_theta(len(entries), 2, np.random.default_rng(0), perturb=True)
    params = LMCParams.from_theta(theta, entries, 2)
    grams = unit_grams(LEVELS, LEVELS, params.length_scales)
    var, coreg = gp.kron_factors(params.variances, params.coregs)
    out = np.zeros((2 * LEVELS.size, 2 * LEVELS.size))
    for factors in ((params.variances, params.coregs), (params.variances, coreg)):
        with pytest.raises(InputError):
            gp.lmc_covariance(grams, *factors, out)
    assert np.array_equal(gp.lmc_covariance(grams, var, coreg, out), params.covariance(LEVELS, LEVELS))


def test_objective_covariance_matches_params_covariance(rng, monkeypatch):
    policies = random_policies(rng)
    dim = policies.shape[1] - 1
    resid = (policies - 1.0 / policies.shape[1]) @ gp.zero_sum_basis(policies.shape[1])
    entries = default_bank_entries()
    grams = unit_grams(LEVELS, LEVELS, _length_scales(entries))
    theta = _initial_theta(len(entries), dim, rng, perturb=True)
    real = gp.lmc_covariance
    seen = []

    def spy(*args):
        seen.append(real(*args).copy())
        return seen[-1]

    monkeypatch.setattr(gp, "lmc_covariance", spy)
    _neg_lml_and_grad(theta[None, :], grams, resid.T.ravel(), dim, 1e-6)
    monkeypatch.undo()
    assert len(seen) == 1
    params = LMCParams.from_theta(theta, entries, dim)
    expected = params.covariance(LEVELS, LEVELS) + 1e-6 * np.eye(dim * LEVELS.size)
    assert np.abs(seen[0][0] - expected).max() <= 1e-12


def test_bank_requires_matching_dims():
    with pytest.raises(ConfigurationError):
        LMCParams(
            variances=[1.0, 1.0],
            length_scales=[math.inf, math.inf],
            weights=(np.ones((2, 1)), np.ones((3, 1))),
            kappas=[np.ones(2), np.ones(3)],
        )


def test_bank_requires_one_coreg_per_kernel():
    with pytest.raises(ConfigurationError):
        LMCParams(
            variances=[1.0],
            length_scales=[math.inf],
            weights=(np.ones((2, 1)), np.ones((2, 1))),
            kappas=[np.ones(2), np.ones(2)],
        )


def test_default_bank_shape():
    bank = default_bank(4)
    assert bank.variances.size == 7
    assert bank.kappas.shape == (7, 4)
    assert bank.length_scales[0] == math.inf
    assert bank.length_scales[1:].tolist() == [0.25, 0.5, 0.75, 1.0, 1.25, 1.5]


def test_default_bank_entries_config():
    entries = default_bank_entries()
    assert len(entries) == 7
    assert entries[0].kind == "bias"
    assert all(e.kind == "matern32" for e in entries[1:])


def test_bank_serialization_round_trip(rng):
    bank = _random_bank(rng, 3)
    doc = bank.to_dict()
    rebuilt = LMCParams.from_dict(doc)
    x = np.array([0.0, 1.0, 2.0])
    assert np.array_equal(bank.covariance(x, x), rebuilt.covariance(x, x))
    assert rebuilt.to_dict() == doc


@pytest.mark.parametrize(
    "field,value,error",
    [
        ("kind", "rbf", ConfigurationError),
        ("variance", 0.0, ParameterError),
        ("kappa", [0.2, -0.01], ParameterError),
        ("weights", [[0.3], [0.2], [0.1]], ParameterError),
        ("length_scale", -0.5, ParameterError),
    ],
)
def test_bank_from_dict_rejects_bad_entries(field, value, error):
    doc = copy.deepcopy(V1_MODEL["bank"])
    LMCParams.from_dict(doc)
    doc["entries"][1][field] = value
    with pytest.raises(error):
        LMCParams.from_dict(doc)


def test_jittered_cholesky_returns_requested_jitter_on_psd():
    m = np.diag([1.0, 2.0, 3.0])
    chol, used = jittered_cholesky(m, jitter=1e-6, max_jitter=1e-2)
    assert used == 1e-6
    assert np.allclose(chol @ chol.T, m + 1e-6 * np.eye(3))


def test_jittered_cholesky_escalates_tenfold():
    m = np.diag([1.0, -5e-5])
    chol, used = jittered_cholesky(m, jitter=1e-6, max_jitter=1e-2)
    assert used == pytest.approx(1e-4)
    assert np.all(np.isfinite(chol))


def test_jittered_cholesky_raises_past_max_jitter():
    m = np.diag([1.0, -1.0])
    with pytest.raises(NumericalError):
        jittered_cholesky(m, jitter=1e-6, max_jitter=1e-2)


def test_jittered_cholesky_validates_jitter_range():
    with pytest.raises(ParameterError):
        jittered_cholesky(np.eye(2), jitter=0.0)
    with pytest.raises(ParameterError):
        jittered_cholesky(np.eye(2), jitter=1e-1, max_jitter=1e-2)
