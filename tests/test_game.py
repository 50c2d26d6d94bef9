import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levelkgp.errors import InputError
from levelkgp.game import (
    TIE_TOL,
    BestResponseResult,
    MixedStrategy,
    best_response_set,
    brute_force_best_response,
    mixed_utility,
    simplex_grid,
)
from levelkgp.gp import Policy


def pure(level: int, n_levels: int) -> MixedStrategy:
    """All mass on one level of the universe 0..n_levels-1."""
    if not 0 <= level < n_levels:
        raise InputError(f"level {level} outside universe of {n_levels}")
    c = np.zeros(n_levels)
    c[level] = 1.0
    return MixedStrategy(c)


def brute_force_loop(opponent, grid_step, tie_tol=TIE_TOL):
    """Oracle: build and score one MixedStrategy per grid point, keeping
    every point within tie_tol of the running maximum."""
    units = round(1.0 / grid_step)
    n = opponent.n_levels
    best_value = -np.inf
    argmax = []
    for combo in simplex_grid(units, n - 1):
        coeffs = np.zeros(n)
        coeffs[1:] = np.asarray(combo, dtype=float) / units
        candidate = MixedStrategy(coeffs)
        value = mixed_utility(candidate, opponent)
        if value > best_value + tie_tol:
            best_value = value
            argmax = [candidate]
        elif value >= best_value - tie_tol:
            argmax.append(candidate)
    return best_value, argmax


def pure_utility(responder_level: int, opponent_level: int) -> float:
    """Oracle payoff of pure levels: 1 when the responder reasons exactly
    one step deeper, else 0."""
    if responder_level < 0 or opponent_level < 0:
        raise InputError("levels must be non-negative")
    return 1.0 if responder_level == opponent_level + 1 else 0.0


def mixed_policy(weights, policies) -> Policy:
    """Convex combination of policies under the given weights."""
    if len(weights) != len(policies):
        raise InputError("one weight per policy required")
    w = np.asarray(weights, dtype=float)
    if np.any(w < -TIE_TOL) or abs(float(w.sum()) - 1.0) > 1e-9:
        raise InputError("weights must be a probability vector")
    if len({len(p) for p in policies}) != 1:
        raise InputError("policies must share an action count")
    stacked = np.vstack([p.probs for p in policies])
    return Policy(np.clip(w, 0.0, None) @ stacked)


def _opponent_strategy(seed, n_levels=4):
    """Random opponent with no mass on the top level."""
    rng = np.random.default_rng(seed)
    body = rng.dirichlet(np.full(n_levels - 1, 0.7))
    return MixedStrategy(np.append(body, 0.0))


# -- strategy type -------------------------------------------------------------


def test_mixed_strategy_validates_simplex():
    MixedStrategy([0.5, 0.5, 0.0])
    with pytest.raises(InputError):
        MixedStrategy([0.5, 0.6])
    with pytest.raises(InputError):
        MixedStrategy([-0.2, 1.2])
    with pytest.raises(InputError):
        MixedStrategy([np.nan, 1.0])
    with pytest.raises(InputError):
        MixedStrategy([1.0])


def test_pure_and_uniform_constructors():
    p = pure(2, 4)
    assert p.coeffs.tolist() == [0.0, 0.0, 1.0, 0.0]
    u = MixedStrategy.uniform_over([1, 3], 4)
    assert u.coeffs.tolist() == [0.0, 0.5, 0.0, 0.5]
    with pytest.raises(InputError):
        pure(5, 4)
    with pytest.raises(InputError):
        MixedStrategy.uniform_over([], 4)


def test_support():
    s = MixedStrategy([0.0, 0.7, 0.0, 0.3])
    assert s.support() == (1, 3)


# -- utilities -------------------------------------------------------------------


def test_pure_utility_is_one_step_dominance():
    for k in range(5):
        for j in range(5):
            expected = 1.0 if k == j + 1 else 0.0
            assert pure_utility(k, j) == expected


def test_mixed_utility_hand_examples():
    # uniform responder over all of 0..3 against uniform opponent over 0..2
    a = MixedStrategy([0.25, 0.25, 0.25, 0.25])
    b = MixedStrategy([1 / 3, 1 / 3, 1 / 3, 0.0])
    assert mixed_utility(a, b) == pytest.approx(0.25, abs=1e-12)
    # uniform against uniform over the whole universe
    c = MixedStrategy([0.25, 0.25, 0.25, 0.25])
    assert mixed_utility(a, c) == pytest.approx(0.1875, abs=1e-12)


def test_mixed_utility_matches_pure_utility_expansion(rng):
    a = MixedStrategy(rng.dirichlet(np.ones(5)))
    b = MixedStrategy(rng.dirichlet(np.ones(5)))
    expected = sum(
        a.coeffs[k] * b.coeffs[j] * pure_utility(k, j)
        for k in range(5)
        for j in range(5)
    )
    assert mixed_utility(a, b) == pytest.approx(expected, abs=1e-12)


def test_mixed_utility_requires_same_universe():
    with pytest.raises(InputError):
        mixed_utility(MixedStrategy([0.5, 0.5]), MixedStrategy([0.5, 0.5, 0.0]))


# -- closed-form best response ------------------------------------------------------


def test_best_response_single_peak():
    result = best_response_set(MixedStrategy([0.2, 0.5, 0.3, 0.0]))
    assert result.levels == (2,)
    assert result.value == pytest.approx(0.5, abs=0)
    assert result.strategy.coeffs.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_best_response_tie_gives_uniform_mixture():
    result = best_response_set(MixedStrategy([0.4, 0.4, 0.2, 0.0]))
    assert result.levels == (1, 2)
    assert np.allclose(result.strategy.coeffs, [0.0, 0.5, 0.5, 0.0])
    assert result.value == pytest.approx(0.4)


def test_best_response_rejects_top_level_mass():
    with pytest.raises(InputError):
        best_response_set(MixedStrategy([0.25, 0.25, 0.25, 0.25]))


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_best_response_strategy_attains_its_value(seed):
    opponent = _opponent_strategy(seed)
    result = best_response_set(opponent)
    assert mixed_utility(result.strategy, opponent) == pytest.approx(
        result.value, abs=1e-12
    )


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_no_pure_response_beats_the_value(seed):
    opponent = _opponent_strategy(seed)
    result = best_response_set(opponent)
    n = opponent.n_levels
    for level in range(1, n):
        u = mixed_utility(pure(level, n), opponent)
        assert u <= result.value + 1e-12
        if level not in result.levels:
            assert u < result.value - 1e-12


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_any_mixture_on_the_set_attains_the_value(seed, mix_seed):
    opponent = _opponent_strategy(seed)
    result = best_response_set(opponent)
    rng = np.random.default_rng(mix_seed)
    weights = rng.dirichlet(np.ones(len(result.levels)))
    coeffs = np.zeros(opponent.n_levels)
    for w, level in zip(weights, result.levels):
        coeffs[level] = w
    mixture = MixedStrategy(coeffs)
    assert mixed_utility(mixture, opponent) == pytest.approx(result.value, abs=5e-12)


# -- brute force cross-check ----------------------------------------------------------


def test_simplex_grid_enumerates_compositions():
    points = list(simplex_grid(4, 3))
    assert len(points) == 15  # C(6, 2)
    assert all(sum(p) == 4 for p in points)
    assert all(all(x >= 0 for x in p) for p in points)
    assert len(set(points)) == len(points)


def test_simplex_grid_includes_pure_points():
    points = set(simplex_grid(20, 4))
    assert (20, 0, 0, 0) in points
    assert (0, 0, 0, 20) in points


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_brute_force_agrees_with_closed_form(seed):
    opponent = _opponent_strategy(seed)
    closed = best_response_set(opponent)
    value, argmax = brute_force_best_response(opponent, grid_step=0.1)
    assert abs(value - closed.value) <= 1e-12
    for strategy in argmax:
        assert set(strategy.support()) <= set(closed.levels)


@pytest.mark.parametrize(
    "coeffs, grid_step",
    [
        ([0.2, 0.5, 0.3, 0.0], 0.05),
        ([0.4, 0.4, 0.2, 0.0], 0.1),  # two tied best levels
        ([0.25, 0.25, 0.25, 0.25, 0.0], 0.25),  # four tied best levels
        ([1.0, 0.0, 0.0], 0.2),
    ],
)
def test_brute_force_matches_loop_oracle_on_ties(coeffs, grid_step):
    opponent = MixedStrategy(coeffs)
    value, argmax = brute_force_best_response(opponent, grid_step=grid_step)
    want_value, want = brute_force_loop(opponent, grid_step)
    assert abs(value - want_value) <= 1e-15
    assert [s.coeffs.tolist() for s in argmax] == [s.coeffs.tolist() for s in want]


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_brute_force_matches_loop_oracle(seed):
    opponent = _opponent_strategy(seed)
    value, argmax = brute_force_best_response(opponent, grid_step=0.05)
    want_value, want = brute_force_loop(opponent, 0.05)
    assert abs(value - want_value) <= 1e-15
    assert [s.coeffs.tolist() for s in argmax] == [s.coeffs.tolist() for s in want]


def test_brute_force_rejects_bad_grid_step():
    opponent = MixedStrategy([1.0, 0.0, 0.0])
    with pytest.raises(InputError):
        brute_force_best_response(opponent, grid_step=0.0)
    with pytest.raises(InputError):
        brute_force_best_response(opponent, grid_step=0.3)


# -- policy mixing ----------------------------------------------------------------------


def test_mixed_policy_averages():
    p = mixed_policy(
        [0.5, 0.5],
        [Policy([1.0, 0.0]), Policy([0.0, 1.0])],
    )
    assert np.allclose(p.probs, [0.5, 0.5])


def test_mixed_policy_validates_inputs():
    with pytest.raises(InputError):
        mixed_policy([1.0], [Policy([0.5, 0.5]), Policy([0.5, 0.5])])
    with pytest.raises(InputError):
        mixed_policy([0.6, 0.6], [Policy([0.5, 0.5]), Policy([0.5, 0.5])])
    with pytest.raises(InputError):
        mixed_policy([0.5, 0.5], [Policy([0.5, 0.5]), Policy([0.3, 0.3, 0.4])])


def test_best_response_result_is_dataclass():
    result = best_response_set(MixedStrategy([1.0, 0.0, 0.0]))
    assert isinstance(result, BestResponseResult)
    assert result.levels == (1,)
    assert result.value == 1.0
