import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levelkgp.config import EnvConfig, RLConfig
from levelkgp.errors import InputError, MissingStateError, SchemaError
from levelkgp.levelk import (
    ACCELERATE,
    ACTIONS,
    CHANGE_LANE,
    DECELERATE,
    HARD_BRAKE,
    MAINTAIN,
    N_ACTIONS,
    Discretizer,
    EnvState,
    HighwayEnv,
    PolicySet,
    QTable,
    level0_policy,
    softmax_policy,
    train_hierarchy,
    train_level,
)

ENV = EnvConfig()
DISC = Discretizer(ENV)

TINY_ENV = EnvConfig(episode_steps=15)
TINY_RL = RLConfig(episodes=8, max_level=2)


def _state_strategy():
    cards = DISC.cardinalities
    return st.tuples(*[st.integers(min_value=0, max_value=c - 1) for c in cards]).map(
        lambda t: EnvState(*t)
    )


# -- discretizer -----------------------------------------------------------------


@given(_state_strategy())
def test_state_id_round_trip(state):
    sid = DISC.state_id(state)
    assert 0 <= sid < DISC.n_states
    assert DISC.state_from_id(sid) == state


def test_state_id_is_injective_on_a_sample(rng):
    seen = {}
    for _ in range(500):
        fields = tuple(int(rng.integers(0, c)) for c in DISC.cardinalities)
        sid = DISC.state_id(EnvState(*fields))
        if sid in seen:
            assert seen[sid] == fields
        seen[sid] = fields


def test_state_id_rejects_out_of_range():
    with pytest.raises(InputError):
        DISC.state_id(EnvState(99, 0, 0, 0, 0, 0))
    with pytest.raises(InputError):
        DISC.state_from_id(DISC.n_states)


def test_front_gap_bins_split_at_edges():
    assert DISC.front_gap_bin(7.999) == 0
    assert DISC.front_gap_bin(8.0) == 1
    assert DISC.front_gap_bin(19.999) == 1
    assert DISC.front_gap_bin(20.0) == 2
    assert DISC.front_gap_bin(40.0) == 3
    assert DISC.front_gap_bin(500.0) == 3


def test_rel_speed_bins():
    assert DISC.rel_speed_bin(-1.5) == 0
    assert DISC.rel_speed_bin(0.0) == 1
    assert DISC.rel_speed_bin(1.5) == 2


def test_rear_bins_reserve_zero_for_missing_lane():
    assert DISC.rear_bin(None) == 0
    assert DISC.rear_bin(2.0) == 1
    assert DISC.rear_bin(10.0) == 2
    assert DISC.rear_bin(100.0) == 3


def test_speed_bins_cover_range():
    assert DISC.speed_bin(0.0) == 0
    assert DISC.speed_bin(ENV.speed_max) == ENV.speed_bin_count - 1
    assert DISC.speed_bin(ENV.speed_max + 5) == ENV.speed_bin_count - 1


def test_representative_features_round_trip_every_state():
    for sid in range(DISC.n_states):
        state = DISC.state_from_id(sid)
        rep = DISC.representative_features(state)
        again = DISC.discretize(
            rep["lane"],
            rep["front_gap"],
            rep["front_rel_speed"],
            rep["rear_left_gap"],
            rep["rear_right_gap"],
            rep["speed"],
        )
        assert again == state, sid


# -- policies ---------------------------------------------------------------------


def test_level0_brakes_hard_on_critical_gap():
    state = EnvState(1, 0, 1, 2, 2, 2)
    p = level0_policy(state)
    assert p.probs[HARD_BRAKE] == pytest.approx(0.99)
    assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(p.probs > 0)


def test_level0_accelerates_on_open_road():
    state = EnvState(0, 3, 1, 0, 2, 1)
    assert level0_policy(state).probs[ACCELERATE] == pytest.approx(0.99)


def test_level0_decelerates_on_closing_leader():
    state = EnvState(0, 1, 0, 0, 2, 1)
    assert level0_policy(state).probs[DECELERATE] == pytest.approx(0.99)


def test_softmax_uniform_for_equal_values():
    p = softmax_policy([2.0, 2.0, 2.0, 2.0])
    assert np.allclose(p.probs, 0.25)


def test_softmax_handles_large_values():
    p = softmax_policy([1000.0, 1001.0])
    assert p.probs[1] == pytest.approx(1 / (1 + math.exp(-1.0)), abs=1e-12)


@given(
    st.lists(
        st.floats(min_value=-30, max_value=30, allow_nan=False),
        min_size=2,
        max_size=6,
    )
)
def test_softmax_matches_direct_formula(values):
    q = np.asarray(values)
    got = softmax_policy(q).probs
    expected = np.exp(q) / np.exp(q).sum()
    assert np.allclose(got, expected, atol=1e-12)


def test_softmax_rejects_non_finite():
    with pytest.raises(InputError):
        softmax_policy([np.nan, 1.0])
    with pytest.raises(InputError):
        softmax_policy([1.0])


# -- environment -------------------------------------------------------------------


def test_env_state_invariants_over_rollout(rng):
    env = HighwayEnv(ENV, rng)
    for _ in range(40):
        actions = rng.integers(0, N_ACTIONS, ENV.n_vehicles)
        env.step(list(actions))
        assert np.all(env.pos >= 0) and np.all(env.pos < ENV.ring_length)
        assert np.all(env.vel >= 0) and np.all(env.vel <= ENV.speed_max)
        assert np.all(env.lane >= 0) and np.all(env.lane < ENV.n_lanes)
        for state in env.states():
            sid = DISC.state_id(state)
            assert 0 <= sid < DISC.n_states


def test_env_flags_rear_end_collision(rng):
    env = HighwayEnv(EnvConfig(n_vehicles=2, n_lanes=2), rng)
    env.pos = np.array([0.0, 4.0])
    env.vel = np.array([20.0, 2.0])
    env.lane = np.array([0, 0])
    result = env.step([ACCELERATE, MAINTAIN])
    assert result.collided[0]
    assert result.rewards[0] < 0


def test_env_lane_change_blocked_by_close_rear(rng):
    cfg = EnvConfig(n_vehicles=2, n_lanes=2)
    env = HighwayEnv(cfg, rng)
    env.pos = np.array([50.0, 48.0])
    env.vel = np.array([10.0, 10.0])
    env.lane = np.array([0, 1])
    result = env.step([CHANGE_LANE, MAINTAIN])
    assert not result.lane_changed[0]
    assert env.lane[0] == 0


def test_env_lane_change_succeeds_with_room(rng):
    cfg = EnvConfig(n_vehicles=2, n_lanes=2)
    env = HighwayEnv(cfg, rng)
    env.pos = np.array([50.0, 150.0])
    env.vel = np.array([10.0, 10.0])
    env.lane = np.array([0, 0])
    result = env.step([CHANGE_LANE, MAINTAIN])
    assert result.lane_changed[0]
    assert env.lane[0] == 1


def test_env_step_requires_action_per_vehicle(rng):
    env = HighwayEnv(ENV, rng)
    with pytest.raises(InputError):
        env.step([MAINTAIN])


# -- training ------------------------------------------------------------------------


def _rule_sampler(state, rng):
    return int(rng.choice(N_ACTIONS, p=level0_policy(state).probs))


def test_train_level_visits_states_and_is_deterministic():
    a = train_level(1, _rule_sampler, TINY_ENV, TINY_RL, seed=5)
    b = train_level(1, _rule_sampler, TINY_ENV, TINY_RL, seed=5)
    assert a.q and a.visits
    assert sorted(a.q) == sorted(b.q)
    for sid in a.q:
        assert np.array_equal(a.q[sid], b.q[sid])


def test_train_hierarchy_levels_and_round_trip(tmp_path):
    ps = train_hierarchy(TINY_ENV, TINY_RL, seed=3)
    assert sorted(ps.tables) == [1, 2]
    assert ps.levels == (0, 1, 2)
    path = tmp_path / "qtables.json"
    ps.save(path)
    loaded = PolicySet.load(path, TINY_ENV)
    assert sorted(loaded.tables) == [1, 2]
    sid = ps.common_states()[0]
    for level in ps.levels:
        assert np.allclose(
            ps.policy(level, sid).probs, loaded.policy(level, sid).probs
        )


def test_policy_set_rejects_gapped_levels():
    table = QTable(level=2, action_count=N_ACTIONS, q={0: np.zeros(N_ACTIONS)}, visits={0: 1})
    with pytest.raises(InputError):
        PolicySet(ENV, {2: table})


def test_policy_set_rejects_empty_table():
    table = QTable(level=1, action_count=N_ACTIONS, q={}, visits={})
    with pytest.raises(InputError):
        PolicySet(ENV, {1: table})


def test_policy_set_fallback_uses_nearest_state():
    near = EnvState(1, 2, 1, 2, 2, 1)
    far = EnvState(2, 0, 0, 0, 1, 3)
    q_near = np.array([0.0, 5.0, 0.0, 0.0, 0.0])
    q_far = np.array([0.0, 0.0, 5.0, 0.0, 0.0])
    table = QTable(
        level=1,
        action_count=N_ACTIONS,
        q={DISC.state_id(near): q_near, DISC.state_id(far): q_far},
        visits={DISC.state_id(near): 3, DISC.state_id(far): 3},
    )
    ps = PolicySet(ENV, {1: table})
    # one field away from `near`, many fields away from `far`
    query = EnvState(1, 3, 1, 2, 2, 1)
    policy = ps.policy(1, DISC.state_id(query))
    assert np.allclose(policy.probs, softmax_policy(q_near).probs)


def test_policy_set_level0_matches_rule():
    ps = train_hierarchy(TINY_ENV, TINY_RL, seed=3)
    sid = 100
    assert np.allclose(
        ps.policy(0, sid).probs, level0_policy(DISC.state_from_id(sid)).probs
    )


def test_policy_set_observation_sets_are_policies():
    ps = train_hierarchy(TINY_ENV, TINY_RL, seed=3)
    for sid in ps.common_states()[:5]:
        obs = ps.discrete_policies(sid)
        assert len(obs) == ps.max_level + 1
        for p in obs:
            assert p.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_qtable_missing_state_raises():
    table = QTable(level=1, action_count=N_ACTIONS, q={}, visits={})
    with pytest.raises(MissingStateError):
        table.values(5)


def test_policy_set_load_rejects_other_discretization(tmp_path):
    ps = train_hierarchy(TINY_ENV, TINY_RL, seed=3)
    path = tmp_path / "qtables.json"
    ps.save(path)
    other = EnvConfig(speed_bin_count=6)
    with pytest.raises(SchemaError):
        PolicySet.load(path, other)


def evaluate_policy(policy_fn, env_cfg, opponent, episodes, seed) -> float:
    """Mean per-step ego reward under a deterministic ego policy."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9999]))
    env = HighwayEnv(env_cfg, rng)
    total = 0.0
    steps = 0
    for _ in range(episodes):
        env.reset()
        states = env.states()
        for _ in range(env_cfg.episode_steps):
            actions = [policy_fn(states[0])]
            for other in range(1, env_cfg.n_vehicles):
                actions.append(opponent(states[other], rng))
            result = env.step(actions)
            total += float(result.rewards[0])
            steps += 1
            states = env.states()
    return total / steps


def test_evaluate_policy_returns_finite_reward():
    value = evaluate_policy(
        lambda s: MAINTAIN,
        TINY_ENV,
        _rule_sampler,
        episodes=2,
        seed=1,
    )
    assert math.isfinite(value)


def test_action_labels_are_stable():
    assert ACTIONS == ("maintain", "accelerate", "decelerate", "hard_brake", "change_lane")
    assert [MAINTAIN, ACCELERATE, DECELERATE, HARD_BRAKE, CHANGE_LANE] == [0, 1, 2, 3, 4]
