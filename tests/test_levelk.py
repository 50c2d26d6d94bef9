import bisect
import hashlib
import json
import logging
import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levelkgp.config import EnvConfig, RLConfig
from levelkgp.errors import InputError, MissingStateError, SchemaError
from levelkgp.gp import Policy
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
    PolicySampler,
    PolicySet,
    QTable,
    StepResult,
    level0_policy,
    softmax_policy,
    train_hierarchy,
    train_level,
)

ENV = EnvConfig()
DISC = Discretizer(ENV)

TINY_ENV = EnvConfig(episode_steps=15)
TINY_RL = RLConfig(episodes=8, max_level=2)

# SHA-256 of json.dumps(train_hierarchy(TINY_ENV, TINY_RL, seed=3).to_dict(),
# sort_keys=True), recorded with the rng.choice sampler, the Hamming scan
# fallback and the list-filtering geometry that the faster training replaced.
TINY_HIERARCHY_SHA256 = "2178e76031c98128b5286681e5221de469861d24e18f11e0b6d201700202f166"


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


# The per-bin helpers that Discretizer.discretize absorbed: its binning oracle.


def front_gap_bin(cfg: EnvConfig, gap: float) -> int:
    return int(bisect.bisect_right(cfg.front_gap_edges, gap))


def rel_speed_bin(cfg: EnvConfig, rel: float) -> int:
    if rel < -cfg.rel_speed_threshold:
        return 0
    if rel > cfg.rel_speed_threshold:
        return 2
    return 1


def rear_bin(cfg: EnvConfig, gap: Optional[float]) -> int:
    if gap is None:
        return 0
    return 1 + int(bisect.bisect_right(cfg.rear_gap_edges, gap))


def speed_bin(cfg: EnvConfig, speed: float) -> int:
    width = cfg.speed_max / cfg.speed_bin_count
    return min(int(speed / width), cfg.speed_bin_count - 1)


def binned(cfg, lane, front_gap, rel, rear_left, rear_right, speed) -> EnvState:
    return EnvState(
        lane,
        front_gap_bin(cfg, front_gap),
        rel_speed_bin(cfg, rel),
        rear_bin(cfg, rear_left),
        rear_bin(cfg, rear_right),
        speed_bin(cfg, speed),
    )


def _features(front_gap=30.0, rel=0.0, rear_left=10.0, rear_right=10.0, speed=10.0):
    return DISC.discretize(1, front_gap, rel, rear_left, rear_right, speed)


def test_front_gap_bins_split_at_edges():
    gaps = (7.999, 8.0, 19.999, 20.0, 40.0, 500.0)
    assert [_features(front_gap=g).front_gap_bin for g in gaps] == [0, 1, 1, 2, 3, 3]


def test_rel_speed_bins():
    rels = (-1.5, 0.0, 1.5)
    assert [_features(rel=r).front_rel_speed_bin for r in rels] == [0, 1, 2]


def test_rear_bins_reserve_zero_for_missing_lane():
    gaps = (None, 2.0, 10.0, 100.0)
    assert [_features(rear_left=g).rear_left_bin for g in gaps] == [0, 1, 2, 3]
    assert [_features(rear_right=g).rear_right_bin for g in gaps] == [0, 1, 2, 3]


def test_speed_bins_cover_range():
    speeds = (0.0, ENV.speed_max, ENV.speed_max + 5)
    top = ENV.speed_bin_count - 1
    assert [_features(speed=v).speed_bin for v in speeds] == [0, top, top]


BINNING_CONFIGS = [
    ENV,
    EnvConfig(n_lanes=2, n_vehicles=4),
    EnvConfig(n_lanes=4, speed_bin_count=1, rel_speed_threshold=0.35),
    EnvConfig(
        n_lanes=4,
        speed_bin_count=9,
        front_gap_edges=(0.5, 3.0),
        rear_gap_edges=(4.0,),
    ),
]


def _edge_values(edges):
    """Each edge, the doubles either side of it, zero and a far value."""
    values = [0.0, 10.0 * edges[-1]]
    for edge in edges:
        values += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
    return values


def _speed_values(cfg):
    width = cfg.speed_max / cfg.speed_bin_count
    values = [cfg.speed_max, math.nextafter(cfg.speed_max, 0.0), cfg.speed_max + 5.0]
    for k in range(cfg.speed_bin_count + 1):
        values += [math.nextafter(k * width, v) for v in (-math.inf, math.inf)] + [k * width]
    return values


def _rel_values(cfg):
    thr = cfg.rel_speed_threshold
    return [0.0, -thr, thr] + [math.nextafter(v, w) for v in (-thr, thr) for w in (0.0, 2 * v)]


@pytest.mark.parametrize("cfg", BINNING_CONFIGS, ids=range(len(BINNING_CONFIGS)))
def test_discretize_matches_binning_oracle_on_edges(cfg):
    disc = Discretizer(cfg)
    rears = [None] + _edge_values(cfg.rear_gap_edges)
    for lane in range(cfg.n_lanes):
        for front_gap in _edge_values(cfg.front_gap_edges):
            for rel in _rel_values(cfg):
                for rear_left, rear_right in zip(rears, reversed(rears)):
                    for speed in _speed_values(cfg):
                        features = (lane, front_gap, rel, rear_left, rear_right, speed)
                        assert disc.discretize(*features) == binned(cfg, *features), features


@st.composite
def _binning_cases(draw):
    cfg = draw(st.sampled_from(BINNING_CONFIGS))
    gap = st.floats(min_value=0.0, max_value=1e3)
    rear = st.one_of(st.none(), gap, st.sampled_from(_edge_values(cfg.rear_gap_edges)))
    thr = cfg.rel_speed_threshold
    features = (
        draw(st.integers(min_value=0, max_value=cfg.n_lanes - 1)),
        draw(st.one_of(gap, st.sampled_from(_edge_values(cfg.front_gap_edges)))),
        draw(st.one_of(st.floats(-3 * thr, 3 * thr), st.sampled_from(_rel_values(cfg)))),
        draw(rear),
        draw(rear),
        draw(st.one_of(st.floats(0.0, cfg.speed_max), st.sampled_from(_speed_values(cfg)))),
    )
    return cfg, features


@given(_binning_cases())
def test_discretize_matches_binning_oracle(case):
    cfg, features = case
    assert Discretizer(cfg).discretize(*features) == binned(cfg, *features)


def test_env_state_is_a_tuple_of_its_fields():
    state = EnvState(2, 1, 0, 3, 0, 1)
    assert state == (2, 1, 0, 3, 0, 1)
    assert tuple(state) == (2, 1, 0, 3, 0, 1)
    assert DISC.state_id((2, 1, 0, 3, 0, 1)) == DISC.state_id(state)


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


class ListGeometryEnv(HighwayEnv):
    """Oracle: the ring geometry that filters each lane's list per query and
    clips speeds with np.clip, against which the bisecting one is checked."""

    def _lane_order(self):
        lanes = [[] for _ in range(self.cfg.n_lanes)]
        for idx in range(self.cfg.n_vehicles):
            lanes[self.lane[idx]].append((float(self.pos[idx]), idx))
        for entries in lanes:
            entries.sort()
        return lanes

    def _ahead(self, lanes, lane, pos, skip):
        entries = [e for e in lanes[lane] if e[1] != skip]
        if not entries:
            return self.cfg.ring_length, None
        positions = [e[0] for e in entries]
        i = bisect.bisect_right(positions, pos)
        nxt = entries[i % len(entries)]
        gap = (nxt[0] - pos) % self.cfg.ring_length
        if gap == 0.0:
            gap = self.cfg.ring_length
        return gap, nxt[1]

    def _behind(self, lanes, lane, pos, skip):
        entries = [e for e in lanes[lane] if e[1] != skip]
        if not entries:
            return self.cfg.ring_length, None
        positions = [e[0] for e in entries]
        i = bisect.bisect_left(positions, pos)
        prev = entries[(i - 1) % len(entries)]
        gap = (pos - prev[0]) % self.cfg.ring_length
        if gap == 0.0:
            gap = self.cfg.ring_length
        return gap, prev[1]

    def state_of(self, idx, lanes=None):
        lanes = lanes if lanes is not None else self._lane_order()
        lane = int(self.lane[idx])
        pos = float(self.pos[idx])
        front_gap, leader = self._ahead(lanes, lane, pos, idx)
        rel = 0.0 if leader is None else float(self.vel[leader] - self.vel[idx])
        rear_left = None
        if lane - 1 >= 0:
            rear_left, _ = self._behind(lanes, lane - 1, pos, idx)
        rear_right = None
        if lane + 1 < self.cfg.n_lanes:
            rear_right, _ = self._behind(lanes, lane + 1, pos, idx)
        return self.disc.discretize(
            lane, front_gap, rel, rear_left, rear_right, float(self.vel[idx])
        )

    def states(self):
        lanes = self._lane_order()
        return [self.state_of(i, lanes) for i in range(self.cfg.n_vehicles)]

    def step(self, actions):
        cfg = self.cfg
        n = cfg.n_vehicles
        lanes = self._lane_order()
        changed = np.zeros(n, dtype=bool)
        for idx in range(n):
            if actions[idx] == CHANGE_LANE:
                target = self._lane_change_target(lanes, idx)
                if target is not None:
                    self.lane[idx] = target
                    changed[idx] = True
        lanes = self._lane_order()
        leaders = [
            self._ahead(lanes, int(self.lane[idx]), float(self.pos[idx]), idx)
            for idx in range(n)
        ]
        accel_of = {
            MAINTAIN: 0.0,
            ACCELERATE: cfg.accel,
            DECELERATE: cfg.decel,
            HARD_BRAKE: cfg.hard_brake,
            CHANGE_LANE: 0.0,
        }
        for idx in range(n):
            a = accel_of[int(actions[idx])]
            self.vel[idx] = float(np.clip(self.vel[idx] + a * cfg.dt, 0.0, cfg.speed_max))
            self.pos[idx] = (self.pos[idx] + self.vel[idx] * cfg.dt) % cfg.ring_length
        collided = np.zeros(n, dtype=bool)
        for idx in range(n):
            gap, leader = leaders[idx]
            if leader is None:
                continue
            projected = gap + (self.vel[leader] - self.vel[idx]) * cfg.dt
            if projected < cfg.collision_gap:
                collided[idx] = True
                self.pos[idx] = (self.pos[leader] - cfg.collision_gap) % cfg.ring_length
                self.vel[idx] = float(self.vel[leader])
        rewards = (
            cfg.w_speed * self.vel / cfg.speed_max
            - cfg.w_collision * collided
            - cfg.w_lane_change * changed
        )
        return StepResult(rewards=rewards, collided=collided, lane_changed=changed)


def _assert_same_env(fast, slow):
    assert np.array_equal(fast.pos, slow.pos)
    assert np.array_equal(fast.vel, slow.vel)
    assert np.array_equal(fast.lane, slow.lane)
    assert fast.states() == slow.states()


@pytest.mark.parametrize(
    "cfg",
    [
        ENV,
        EnvConfig(n_vehicles=14, ring_length=120.0),
        EnvConfig(n_lanes=2, n_vehicles=4, ring_length=60.0),
    ],
)
def test_env_geometry_matches_list_oracle_over_rollouts(cfg):
    fast = HighwayEnv(cfg, np.random.default_rng(11))
    slow = ListGeometryEnv(cfg, np.random.default_rng(11))
    actions_rng = np.random.default_rng(12)
    collisions = lane_changes = 0
    for step in range(400):
        if step % 50 == 0:
            fast.reset()
            slow.reset()
        _assert_same_env(fast, slow)
        actions = list(actions_rng.choice(N_ACTIONS, cfg.n_vehicles, p=[0.2, 0.3, 0.1, 0.1, 0.3]))
        a, b = fast.step(actions), slow.step(actions)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.collided, b.collided)
        assert np.array_equal(a.lane_changed, b.lane_changed)
        collisions += int(a.collided.sum())
        lane_changes += int(a.lane_changed.sum())
    _assert_same_env(fast, slow)
    assert collisions > 0 and lane_changes > 0


def test_env_geometry_matches_list_oracle_on_tied_positions():
    cfg = EnvConfig(n_lanes=2, n_vehicles=6, ring_length=100.0)
    fast = HighwayEnv(cfg, np.random.default_rng(0))
    slow = ListGeometryEnv(cfg, np.random.default_rng(0))
    for env in (fast, slow):
        env.pos = np.array([10.0, 10.0, 10.0, 55.0, 55.0, 99.5])
        env.vel = np.array([8.0, 12.0, 3.0, 0.0, 25.0, 10.0])
        env.lane = np.array([0, 0, 1, 1, 0, 0])
    _assert_same_env(fast, slow)
    for actions in ([CHANGE_LANE] * 6, [ACCELERATE] * 6, [MAINTAIN] * 6):
        a, b = fast.step(actions), slow.step(actions)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.collided, b.collided)
        assert np.array_equal(a.lane_changed, b.lane_changed)
        _assert_same_env(fast, slow)


def _swap_first_two(env):
    env.pos[[0, 1]] = env.pos[[1, 0]]


def _shift_first_lane(env):
    env.lane[0] = (env.lane[0] + 1) % env.cfg.n_lanes


def _assign_rolled_pos(env):
    env.pos = np.roll(env.pos, 1)


def _assign_reversed_lanes(env):
    env.lane = env.lane[::-1].copy()


def _assign_same_values(env):
    env.pos = env.pos.copy()
    env.lane = env.lane.copy()


@pytest.mark.parametrize(
    "write",
    [
        _swap_first_two,
        _shift_first_lane,
        _assign_rolled_pos,
        _assign_reversed_lanes,
        _assign_same_values,
    ],
)
def test_step_after_writes_to_pos_and_lane_matches_list_oracle(write):
    # states() keeps its lane order for the next step(); a write in between,
    # in place or by assignment, must not let a stale order through
    cfg = EnvConfig(n_lanes=3, n_vehicles=8, ring_length=80.0)
    fast = HighwayEnv(cfg, np.random.default_rng(5))
    slow = ListGeometryEnv(cfg, np.random.default_rng(5))
    actions_rng = np.random.default_rng(6)
    for step in range(120):
        if step % 40 == 0:
            fast.reset()
            slow.reset()
        fast.states()
        slow.states()
        if step % 3:
            write(fast)
            write(slow)
        actions = list(actions_rng.choice(N_ACTIONS, cfg.n_vehicles, p=[0.2, 0.2, 0.1, 0.1, 0.4]))
        a, b = fast.step(actions), slow.step(actions)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.collided, b.collided)
        assert np.array_equal(a.lane_changed, b.lane_changed)
        _assert_same_env(fast, slow)


# -- training ------------------------------------------------------------------------


def _rule_sampler(state, rng):
    return int(rng.choice(N_ACTIONS, p=level0_policy(state).probs))


def _sampler_policies(rng) -> list[Policy]:
    """Random, near-degenerate, one-hot and epsilon policies."""
    policies = [
        Policy(rng.dirichlet(np.full(N_ACTIONS, c))) for c in (0.05, 0.5, 5.0) for _ in range(60)
    ]
    for a in range(N_ACTIONS):
        policies.append(Policy(np.eye(N_ACTIONS)[a]))
        for eps in (1e-12, 1e-6, 0.01, 0.3):
            probs = np.full(N_ACTIONS, eps / (N_ACTIONS - 1))
            probs[a] = 1.0 - eps
            policies.append(Policy(probs))
    for sid in range(0, DISC.n_states, 97):
        policies.append(level0_policy(DISC.state_from_id(sid)))
    return policies


def test_policy_sampler_matches_rng_choice_draw_for_draw(rng):
    policies = _sampler_policies(rng)
    sampler = PolicySampler(DISC, lambda sid: policies[sid])
    ours = np.random.default_rng(77)
    theirs = np.random.default_rng(77)
    for _ in range(20):
        for sid, policy in enumerate(policies):
            got = sampler(DISC.state_from_id(sid), ours)
            assert got == int(theirs.choice(N_ACTIONS, p=policy.probs))
    assert ours.bit_generator.state == theirs.bit_generator.state


class IdKeyedSampler:
    """The sampler that looked every state up by id: oracle for the state-keyed one."""

    def __init__(self, disc, policy_of):
        self.disc = disc
        self.policy_of = policy_of
        self._rows = {}

    def __call__(self, state, rng):
        sid = self.disc.state_id(state)
        row = self._rows.get(sid)
        if row is None:
            cdf = self.policy_of(sid).probs.cumsum()
            cdf /= cdf[-1]
            row = self._rows[sid] = cdf.tolist()
        return bisect.bisect_right(row, rng.random())


def test_policy_sampler_keyed_on_state_matches_id_keyed_oracle(rng):
    policies = _sampler_policies(rng)
    asked = {"state": [], "id": []}

    def policy_of(key):
        def lookup(sid):
            asked[key].append(sid)
            return policies[sid % len(policies)]

        return lookup

    ours = PolicySampler(DISC, policy_of("state"))
    oracle = IdKeyedSampler(DISC, policy_of("id"))
    env = HighwayEnv(ENV, np.random.default_rng(3))
    ours_rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
    for step in range(300):
        if step % 60 == 0:
            env.reset()
        states = env.states()
        # rollout states repeat; decoded ones are equal states built apart
        states += [DISC.state_from_id(int(s)) for s in rng.integers(0, DISC.n_states, 3)]
        draws = [ours(state, ours_rng) for state in states]
        assert draws == [oracle(state, oracle_rng) for state in states]
        env.step(draws[: ENV.n_vehicles])
    assert ours_rng.bit_generator.state == oracle_rng.bit_generator.state
    assert asked["state"] == asked["id"]
    assert len(asked["state"]) == len(set(asked["state"]))


class _FixedUniforms:
    """Stands in for a generator whose random() returns given values."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_policy_sampler_breaks_exact_cdf_hits_to_the_right():
    # rng.choice locates the uniform with searchsorted(side="right")
    probs = np.array([0.0, 0.25, 0.0, 0.5, 0.25])
    cdf = probs.cumsum()
    uniforms = [0.0, 0.25, 0.5, 0.75, 0.9999]
    sampler = PolicySampler(DISC, lambda sid: Policy(probs))
    draws = [sampler(DISC.state_from_id(0), _FixedUniforms([u])) for u in uniforms]
    assert draws == [int(np.searchsorted(cdf, u, side="right")) for u in uniforms]
    assert draws == [1, 3, 3, 4, 4]


def test_train_hierarchy_level1_matches_rng_choice_rule_oracle():
    rl = RLConfig(episodes=8, max_level=1)
    oracle = train_level(1, _rule_sampler, TINY_ENV, rl, seed=4)
    table = train_hierarchy(TINY_ENV, rl, seed=4).tables[1]
    assert table.visits == oracle.visits
    assert sorted(table.q) == sorted(oracle.q)
    for sid in oracle.q:
        assert np.array_equal(table.q[sid], oracle.q[sid])


def test_train_hierarchy_golden_digest():
    doc = train_hierarchy(TINY_ENV, TINY_RL, seed=3).to_dict()
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == TINY_HIERARCHY_SHA256


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


@pytest.mark.parametrize("sid", [-1, DISC.n_states])
def test_policy_set_rejects_state_ids_out_of_range(sid):
    q = {0: np.zeros(N_ACTIONS), sid: np.zeros(N_ACTIONS)}
    table = QTable(level=1, action_count=N_ACTIONS, q=q, visits=dict.fromkeys(q, 1))
    with pytest.raises(InputError, match="out of range"):
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


def _hamming_oracle(table: QTable, sid: int) -> int:
    """Brute-force nearest trained state: lowest id among the closest."""
    fields = tuple(DISC.state_from_id(sid))
    best_sid: Optional[int] = None
    best_dist = len(fields) + 1
    for candidate in sorted(table.q):
        cand_fields = tuple(DISC.state_from_id(candidate))
        dist = sum(a != b for a, b in zip(fields, cand_fields))
        if dist < best_dist:
            best_dist = dist
            best_sid = candidate
    return best_sid


@pytest.mark.parametrize("n_trained", [1, 4, 30])
def test_policy_set_fallback_matches_hamming_oracle(n_trained, caplog):
    rng = np.random.default_rng(n_trained)
    trained = sorted(int(s) for s in rng.choice(DISC.n_states, n_trained, replace=False))
    # distinct values, so each policy names the state it came from
    q = {sid: rng.normal(size=N_ACTIONS) for sid in trained}
    table = QTable(level=1, action_count=N_ACTIONS, q=q, visits=dict.fromkeys(q, 1))
    ps = PolicySet(ENV, {1: table})
    queries = [int(s) for s in rng.choice(DISC.n_states, 300, replace=False)]
    ties = 0
    with caplog.at_level(logging.DEBUG, logger="levelkgp"):
        for sid in queries:
            expected = sid if sid in q else _hamming_oracle(table, sid)
            assert np.array_equal(ps.policy(1, sid).probs, table.policy(expected).probs)
            query = tuple(DISC.state_from_id(sid))
            dists = [
                sum(a != b for a, b in zip(query, tuple(DISC.state_from_id(c))))
                for c in trained
            ]
            ties += dists.count(min(dists)) > 1
    missing = sum(sid not in q for sid in queries)
    assert ps.fallback_counts() == {1: missing}
    fallback_records = [r for r in caplog.records if "missing from level-1" in r.getMessage()]
    assert len(fallback_records) == missing
    assert all(r.levelno == logging.DEBUG for r in fallback_records)
    if n_trained > 1:
        assert ties > 0


def test_train_hierarchy_counts_training_fallbacks():
    ps = train_hierarchy(TINY_ENV, TINY_RL, seed=3)
    counts = ps.fallback_counts()
    assert sorted(counts) == [1, 2]
    # level-2 training drew level-1 opponents in states level 1 never visited
    assert counts[1] > 0


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


def _qtable_doc():
    q = {7: np.arange(N_ACTIONS, dtype=float), 42: np.zeros(N_ACTIONS)}
    table = QTable(level=1, action_count=N_ACTIONS, q=q, visits=dict.fromkeys(q, 2))
    return json.loads(json.dumps(PolicySet(ENV, {1: table}).to_dict()))


def test_policy_set_from_dict_round_trips_a_valid_document():
    ps = PolicySet.from_dict(_qtable_doc(), ENV)
    assert np.array_equal(ps.tables[1].q[7], np.arange(N_ACTIONS, dtype=float))


def test_policy_set_load_rejects_document_without_tables():
    doc = _qtable_doc()
    del doc["tables"]
    with pytest.raises(SchemaError, match="tables"):
        PolicySet.from_dict(doc, ENV)
    with pytest.raises(SchemaError, match="tables"):
        PolicySet.from_dict({**doc, "tables": []}, ENV)
    with pytest.raises(SchemaError, match="no trained level"):
        PolicySet.from_dict({**doc, "tables": {}}, ENV)


def test_policy_set_load_rejects_short_q_rows():
    doc = _qtable_doc()
    doc["tables"]["1"]["q"]["42"] = [0.0, 1.0, 2.0]
    with pytest.raises(SchemaError, match="level 1 state 42: 3 q values for 5 actions"):
        PolicySet.from_dict(doc, ENV)


def test_policy_set_load_rejects_action_count_that_does_not_match_rows():
    doc = _qtable_doc()
    doc["tables"]["1"]["action_count"] = 3
    with pytest.raises(SchemaError, match="level 1 state 7: 5 q values for 3 actions"):
        PolicySet.from_dict(doc, ENV)


def test_policy_set_load_rejects_tables_over_another_action_set():
    doc = _qtable_doc()
    doc["tables"]["1"]["action_count"] = 3
    doc["tables"]["1"]["q"] = {"7": [0.0, 1.0, 2.0]}
    with pytest.raises(SchemaError, match="level 1 table has 3 actions, expected 5"):
        PolicySet.from_dict(doc, ENV)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_policy_set_load_rejects_non_finite_q_values(bad):
    doc = _qtable_doc()
    doc["tables"]["1"]["q"]["42"][3] = bad
    with pytest.raises(SchemaError, match="level 1 state 42: q values must be finite"):
        PolicySet.from_dict(doc, ENV)


def _edited(change):
    doc = _qtable_doc()
    change(doc)
    return doc


def _relabeled_level(doc):
    doc["tables"]["x"] = doc["tables"].pop("1")


def _q_as_list(doc):
    doc["tables"]["1"]["q"] = list(doc["tables"]["1"]["q"].values())


# each raised a bare ValueError, AttributeError or JSONDecodeError before
BROKEN_QTABLE_FILES = {
    "non-integer level key": (
        lambda: json.dumps(_edited(_relabeled_level)), "malformed q-table level 'x'"
    ),
    "q as a list": (lambda: json.dumps(_edited(_q_as_list)), "malformed q-table level '1'"),
    "truncated": (lambda: json.dumps(_qtable_doc())[:-20], "not valid JSON"),
    "a list": (lambda: json.dumps([_qtable_doc()]), "must hold a JSON object"),
}


def _level1_with(value, *keys):
    """A q-table file whose level-1 table holds ``value`` under ``keys``."""
    def change(doc):
        *path, last = keys
        node = doc["tables"]["1"]
        for key in path:
            node = node[key]
        node[last] = value
    return lambda: json.dumps(_edited(change))


# each loaded before, cast by int() or float()
BROKEN_QTABLE_FILES.update({
    name: (text, f"malformed q-table level '1': {named}")
    for name, text, named in [
        ("fractional level", _level1_with(1.5, "level"), "level must be an integer, got 1.5"),
        ("boolean level", _level1_with(True, "level"), "level must be an integer, got True"),
        ("text action_count", _level1_with("5", "action_count"), "action_count must be an integer"),
        ("fractional visits", _level1_with(2.5, "visits", "42"), "visits of state 42 must be an"),
        ("text q value", _level1_with(["1.5", 0, 0, 0, 0], "q", "42"), "state 42: q values must"),
        ("boolean q value", _level1_with([True, 0, 0, 0, 0], "q", "42"), "state 42: q values must"),
    ]
})


@pytest.mark.parametrize("key", sorted(BROKEN_QTABLE_FILES))
def test_policy_set_load_names_the_malformed_section(key, tmp_path):
    text, named = BROKEN_QTABLE_FILES[key]
    path = tmp_path / "qtables.json"
    path.write_text(text())
    with pytest.raises(SchemaError, match=named):
        PolicySet.load(path, ENV)


def test_policy_set_load_rejects_non_numeric_q_entries():
    doc = _qtable_doc()
    doc["tables"]["1"]["q"]["42"][0] = "fast"
    with pytest.raises(SchemaError, match="malformed q-table"):
        PolicySet.from_dict(doc, ENV)


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
