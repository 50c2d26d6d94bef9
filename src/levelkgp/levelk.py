"""Discrete level-k policies on a ring-road driving environment.

Level 0 is a hand-written gap-keeping rule.  Level k best-responds to
traffic that plays level k-1, learned with tabular Q-learning over a
discretized state (lane, front gap, closing speed, rear gaps in the
adjacent lanes, own speed).  The state space is a few thousand ids, so
a few hundred episodes give usable coverage.

All randomness flows through explicit generators seeded per level;
training is deterministic for a fixed (config, seed).
"""

from __future__ import annotations

import bisect
import functools
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .config import EnvConfig, RLConfig
from .errors import InputError, MissingStateError, SchemaError, file_section, json_value, read_json
from .gp import Policy

logger = logging.getLogger(__name__)

ACTIONS = ("maintain", "accelerate", "decelerate", "hard_brake", "change_lane")
MAINTAIN, ACCELERATE, DECELERATE, HARD_BRAKE, CHANGE_LANE = range(5)
N_ACTIONS = len(ACTIONS)
# probability mass the level-0 rule spreads over the actions it does not pick
LEVEL0_EPSILON = 0.01

REL_SLOWER, REL_STEADY, REL_FASTER = range(3)


class EnvState(NamedTuple):
    """Discretized ego observation.

    rear bins use 0 for "no adjacent lane on that side"; gap bins start
    at 1 once the lane exists.  A state is a tuple, so it compares equal
    to a plain tuple with the same values.
    """

    lane: int
    front_gap_bin: int
    front_rel_speed_bin: int
    rear_left_bin: int
    rear_right_bin: int
    speed_bin: int


class Discretizer:
    """Maps continuous features to EnvState and state ids (mixed radix)."""

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self.front_bins = len(cfg.front_gap_edges) + 1
        self.rear_bins = len(cfg.rear_gap_edges) + 2
        self.cardinalities = (
            cfg.n_lanes,
            self.front_bins,
            3,
            self.rear_bins,
            self.rear_bins,
            cfg.speed_bin_count,
        )
        self.n_states = math.prod(self.cardinalities)
        self.speed_width = cfg.speed_max / cfg.speed_bin_count

    def state_id(self, state: EnvState) -> int:
        sid = 0
        for value, card in zip(state, self.cardinalities):
            if not 0 <= value < card:
                raise InputError(f"state field {value} outside radix {card}")
            sid = sid * card + value
        return sid

    def state_from_id(self, sid: int) -> EnvState:
        if not 0 <= sid < self.n_states:
            raise InputError(f"state id {sid} out of range")
        values = []
        for card in reversed(self.cardinalities):
            values.append(sid % card)
            sid //= card
        lane, fg, rs, rl, rr, sp = reversed(values)
        return EnvState(lane, fg, rs, rl, rr, sp)

    def discretize(
        self,
        lane: int,
        front_gap: float,
        front_rel_speed: float,
        rear_left_gap: Optional[float],
        rear_right_gap: Optional[float],
        speed: float,
    ) -> EnvState:
        threshold = self.cfg.rel_speed_threshold
        if front_rel_speed < -threshold:
            rel = REL_SLOWER
        elif front_rel_speed > threshold:
            rel = REL_FASTER
        else:
            rel = REL_STEADY
        rear_edges = self.cfg.rear_gap_edges
        return EnvState(
            lane,
            bisect.bisect_right(self.cfg.front_gap_edges, front_gap),
            rel,
            0 if rear_left_gap is None else 1 + bisect.bisect_right(rear_edges, rear_left_gap),
            0 if rear_right_gap is None else 1 + bisect.bisect_right(rear_edges, rear_right_gap),
            min(int(speed / self.speed_width), self.cfg.speed_bin_count - 1),
        )

    # -- inverse map, used when emitting synthetic trajectories -------------

    def representative_front_gap(self, b: int) -> float:
        edges = self.cfg.front_gap_edges
        if b == 0:
            return edges[0] / 2.0
        if b < len(edges):
            return (edges[b - 1] + edges[b]) / 2.0
        return edges[-1] * 1.5

    def representative_rel_speed(self, b: int) -> float:
        thr = self.cfg.rel_speed_threshold
        return (-3.0 * thr, 0.0, 3.0 * thr)[b]

    def representative_rear_gap(self, b: int) -> Optional[float]:
        if b == 0:
            return None
        edges = self.cfg.rear_gap_edges
        if b == 1:
            return edges[0] / 2.0
        if b - 1 < len(edges):
            return (edges[b - 2] + edges[b - 1]) / 2.0
        return edges[-1] * 1.5

    def representative_speed(self, b: int) -> float:
        return (b + 0.5) * self.speed_width

    def representative_features(self, state: EnvState) -> dict:
        return {
            "lane": state.lane,
            "front_gap": self.representative_front_gap(state.front_gap_bin),
            "front_rel_speed": self.representative_rel_speed(state.front_rel_speed_bin),
            "rear_left_gap": self.representative_rear_gap(state.rear_left_bin),
            "rear_right_gap": self.representative_rear_gap(state.rear_right_bin),
            "speed": self.representative_speed(state.speed_bin),
        }


@dataclass
class StepResult:
    rewards: np.ndarray
    collided: np.ndarray
    lane_changed: np.ndarray


class HighwayEnv:
    """Ring road shared by n_vehicles; vehicle 0 is the ego.

    Kinematics are pointwise: a vehicle is a position on the ring plus
    a speed and a lane.  Rear-end proximity below collision_gap counts
    as a collision charged to the follower, whose position is clamped
    behind the leader.
    """

    def __init__(self, cfg: EnvConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.disc = Discretizer(cfg)
        self.rng = rng
        self._accel_of = {
            MAINTAIN: 0.0,
            ACCELERATE: cfg.accel,
            DECELERATE: cfg.decel,
            HARD_BRAKE: cfg.hard_brake,
            CHANGE_LANE: 0.0,
        }
        self.reset()

    def reset(self):
        cfg = self.cfg
        spacing = cfg.ring_length / cfg.n_vehicles
        jitter = self.rng.uniform(-0.3 * spacing, 0.3 * spacing, cfg.n_vehicles)
        self.pos = (np.arange(cfg.n_vehicles) * spacing + jitter) % cfg.ring_length
        self.vel = self.rng.uniform(0.3 * cfg.speed_max, 0.8 * cfg.speed_max, cfg.n_vehicles)
        self.lane = self.rng.integers(0, cfg.n_lanes, cfg.n_vehicles)
        self._observed = None

    # -- geometry ------------------------------------------------------------
    #
    # Each lane is one list of (pos, idx) sorted on the ring, ties on the
    # index, built once per states() call and per phase of step().  A
    # search bisects the lane's positions and steps over the querying
    # vehicle itself; that finds the same neighbour as bisecting the lane
    # without it.  states() keeps the order it built, each vehicle's
    # front neighbour, and the lane and position lists they came from.
    # The next step() reuses the order for its lane-change phase only if
    # both lists still compare equal, since callers may write env.pos or
    # env.lane, also in place, in between; when no vehicle then changes
    # lane, the front neighbours are its leaders too.  step() and reset()
    # drop what states() kept.

    def _lane_order(self, pos: list, lane: list) -> list[tuple[list, list[float]]]:
        lanes: list[list[tuple[float, int]]] = [[] for _ in range(self.cfg.n_lanes)]
        for idx, (p, k) in enumerate(zip(pos, lane)):
            lanes[k].append((p, idx))
        order = []
        for entries in lanes:
            entries.sort()
            order.append((entries, [e[0] for e in entries]))
        return order

    def _ahead(self, lanes, lane: int, pos: float, skip: int) -> tuple[float, Optional[int]]:
        """Gap and index of the nearest vehicle ahead in the lane."""
        entries, positions = lanes[lane]
        n = len(entries)
        if n == 0 or (n == 1 and entries[0][1] == skip):
            return self.cfg.ring_length, None
        i = bisect.bisect_right(positions, pos) % n
        if entries[i][1] == skip:
            i = (i + 1) % n
        gap = (entries[i][0] - pos) % self.cfg.ring_length
        if gap == 0.0:
            gap = self.cfg.ring_length
        return gap, entries[i][1]

    def _behind(self, lanes, lane: int, pos: float, skip: int) -> tuple[float, Optional[int]]:
        entries, positions = lanes[lane]
        n = len(entries)
        if n == 0 or (n == 1 and entries[0][1] == skip):
            return self.cfg.ring_length, None
        i = (bisect.bisect_left(positions, pos) - 1) % n
        if entries[i][1] == skip:
            i = (i - 1) % n
        gap = (pos - entries[i][0]) % self.cfg.ring_length
        if gap == 0.0:
            gap = self.cfg.ring_length
        return gap, entries[i][1]

    def states(self) -> list[EnvState]:
        lane, pos, vel = self.lane.tolist(), self.pos.tolist(), self.vel.tolist()
        lanes = self._lane_order(pos, lane)
        fronts = []
        top_lane = self.cfg.n_lanes - 1
        discretize = self.disc.discretize
        out = []
        for idx, (own_lane, own_pos, own_vel) in enumerate(zip(lane, pos, vel)):
            front_gap, leader = front = self._ahead(lanes, own_lane, own_pos, idx)
            fronts.append(front)
            rel = 0.0 if leader is None else vel[leader] - own_vel
            rear_left = None
            if own_lane > 0:
                rear_left, _ = self._behind(lanes, own_lane - 1, own_pos, idx)
            rear_right = None
            if own_lane < top_lane:
                rear_right, _ = self._behind(lanes, own_lane + 1, own_pos, idx)
            out.append(discretize(own_lane, front_gap, rel, rear_left, rear_right, own_vel))
        self._observed = (lane, pos, lanes, fronts)
        return out

    def _lane_change_target(self, lanes, idx: int) -> Optional[int]:
        """Adjacent lane with the larger headway among the safe ones."""
        lane = int(self.lane[idx])
        pos = float(self.pos[idx])
        best = None
        best_gap = -1.0
        for target in (lane - 1, lane + 1):
            if not 0 <= target < self.cfg.n_lanes:
                continue
            rear_gap, rear = self._behind(lanes, target, pos, idx)
            if rear is not None and rear_gap < self.cfg.lane_change_min_rear_gap:
                continue
            gap, front = self._ahead(lanes, target, pos, idx)
            if front is not None and gap < self.cfg.collision_gap:
                continue
            if gap > best_gap:
                best_gap = gap
                best = target
        return best

    def step(self, actions: Sequence[int]) -> StepResult:
        cfg = self.cfg
        n = cfg.n_vehicles
        if len(actions) != n:
            raise InputError("one action per vehicle required")
        pos, lane = self.pos.tolist(), self.lane.tolist()
        observed, self._observed = self._observed, None
        if observed is not None and observed[0] == lane and observed[1] == pos:
            lanes, leaders = observed[2], observed[3]
        else:
            lanes, leaders = self._lane_order(pos, lane), None
        changed = np.zeros(n, dtype=bool)
        for idx in range(n):
            if actions[idx] == CHANGE_LANE:
                target = self._lane_change_target(lanes, idx)
                if target is not None:
                    self.lane[idx] = target
                    changed[idx] = True
                    leaders = None
        # leaders are fixed after the lane-change phase, before anyone moves
        if leaders is None:
            lane = self.lane.tolist()
            lanes = self._lane_order(pos, lane)
            leaders = [self._ahead(lanes, lane[idx], pos[idx], idx) for idx in range(n)]
        vel = self.vel.tolist()
        for idx in range(n):
            a = self._accel_of[int(actions[idx])]
            vel[idx] = min(max(vel[idx] + a * cfg.dt, 0.0), cfg.speed_max)
            pos[idx] = (pos[idx] + vel[idx] * cfg.dt) % cfg.ring_length
        # the follower collides when the headway closes below collision_gap;
        # a negative projected gap means it would have passed through
        collided = np.zeros(n, dtype=bool)
        for idx in range(n):
            gap, leader = leaders[idx]
            if leader is None:
                continue
            projected = gap + (vel[leader] - vel[idx]) * cfg.dt
            if projected < cfg.collision_gap:
                collided[idx] = True
                pos[idx] = (pos[leader] - cfg.collision_gap) % cfg.ring_length
                vel[idx] = vel[leader]
        self.pos[:] = pos
        self.vel[:] = vel
        # in Python floats: numpy's call overhead on 10-element arrays costs more than the math
        rewards = [
            cfg.w_speed * v / cfg.speed_max - cfg.w_collision * c - cfg.w_lane_change * ch
            for v, c, ch in zip(vel, collided.tolist(), changed.tolist())
        ]
        return StepResult(rewards=np.array(rewards), collided=collided, lane_changed=changed)


def level0_policy(state: EnvState) -> Policy:
    """Gap-keeping rule with LEVEL0_EPSILON spread over the other actions."""
    if state.front_gap_bin == 0:
        pick = HARD_BRAKE
    elif state.front_gap_bin == 1:
        pick = DECELERATE if state.front_rel_speed_bin == REL_SLOWER else MAINTAIN
    elif state.front_gap_bin == 2:
        pick = MAINTAIN if state.front_rel_speed_bin == REL_SLOWER else ACCELERATE
    else:
        pick = ACCELERATE
    probs = np.full(N_ACTIONS, LEVEL0_EPSILON / (N_ACTIONS - 1))
    probs[pick] = 1.0 - LEVEL0_EPSILON
    return Policy(probs)


def softmax_policy(q_values) -> Policy:
    """Softmax with max subtraction; equal values give uniform."""
    q = np.asarray(q_values, dtype=float).ravel()
    if q.size < 2:
        raise InputError("need at least two action values")
    if not np.all(np.isfinite(q)):
        raise InputError("action values must be finite")
    z = np.exp(q - q.max())
    return Policy(z / z.sum())


@dataclass
class QTable:
    """Tabular action values for one reasoning level."""

    level: int
    action_count: int
    q: dict[int, np.ndarray]
    visits: dict[int, int]

    def values(self, sid: int) -> np.ndarray:
        try:
            return self.q[sid]
        except KeyError:
            raise MissingStateError(sid) from None

    def policy(self, sid: int) -> Policy:
        return softmax_policy(self.values(sid))

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "action_count": self.action_count,
            "q": {str(s): v.tolist() for s, v in sorted(self.q.items())},
            "visits": {str(s): int(v) for s, v in sorted(self.visits.items())},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "QTable":
        """One level of a q-table document; ``PolicySet.from_dict`` names the
        level when the document is malformed."""
        table = cls(
            level=json_value(doc["level"], "level", "an integer"),
            action_count=json_value(doc["action_count"], "action_count", "an integer"),
            q={int(s): _q_row(s, v) for s, v in doc["q"].items()},
            visits={
                int(s): json_value(v, f"visits of state {s}", "an integer")
                for s, v in doc["visits"].items()
            },
        )
        for sid, values in table.q.items():
            where = f"level {table.level} state {sid}"
            if values.shape != (table.action_count,):
                raise SchemaError(
                    f"{where}: {values.size} q values for {table.action_count} actions"
                )
            if not np.all(np.isfinite(values)):
                raise SchemaError(f"{where}: q values must be finite")
        return table


def _q_row(state, row) -> np.ndarray:
    """One state's q values as read from a file: a list of JSON numbers."""
    if not (isinstance(row, list) and all(type(v) in (int, float) for v in row)):
        raise TypeError(f"state {state}: q values must be JSON numbers, got {row!r}")
    return np.asarray(row, dtype=float)


class PolicySampler:
    """Opponent that draws actions from per-state policies.

    Each state's policy becomes one cumulative row, built once and keyed
    on the state itself, so ``state_id`` runs only for a new state.  A draw
    takes one ``rng.random()`` and finds it in the row, which is what
    ``rng.choice(N_ACTIONS, p=probs)`` does: the same action and the same
    generator state after it.
    """

    def __init__(self, disc: Discretizer, policy_of: Callable[[int], Policy]):
        self.disc = disc
        self.policy_of = policy_of
        self._rows: dict[EnvState, list[float]] = {}

    def __call__(self, state: EnvState, rng: np.random.Generator) -> int:
        row = self._rows.get(state)
        if row is None:
            cdf = self.policy_of(self.disc.state_id(state)).probs.cumsum()
            cdf /= cdf[-1]
            row = self._rows[state] = cdf.tolist()
        return bisect.bisect_right(row, rng.random())


def train_level(
    level: int,
    opponent: Callable[[EnvState, np.random.Generator], int],
    env_cfg: EnvConfig,
    rl_cfg: RLConfig,
    seed: int,
) -> QTable:
    """Q-learning for one level against homogeneous opponent traffic."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, level]))
    env = HighwayEnv(env_cfg, rng)
    disc = env.disc
    # python float rows while learning: float64 arithmetic without numpy's call overhead
    q: dict[int, list[float]] = {}
    visits: dict[int, int] = {}
    for episode in range(rl_cfg.episodes):
        frac = episode / max(rl_cfg.episodes - 1, 1)
        eps = rl_cfg.epsilon_start + frac * (rl_cfg.epsilon_end - rl_cfg.epsilon_start)
        env.reset()
        states = env.states()
        sid = disc.state_id(states[0])
        for _ in range(env_cfg.episode_steps):
            values = q.setdefault(sid, [0.0] * N_ACTIONS)
            visits[sid] = visits.get(sid, 0) + 1
            if rng.random() < eps:
                action = int(rng.integers(N_ACTIONS))
            else:
                action = values.index(max(values))
            actions = [action]
            for other in range(1, env_cfg.n_vehicles):
                actions.append(opponent(states[other], rng))
            result = env.step(actions)
            states = env.states()
            next_sid = disc.state_id(states[0])
            next_values = q.get(next_sid)
            bootstrap = 0.0 if next_values is None else max(next_values)
            target = float(result.rewards[0]) + rl_cfg.discount * bootstrap
            values[action] += rl_cfg.learning_rate * (target - values[action])
            sid = next_sid
    rows = {s: np.array(values) for s, values in q.items()}
    return QTable(level=level, action_count=N_ACTIONS, q=rows, visits=visits)


class PolicySet:
    """Level-0 rule plus trained tables; serves per-state discrete policies.

    States missing from a table fall back to the nearest populated state
    by Hamming distance over the decoded fields (ties break on the lower
    id).  Resolutions are cached; each fallback is logged once at DEBUG,
    and ``fallback_counts`` sums them per level.
    """

    def __init__(self, env_cfg: EnvConfig, tables: dict[int, QTable]):
        self.disc = Discretizer(env_cfg)
        self.env_cfg = env_cfg
        self.tables: dict[int, QTable] = {}
        self._fallback: dict[tuple[int, int], int] = {}
        self._decoded: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for k, table in sorted(tables.items()):
            if table.level != k:
                raise InputError("table level does not match its key")
            self.add(table)

    def add(self, table: QTable):
        """Append the table of the next level, max_level + 1."""
        k = self.max_level + 1
        if table.level != k:
            raise InputError(f"levels must be 1..K: got level {table.level} after {k - 1}")
        if not table.q:
            raise InputError(f"level {k} table is empty")
        if min(table.q) < 0 or max(table.q) >= self.disc.n_states:
            raise InputError(f"level {k} table holds a state id out of range")
        self.tables[k] = table

    @property
    def max_level(self) -> int:
        return len(self.tables)

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(range(self.max_level + 1))

    def _resolve(self, level: int, sid: int) -> int:
        table = self.tables[level]
        if sid in table.q:
            return sid
        key = (level, sid)
        cached = self._fallback.get(key)
        if cached is not None:
            return cached
        query = self.disc.state_from_id(sid)
        decoded = self._decoded.get(level)
        if decoded is None:
            ids = np.array(sorted(table.q))
            # state ids are mixed radix with the first field most significant
            fields = np.stack(np.unravel_index(ids, self.disc.cardinalities), axis=1)
            decoded = self._decoded[level] = (ids, fields)
        ids, fields = decoded
        # argmin keeps the first of equal distances: the lowest id
        best_sid = int(ids[np.argmin((fields != query).sum(axis=1))])
        logger.debug(
            "state %d missing from level-%d table, using nearest state %d",
            sid,
            level,
            best_sid,
        )
        self._fallback[key] = best_sid
        return best_sid

    def fallback_counts(self) -> dict[int, int]:
        """Per trained level, how many states have fallen back so far,
        including those of training when the set came from train_hierarchy."""
        counts = dict.fromkeys(sorted(self.tables), 0)
        for level, _ in self._fallback:
            counts[level] += 1
        return counts

    def policy(self, level: int, sid: int) -> Policy:
        if level == 0:
            return level0_policy(self.disc.state_from_id(sid))
        if level not in self.tables:
            raise InputError(f"no table for level {level}")
        return self.tables[level].policy(self._resolve(level, sid))

    def discrete_policies(self, sid: int) -> list[Policy]:
        """Observation set for one state: policies at levels 0..K."""
        return [self.policy(k, sid) for k in self.levels]

    def sampler(self, level: int) -> PolicySampler:
        return PolicySampler(self.disc, functools.partial(self.policy, level))

    def common_states(self, min_visits: int = 1) -> list[int]:
        """States visited at least min_visits times at every trained level."""
        common: Optional[set[int]] = None
        for table in self.tables.values():
            seen = {s for s, n in table.visits.items() if n >= min_visits}
            common = seen if common is None else common & seen
        return sorted(common or [])

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "action_set": list(ACTIONS),
            "cardinalities": list(self.disc.cardinalities),
            "tables": {str(k): t.to_dict() for k, t in sorted(self.tables.items())},
        }

    def save(self, path: str | Path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict, env_cfg: EnvConfig) -> "PolicySet":
        if not isinstance(doc, dict):
            raise SchemaError("a q-table file must hold a JSON object")
        if doc.get("version") != 1:
            raise SchemaError(f"unsupported q-table version {doc.get('version')!r}")
        expected = list(Discretizer(env_cfg).cardinalities)
        if doc.get("cardinalities") != expected:
            raise SchemaError(
                "q-tables were trained on a different discretization"
            )
        if not isinstance(doc.get("tables"), dict):
            raise SchemaError("q-table document needs a 'tables' object")
        if not doc["tables"]:
            raise SchemaError("q-table document holds no trained level")
        tables = {}
        for key, table in doc["tables"].items():
            with file_section(f"q-table level {key!r}"):
                tables[int(key)] = QTable.from_dict(table)
        for k, table in tables.items():
            if table.action_count != N_ACTIONS:
                raise SchemaError(
                    f"level {k} table has {table.action_count} actions, expected {N_ACTIONS}"
                )
        return cls(env_cfg, tables)

    @classmethod
    def load(cls, path: str | Path, env_cfg: EnvConfig) -> "PolicySet":
        return cls.from_dict(read_json(path), env_cfg)


def train_hierarchy(env_cfg: EnvConfig, rl_cfg: RLConfig, seed: int) -> PolicySet:
    """Train levels 1..max_level, each against the previous level."""
    # a level's fallbacks do not depend on the levels above it, so the one
    # set keeps them from level to level and counts those of training
    policy_set = PolicySet(env_cfg, {})
    for level in range(1, rl_cfg.max_level + 1):
        logger.info("training level %d against level %d traffic", level, level - 1)
        policy_set.add(train_level(level, policy_set.sampler(level - 1), env_cfg, rl_cfg, seed))
    return policy_set
