"""Trajectory ingestion and synthetic driver generation.

The trajectory CSV contract has columns
``vehicle_id,frame,local_x,local_y,lane_id,velocity`` with frames
spaced ``frame_dt`` seconds apart, longitudinal position ``local_y`` in
meters and speed in m/s.  Lane ids are the package's zero-based lane
indices.  An action is labeled for every pair of rows of one vehicle on
adjacent frames: a lane id change labels change_lane, otherwise the
acceleration (delta velocity over frame_dt) is thresholded.  The state
for the pair is discretized from the other vehicles present on the
first frame.

Malformed rows (missing values, non-numeric fields, out-of-range lane,
negative speed, non-increasing frame for a vehicle) are rejected and
counted, never fatal.  A missing column is a schema error.

Synthetic drivers sample actions from a supplied per-state policy and
can be exported as a trajectory file that ingests back to the same
counts: each sample becomes a two-frame ego episode with single-frame
context vehicles realizing the state's bin representatives, and
episodes are spaced two frames apart so no cross-episode pair is ever
on adjacent frames.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .config import (
    EXPORT_POSITION_DECIMALS, EXPORT_SPEED_DECIMALS, DataConfig, DriverSpec, EnvConfig,
)
from .errors import InputError, SchemaError, read_json
from .fitting import DriverRecord, _driver_key
from .gp import Policy
from .levelk import (
    ACCELERATE,
    CHANGE_LANE,
    DECELERATE,
    HARD_BRAKE,
    MAINTAIN,
    N_ACTIONS,
    Discretizer,
    EnvState,
)

logger = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("vehicle_id", "frame", "local_x", "local_y", "lane_id", "velocity")

LANE_WIDTH = 3.7


@dataclass
class IngestSummary:
    rows_total: int = 0
    rows_accepted: int = 0
    rows_rejected: int = 0
    n_vehicles: int = 0
    n_transitions: int = 0
    n_states: int = 0
    reject_reasons: dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str):
        self.rows_rejected += 1
        self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1

    def to_dict(self) -> dict:
        return {
            "rows_total": self.rows_total,
            "rows_accepted": self.rows_accepted,
            "rows_rejected": self.rows_rejected,
            "n_vehicles": self.n_vehicles,
            "n_transitions": self.n_transitions,
            "n_states": self.n_states,
            "reject_reasons": dict(sorted(self.reject_reasons.items())),
        }


@dataclass(frozen=True)
class _Row:
    vehicle: int
    frame: int
    lane: int
    y: float
    v: float


def _parse_row(raw: dict, n_lanes: int) -> tuple[Optional[_Row], Optional[str]]:
    try:
        vehicle = int(raw["vehicle_id"])
        frame = int(raw["frame"])
        float(raw["local_x"])
        y = float(raw["local_y"])
        lane = int(raw["lane_id"])
        v = float(raw["velocity"])
    except (TypeError, ValueError, KeyError):
        return None, "unparseable"
    if not (math.isfinite(y) and math.isfinite(v)):
        return None, "non_finite"
    if v < 0:
        return None, "negative_speed"
    if not 0 <= lane < n_lanes:
        return None, "lane_out_of_range"
    return _Row(vehicle, frame, lane, y, v), None


def _label_action(first: _Row, second: _Row, data_cfg: DataConfig) -> int:
    if second.lane != first.lane:
        return CHANGE_LANE
    accel = (second.v - first.v) / data_cfg.frame_dt
    if accel <= data_cfg.hard_brake_threshold:
        return HARD_BRAKE
    if accel <= -data_cfg.accel_threshold:
        return DECELERATE
    if accel >= data_cfg.accel_threshold:
        return ACCELERATE
    return MAINTAIN


def _features(ego: _Row, frame_rows: Sequence[_Row], env_cfg: EnvConfig):
    """Gaps and closing speed from the vehicles sharing the ego's frame."""
    far = 10.0 * max(env_cfg.front_gap_edges[-1], env_cfg.rear_gap_edges[-1])
    front_gap = far
    front_v = None
    rear = {ego.lane - 1: far, ego.lane + 1: far}
    for other in frame_rows:
        if other.vehicle == ego.vehicle:
            continue
        if other.lane == ego.lane and other.y > ego.y:
            gap = other.y - ego.y
            if gap < front_gap:
                front_gap = gap
                front_v = other.v
        elif other.lane in rear and other.y < ego.y:
            gap = ego.y - other.y
            if gap < rear[other.lane]:
                rear[other.lane] = gap
    rel = 0.0 if front_v is None else front_v - ego.v
    rear_left = rear[ego.lane - 1] if ego.lane - 1 >= 0 else None
    rear_right = rear[ego.lane + 1] if ego.lane + 1 < env_cfg.n_lanes else None
    return front_gap, rel, rear_left, rear_right


def ingest_trajectories(
    path: str | Path,
    env_cfg: EnvConfig,
    data_cfg: Optional[DataConfig] = None,
) -> tuple[dict[str, DriverRecord], IngestSummary]:
    """Read a trajectory CSV into per-driver action count records."""
    data_cfg = data_cfg or DataConfig()
    disc = Discretizer(env_cfg)
    summary = IngestSummary()
    per_vehicle: dict[int, list[_Row]] = {}
    frames: dict[int, list[_Row]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"trajectory file missing columns: {missing}")
        for raw in reader:
            summary.rows_total += 1
            row, reason = _parse_row(raw, env_cfg.n_lanes)
            if row is None:
                summary.reject(reason)
                continue
            history = per_vehicle.setdefault(row.vehicle, [])
            if history and row.frame <= history[-1].frame:
                summary.reject("non_increasing_frame")
                continue
            history.append(row)
            frames.setdefault(row.frame, []).append(row)
            summary.rows_accepted += 1
    records: dict[str, DriverRecord] = {}
    seen_states: set[int] = set()
    for vehicle in sorted(per_vehicle):
        history = per_vehicle[vehicle]
        record = DriverRecord(driver_id=str(vehicle), action_count=N_ACTIONS)
        for first, second in zip(history, history[1:]):
            if second.frame - first.frame != 1:
                continue
            front_gap, rel, rear_left, rear_right = _features(
                first, frames[first.frame], env_cfg
            )
            state = disc.discretize(
                first.lane, front_gap, rel, rear_left, rear_right, first.v
            )
            sid = disc.state_id(state)
            record.add(sid, _label_action(first, second, data_cfg))
            seen_states.add(sid)
            summary.n_transitions += 1
        if record.counts:
            records[record.driver_id] = record
    summary.n_vehicles = len(per_vehicle)
    summary.n_states = len(seen_states)
    return records, summary


# -- synthesis ----------------------------------------------------------------


def sample_driver_actions(
    spec: DriverSpec,
    policy_provider: Callable[[int], Policy],
    state_ids: Sequence[int],
    seed: int,
) -> dict[int, list[int]]:
    """Draw samples_per_state actions in each state from the provided policy.

    Deterministic given (spec, state set, seed); each state uses an
    independent stream so state order does not matter.
    """
    if not state_ids:
        raise InputError("need at least one state to synthesize")
    actions: dict[int, list[int]] = {}
    for sid in sorted(set(int(s) for s in state_ids)):
        policy = policy_provider(sid)
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, _driver_key(spec.driver_id), sid])
        )
        draws = rng.choice(len(policy), size=spec.samples_per_state, p=policy.probs)
        actions[sid] = [int(a) for a in draws]
    return actions


def record_from_actions(driver_id: str, actions_by_state: dict[int, list[int]]) -> DriverRecord:
    record = DriverRecord(driver_id=driver_id, action_count=N_ACTIONS)
    for sid, actions in actions_by_state.items():
        for action in actions:
            record.add(sid, action)
    return record


def _check_scene_state(state: EnvState, env_cfg: EnvConfig):
    left_exists = state.lane - 1 >= 0
    right_exists = state.lane + 1 < env_cfg.n_lanes
    if left_exists != (state.rear_left_bin > 0):
        raise InputError("rear_left_bin inconsistent with lane geometry")
    if right_exists != (state.rear_right_bin > 0):
        raise InputError("rear_right_bin inconsistent with lane geometry")


def _export_accel(data_cfg: DataConfig) -> dict[int, float]:
    """The acceleration the export writes for each action that keeps the
    lane, inside the band that ``_label_action`` gives that action: hard
    brake one threshold below the hard-brake threshold, decelerate at twice
    the threshold down or midway between the two bands, whichever is higher."""
    thr, hard = data_cfg.accel_threshold, data_cfg.hard_brake_threshold
    return {
        MAINTAIN: 0.0,
        ACCELERATE: 2 * thr,
        DECELERATE: max(-2 * thr, (hard - thr) / 2),
        HARD_BRAKE: hard - thr,
    }


def _fields(lane: int, y: float, v: float) -> tuple:
    """A vehicle's row of the trajectory file after its id and frame, formatted."""
    return (
        f"{lane * LANE_WIDTH + LANE_WIDTH / 2.0:.{EXPORT_POSITION_DECIMALS}f}",
        f"{y:.{EXPORT_POSITION_DECIMALS}f}",
        lane,
        f"{v:.{EXPORT_SPEED_DECIMALS}f}",
    )


def export_trajectories(
    actions_by_state: dict[int, list[int]],
    path: str | Path,
    env_cfg: EnvConfig,
    data_cfg: Optional[DataConfig] = None,
    ego_id: int = 1,
) -> int:
    """Write a trajectory CSV realizing the given per-state action samples.

    Each action becomes one two-frame ego episode whose first frame also
    carries the context vehicles that realize the state's bins.  Returns
    the number of episodes written.  Ingesting the file reproduces the
    ego's counts exactly, state by state, under every master config that
    loads; context vehicles contribute no transitions.
    """
    data_cfg = data_cfg or DataConfig()
    accel_of = _export_accel(data_cfg)
    disc = Discretizer(env_cfg)
    anchor_y = 500.0
    episodes = 0
    frame = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for sid in sorted(actions_by_state):
            state = disc.state_from_id(sid)
            _check_scene_state(state, env_cfg)
            rep = disc.representative_features(state)
            lane, ego_v = state.lane, rep["speed"]
            # the first frame: the ego, its leader and the rear vehicles of the adjacent lanes
            front_v = max(ego_v + rep["front_rel_speed"], 0.0)
            scene = [
                (ego_id, _fields(lane, anchor_y, ego_v)),
                (ego_id + 1, _fields(lane, anchor_y + rep["front_gap"], front_v)),
            ]
            for vehicle, rear_lane, gap in (
                (ego_id + 2, lane - 1, rep["rear_left_gap"]),
                (ego_id + 3, lane + 1, rep["rear_right_gap"]),
            ):
                if gap is not None:
                    scene.append((vehicle, _fields(rear_lane, anchor_y - gap, ego_v)))
            # the ego's second frame, per action; a lane change keeps the speed
            next_y = anchor_y + ego_v * data_cfg.frame_dt
            next_lane = lane - 1 if lane - 1 >= 0 else lane + 1
            second = {
                action: _fields(lane, next_y, max(ego_v + accel * data_cfg.frame_dt, 0.0))
                for action, accel in accel_of.items()
            }
            second[CHANGE_LANE] = _fields(next_lane, next_y, ego_v)
            for action in actions_by_state[sid]:
                writer.writerows((vehicle, frame, *fields) for vehicle, fields in scene)
                writer.writerow((ego_id, frame + 1, *second[action]))
                episodes += 1
                frame += 3
    return episodes


def save_records(records: dict[str, DriverRecord], path: str | Path):
    with open(path, "w") as fh:
        json.dump(
            {driver_id: rec.to_dict() for driver_id, rec in sorted(records.items())},
            fh,
            sort_keys=True,
        )


def load_records(path: str | Path) -> dict[str, DriverRecord]:
    docs = read_json(path)
    if not isinstance(docs, dict):
        raise SchemaError(f"{path}: records must be a JSON object keyed by driver id")
    records = {key: DriverRecord.from_dict(doc) for key, doc in docs.items()}
    for key, record in records.items():
        if record.driver_id != key:
            raise SchemaError(f"{path}: record {key!r} holds driver_id {record.driver_id!r}")
    return records
