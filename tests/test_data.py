import csv

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from levelkgp.config import DataConfig, DriverSpec, EnvConfig, MasterConfig
from levelkgp.data import (
    REQUIRED_COLUMNS,
    export_trajectories,
    ingest_trajectories,
    load_records,
    record_from_actions,
    sample_driver_actions,
    save_records,
)
from levelkgp.errors import ConfigurationError, InputError, SchemaError
from levelkgp.gp import Policy
from levelkgp.levelk import (
    ACCELERATE,
    CHANGE_LANE,
    DECELERATE,
    HARD_BRAKE,
    MAINTAIN,
    Discretizer,
    EnvState,
)

ENV = EnvConfig()
DISC = Discretizer(ENV)

HEADER = ",".join(REQUIRED_COLUMNS)


def _write(tmp_path, text, name="traj.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- ingestion ------------------------------------------------------------------


def test_ingest_single_transition(tmp_path):
    # ego in the middle lane behind one leader 10 m ahead at equal speed;
    # speed drift of 0.04 m/s over one frame stays below the accel threshold
    path = _write(
        tmp_path,
        f"{HEADER}\n"
        "1,0,5.55,100.0,1,10.0\n"
        "2,0,5.55,110.0,1,10.0\n"
        "1,1,5.55,101.0,1,10.04\n",
    )
    records, summary = ingest_trajectories(path, ENV)
    assert summary.rows_total == 3
    assert summary.rows_accepted == 3
    assert summary.rows_rejected == 0
    assert summary.n_vehicles == 2
    assert summary.n_transitions == 1
    assert summary.n_states == 1
    assert list(records) == ["1"]

    expected = DISC.state_id(
        EnvState(
            lane=1,
            front_gap_bin=1,  # 10 m falls in [8, 20)
            front_rel_speed_bin=1,
            rear_left_bin=3,  # adjacent lanes empty, far gap
            rear_right_bin=3,
            speed_bin=1,  # 10 m/s of 6.25 m/s bins
        )
    )
    counts = records["1"].counts
    assert list(counts) == [expected]
    assert counts[expected].tolist() == [1, 0, 0, 0, 0]


def test_ingest_missing_column_is_schema_error(tmp_path):
    path = _write(tmp_path, "vehicle_id,frame,local_x,local_y,lane_id\n1,0,0,0,0\n")
    with pytest.raises(SchemaError):
        ingest_trajectories(path, ENV)


def test_ingest_counts_reject_reasons(tmp_path):
    path = _write(
        tmp_path,
        f"{HEADER}\n"
        "1,0,0.0,100.0,1,10.0\n"
        "2,0,0.0,100.0,1,abc\n"
        "3,0,0.0,nan,1,10.0\n"
        "4,0,0.0,100.0,1,-3.0\n"
        "5,0,0.0,100.0,7,10.0\n"
        "1,0,0.0,100.5,1,10.0\n",
    )
    records, summary = ingest_trajectories(path, ENV)
    assert summary.rows_total == 6
    assert summary.rows_accepted == 1
    assert summary.rows_rejected == 5
    assert summary.reject_reasons == {
        "unparseable": 1,
        "non_finite": 1,
        "negative_speed": 1,
        "lane_out_of_range": 1,
        "non_increasing_frame": 1,
    }
    assert records == {}


@pytest.mark.parametrize(
    "dv,lane2,expected",
    [
        (0.06, 1, ACCELERATE),  # 0.6 m/s^2
        (0.04, 1, MAINTAIN),
        (-0.06, 1, DECELERATE),
        (-0.26, 1, HARD_BRAKE),  # -2.6 m/s^2
        (0.5, 2, CHANGE_LANE),  # lane id wins over any accel
    ],
)
def test_ingest_action_labels(tmp_path, dv, lane2, expected):
    path = _write(
        tmp_path,
        f"{HEADER}\n"
        "1,0,5.55,100.0,1,10.0\n"
        f"1,1,5.55,101.0,{lane2},{10.0 + dv}\n",
    )
    records, _ = ingest_trajectories(path, ENV)
    counts = next(iter(records["1"].counts.values()))
    assert counts[expected] == 1
    assert counts.sum() == 1


def test_ingest_skips_non_adjacent_frames(tmp_path):
    path = _write(
        tmp_path,
        f"{HEADER}\n" "1,0,5.55,100.0,1,10.0\n" "1,2,5.55,102.0,1,10.0\n",
    )
    records, summary = ingest_trajectories(path, ENV)
    assert summary.n_transitions == 0
    assert records == {}


def test_ingest_summary_dict_is_consistent(tmp_path):
    path = _write(
        tmp_path,
        f"{HEADER}\n" "1,0,5.55,100.0,1,10.0\n" "1,1,5.55,101.0,1,10.0\n" "9,0,0,0,9,1\n",
    )
    _, summary = ingest_trajectories(path, ENV)
    doc = summary.to_dict()
    assert doc["rows_total"] == doc["rows_accepted"] + doc["rows_rejected"]
    assert doc["reject_reasons"] == {"lane_out_of_range": 1}


# -- synthesis ------------------------------------------------------------------


def _flat_policy(_sid):
    return Policy([0.5, 0.2, 0.15, 0.1, 0.05])


def test_sample_driver_actions_matches_policy_frequencies():
    spec = DriverSpec(driver_id="d", level=1.0, samples_per_state=2000)
    actions = sample_driver_actions(spec, _flat_policy, [3], seed=5)
    freqs = np.bincount(actions[3], minlength=5) / 2000
    assert np.max(np.abs(freqs - _flat_policy(3).probs)) <= 2.0 / np.sqrt(2000)


def test_sample_driver_actions_deterministic_and_order_free():
    spec = DriverSpec(driver_id="d", level=1.0, samples_per_state=40)
    a = sample_driver_actions(spec, _flat_policy, [3, 8, 5], seed=5)
    b = sample_driver_actions(spec, _flat_policy, [5, 3, 8], seed=5)
    assert a == b
    c = sample_driver_actions(spec, _flat_policy, [3, 8, 5], seed=6)
    assert a != c


def test_sample_driver_actions_requires_states():
    spec = DriverSpec(driver_id="d", level=1.0, samples_per_state=10)
    with pytest.raises(InputError):
        sample_driver_actions(spec, _flat_policy, [], seed=0)


def test_synthesize_driver_counts_per_state():
    spec = DriverSpec(driver_id="d", level=1.0, samples_per_state=30)
    record = record_from_actions("d", sample_driver_actions(spec, _flat_policy, [2, 11], seed=1))
    assert record.states() == [2, 11]
    for sid in record.states():
        assert record.n_visits(sid) == 30


def test_record_from_actions():
    record = record_from_actions("d", {4: [0, 0, 2], 1: [4]})
    assert record.counts[4].tolist() == [2, 0, 1, 0, 0]
    assert record.counts[1].tolist() == [0, 0, 0, 0, 1]


# -- export and round trip -----------------------------------------------------------


def _consistent_state(rng):
    lane = int(rng.integers(ENV.n_lanes))
    return EnvState(
        lane=lane,
        front_gap_bin=int(rng.integers(4)),
        front_rel_speed_bin=int(rng.integers(3)),
        rear_left_bin=0 if lane == 0 else int(rng.integers(1, 4)),
        rear_right_bin=0 if lane == ENV.n_lanes - 1 else int(rng.integers(1, 4)),
        speed_bin=int(rng.integers(ENV.speed_bin_count)),
    )


def test_export_then_ingest_reproduces_counts(tmp_path, rng):
    states = {DISC.state_id(_consistent_state(rng)) for _ in range(25)}
    actions_by_state = {
        sid: [int(a) for a in rng.integers(0, 5, size=rng.integers(1, 6))]
        for sid in states
    }
    path = tmp_path / "synthetic.csv"
    episodes = export_trajectories(actions_by_state, path, ENV)
    assert episodes == sum(len(v) for v in actions_by_state.values())

    records, summary = ingest_trajectories(path, ENV)
    assert summary.rows_rejected == 0
    assert summary.n_transitions == episodes
    assert list(records) == ["1"]  # context vehicles contribute no transitions
    ego = records["1"]
    assert ego.states() == sorted(actions_by_state)
    for sid, actions in actions_by_state.items():
        assert ego.counts[sid].tolist() == np.bincount(actions, minlength=5).tolist()


def _log_uniform(low_exp: float, high_exp: float):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0**e)


@given(
    accel_threshold=_log_uniform(-2.0, 0.7),
    decelerate_band=_log_uniform(-2.0, 1.0),
    frame_dt=_log_uniform(-2.0, 0.3),
    speed_max=_log_uniform(0.5, 2.0),
    speed_bin_count=st.integers(1, 8),
    n_lanes=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_export_then_ingest_labels_every_action_as_itself(
    tmp_path_factory, accel_threshold, decelerate_band, frame_dt, speed_max, speed_bin_count,
    n_lanes, seed,
):
    """Action totals over the file, so the labels alone are checked; that each
    scene ingests as its own state is checked at the default env above."""
    data = {
        "accel_threshold": accel_threshold,
        "hard_brake_threshold": -accel_threshold - decelerate_band,
        "frame_dt": frame_dt,
    }
    env = {"speed_max": speed_max, "speed_bin_count": speed_bin_count, "n_lanes": n_lanes}
    try:
        cfg = MasterConfig.from_dict({"env": env, "data": data})
    except ConfigurationError:
        reject()
    disc = Discretizer(cfg.env)
    rng = np.random.default_rng(seed)
    states = set()
    for _ in range(4):
        lane = int(rng.integers(n_lanes))
        states.add(disc.state_id(EnvState(
            lane=lane,
            front_gap_bin=int(rng.integers(disc.front_bins)),
            front_rel_speed_bin=int(rng.integers(3)),
            rear_left_bin=0 if lane == 0 else int(rng.integers(1, disc.rear_bins)),
            rear_right_bin=0 if lane == n_lanes - 1 else int(rng.integers(1, disc.rear_bins)),
            speed_bin=int(rng.integers(speed_bin_count)),
        )))
    actions_by_state = {sid: [int(a) for a in rng.permutation(10) % 5] for sid in states}
    path = tmp_path_factory.mktemp("labels") / "synthetic.csv"
    export_trajectories(actions_by_state, path, cfg.env, cfg.data)
    records, summary = ingest_trajectories(path, cfg.env, cfg.data)
    assert summary.rows_rejected == 0
    assert sum(records["1"].counts.values()).tolist() == [2 * len(states)] * 5


def test_export_rejects_inconsistent_scene(tmp_path):
    # middle lane always has a left neighbor lane, bin 0 claims it does not
    bad = EnvState(
        lane=1,
        front_gap_bin=0,
        front_rel_speed_bin=0,
        rear_left_bin=0,
        rear_right_bin=1,
        speed_bin=0,
    )
    with pytest.raises(InputError):
        export_trajectories({DISC.state_id(bad): [0]}, tmp_path / "x.csv", ENV)


def test_export_header_and_row_shape(tmp_path):
    sid = DISC.state_id(
        EnvState(
            lane=0,
            front_gap_bin=2,
            front_rel_speed_bin=1,
            rear_left_bin=0,
            rear_right_bin=2,
            speed_bin=1,
        )
    )
    path = tmp_path / "one.csv"
    export_trajectories({sid: [MAINTAIN]}, path, ENV)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(REQUIRED_COLUMNS)
    assert all(len(r) == len(REQUIRED_COLUMNS) for r in rows[1:])
    # ego twice, front leader once, rear-right context once
    assert sorted(r[0] for r in rows[1:]) == ["1", "1", "2", "4"]


def test_export_writes_the_default_accelerations(tmp_path):
    # the desk outputs' trajectory files hold these accelerations of the defaults
    sid = DISC.state_id(EnvState(1, 2, 1, 2, 2, 2))
    path = tmp_path / "defaults.csv"
    export_trajectories({sid: [MAINTAIN, ACCELERATE, DECELERATE, HARD_BRAKE]}, path, ENV)
    with open(path, newline="") as fh:
        speeds = [float(r[5]) for r in list(csv.reader(fh))[1:] if r[0] == "1"]
    accels = [(b - a) / DataConfig().frame_dt for a, b in zip(speeds[::2], speeds[1::2])]
    assert accels == pytest.approx([0.0, 1.0, -1.0, -3.0], abs=1e-9)


# -- persistence ------------------------------------------------------------------


# each raised a bare ValueError, AttributeError or JSONDecodeError before
BROKEN_RECORD_FILES = {
    "non-integer state id": (
        '{"a": {"driver_id": "a", "action_count": 5, "counts": {"x": [1, 0, 0, 0, 0]}}}',
        "malformed driver record: invalid literal for int",
    ),
    "list of records": ('[{"driver_id": "a"}]', "keyed by driver id"),
    "truncated": ('{"a": {"driver_id": "a", "action_co', "not valid JSON"),
}
# each loaded as a cast count before, or warned and then called 1e300 negative
BROKEN_RECORD_FILES.update({
    f"{name} count": (
        '{"a": {"driver_id": "a", "action_count": 5, "counts": {"4": [%s, 0, 0, 0, 0]}}}' % text,
        r"state 4: counts must be non-negative integers",
    )
    for name, text in [
        ("fractional", "1.5"),
        ("boolean", "true"),
        ("overflowing", "1e300"),
        ("huge negative", "-100000000000000000000000"),
    ]
})
# each loaded before: the action count cast with int(), the record under a key not its id
BROKEN_RECORD_FILES.update({
    f"{name} action_count": (
        '{"a": {"driver_id": "a", "action_count": %s, "counts": {}}}' % text,
        "action_count must be an integer",
    )
    for name, text in [("fractional", "5.7"), ("text", '"5"')]
})
BROKEN_RECORD_FILES["key not its driver_id"] = (
    '{"x": {"driver_id": "b", "action_count": 5, "counts": {}}}',
    "record 'x' holds driver_id 'b'",
)


@pytest.mark.parametrize("key", sorted(BROKEN_RECORD_FILES))
def test_load_records_names_the_malformed_section(key, tmp_path):
    text, named = BROKEN_RECORD_FILES[key]
    path = tmp_path / "records.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=named):
        load_records(path)


def test_save_load_records_round_trip(tmp_path):
    spec = DriverSpec(driver_id="a", level=0.5, samples_per_state=12)
    records = {
        "a": record_from_actions("a", sample_driver_actions(spec, _flat_policy, [1, 2], seed=0)),
        "b": record_from_actions("b", {7: [1, 1, 3]}),
    }
    path = tmp_path / "records.json"
    save_records(records, path)
    loaded = load_records(path)
    assert sorted(loaded) == ["a", "b"]
    for key, rec in records.items():
        assert loaded[key].driver_id == rec.driver_id
        assert loaded[key].states() == rec.states()
        for sid in rec.states():
            assert np.array_equal(loaded[key].counts[sid], rec.counts[sid])
