"""Tests of the benchmark's own code: seeded inputs and span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import csv
import signal
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from levelkgp import data  # noqa: E402
from levelkgp.config import MasterConfig  # noqa: E402
from levelkgp.gp import Policy  # noqa: E402
from levelkgp.levelk import Discretizer, EnvState  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_self_times, self_times, subtree_ids  # noqa: E402

CFG = MasterConfig()
# (lane, front gap bin, relative speed bin, rear-left bin, rear-right bin, speed bin)
STATES = [
    Discretizer(CFG.env).state_id(EnvState(*fields))
    for fields in ((0, 1, 1, 0, 2, 2), (1, 2, 0, 1, 3, 1), (2, 3, 2, 2, 0, 3))
]


def fake_policy(sid: int, level: float) -> Policy:
    """A smooth per-state policy family over the level, no training needed."""
    rng = np.random.default_rng(sid)
    w, b = rng.normal(size=5), rng.normal(size=5)
    z = np.exp(level * w + b)
    return Policy(z / z.sum())


def population_file(tmp_path: Path, name: str, seed: int):
    path = tmp_path / f"{name}.csv"
    pop = workloads.write_population(
        path, seed, STATES, fake_policy, CFG, n_drivers=6, samples=40
    )
    return path, pop


def test_same_seed_gives_byte_identical_packed_file(tmp_path):
    first, _ = population_file(tmp_path, "a", 11)
    second, _ = population_file(tmp_path, "b", 11)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("seed", [11, 12])
def test_population_checks_pass(tmp_path, seed):
    path, pop = population_file(tmp_path, "p", seed)
    got, summary = data.ingest_trajectories(path, CFG.env, CFG.data)
    ops = workloads.Ops()
    workloads.check_population(ops, pop, got, summary)
    assert ops.failures == []
    assert ops.attempted == len(pop.drivers) + 3
    assert summary.rows_rejected == sum(pop.injected.values()) > 0


def test_second_seed_gives_a_different_file(tmp_path):
    first, _ = population_file(tmp_path, "a", 11)
    second, _ = population_file(tmp_path, "b", 12)
    assert first.read_bytes() != second.read_bytes()


def test_packed_frames_carry_every_driver(tmp_path):
    # the busiest frame holds each driver's ego and its context vehicles
    path, pop = population_file(tmp_path, "p", 11)
    per_frame: dict[str, int] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            per_frame[row["frame"]] = per_frame.get(row["frame"], 0) + 1
    assert max(per_frame.values()) >= 3 * len(pop.drivers)


def span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent)


def test_self_times_on_a_hand_built_tree():
    spans = [
        span(0, "cli.pipeline", 0.0, 10.0),
        span(1, "gp.fit", 1.0, 4.0, 0),
        span(2, "gp.query", 2.0, 3.0, 1),
        span(3, "data.ingest", 3.0, 6.0, 0),  # overlaps its sibling by 1
        span(4, "bench.check", 8.0, 9.0, 0),
        span(5, "data.export", 9.5, 11.0, 0),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.5)
    layers = layer_self_times(spans)
    assert layers == pytest.approx({"cli": 3.5, "gp": 3.0, "data": 4.5, "bench": 1.0})
    skip = frozenset(subtree_ids(spans, "gp."))
    assert skip == {1, 2}
    assert layer_self_times(spans, skip) == pytest.approx({"cli": 3.5, "data": 4.5, "bench": 1.0})


def test_wrap_records_nested_spans_and_restores():
    class Model:
        def query(self, x):
            return x + 1

        @classmethod
        def load(cls, x):
            return cls().query(x)

    raw_query, raw_load = Model.__dict__["query"], Model.__dict__["load"]
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(Model, "query", "gp.query")
    tracer.wrap(Model, "load", "gp.load")
    assert Model.load(1) == 2
    assert [(s.name, s.parent) for s in tracer.spans] == [("gp.load", None), ("gp.query", 0)]
    assert self_times(tracer.spans) == {0: 2.0, 1: 1.0}
    tracer.unwrap_all()
    assert Model.__dict__["query"] is raw_query and Model.__dict__["load"] is raw_load


def test_speed_meter_scales_by_the_samples_around_each_stretch():
    ref = speed.REFERENCE_S
    now = [0.0]
    steps = iter([ref] * speed.KERNEL_REPEATS + [2 * ref] * speed.KERNEL_REPEATS)

    def probe():
        now[0] += next(steps)

    meter = speed.SpeedMeter(clock=lambda: now[0], probe=probe)
    meter.sample()  # full speed, busy over [0, 5 ref]
    now[0] = 10.0
    meter.sample()  # half speed, busy over [10, 10 + 10 ref]
    assert meter.factors == pytest.approx([1.0, 0.5])
    expected = (10.0 - 5 * ref) * 0.75
    assert meter.scaled(5 * ref, 10.0) == pytest.approx(expected)
    # the samples' own time inside the stretch is not counted as work
    assert meter.scaled(0.0, now[0]) == pytest.approx(expected)
    assert speed.rates([(2, [(5 * ref, 10.0, 1.0)])], meter) == pytest.approx([2 / expected])
    assert speed.rates([(2, [(0.0, 4.0, 0.5)])]) == [1.0]


def test_metrics_without_samples_are_left_out():
    # a pass whose checks failed adds no samples; its failure is counted
    # elsewhere, and the run still ends with a result
    now = [0.0]

    def probe():
        now[0] += speed.REFERENCE_S

    meter = speed.SpeedMeter(clock=lambda: now[0], probe=probe)
    meter.sample()
    ctx = types.SimpleNamespace(measure=workloads.Measure(), meter=meter)
    metrics = run.end_to_end(ctx, [(1.0, 2.0)])
    assert set(metrics) == {"setup_s", "peak_rss_mb"}
    assert metrics["setup_s"] == (pytest.approx(1.0), "s")
    assert run.science(ctx) == {}


def test_speed_meter_samples_from_a_timer_and_restores_it():
    previous = signal.getsignal(signal.SIGALRM)
    meter = speed.SpeedMeter(probe=lambda: None)
    with meter.periodic(0.05):
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
    assert len(meter.times) >= 4
    assert meter.times == sorted(meter.times)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
