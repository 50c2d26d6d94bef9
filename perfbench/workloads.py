"""The benchmark's workloads, their seeded inputs and their output checks.

Every workload runs the chain of levelkgp (train the level hierarchy,
fit per-state models, synthesize drivers, ingest their trajectories,
fit their levels, report) through its public API, in one process with
one job.  The workloads differ in where the work sits:

- ``desk``: the ``levelkgp pipeline`` command on ``configs/desk.json``,
  as a user runs it.  Training dominates, then model fitting.
- ``state_models``: set-up trains the hierarchy; the timed passes fit,
  save, reload and grid-query models for 16 common states.  A small
  driver phase afterwards gives the driver metrics.
- ``population``: set-up trains, fits models for 6 states and writes
  one packed trajectory file for 40 drivers, each seen in 2 of the
  states, with injected malformed rows; the timed passes ingest it and
  fit every driver under both methods.

The inputs of a workload depend only on ``--seed`` and ``--seconds``.
"""

from __future__ import annotations

import contextlib
import csv
import heapq
import io
import itertools
import json
import logging
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from levelkgp import cli, data, fitting
from levelkgp.config import DriverSpec, MasterConfig
from levelkgp.gp import ModelCache, Policy, StateGP
from levelkgp.levelk import PolicySet

from layers import Counters, install
from spans import Tracer
from speed import SpeedMeter

clock = time.perf_counter

CONFIG = Path("configs") / "desk.json"
PIPELINE_STAGES = ["train-levels", "build-gp", "synthesize", "ingest", "fit-drivers", "report"]
REPORT_FILES = (
    "summary.json",
    "reports_continuous.json",
    "reports_discrete.json",
    "records.json",
    "ingest_summary.json",
    "synthesis_manifest.json",
)
FIGURE_FILES = ("fig2_success.csv", "fig3_grid.csv", "fig4_scatter.csv", "fig5_intervals.csv")
GRID = np.round(np.arange(0.0, 3.0 + 0.005, 0.01), 2)  # the acceptance-3 level grid

# acceptance-2 and acceptance-3 bounds
INTERPOLATION_TOL = 1e-3
GRID_SUM_TOL = 1e-6

# the pass count is --seconds over this nominal pass length, so two commits
# measured with the same settings repeat the same passes
NOMINAL_PASS_S = 10.0

MODEL_STATES = 16
MODEL_DRIVERS = 4
MODEL_DRIVER_STATES = 5
MODEL_DRIVER_SAMPLES = 60
MODEL_DRIVER_REPEATS = 3
POPULATION_STATES = 6
POPULATION_DRIVERS = 40
POPULATION_STATES_PER_DRIVER = 2
POPULATION_SAMPLES = 120
# each driver's episodes sit this far from the next driver's along local_y,
# beyond every gap bin, so packing leaves each ego's state unchanged
PACK_SPACING_M = 1000.0
JUNK_VEHICLE = 1_000_000
REJECT_REASONS = (
    "unparseable",
    "non_finite",
    "negative_speed",
    "lane_out_of_range",
    "non_increasing_frame",
)
STATE_PICK_TAG = 1002
INJECT_TAG = 1003
PASS_SEED_TAG = 1004
DRIVER_TAG = 1005


# -- bookkeeping ---------------------------------------------------------------


class Ops:
    """Operations attempted and the ones whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def parse(self, what: str, fn: Callable, *args):
        """Run a parser as one operation; a raise counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any parse error is a failed output check
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None


@dataclass
class Measure:
    """Clock intervals the end-to-end metrics are computed from.

    A rate sample is (count, [(start, end, weight), ...]): count items
    took the weighted sum of the intervals' seconds.  Seconds are scaled
    by the speed meter when the run ends.
    """

    setup: list = field(default_factory=list)  # (start, end)
    passes: list = field(default_factory=list)  # (start, end) of each timed pass
    model_samples: list = field(default_factory=list)
    driver_samples: list = field(default_factory=list)
    level_errors: list = field(default_factory=list)
    explained: list = field(default_factory=list)


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    passes: int
    cfg: MasterConfig
    tracer: Optional[Tracer] = None
    meter: Optional[SpeedMeter] = None
    progress: Optional["ProgressLog"] = None
    counters: Counters = field(default_factory=Counters)
    ops: Ops = field(default_factory=Ops)
    measure: Measure = field(default_factory=Measure)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def stage(self, name: str):
        return self.span(f"cli.stage.{name}")

    def tick(self) -> float:
        """Take a speed sample if one is due, then read the clock."""
        if self.meter is not None:
            self.meter.tick()
        return clock()

    def tock(self) -> float:
        """Read the clock, then take a speed sample if one is due."""
        now = clock()
        if self.meter is not None:
            self.meter.tick()
        return now

    def untraced(self, fn: Callable[[], float]) -> None:
        """Run fn with tracing off; it returns the seconds of the work that
        the traced run repeats, a baseline of the tracing overhead."""
        tracer = self.tracer
        with tracer.span("bench.reference"):
            tracer.unwrap_all()
            self.tracer = None
            try:
                self.counters.reference_s.append(fn())
            finally:
                self.tracer = tracer
                install(tracer, self.counters)


def timed(fn: Callable, *args) -> float:
    begin = clock()
    fn(*args)
    return clock() - begin


def pass_count(seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S))


def pass_seed(seed: int, index: int) -> int:
    """Pipeline seed of desk pass ``index``: the workload seed first, then
    seeds derived from it, so a run averages over several state picks."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, PASS_SEED_TAG, index]).generate_state(1)[0] >> 1)


def pick_states(common: Sequence[int], n: int, seed: int, index: int) -> list[int]:
    rng = np.random.default_rng([seed, STATE_PICK_TAG, index])
    picked = rng.choice(len(common), size=min(n, len(common)), replace=False)
    return sorted(int(common[i]) for i in picked)


def make_fitter(ctx: Context, policy_set: PolicySet, cache: ModelCache) -> fitting.LevelFitter:
    cfg = ctx.cfg
    return fitting.LevelFitter(
        observation_set_builder=policy_set.discrete_policies,
        discrete_levels=cfg.gp.levels,
        bank_entries=cfg.bank,
        optimizer=cfg.optimizer,
        gp_config=cfg.gp,
        fit_cfg=cfg.fit,
        sa_cfg=cfg.sa,
        master_seed=ctx.seed,
        cache=cache,
    )


# -- checks shared by the workloads -------------------------------------------------


def check_interpolation(ops: Ops, model: StateGP, means=None) -> None:
    """The model reproduces its training policies (acceptance 2).  means
    are its posterior means at the training levels, if already computed."""
    if means is None:
        means = [model.predict(float(level)).mean for level in model.levels]
    worst = 0.0
    for level, policy, mean in zip(model.levels, model.policies, means):
        worst = max(
            worst,
            float(np.max(np.abs(model.policy_at(float(level)).probs - policy))),
            float(np.max(np.abs(mean - policy))),
        )
    ops.check(worst <= INTERPOLATION_TOL, f"state {model.state_id}: training policy error {worst:.2e}")


def check_records(ops: Ops, expected: fitting.DriverRecord, got: Optional[fitting.DriverRecord]) -> None:
    ok = (
        got is not None
        and sorted(got.counts) == sorted(expected.counts)
        and all(np.array_equal(got.counts[s], expected.counts[s]) for s in expected.counts)
    )
    ops.check(ok, f"{expected.driver_id}: ingested counts differ from synthesized counts")


def sa_grid_compare(ctx: Context, reports, records, models) -> None:
    """Count continuous fits whose SA crit is below the 0.01 grid's crit."""
    fit_cfg = ctx.cfg.fit
    with ctx.span("bench.sa_grid"):
        for report in reports:
            record = records[report.driver_id]
            for result in report.results:
                counts = record.counts[result.state_id]
                observed = fitting.empirical_policy(counts, fit_cfg.probability_floor)
                _, grid_crit = fitting.grid_fit(
                    models[result.state_id], observed, result.n_obs, fit_cfg
                )
                ctx.counters.sa_grid_fits += 1
                if result.crit < grid_crit:
                    ctx.counters.sa_grid_misses += 1


def record_science(ctx: Context, continuous, planted: dict[str, float]) -> None:
    for report in continuous:
        ctx.measure.level_errors += [abs(r.level - planted[report.driver_id]) for r in report.results]
        if report.percent_explained is not None:
            ctx.measure.explained.append(report.percent_explained)


def fit_and_report(ctx: Context, fitter, records: dict[str, fitting.DriverRecord],
                   out_dir: Path, ingest: tuple[float, float]):
    """Fit every driver under both methods and write the report.

    Each driver is one rate sample: its two fits plus an equal share of
    the ingest and the report, so one slow moment moves one sample only.
    """
    units = []
    with ctx.stage("fit_drivers"):
        continuous, discrete = [], []
        for driver_id in sorted(records):
            begin = ctx.tick()
            continuous.append(fitter.compare_driver(records[driver_id]))
            discrete.append(fitter.compare_driver_discrete(records[driver_id]))
            units.append((begin, ctx.tock()))
    begin = ctx.tick()
    with ctx.stage("report"):
        doc = cli.build_report(continuous, discrete)
        cli.write_report(doc, out_dir)
    report = (begin, ctx.tock())
    share = 1.0 / len(units)
    ctx.measure.driver_samples += [
        (1, [(lo, hi, 1.0), (*ingest, share), (*report, share)]) for lo, hi in units
    ]
    return continuous, discrete


# -- desk ------------------------------------------------------------------------------


class ProgressLog(logging.Handler):
    """Reads the progress records levelkgp logs at INFO.

    A 'pipeline stage <name>' record marks the start of a stage of the
    pipeline command and, in a traced run, opens its span under the
    pipeline span.  Stage starts and each 'training level' record are
    also points where the speed meter may take a sample, so long stages
    get samples inside them.  Warnings go on to standard error.
    """

    STAGE = "pipeline stage %s"
    TRAINING = "training level"

    def __init__(self, ctx: "Context"):
        super().__init__(logging.INFO)
        self.ctx = ctx
        self.marks: list[tuple[str, float]] = []
        self._open = None
        self._stderr = logging.StreamHandler(sys.stderr)

    def emit(self, record: logging.LogRecord) -> None:
        if record.levelno >= logging.WARNING:
            self._stderr.handle(record)
        elif record.msg == self.STAGE:
            self._close()
            name = record.args[0]
            self.marks.append((name, clock()))
            self.ctx.tick()
            if self.ctx.tracer:
                self._open = self.ctx.tracer.open("cli.stage." + name.replace("-", "_"))
        elif str(record.msg).startswith(self.TRAINING):
            self.ctx.tick()

    def _close(self) -> None:
        if self._open is not None:
            self.ctx.tracer.close(self._open)
            self._open = None

    def begin(self) -> None:
        self.marks = []

    def finish(self) -> dict[str, tuple[float, float]]:
        """Each stage's (start, end) on the clock since ``begin``."""
        self._close()
        self.marks.append(("end", clock()))
        return {
            name: (start, self.marks[i + 1][1])
            for i, (name, start) in enumerate(self.marks[:-1])
        }

    @contextlib.contextmanager
    def attached(self):
        logger = logging.getLogger("levelkgp")
        saved = logger.level, logger.propagate
        logger.setLevel(logging.INFO)
        logger.propagate = False
        logger.addHandler(self)
        try:
            yield self
        finally:
            logger.removeHandler(self)
            logger.setLevel(saved[0])
            logger.propagate = saved[1]


def run_pipeline(ctx: Context, seed: int, out_dir: Path):
    """One ``levelkgp pipeline`` run.

    Returns the exit code (the exception, if the command raised), its
    standard output, its (start, end) and each stage's (start, end) on
    the clock.
    """
    argv = ["pipeline", "--config", str(ctx.root / CONFIG), "--seed", str(seed),
            "--out-dir", str(out_dir), "--jobs", "1"]
    tracer = ctx.tracer
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        root = tracer.open("cli.pipeline") if tracer else None
        start = ctx.tick()
        ctx.progress.begin()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a raise is a failed operation, not a crash
            code = f"{type(exc).__name__}: {exc}"
        finally:
            stages = ctx.progress.finish()
            end = ctx.tock()
            if root is not None:
                tracer.close(root)
    return code, printed.getvalue(), (start, end), stages


def check_desk(ctx: Context, out_dir: Path, code: "int | str", printed: str):
    ops = ctx.ops
    if not ops.check(code == 0, f"pipeline exit code {code}"):
        return None
    lines = printed.strip().splitlines()
    doc = ops.parse("pipeline stdout", json.loads, lines[-1] if lines else "")
    ops.check(doc is not None and doc.get("stages") == PIPELINE_STAGES, "pipeline stages")
    docs = {}
    for name in REPORT_FILES:
        docs[name] = ops.parse(name, lambda p: json.loads(p.read_text()), out_dir / name)
    for name in FIGURE_FILES:
        ops.parse(name, _parse_figure, out_dir / name)
    ops.parse("qtables.json", PolicySet.load, out_dir / "qtables.json", ctx.cfg.env)
    continuous = ops.parse("continuous reports", fitting.load_reports, out_dir / "reports_continuous.json")
    records = ops.parse("records", data.load_records, out_dir / "records.json")
    models = {}
    for path in sorted((out_dir / "models").glob("state_*.json")):
        model = ops.parse(path.name, StateGP.load, path)
        if model is not None:
            check_interpolation(ops, model)
            models[model.state_id] = model
    summary, manifest = docs["summary.json"], docs["synthesis_manifest.json"]
    if summary is None or manifest is None or continuous is None:
        return None
    cont = summary["continuous"]["mean_percent"]
    disc = summary["discrete"]["mean_percent"]
    ops.check(cont is not None and disc is not None and cont >= disc,
              f"continuous mean {cont} below discrete mean {disc}")
    planted = {d["driver_id"]: d["level"] for d in manifest["drivers"]}
    return continuous, records, models, planted, len(models), len(planted)


def _parse_figure(path: Path) -> int:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged or empty table")
    return len(rows) - 1


def desk(ctx: Context) -> None:
    def one(name: str, seed: int = ctx.seed):
        out_dir = ctx.work / f"desk-{name}"
        code, printed, span, stages = run_pipeline(ctx, seed, out_dir)
        with ctx.span("bench.check"):
            checked = check_desk(ctx, out_dir, code, printed)
        return span, stages, checked

    def wall(run) -> float:
        lo, hi = run[0]
        return hi - lo

    if ctx.tracer:
        # the same pipeline untraced, traced, and untraced again
        ctx.untraced(lambda: wall(one("reference-0")))
        runs = [one("0")]
        ctx.counters.traced_s = wall(runs[0])
        ctx.untraced(lambda: wall(one("reference-1")))
    else:
        runs = [one(str(i), pass_seed(ctx.seed, i)) for i in range(ctx.passes)]
    m = ctx.measure
    for span, stages, checked in runs:
        if checked is None:
            continue
        continuous, records, models, planted, n_models, n_drivers = checked
        if ctx.tracer:
            sa_grid_compare(ctx, continuous, records, models)
        record_science(ctx, continuous, planted)
        m.passes.append(span)
        m.model_samples.append((n_models, [(*stages["build-gp"], 1.0)]))
        m.driver_samples.append(
            (n_drivers, [(*stages["ingest"], 1.0), (*stages["fit-drivers"], 1.0)])
        )


# -- state_models ------------------------------------------------------------------------


def fit_models(ctx: Context, policy_set: PolicySet, state_ids, model_dir: Path):
    """Fit, save and reload one model per state, then query the reloaded
    one on the level grid and at its training levels (the acceptance-2
    queries); each model is one sample of the model rate."""
    cfg = ctx.cfg
    model_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for sid in state_ids:
        begin = ctx.tick()
        model = cli.fit_state_gp(
            cfg.gp.levels,
            policy_set.discrete_policies(sid),
            bank_entries=cfg.bank,
            optimizer=cfg.optimizer,
            gp_config=cfg.gp,
            state_id=sid,
        )
        path = model_dir / f"state_{sid}.json"
        model.save(path)
        loaded = StateGP.load(path)
        means = [loaded.predict(float(level)).mean for level in loaded.levels]
        out.append((model, loaded, loaded.predict_mean(GRID), means))
        ctx.measure.model_samples.append((1, [(begin, ctx.tock(), 1.0)]))
    return out


def check_models(ctx: Context, fitted) -> None:
    ops = ctx.ops
    with ctx.span("bench.check"):
        for model, loaded, grid, means in fitted:
            check_interpolation(ops, loaded, means)
            worst = float(np.max(np.abs(grid.sum(axis=1) - 1.0)))
            ops.check(worst <= GRID_SUM_TOL, f"state {model.state_id}: grid sum error {worst:.2e}")
            ops.check(
                np.array_equal(model.predict_mean(GRID), grid),
                f"state {model.state_id}: reloaded predict_mean differs",
            )


def driver_phase(ctx: Context, policy_set: PolicySet, cache: ModelCache, state_ids) -> None:
    """Synthesize a few planted drivers on modeled states, then take them
    from trajectory files to both reports, repeated on the same files."""
    cfg = ctx.cfg
    out_dir = ctx.work / "drivers"
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([ctx.seed, DRIVER_TAG])
    specs = [
        DriverSpec(f"planted-{i}", round(float(level), 2), MODEL_DRIVER_SAMPLES)
        for i, level in enumerate(rng.uniform(0.0, 3.0, MODEL_DRIVERS))
    ]
    expected = {}
    with ctx.stage("synthesize"):
        for spec in specs:
            actions = data.sample_driver_actions(
                spec, lambda sid, level=spec.level: cache.get(sid).policy_at(level), state_ids, ctx.seed
            )
            data.export_trajectories(actions, out_dir / f"{spec.driver_id}.csv", cfg.env, cfg.data, ego_id=1)
            expected[spec.driver_id] = data.record_from_actions(spec.driver_id, actions)
    fitter = make_fitter(ctx, policy_set, cache)
    for repeat in range(1 if ctx.tracer else MODEL_DRIVER_REPEATS):
        start = ctx.tick()
        records = {}
        with ctx.stage("ingest"):
            for spec in specs:
                got, _ = data.ingest_trajectories(out_dir / f"{spec.driver_id}.csv", cfg.env, cfg.data)
                rec = got.get("1")
                if rec is not None:
                    records[spec.driver_id] = fitting.DriverRecord(spec.driver_id, rec.action_count, rec.counts)
        continuous, _ = fit_and_report(ctx, fitter, records, out_dir / f"report-{repeat}", (start, ctx.tock()))
        with ctx.span("bench.check"):
            for spec in specs:
                check_records(ctx.ops, expected[spec.driver_id], records.get(spec.driver_id))
        if repeat == 0:
            record_science(ctx, continuous, {s.driver_id: s.level for s in specs})
    if ctx.tracer:
        sa_grid_compare(ctx, continuous, records, {sid: cache.get(sid) for sid in state_ids})


def state_models(ctx: Context) -> None:
    cfg, m = ctx.cfg, ctx.measure
    start = ctx.tick()
    with ctx.stage("train_levels"):
        policy_set = cli.train_hierarchy(cfg.env, cfg.rl, ctx.seed)
    common = policy_set.common_states(cfg.synthesis.min_state_visits)
    state_ids = pick_states(common, MODEL_STATES, ctx.seed, 0)
    m.setup.append((start, ctx.tock()))

    if ctx.tracer:
        ctx.untraced(lambda: timed(fit_models, ctx, policy_set, state_ids, ctx.work / "reference-0"))
    for index in range(1 if ctx.tracer else ctx.passes):
        with ctx.stage("build_gp"):
            begin = clock()
            fitted = fit_models(ctx, policy_set, state_ids, ctx.work / f"models-{index}")
            end = clock()
        ctx.counters.traced_s = end - begin
        m.passes.append((begin, end))
        check_models(ctx, fitted)
    if ctx.tracer:
        ctx.untraced(lambda: timed(fit_models, ctx, policy_set, state_ids, ctx.work / "reference-1"))

    cache = ModelCache()
    for _, loaded, _, _ in fitted:
        cache.put(loaded)
    driver_phase(ctx, policy_set, cache, state_ids[:MODEL_DRIVER_STATES])


# -- population ------------------------------------------------------------------------------


@dataclass
class Population:
    drivers: list  # (DriverSpec, ego vehicle id, expected DriverRecord)
    injected: dict[str, int]
    data_rows: int


def _bad_rows(rng: np.random.Generator, n_lanes: int, last_frame: int):
    """Malformed rows by reject reason, and the rows that must follow the data."""
    counts = {reason: int(rng.integers(3, 13)) for reason in REJECT_REASONS}
    far = f"{-1e6:.3f}"
    inline = []
    k = 0
    for _ in range(counts["unparseable"]):
        inline.append(["bad", "0", "1.850", far, "0", "10.0000"])
    for reason, lane, y, v in (
        ("non_finite", "0", "nan", "10.0000"),
        ("negative_speed", "0", far, "-1.0000"),
        ("lane_out_of_range", str(n_lanes + 1), far, "10.0000"),
    ):
        for _ in range(counts[reason]):
            k += 1
            inline.append([str(JUNK_VEHICLE + k), "0", "1.850", y, lane, v])
    # one accepted row far past the data, then rows that go back in time
    top = last_frame + 1000
    trailing = [[str(2 * JUNK_VEHICLE), str(top), "1.850", far, "0", "10.0000"]]
    for j in range(counts["non_increasing_frame"]):
        trailing.append([str(2 * JUNK_VEHICLE), str(top - 1 - j), "1.850", far, "0", "10.0000"])
    return counts, inline, trailing


def _part_rows(path: Path, index: int):
    """The rows of one exported part as (frame, index, seq, row), each row
    moved index * PACK_SPACING_M along local_y; parts are ordered by frame."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        last = None
        for seq, row in enumerate(reader):
            frame = int(row[1])
            if last is not None and frame < last:
                raise ValueError(f"{path.name}: frame {frame} after {last}")
            last = frame
            row[3] = f"{float(row[3]) + index * PACK_SPACING_M:.3f}"
            yield frame, index, seq, row


def write_population(
    path: Path,
    seed: int,
    state_ids: Sequence[int],
    policy_at: Callable[[int, float], Policy],
    cfg: MasterConfig,
    n_drivers: int = POPULATION_DRIVERS,
    samples: int = POPULATION_SAMPLES,
) -> Population:
    """Synthesize drivers with levels spread over [0, 3], each seen in a few
    of the states, export each, and pack their episodes side by side into
    one file with malformed rows.

    The parts are merged as they are read, ordered by frame, then driver,
    then row, so no more than one row per part is held in memory.
    """
    parts_dir = path.parent / (path.stem + "-parts")
    parts_dir.mkdir(parents=True, exist_ok=True)
    state_sets = list(itertools.combinations(sorted(state_ids), POPULATION_STATES_PER_DRIVER))
    drivers = []
    parts = []
    for i in range(n_drivers):
        level = round(3.0 * i / max(n_drivers - 1, 1), 3)
        spec = DriverSpec(f"pop-{i:02d}", level, samples)
        actions = data.sample_driver_actions(
            spec, lambda sid, level=level: policy_at(sid, level), state_sets[i % len(state_sets)], seed
        )
        ego = 1 + 4 * i  # the export uses ego .. ego+3
        part = parts_dir / f"{spec.driver_id}.csv"
        data.export_trajectories(actions, part, cfg.env, cfg.data, ego_id=ego)
        drivers.append((spec, ego, data.record_from_actions(spec.driver_id, actions)))
        parts.append(part)
    data_rows, last_frame = 0, 0
    for i, part in enumerate(parts):
        for frame, *_ in _part_rows(part, i):
            data_rows += 1
            last_frame = max(last_frame, frame)

    rng = np.random.default_rng([seed, INJECT_TAG])
    injected, inline, trailing = _bad_rows(rng, cfg.env.n_lanes, last_frame)
    positions = np.sort(rng.integers(0, data_rows + 1, size=len(inline)))
    order = rng.permutation(len(inline))
    merged = heapq.merge(*(_part_rows(part, i) for i, part in enumerate(parts)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.REQUIRED_COLUMNS)
        j = 0
        for at, (*_, row) in enumerate(merged):
            while j < len(inline) and positions[j] == at:
                writer.writerow(inline[order[j]])
                j += 1
            writer.writerow(row)
        for k in range(j, len(inline)):
            writer.writerow(inline[order[k]])
        writer.writerows(trailing)
    return Population(drivers=drivers, injected=injected, data_rows=data_rows)


def check_population(ops: Ops, population: Population, records, summary) -> None:
    """Ingested counts equal the synthesized ones, and the rejects by
    reason equal the injected malformed rows."""
    egos = {str(ego) for _, ego, _ in population.drivers}
    ops.check(set(records) == egos, "vehicles with transitions differ from the drivers")
    for spec, ego, expected in population.drivers:
        check_records(ops, expected, records.get(str(ego)))
    ops.check(
        summary.reject_reasons == population.injected,
        f"rejects {summary.reject_reasons} differ from injected {population.injected}",
    )
    ops.check(
        summary.rows_accepted == population.data_rows + 1,
        f"accepted {summary.rows_accepted} rows, wrote {population.data_rows} + 1",
    )


def population(ctx: Context) -> None:
    cfg, m = ctx.cfg, ctx.measure
    start = ctx.tick()
    with ctx.stage("train_levels"):
        policy_set = cli.train_hierarchy(cfg.env, cfg.rl, ctx.seed)
    common = policy_set.common_states(cfg.synthesis.min_state_visits)
    state_ids = pick_states(common, POPULATION_STATES, ctx.seed, 0)
    with ctx.stage("build_gp"):
        fitted = fit_models(ctx, policy_set, state_ids, ctx.work / "models")
    with ctx.span("bench.check"):
        for _, loaded, _, means in fitted:
            check_interpolation(ctx.ops, loaded, means)
    cache = ModelCache()
    for _, loaded, _, _ in fitted:
        cache.put(loaded)
    packed = ctx.work / "population.csv"
    with ctx.stage("synthesize"):
        pop = write_population(
            packed, ctx.seed, state_ids, lambda sid, level: cache.get(sid).policy_at(level), cfg
        )
    fitter = make_fitter(ctx, policy_set, cache)
    m.setup.append((start, ctx.tock()))

    names = {str(ego): spec.driver_id for spec, ego, _ in pop.drivers}
    planted = {spec.driver_id: spec.level for spec, _, _ in pop.drivers}

    def one_pass(out_dir: Path):
        begin = ctx.tick()
        with ctx.stage("ingest"):
            got, summary = data.ingest_trajectories(packed, cfg.env, cfg.data)
            records = {
                names[v]: fitting.DriverRecord(names[v], rec.action_count, rec.counts)
                for v, rec in got.items()
                if v in names
            }
        continuous, _ = fit_and_report(ctx, fitter, records, out_dir, (begin, ctx.tock()))
        return got, summary, records, continuous

    if ctx.tracer:
        ctx.untraced(lambda: timed(one_pass, ctx.work / "reference-0"))
    for index in range(1 if ctx.tracer else ctx.passes):
        begin = clock()
        got, summary, records, continuous = one_pass(ctx.work / f"report-{index}")
        end = clock()
        ctx.counters.traced_s = end - begin
        m.passes.append((begin, end))
        with ctx.span("bench.check"):
            check_population(ctx.ops, pop, got, summary)
            ctx.ops.parse("summary.json", lambda p: json.loads(p.read_text()),
                          ctx.work / f"report-{index}" / "summary.json")
        if index == 0:
            record_science(ctx, continuous, planted)
    if ctx.tracer:
        ctx.untraced(lambda: timed(one_pass, ctx.work / "reference-1"))
        sa_grid_compare(ctx, continuous, records, {sid: cache.get(sid) for sid in state_ids})


WORKLOADS = {"desk": desk, "state_models": state_models, "population": population}


def run(name: str, root: Path, work: Path, seed: int, seconds: float, traced: bool,
        meter: SpeedMeter) -> Context:
    ctx = Context(
        root=root,
        work=work,
        seed=seed,
        passes=pass_count(seconds),
        cfg=MasterConfig.from_json(root / CONFIG),
        tracer=Tracer() if traced else None,
        meter=None if traced else meter,
    )
    ctx.progress = ProgressLog(ctx)
    with ctx.progress.attached():
        if not traced:
            WORKLOADS[name](ctx)
            return ctx
        install(ctx.tracer, ctx.counters)
        try:
            if name == "desk":  # the pipeline opens its own root span
                desk(ctx)
            else:
                with ctx.tracer.span("cli.pipeline"):
                    WORKLOADS[name](ctx)
        finally:
            ctx.tracer.unwrap_all()
    return ctx
