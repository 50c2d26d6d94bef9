"""Per-layer metrics of a traced run.

``install`` wraps the public entry points each layer of levelkgp is
called through; ``layer_metrics`` turns the recorded spans and the
counters gathered from return values into the per-layer numbers.
Metrics use only public functions and attributes, so a change inside a
layer can be measured without editing the benchmark.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from levelkgp import cli, data, fitting, gp, levelk

from spans import Span, Tracer, layer_self_times, self_times, subtree_ids

LAYERS = ("levelk", "gp", "fitting", "data")
STAGE_NAMES = ("train_levels", "build_gp", "synthesize", "ingest", "fit_drivers", "report")
GRID_LEVELS = 301


@dataclass
class Counters:
    """Work counts read from the return values of wrapped calls."""

    episodes: int = 0
    policy_set: Optional[levelk.PolicySet] = None
    modeled: set = field(default_factory=set)
    jitter_max: float = 0.0
    export_paths: list = field(default_factory=list)
    ingest_rows: int = 0
    rows_rejected: int = 0
    sa_grid_misses: int = 0
    sa_grid_fits: int = 0
    reference_s: list = field(default_factory=list)
    traced_s: float = math.nan


def install(tracer: Tracer, counters: Counters) -> None:
    def on_train(span, policy_set, args, kwargs):
        rl_cfg = args[1] if len(args) > 1 else kwargs["rl_cfg"]
        counters.episodes += rl_cfg.episodes * rl_cfg.max_level
        counters.policy_set = policy_set
        counters.modeled = set()

    def on_model(span, model, args, kwargs):
        counters.modeled.add(model.state_id)
        counters.jitter_max = max(counters.jitter_max, model.jitter_used)

    def on_load(span, model, args, kwargs):
        counters.jitter_max = max(counters.jitter_max, model.jitter_used)

    def on_predict_mean(span, means, args, kwargs):
        span.size = int(means.shape[0])

    def on_export(span, episodes, args, kwargs):
        counters.export_paths.append(Path(args[1] if len(args) > 1 else kwargs["path"]))

    def on_ingest(span, result, args, kwargs):
        summary = result[1]
        counters.ingest_rows += summary.rows_total
        counters.rows_rejected += summary.rows_rejected

    tracer.wrap(cli, "train_hierarchy", "levelk.train_hierarchy", on_train)
    tracer.wrap(levelk.HighwayEnv, "step", "levelk.env_step")
    tracer.wrap(levelk.HighwayEnv, "states", "levelk.env_states")
    tracer.wrap(cli, "fit_state_gp", "gp.fit_state_gp", on_model)
    tracer.wrap(gp.StateGP, "policy_at", "gp.policy_at")
    tracer.wrap(gp.StateGP, "predict_mean", "gp.predict_mean", on_predict_mean)
    tracer.wrap(gp.StateGP, "predict", "gp.predict")
    tracer.wrap(gp.StateGP, "save", "gp.save")
    tracer.wrap(gp.StateGP, "load", "gp.load", on_load)
    tracer.wrap(fitting.LevelFitter, "fit_state", "fitting.fit_state")
    tracer.wrap(fitting.LevelFitter, "fit_state_discrete", "fitting.fit_state_discrete")
    tracer.wrap(data, "sample_driver_actions", "data.sample_driver_actions")
    tracer.wrap(data, "export_trajectories", "data.export_trajectories", on_export)
    tracer.wrap(data, "ingest_trajectories", "data.ingest_trajectories", on_ingest)
    tracer.wrap(cli, "build_report", "cli.build_report")
    tracer.wrap(cli, "write_report", "cli.write_report")


def _pct(values, q: float) -> float:
    if not values:
        raise ValueError("no samples for a percentile")
    return float(np.percentile(values, q))


def layer_metrics(tracer: Tracer, counters: Counters) -> dict[str, tuple[float, str]]:
    spans = tracer.spans
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    # spans of the benchmark's own checks, left out of every timing
    checks = frozenset(subtree_ids(spans, "bench."))

    def durations(name: str, scale: float = 1.0, size: Optional[int] = None,
                  in_checks: bool = False) -> list[float]:
        """Durations of the workload's calls, or with in_checks of the
        calls the benchmark's checks make."""
        return [
            s.duration * scale
            for s in by_name[name]
            if (s.id in checks) == in_checks and (size is None or s.size == size)
        ]

    def workload_or_checks(name: str, scale: float, size: Optional[int] = None) -> list[float]:
        """The workload's calls; where it makes none (on desk: StateGP.predict,
        StateGP.load and the grid mean), the checks' calls."""
        return durations(name, scale, size) or durations(name, scale, size, in_checks=True)

    out: dict[str, tuple[float, str]] = {}

    train = durations("levelk.train_hierarchy")
    out["levelk.train_s"] = (sum(train) / len(train), "s")
    out["levelk.episodes_per_s"] = (counters.episodes / sum(train), "1/s")
    out["levelk.env_step_us"] = (_pct(durations("levelk.env_step", 1e6), 50), "us")
    out["levelk.env_states_us"] = (_pct(durations("levelk.env_states", 1e6), 50), "us")
    tables = counters.policy_set.tables
    out["levelk.qtable_states"] = (sum(len(t.q) for t in tables.values()), "count")
    out["levelk.fallback_pairs"] = (
        sum(1 for t in tables.values() for sid in counters.modeled if sid not in t.q),
        "count",
    )

    fits = durations("gp.fit_state_gp")
    out["gp.fit_s.p50"] = (_pct(fits, 50), "s")
    out["gp.fit_s.n"] = (len(fits), "count")
    queries = durations("gp.policy_at", 1e6)
    out["gp.policy_at_us.p50"] = (_pct(queries, 50), "us")
    out["gp.policy_at_us.p99"] = (_pct(queries, 99), "us")
    out["gp.policy_at_us.n"] = (len(queries), "count")
    grids = workload_or_checks("gp.predict_mean", 1e6, size=GRID_LEVELS)
    out["gp.predict_mean_us"] = (_pct(grids, 50), "us")
    out["gp.predict_mean_us.n"] = (len(grids), "count")
    out["gp.predict_us"] = (_pct(workload_or_checks("gp.predict", 1e6), 50), "us")
    out["gp.save_load_ms"] = (
        _pct(workload_or_checks("gp.save", 1e3), 50) + _pct(workload_or_checks("gp.load", 1e3), 50),
        "ms",
    )
    out["gp.jitter_max"] = (counters.jitter_max, "1")

    sa = durations("fitting.fit_state", 1e3)
    out["fitting.fit_state_ms.p50"] = (_pct(sa, 50), "ms")
    out["fitting.fit_state_ms.p90"] = (_pct(sa, 90), "ms")
    out["fitting.fit_state_ms.n"] = (len(sa), "count")
    disc = durations("fitting.fit_state_discrete", 1e6)
    out["fitting.fit_state_discrete_us.p50"] = (_pct(disc, 50), "us")
    out["fitting.fit_state_discrete_us.n"] = (len(disc), "count")
    fit_ids = {s.id for s in by_name["fitting.fit_state"]}
    inner = sum(1 for s in by_name["gp.policy_at"] if s.parent in fit_ids)
    out["fitting.queries_per_fit"] = (inner / len(fit_ids), "count")
    out["fitting.sa_grid_misses"] = (counters.sa_grid_misses, "count")
    out["fitting.sa_grid_fits"] = (counters.sa_grid_fits, "count")

    ingest = durations("data.ingest_trajectories")
    out["data.ingest_rows_per_s"] = (counters.ingest_rows / sum(ingest), "1/s")
    export = durations("data.export_trajectories")
    exported = 0
    for path in counters.export_paths:
        with open(path) as fh:
            exported += sum(1 for _ in fh) - 1
    out["data.export_rows_per_s"] = (exported / sum(export), "1/s")
    out["data.rows_rejected"] = (counters.rows_rejected, "count")

    own = self_times(spans)
    for name in STAGE_NAMES:
        out[f"cli.stage.{name}_s"] = (sum(durations(f"cli.stage.{name}")), "s")
    roots = by_name["cli.pipeline"]
    out["cli.pipeline_s"] = (sum(s.duration for s in roots), "s")
    out["cli.self_s"] = (sum(own[s.id] for s in roots), "s")
    stage_self = sum(own[s.id] for s in spans if s.name.startswith("cli.stage."))
    out["cli.stage_self_s"] = (stage_self, "s")

    # layer self times cover the workload only, not the benchmark's checks
    per_layer = layer_self_times(spans, checks)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_layer.get(layer, 0.0), "s")

    out["trace.spans"] = (len(spans), "count")
    out["trace.overhead_pct"] = (
        100.0 * (counters.traced_s / float(np.median(counters.reference_s)) - 1.0),
        "%",
    )
    return out
