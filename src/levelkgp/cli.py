"""Command line interface.

Subcommands cover the individual stages (train-levels, build-gp,
synthesize, ingest, fit-drivers, report), best-response, and a pipeline
command that runs the stages in order inside one output directory.  In
the pipeline, stage failures surface as StageError naming the stage.
Given a fixed master config, the pipeline is deterministic: rerunning it
produces byte-identical report files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import data as data_mod
from . import fitting, game
from .config import LEVEL_INTERVAL_EDGES, MasterConfig
from .errors import InputError, LevelkgpError, StageError, file_section, read_json
from .gp import ModelCache, fit_state_gp
from .levelk import PolicySet, train_hierarchy

logger = logging.getLogger(__name__)

SUCCESS_GRID_BIN_WIDTH = 5.0
STATE_SELECTION_TAG = 1001


# -- reporting ----------------------------------------------------------------


def level_interval_index(level: float) -> int:
    """Bin index for a fitted level; the last interval includes its top edge."""
    edges = LEVEL_INTERVAL_EDGES
    if not edges[0] <= level <= edges[-1]:
        raise InputError(f"level {level} outside [{edges[0]}, {edges[-1]}]")
    for i in range(len(edges) - 1):
        if level < edges[i + 1]:
            return i
    return len(edges) - 2


def _grid_bin(percent: float) -> int:
    return min(int(percent // SUCCESS_GRID_BIN_WIDTH), 19)


def build_report(
    continuous: Sequence[fitting.DriverReport],
    discrete: Sequence[fitting.DriverReport],
) -> dict:
    """Aggregate per-driver reports into the summary document."""
    cont_by_id = {r.driver_id: r for r in continuous}
    disc_by_id = {r.driver_id: r for r in discrete}
    driver_ids = sorted(set(cont_by_id) | set(disc_by_id))

    def method_block(by_id):
        per_driver = {}
        defined = []
        for driver_id in driver_ids:
            report = by_id.get(driver_id)
            pct = report.percent_explained if report is not None else None
            per_driver[driver_id] = pct
            if pct is not None:
                defined.append(pct)
        mean = sum(defined) / len(defined) if defined else None
        return {"mean_percent": mean, "per_driver": per_driver}

    interval_counts = [0] * (len(LEVEL_INTERVAL_EDGES) - 1)
    fitted_levels = []
    for driver_id in driver_ids:
        report = cont_by_id.get(driver_id)
        if report is None:
            continue
        for result in report.results:
            if not result.success:
                continue
            interval_counts[level_interval_index(result.level)] += 1
            fitted_levels.append(
                {
                    "driver_id": driver_id,
                    "state_id": result.state_id,
                    "level": result.level,
                    "crit": result.crit,
                }
            )

    cells: dict[tuple[int, int], int] = {}
    for driver_id in driver_ids:
        cont = cont_by_id.get(driver_id)
        disc = disc_by_id.get(driver_id)
        if cont is None or disc is None:
            continue
        cp, dp = cont.percent_explained, disc.percent_explained
        if cp is None or dp is None:
            continue
        key = (_grid_bin(dp), _grid_bin(cp))
        cells[key] = cells.get(key, 0) + 1

    return {
        "n_drivers": len(driver_ids),
        "continuous": method_block(cont_by_id),
        "discrete": method_block(disc_by_id),
        "level_histogram": {
            "edges": list(LEVEL_INTERVAL_EDGES),
            "counts": interval_counts,
        },
        "success_grid": {
            "bin_width": SUCCESS_GRID_BIN_WIDTH,
            "cells": [
                {"discrete_bin": d, "continuous_bin": c, "count": n}
                for (d, c), n in sorted(cells.items())
            ],
        },
        "fitted_levels": fitted_levels,
    }


def write_report(doc: dict, out_dir: Path) -> list[Path]:
    """Write summary.json and the figure CSVs; returns the paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []

    summary_path = out_dir / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    paths.append(summary_path)

    fig2 = out_dir / "fig2_success.csv"
    with open(fig2, "w") as fh:
        fh.write("driver_id,continuous_percent,discrete_percent\n")
        cont = doc["continuous"]["per_driver"]
        disc = doc["discrete"]["per_driver"]
        for driver_id in sorted(cont):
            cp = cont[driver_id]
            dp = disc.get(driver_id)
            fh.write(
                f"{driver_id},{'' if cp is None else cp},{'' if dp is None else dp}\n"
            )
    paths.append(fig2)

    fig3 = out_dir / "fig3_grid.csv"
    width = doc["success_grid"]["bin_width"]
    with open(fig3, "w") as fh:
        fh.write(
            "discrete_bin_low,discrete_bin_high,continuous_bin_low,continuous_bin_high,count\n"
        )
        for cell in doc["success_grid"]["cells"]:
            d, c = cell["discrete_bin"], cell["continuous_bin"]
            fh.write(
                f"{d * width},{(d + 1) * width},{c * width},{(c + 1) * width},{cell['count']}\n"
            )
    paths.append(fig3)

    fig4 = out_dir / "fig4_scatter.csv"
    with open(fig4, "w") as fh:
        fh.write("driver_id,state_id,level,crit\n")
        for row in doc["fitted_levels"]:
            fh.write(f"{row['driver_id']},{row['state_id']},{row['level']},{row['crit']}\n")
    paths.append(fig4)

    fig5 = out_dir / "fig5_intervals.csv"
    edges = doc["level_histogram"]["edges"]
    counts = doc["level_histogram"]["counts"]
    total = sum(counts)
    with open(fig5, "w") as fh:
        fh.write("interval_low,interval_high,count,share\n")
        for i, count in enumerate(counts):
            share = count / total if total else 0.0
            fh.write(f"{edges[i]},{edges[i + 1]},{count},{share}\n")
    paths.append(fig5)
    return paths


# -- stages -------------------------------------------------------------------
#
# Each stage reads its inputs from the output directory, or from the paths
# its subcommand's flags name, writes its results there and returns the
# document its subcommand prints.  ``pipeline`` runs the STAGES in order, so
# the output directory is the only hand-off between them.


def _flag(args, name: str):
    """The flag ``name``, or None where the command lacks it: the path
    flags belong to the stage subcommands, ``no_train`` to ``pipeline``."""
    return getattr(args, name, None)


def _path(args, name: str, default: Path) -> Path:
    value = _flag(args, name)
    return Path(value) if value else default


def _select_states(policy_set: PolicySet, cfg: MasterConfig) -> list[int]:
    candidates = policy_set.common_states(cfg.synthesis.min_state_visits)
    if not candidates:
        raise InputError("no state was visited at every level; train longer")
    wanted = cfg.synthesis.n_states
    if len(candidates) <= wanted:
        if len(candidates) < wanted:
            logger.warning(
                "only %d states available, wanted %d", len(candidates), wanted
            )
        return candidates
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, STATE_SELECTION_TAG])
    )
    picked = rng.choice(len(candidates), size=wanted, replace=False)
    return sorted(candidates[i] for i in picked)


def _fit_models(
    cfg: MasterConfig, policy_set: PolicySet, state_ids: Sequence[int]
) -> ModelCache:
    cache = ModelCache()
    for sid in state_ids:
        cache.put(
            fit_state_gp(
                cfg.gp.levels,
                policy_set.discrete_policies(sid),
                bank_entries=cfg.bank,
                optimizer=cfg.optimizer,
                gp_config=cfg.gp,
                state_id=sid,
            )
        )
    return cache


def train_levels(cfg: MasterConfig, out_dir: Path, args) -> dict:
    """Train levels 1..K into qtables.json; ``--no-train`` loads and checks it."""
    path = _path(args, "out", out_dir / "qtables.json")
    if _flag(args, "no_train"):
        policy_set = PolicySet.load(path, cfg.env)
    else:
        policy_set = train_hierarchy(cfg.env, cfg.rl, cfg.seed)
        for level, count in policy_set.fallback_counts().items():
            logger.info(
                "level-%d table: %d states fell back to the nearest trained state",
                level,
                count,
            )
        policy_set.save(path)
    per_level = {k: len(t.q) for k, t in sorted(policy_set.tables.items())}
    return {"qtables": str(path), "states_per_level": per_level}


def build_gp(cfg: MasterConfig, out_dir: Path, args) -> dict:
    """Fit one model per selected state into models/; ``--no-train`` loads
    and checks them."""
    model_dir = _path(args, "model_dir", out_dir / "models")
    if _flag(args, "no_train"):
        cache = ModelCache.load_dir(model_dir)
    else:
        try:
            state_ids = [int(s) for s in args.states.split(",")] if _flag(args, "states") else None
        except ValueError as exc:
            raise InputError(f"could not parse --states: {exc}") from exc
        policy_set = PolicySet.load(_path(args, "qtables", out_dir / "qtables.json"), cfg.env)
        if state_ids is None:
            state_ids = _select_states(policy_set, cfg)
        cache = _fit_models(cfg, policy_set, state_ids)
        cache.save_dir(model_dir)
    return {"model_dir": str(model_dir), "n_models": len(cache)}


def synthesize(cfg: MasterConfig, out_dir: Path, args) -> dict:
    """Write one trajectory CSV per configured driver and the manifest."""
    cache = ModelCache.load_dir(_path(args, "model_dir", out_dir / "models"))
    state_ids = cache.state_ids()
    traj_dir = out_dir / "trajectories"
    traj_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"version": 1, "state_ids": state_ids, "drivers": []}
    for spec in cfg.synthesis.drivers:
        def policy_for(sid: int, level=spec.level):
            return cache.get(sid).policy_at(level)

        actions = data_mod.sample_driver_actions(spec, policy_for, state_ids, cfg.seed)
        csv_path = traj_dir / f"{spec.driver_id}.csv"
        data_mod.export_trajectories(actions, csv_path, cfg.env, cfg.data, ego_id=1)
        manifest["drivers"].append(
            {
                "driver_id": spec.driver_id,
                "level": spec.level,
                "samples_per_state": spec.samples_per_state,
                "vehicle_id": 1,
                "csv": str(csv_path.relative_to(out_dir)),
            }
        )
    path = out_dir / "synthesis_manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True)
    return {"manifest": str(path), "n_drivers": len(manifest["drivers"])}


def _ingest_manifest(
    cfg: MasterConfig, out_dir: Path
) -> tuple[dict[str, fitting.DriverRecord], data_mod.IngestSummary]:
    """The records of the drivers in synthesis_manifest.json, keyed by driver id."""
    manifest = read_json(out_dir / "synthesis_manifest.json")
    with file_section("synthesis_manifest.json drivers"):
        drivers = [
            (e["driver_id"], out_dir / e["csv"], str(e["vehicle_id"]))
            for e in manifest["drivers"]
        ]
    records: dict[str, fitting.DriverRecord] = {}
    combined = data_mod.IngestSummary()
    for driver_id, path, key in drivers:
        got, summary = data_mod.ingest_trajectories(path, cfg.env, cfg.data)
        if key not in got:
            raise InputError(f"no transitions for vehicle {key} in {path}")
        records[driver_id] = fitting.DriverRecord(
            driver_id=driver_id, action_count=got[key].action_count, counts=got[key].counts
        )
        combined.rows_total += summary.rows_total
        combined.rows_accepted += summary.rows_accepted
        combined.rows_rejected += summary.rows_rejected
        combined.n_vehicles += summary.n_vehicles
        combined.n_transitions += summary.n_transitions
        combined.n_states = max(combined.n_states, summary.n_states)
        for reason, count in summary.reject_reasons.items():
            combined.reject_reasons[reason] = (
                combined.reject_reasons.get(reason, 0) + count
            )
    return records, combined


def ingest(cfg: MasterConfig, out_dir: Path, args) -> dict:
    """Read ``--input`` into records keyed by vehicle id; without it, the
    manifest's drivers into records keyed by driver id and ingest_summary.json."""
    path = _path(args, "out", out_dir / "records.json")
    if _flag(args, "input"):
        records, summary = data_mod.ingest_trajectories(args.input, cfg.env, cfg.data)
    else:
        records, summary = _ingest_manifest(cfg, out_dir)
        with open(out_dir / "ingest_summary.json", "w") as fh:
            json.dump(summary.to_dict(), fh, sort_keys=True)
    data_mod.save_records(records, path)
    return {"records": str(path), **summary.to_dict()}


def fit_drivers(cfg: MasterConfig, out_dir: Path, args) -> dict:
    """Fit every recorded driver under the continuous and the discrete method."""
    policy_set = PolicySet.load(_path(args, "qtables", out_dir / "qtables.json"), cfg.env)
    cache = ModelCache.load_dir(_path(args, "model_dir", out_dir / "models"))
    records = data_mod.load_records(_path(args, "records", out_dir / "records.json"))
    fitter = fitting.LevelFitter(
        observation_set_builder=policy_set.discrete_policies,
        discrete_levels=cfg.gp.levels,
        bank_entries=cfg.bank,
        optimizer=cfg.optimizer,
        gp_config=cfg.gp,
        fit_cfg=cfg.fit,
        sa_cfg=cfg.sa,
        master_seed=cfg.seed,
        cache=cache,
    )
    paths = {
        "continuous": out_dir / "reports_continuous.json",
        "discrete": out_dir / "reports_discrete.json",
    }
    ordered = [records[driver_id] for driver_id in sorted(records)]
    fitting.save_reports([fitter.compare_driver(r) for r in ordered], paths["continuous"])
    fitting.save_reports([fitter.compare_driver_discrete(r) for r in ordered], paths["discrete"])
    return {method: str(path) for method, path in paths.items()}


def report(cfg: MasterConfig, out_dir: Path, args) -> dict:
    """Aggregate the fit reports into summary.json and the figure CSVs."""
    continuous = fitting.load_reports(
        _path(args, "continuous", out_dir / "reports_continuous.json")
    )
    discrete = fitting.load_reports(_path(args, "discrete", out_dir / "reports_discrete.json"))
    paths = write_report(build_report(continuous, discrete), out_dir)
    return {"files": [str(p) for p in paths]}


STAGES = (
    ("train-levels", train_levels),
    ("build-gp", build_gp),
    ("synthesize", synthesize),
    ("ingest", ingest),
    ("fit-drivers", fit_drivers),
    ("report", report),
)


# -- subcommand implementations ----------------------------------------------


def _load_master(args) -> MasterConfig:
    cfg = MasterConfig.from_json(args.config) if args.config else MasterConfig()
    overrides = {"seed": args.seed, "out_dir": args.out_dir}
    # replace() re-runs every __post_init__ check on the overridden config
    return dataclasses.replace(
        cfg, **{k: v for k, v in overrides.items() if v is not None}
    )


def _out_dir(cfg: MasterConfig) -> Path:
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_stage(args) -> int:
    cfg = _load_master(args)
    print(json.dumps(args.stage(cfg, _out_dir(cfg), args), sort_keys=True))
    return 0


def cmd_best_response(args) -> int:
    try:
        weights = [float(tok) for tok in args.coeffs.split(",")]
    except ValueError as exc:
        raise InputError(f"could not parse --coeffs: {exc}") from exc
    # the responder universe extends one level above the opponent's
    opponent = game.MixedStrategy(weights + [0.0])
    result = game.best_response_set(opponent)
    doc = {
        "opponent": weights,
        "best_response_levels": list(result.levels),
        "strategy": result.strategy.coeffs.tolist(),
        "value": result.value,
    }
    if args.check:
        brute_value, argmax = game.brute_force_best_response(
            opponent, grid_step=args.grid_step
        )
        supports_ok = all(
            set(s.support()) <= set(result.levels) for s in argmax
        )
        doc["brute_force"] = {
            "value": brute_value,
            "n_argmax": len(argmax),
            "value_matches": bool(abs(brute_value - result.value) <= 1e-12),
            "supports_within_set": bool(supports_ok),
        }
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load_master(args)
    out_dir = _out_dir(cfg)
    for name, stage in STAGES:
        logger.info("pipeline stage %s", name)
        try:
            printed = stage(cfg, out_dir, args)
        except (LevelkgpError, OSError) as exc:
            raise StageError(name, str(exc)) from exc
    print(
        json.dumps(
            {
                "stages": [name for name, _ in STAGES],
                "summary": str(out_dir / "summary.json"),
                "files": printed["files"],
            }
        )
    )
    return 0


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override config seed")
    common.add_argument(
        "--jobs", type=int, choices=[1], default=None,
        help="accepts only 1; kept for compatibility, every run is single-threaded",
    )
    common.add_argument("--out-dir", default=None, help="override output directory")
    common.add_argument("--config", default=None, help="master config JSON")
    common.add_argument(
        "-v", "--verbose", action="store_true", help="log stage progress"
    )

    parser = argparse.ArgumentParser(
        prog="levelkgp",
        description="Continuous level-k driver models over per-state GPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-levels", parents=[common],
                       help="train the discrete level hierarchy")
    p.add_argument("--out", default=None, help="q-tables output path")
    p.set_defaults(fn=cmd_stage, stage=train_levels)

    p = sub.add_parser("build-gp", parents=[common],
                       help="fit per-state models from trained policies")
    p.add_argument("--qtables", default=None)
    p.add_argument("--model-dir", default=None)
    p.add_argument("--states", default=None, help="comma-separated state ids")
    p.set_defaults(fn=cmd_stage, stage=build_gp)

    p = sub.add_parser("synthesize", parents=[common],
                       help="emit synthetic driver trajectory files")
    p.add_argument("--model-dir", default=None)
    p.set_defaults(fn=cmd_stage, stage=synthesize)

    p = sub.add_parser("ingest", parents=[common],
                       help="read a trajectory CSV into driver records")
    p.add_argument("--input", default=None,
                   help="trajectory CSV; default: the drivers in synthesis_manifest.json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_stage, stage=ingest)

    p = sub.add_parser("fit-drivers", parents=[common],
                       help="fit reasoning levels for recorded drivers")
    p.add_argument("--records", default=None)
    p.add_argument("--qtables", default=None)
    p.add_argument("--model-dir", default=None)
    p.set_defaults(fn=cmd_stage, stage=fit_drivers)

    p = sub.add_parser("best-response", parents=[common],
                       help="closed-form best response to an opponent mixture")
    p.add_argument("--coeffs", required=True,
                   help="opponent weights over levels 0..n-1, e.g. 0.2,0.5,0.3")
    p.add_argument("--check", action="store_true",
                   help="verify against a simplex grid search")
    p.add_argument("--grid-step", type=float, default=0.05)
    p.set_defaults(fn=cmd_best_response)

    p = sub.add_parser("report", parents=[common],
                       help="aggregate fit reports into summary files")
    p.add_argument("--continuous", default=None)
    p.add_argument("--discrete", default=None)
    p.set_defaults(fn=cmd_stage, stage=report)

    p = sub.add_parser("pipeline", parents=[common],
                       help="run every stage into one output directory")
    p.add_argument("--no-train", action="store_true",
                   help="reuse existing q-tables and models")
    p.set_defaults(fn=cmd_pipeline)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.fn(args)
    except (LevelkgpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
