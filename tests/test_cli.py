import dataclasses
import json
import logging
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from levelkgp import cli
from levelkgp.cli import (
    LEVEL_INTERVAL_EDGES,
    _grid_bin,
    build_report,
    level_interval_index,
    main,
    write_report,
)
from levelkgp.config import MasterConfig
from levelkgp.data import export_trajectories
from levelkgp.errors import ConfigurationError, InputError
from levelkgp.fitting import DriverReport, FitResult
from levelkgp.gp import ModelCache
from levelkgp.levelk import N_ACTIONS, Discretizer, EnvState, PolicySet, QTable

DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.json"


def _result(state_id, level, success, crit=0.5):
    return FitResult(
        state_id=state_id,
        n_obs=50,
        level=level,
        crit=crit,
        success=success,
        method="sa",
    )


def _report(driver_id, method, results):
    rep = DriverReport(
        driver_id=driver_id, method=method, n_states_observed=len(results)
    )
    rep.results = list(results)
    return rep


# -- binning -------------------------------------------------------------------


def test_level_interval_index_edges():
    assert level_interval_index(0.0) == 0
    assert level_interval_index(0.29) == 0
    assert level_interval_index(0.3) == 1
    assert level_interval_index(1.0) == 4
    assert level_interval_index(2.7) == 13
    assert level_interval_index(3.0) == 13  # top edge is inclusive
    with pytest.raises(InputError):
        level_interval_index(-0.01)
    with pytest.raises(InputError):
        level_interval_index(3.01)


def test_grid_bin_caps_at_last_cell():
    assert _grid_bin(0.0) == 0
    assert _grid_bin(4.9) == 0
    assert _grid_bin(5.0) == 1
    assert _grid_bin(99.9) == 19
    assert _grid_bin(100.0) == 19


# -- report assembly -------------------------------------------------------------


@pytest.fixture
def reports():
    continuous = [
        _report(
            "a",
            "continuous",
            [
                _result(0, 0.4, True),
                _result(1, 1.0, True),
                _result(2, 2.0, False),
            ],
        ),
        _report("b", "continuous", [_result(0, 2.9, True)]),
        _report("c", "continuous", []),  # no eligible states
    ]
    discrete = [
        _report("a", "discrete", [_result(0, 1.0, False)]),
        _report("b", "discrete", [_result(0, 3.0, True)]),
    ]
    return continuous, discrete


def test_build_report_aggregates(reports):
    doc = build_report(*reports)
    assert doc["n_drivers"] == 3
    per = doc["continuous"]["per_driver"]
    assert per["a"] == pytest.approx(200 / 3)
    assert per["b"] == 100.0
    assert per["c"] is None
    assert doc["continuous"]["mean_percent"] == pytest.approx((200 / 3 + 100) / 2)
    assert doc["discrete"]["per_driver"] == {"a": 0.0, "b": 100.0, "c": None}
    assert doc["discrete"]["mean_percent"] == 50.0


def test_build_report_histogram_counts_successes(reports):
    doc = build_report(*reports)
    counts = doc["level_histogram"]["counts"]
    assert sum(counts) == 3  # one per successful continuous fit
    assert counts[1] == 1  # level 0.4
    assert counts[4] == 1  # level 1.0
    assert counts[13] == 1  # level 2.9
    assert doc["level_histogram"]["edges"] == list(LEVEL_INTERVAL_EDGES)
    assert len(doc["fitted_levels"]) == 3
    assert all(set(r) == {"driver_id", "state_id", "level", "crit"} for r in doc["fitted_levels"])


def test_build_report_grid_needs_both_methods(reports):
    doc = build_report(*reports)
    cells = doc["success_grid"]["cells"]
    # driver c lacks percents on both sides, so only a and b land in cells
    assert sum(c["count"] for c in cells) == 2
    assert {(c["discrete_bin"], c["continuous_bin"]) for c in cells} == {
        (0, 13),
        (19, 19),
    }


def test_write_report_files(tmp_path, reports):
    doc = build_report(*reports)
    paths = write_report(doc, tmp_path)
    names = [p.name for p in paths]
    assert names == [
        "summary.json",
        "fig2_success.csv",
        "fig3_grid.csv",
        "fig4_scatter.csv",
        "fig5_intervals.csv",
    ]
    for p in paths:
        assert p.exists()

    parsed = json.loads((tmp_path / "summary.json").read_text())
    assert parsed == doc

    fig2 = (tmp_path / "fig2_success.csv").read_text().splitlines()
    assert fig2[0] == "driver_id,continuous_percent,discrete_percent"
    assert len(fig2) == 1 + 3
    assert fig2[3] == "c,,"  # undefined percents stay empty

    fig4 = (tmp_path / "fig4_scatter.csv").read_text().splitlines()
    assert len(fig4) == 1 + len(doc["fitted_levels"])

    fig5 = (tmp_path / "fig5_intervals.csv").read_text().splitlines()
    shares = [float(line.split(",")[3]) for line in fig5[1:]]
    assert sum(shares) == pytest.approx(1.0)

    fig3 = (tmp_path / "fig3_grid.csv").read_text().splitlines()
    assert len(fig3) == 1 + len(doc["success_grid"]["cells"])


def test_write_report_empty_inputs(tmp_path):
    doc = build_report([], [])
    write_report(doc, tmp_path)
    assert doc["n_drivers"] == 0
    assert doc["continuous"]["mean_percent"] is None
    fig5 = (tmp_path / "fig5_intervals.csv").read_text().splitlines()
    shares = [float(line.split(",")[3]) for line in fig5[1:]]
    assert sum(shares) == 0.0


# -- config loading ----------------------------------------------------------------


def _desk_with(section, values):
    """configs/desk.json with one section's keys (top-level keys for None) overridden."""
    doc = json.loads(DESK_CONFIG.read_text())
    if section is None:
        return {**doc, **values}
    doc[section] = {**doc.get(section, {}), **values}
    return doc


# each loaded, then crashed in a later stage or ran with the level axis reversed;
# the value is the section, its overriding keys and the key the error names
BROKEN_CONFIGS = {
    "optimizer.seed": ("optimizer", {"seed": -1}, "optimizer.seed"),
    "optimizer.seed (bool)": ("optimizer", {"seed": True}, "optimizer.seed"),
    "optimizer.seed (float)": ("optimizer", {"seed": 2.0}, "optimizer.seed"),
    "seed (string)": (None, {"seed": "x"}, "seed must be"),
    "seed (float)": (None, {"seed": 1.5}, "seed must be"),
    "seed (bool)": (None, {"seed": False}, "seed must be"),
    "out_dir": (None, {"out_dir": 5}, "out_dir"),
    "rl.episodes": ("rl", {"episodes": 0}, "rl.episodes"),
    "env.episode_steps": ("env", {"episode_steps": 0}, "env.episode_steps"),
    "env.n_vehicles": ("env", {"n_vehicles": 2.5}, "env.n_vehicles"),
    # the level range and the restarts are fixed: the report's range and its integer levels
    "sa.restart_levels": (
        "sa", {"restart_levels": [1.0]}, "unknown keys in sa: ['restart_levels']"
    ),
    "sa.level_low": ("sa", {"level_low": 0.5}, "unknown keys in sa: ['level_low']"),
    "sa.level_high": ("sa", {"level_high": 2.0}, "unknown keys in sa: ['level_high']"),
    "env.speed_bin_count": ("env", {"speed_bin_count": 0}, "speed_bin_count"),
    "env.front_gap_edges": ("env", {"front_gap_edges": []}, "front_gap_edges"),
    "env.rear_gap_edges": ("env", {"rear_gap_edges": []}, "rear_gap_edges"),
    "gp.levels": ("gp", {"levels": [3, 2, 1, 0]}, "gp.levels"),
    # each loaded before, or for rl.max_level stopped with a raw TypeError
    "env.n_lanes": ("env", {"n_lanes": 2.5}, "env.n_lanes"),
    "env.speed_bin_count (float)": ("env", {"speed_bin_count": 2.5}, "env.speed_bin_count"),
    "rl.max_level": ("rl", {"max_level": 2.5}, "rl.max_level"),
    "optimizer.restarts": ("optimizer", {"restarts": 1.5}, "optimizer.restarts"),
    "optimizer.max_iter": ("optimizer", {"max_iter": 10.5}, "optimizer.max_iter"),
    "sa.max_steps": ("sa", {"max_steps": 5.5}, "sa.max_steps"),
    "fit.n_th": ("fit", {"n_th": 30.5}, "fit.n_th"),
    "synthesis.n_states": ("synthesis", {"n_states": 2.5}, "synthesis.n_states"),
    "synthesis.min_state_visits": (
        "synthesis", {"min_state_visits": 0}, "synthesis.min_state_visits"
    ),
    "synthesis.min_state_visits (float)": (
        "synthesis", {"min_state_visits": 2.5}, "synthesis.min_state_visits"
    ),
    "synthesis.drivers[].samples_per_state": (
        "synthesis",
        {"drivers": [{"driver_id": "d", "level": 1.0, "samples_per_state": 10.5}]},
        "synthesis.drivers[].samples_per_state",
    ),
    # an empty decelerate band, bands too narrow for the file's 1e-4 m/s speeds over one
    # frame, and a hard brake that the export would clip at 0 m/s in the slowest speed bin
    "data.hard_brake_threshold": ("data", {"hard_brake_threshold": -0.4}, "no acceleration"),
    "data.frame_dt": ("data", {"frame_dt": 1e-4}, "cannot resolve"),
    "data.hard_brake_threshold (clipped)": ("data", {"hard_brake_threshold": -40.0}, "would stop"),
    "synthesis.drivers[].level": (
        "synthesis",
        {"drivers": [{"driver_id": "far", "level": 7.0, "samples_per_state": 10}]},
        "synthesis.drivers[0].level",
    ),
    # each exported one state and ingested another: a slower leader clipped to 0 m/s that
    # reads as steady, swapped slower and steady bins, and leaders or rear vehicles written
    # into the wrong gap bin
    "env.speed_bin_count (slowest bin)": (
        "env", {"speed_bin_count": 13}, "env.rel_speed_threshold"
    ),
    "env.rel_speed_threshold (zero)": (
        "env", {"rel_speed_threshold": 0}, "env.rel_speed_threshold"
    ),
    "env.rel_speed_threshold (negative)": (
        "env", {"rel_speed_threshold": -1}, "env.rel_speed_threshold"
    ),
    "env.front_gap_edges (negative)": (
        "env", {"front_gap_edges": [-5, 3, 9]}, "env.front_gap_edges"
    ),
    "env.front_gap_edges (repeated)": (
        "env", {"front_gap_edges": [8, 8, 20]}, "env.front_gap_edges"
    ),
    "env.rear_gap_edges (negative)": ("env", {"rear_gap_edges": [-2, 15]}, "env.rear_gap_edges"),
}


@pytest.mark.parametrize("key", sorted(BROKEN_CONFIGS))
def test_master_config_rejects_broken_run_at_load(key):
    section, values, named = BROKEN_CONFIGS[key]
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        MasterConfig.from_dict(_desk_with(section, values))


@pytest.mark.parametrize("key", sorted(BROKEN_CONFIGS))
def test_pipeline_rejects_broken_config_before_training(key, tmp_path, capsys, caplog):
    section, values, _ = BROKEN_CONFIGS[key]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(_desk_with(section, values)))
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="levelkgp"):
        code = main(["pipeline", "--config", str(path), "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not any("pipeline stage" in r.getMessage() for r in caplog.records)
    assert not (out / "qtables.json").exists()


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"optimizer": {"weight_bound": -1}}, "weight_bound"),
        ({"optimizer": {"log_variance_bounds": [-1, 1]}}, "log_variance_bounds"),
        ({"optimizer": {"raw_kappa_bounds": [-1, 1]}}, "raw_kappa_bounds"),
        ({"bank": [{"kind": "bias", "rank": 2}]}, "rank"),
        ({"fit": {"two_sample": True}}, "two_sample"),
    ],
)
def test_master_config_rejects_removed_knobs(doc, key):
    with pytest.raises(ConfigurationError, match=key):
        MasterConfig.from_dict(doc)


@pytest.mark.parametrize(
    "doc", [{"env": [1]}, {"bank": {"kind": "bias"}}, {"synthesis": {"drivers": 3}},
            {"synthesis": [["n_states", 2]]}]
)
def test_master_config_rejects_sections_of_the_wrong_type(doc):
    with pytest.raises(ConfigurationError):
        MasterConfig.from_dict(doc)


def _write_tiny_qtables(path):
    """Levels 1..3 that each know state 0, saved for the default env."""
    tables = {
        k: QTable(k, N_ACTIONS, {0: np.zeros(N_ACTIONS)}, {0: 10}) for k in (1, 2, 3)
    }
    PolicySet(MasterConfig().env, tables).save(path)


def test_cli_overrides_keep_other_fields_and_rerun_load_checks(tmp_path, monkeypatch, capsys):
    base = MasterConfig.from_json(DESK_CONFIG)
    qtables = tmp_path / "qtables.json"
    _write_tiny_qtables(qtables)
    seen = []

    def fake_fit(cfg, policy_set, state_ids):
        seen.append((cfg, state_ids))
        return ModelCache()

    monkeypatch.setattr(cli, "_fit_models", fake_fit)
    out = tmp_path / "out"
    argv = ["build-gp", "--config", str(DESK_CONFIG), "--qtables", str(qtables),
            "--out-dir", str(out)]
    assert main(argv + ["--seed", "11"]) == 0
    assert seen == [(dataclasses.replace(base, seed=11, out_dir=str(out)), [0])]
    capsys.readouterr()
    # the overridden config passes through the same checks as a loaded one
    assert main(argv + ["--seed", "-1"]) == 1
    _assert_one_error_line(capsys, "seed must be an integer >= 0")
    assert len(seen) == 1


def test_master_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "typo_key": 2}))
    with pytest.raises(ConfigurationError):
        MasterConfig.from_json(path)


def test_master_config_rejects_levels_not_matching_max_level(tmp_path):
    path = tmp_path / "levels.json"
    path.write_text(json.dumps({"rl": {"max_level": 4}}))
    with pytest.raises(ConfigurationError, match="rl.max_level"):
        MasterConfig.from_json(path)


def test_master_config_rejects_jobs_key(tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps({"seed": 1, "jobs": 1}))
    with pytest.raises(ConfigurationError, match="jobs"):
        MasterConfig.from_json(path)


def test_jobs_flag_accepts_only_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_main_surfaces_config_errors(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nope": True}))
    code = main(["report", "--config", str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# -- subcommands --------------------------------------------------------------------


def test_best_response_command(capsys):
    code = main(["best-response", "--coeffs", "0.2,0.5,0.3", "--check"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_response_levels"] == [2]
    assert doc["value"] == 0.5
    assert doc["strategy"] == [0.0, 0.0, 1.0, 0.0]
    assert doc["brute_force"]["value_matches"] is True
    assert doc["brute_force"]["supports_within_set"] is True


def test_best_response_custom_grid(capsys):
    code = main(["best-response", "--coeffs", "1.0,0.0", "--check", "--grid-step", "0.2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_response_levels"] == [1]
    assert doc["value"] == 1.0


def test_best_response_rejects_bad_coeffs(capsys):
    assert main(["best-response", "--coeffs", "0.5,abc"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["best-response", "--coeffs", "0.9,0.3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_best_response_rejects_a_grid_too_large_to_enumerate(capsys):
    argv = ["best-response", "--coeffs", "0.2,0.8", "--check", "--grid-step", "1e-9"]
    assert main(argv) == 1
    _assert_one_error_line(capsys, "grid_step 1e-09", "1000000001 grid points")


def test_build_gp_rejects_unparseable_states(tmp_path, capsys):
    assert main(["build-gp", "--states", "524,x", "--out-dir", str(tmp_path)]) == 1
    _assert_one_error_line(capsys, "--states", "'x'")


def test_ingest_command(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text(
        "vehicle_id,frame,local_x,local_y,lane_id,velocity\n"
        "1,0,5.55,100.0,1,10.0\n"
        "1,1,5.55,101.0,1,10.0\n"
    )
    out_path = tmp_path / "records.json"
    code = main(
        [
            "ingest",
            "--input",
            str(csv_path),
            "--out",
            str(out_path),
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows_total"] == 2
    assert doc["n_transitions"] == 1
    saved = json.loads(out_path.read_text())
    assert list(saved) == ["1"]


# -- pipeline -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = {
        "seed": 5,
        "out_dir": str(root / "out"),
        "rl": {"episodes": 25},
        "env": {"episode_steps": 25},
        "synthesis": {
            "n_states": 2,
            "min_state_visits": 3,
            "drivers": [
                {"driver_id": "da", "level": 1.5, "samples_per_state": 60},
            ],
        },
    }
    path = root / "smoke.json"
    path.write_text(json.dumps(cfg))
    return path, root / "out"


def test_pipeline_smoke(smoke_config, capsys, caplog):
    path, out = smoke_config
    with caplog.at_level(logging.INFO, logger="levelkgp"):
        code = main(["pipeline", "--config", str(path), "--jobs", "1"])
    assert code == 0
    # per-state fallbacks go to DEBUG; INFO holds one count per level
    info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert not any("missing from" in m for m in info)
    assert [m.split(":")[0] for m in info if "fell back" in m] == [
        "level-1 table", "level-2 table", "level-3 table"
    ]
    assert len(info) <= 15
    doc = json.loads(capsys.readouterr().out)
    assert doc["stages"] == [
        "train-levels",
        "build-gp",
        "synthesize",
        "ingest",
        "fit-drivers",
        "report",
    ]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_drivers"] == 1
    assert (out / "qtables.json").exists()
    assert (out / "models").is_dir()
    assert (out / "trajectories" / "da.csv").exists()
    assert (out / "ingest_summary.json").exists()


def test_pipeline_no_train_reuses_artifacts(smoke_config, capsys):
    path, out = smoke_config
    before = (out / "summary.json").read_bytes()
    code = main(["pipeline", "--config", str(path), "--no-train"])
    assert code == 0
    capsys.readouterr()
    assert (out / "summary.json").read_bytes() == before


def test_pipeline_no_train_fails_cleanly_without_artifacts(tmp_path, capsys):
    code = main(["pipeline", "--no-train", "--out-dir", str(tmp_path / "none")])
    assert code == 1
    err = capsys.readouterr().err
    assert "train-levels" in err


def _smoke_copy(smoke_config, tmp_path):
    """Config and outputs of the smoke pipeline, copied under tmp_path."""
    path, out = smoke_config
    if not (out / "summary.json").exists():
        assert main(["pipeline", "--config", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["out_dir"] = str(tmp_path / "out")
    shutil.copytree(out, tmp_path / "out")
    copy = tmp_path / "smoke.json"
    copy.write_text(json.dumps(doc))
    return copy, tmp_path / "out"


def _assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    for fragment in fragments:
        assert fragment in err[0]


def _short_row(tables):
    tables["1"]["q"][next(iter(tables["1"]["q"]))] = [0.0, 1.0, 2.0]


def _narrow_action_count(tables):
    tables["2"]["action_count"] = 3


def _nan_value(tables):
    tables["3"]["q"][next(iter(tables["3"]["q"]))][0] = math.nan


# each loaded before and failed later, in fit-drivers or with a traceback
BROKEN_QTABLES = {
    "no tables": (lambda doc: doc.pop("tables"), "tables"),
    "short q row": (lambda doc: _short_row(doc["tables"]), "level 1 state"),
    "action_count": (lambda doc: _narrow_action_count(doc["tables"]), "level 2 state"),
    "non-finite q": (lambda doc: _nan_value(doc["tables"]), "level 3 state"),
}


@pytest.mark.parametrize("key", sorted(BROKEN_QTABLES))
def test_pipeline_no_train_rejects_broken_qtables(key, smoke_config, tmp_path, capsys):
    path, out = _smoke_copy(smoke_config, tmp_path)
    corrupt, named = BROKEN_QTABLES[key]
    doc = json.loads((out / "qtables.json").read_text())
    corrupt(doc)
    (out / "qtables.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["pipeline", "--config", str(path), "--no-train"]) == 1
    _assert_one_error_line(capsys, "train-levels", named)


@pytest.mark.parametrize("field,index", [("levels", (1,)), ("policies", (2, 0))])
def test_pipeline_no_train_rejects_model_with_nan(field, index, smoke_config, tmp_path, capsys):
    path, out = _smoke_copy(smoke_config, tmp_path)
    model = sorted((out / "models").glob("state_*.json"))[0]
    doc = json.loads(model.read_text())
    target = doc[field]
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = math.nan
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["pipeline", "--config", str(path), "--no-train"]) == 1
    _assert_one_error_line(capsys, "build-gp", "must be finite")


# -- stages ---------------------------------------------------------------------------


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_stage_commands_in_order_reproduce_the_pipeline(tmp_path, capsys):
    doc = {
        "seed": 5,
        "rl": {"episodes": 25},
        "env": {"episode_steps": 25},
        "synthesis": {
            "n_states": 2,
            "min_state_visits": 3,
            "drivers": [
                {"driver_id": "da", "level": 1.5, "samples_per_state": 60},
                {"driver_id": "db", "level": 0.5, "samples_per_state": 60},
            ],
        },
    }
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(doc))
    piped, staged = tmp_path / "pipeline", tmp_path / "stages"
    assert main(["pipeline", "--config", str(path), "--out-dir", str(piped)]) == 0
    for name, _ in cli.STAGES:
        assert main([name, "--config", str(path), "--out-dir", str(staged)]) == 0
    capsys.readouterr()
    want = _files(piped)
    assert len(want) == 15 and Path("ingest_summary.json") in want
    assert sorted(json.loads(want[Path("records.json")])) == ["da", "db"]
    assert _files(staged) == want


def test_pipeline_rerun_with_another_seed_matches_a_fresh_run(smoke_config, tmp_path, capsys):
    path, _ = smoke_config
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    for seed, out in (("1", reused), ("3", reused), ("3", fresh)):
        assert main(["pipeline", "--config", str(path), "--seed", seed, "--out-dir", str(out)]) == 0
        if seed == "1":
            first_models = set(_files(out / "models"))
    capsys.readouterr()
    # the seeds pick different states, so the first run leaves model files behind
    assert first_models != set(_files(fresh / "models"))
    assert _files(reused) == _files(fresh)


@pytest.mark.parametrize(
    "command, missing",
    [
        ("build-gp", "qtables.json"),
        ("ingest", "synthesis_manifest.json"),
        ("fit-drivers", "qtables.json"),
        ("report", "reports_continuous.json"),
    ],
)
def test_stage_on_an_empty_directory_fails_with_one_error_line(command, missing, tmp_path, capsys):
    assert main([command, "--out-dir", str(tmp_path)]) == 1
    _assert_one_error_line(capsys, missing)


def test_ingest_without_input_reads_the_synthesis_manifest(smoke_config, tmp_path, capsys):
    path, out = _smoke_copy(smoke_config, tmp_path)
    (out / "records.json").unlink()
    (out / "ingest_summary.json").unlink()
    capsys.readouterr()
    assert main(["ingest", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"] == str(out / "records.json")
    assert doc["n_transitions"] == 2 * 60
    assert list(json.loads((out / "records.json").read_text())) == ["da"]
    original = smoke_config[1]
    for name in ("records.json", "ingest_summary.json"):
        assert (out / name).read_bytes() == (original / name).read_bytes()


def test_ingest_summary_counts_the_distinct_states_of_all_files(tmp_path, capsys):
    env = MasterConfig().env
    disc = Discretizer(env)
    sids = [disc.state_id(EnvState(1, gap, 1, 2, 2, 1)) for gap in range(4)]
    manifest = {"drivers": []}
    for driver_id, states in (("a", sids[:2]), ("b", sids[2:])):
        export_trajectories({sid: [0, 1] for sid in states}, tmp_path / f"{driver_id}.csv", env)
        manifest["drivers"].append(
            {"driver_id": driver_id, "csv": f"{driver_id}.csv", "vehicle_id": 1}
        )
    (tmp_path / "synthesis_manifest.json").write_text(json.dumps(manifest))
    assert main(["ingest", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "ingest_summary.json").read_text())
    assert summary["n_states"] == 4  # two disjoint pairs: their sum, not the larger count


def _truncate(path):
    path.write_text(path.read_text()[:-20])


def _ragged_policies(path):
    doc = json.loads(path.read_text())
    doc["policies"][1] = doc["policies"][1][:-1]
    path.write_text(json.dumps(doc))


def _text_state_id(path):
    doc = json.loads(path.read_text())
    counts = doc["da"]["counts"]
    counts["x"] = counts.pop(next(iter(counts)))
    path.write_text(json.dumps(doc))


def _result_without_crit(path):
    doc = json.loads(path.read_text())
    del doc[0]["results"][0]["crit"]
    path.write_text(json.dumps(doc))


# each ended in a traceback: JSONDecodeError, ValueError, ValueError, KeyError
BROKEN_STAGE_INPUTS = {
    "truncated qtables": (
        "qtables.json", _truncate, ["pipeline", "--no-train"], ["train-levels", "not valid JSON"]
    ),
    "ragged model policies": (
        "models", _ragged_policies, ["pipeline", "--no-train"], ["build-gp", "model policies"]
    ),
    "text state id": ("records.json", _text_state_id, ["fit-drivers"], ["driver record"]),
    "result without crit": (
        "reports_continuous.json", _result_without_crit, ["report"], ["driver report", "'crit'"]
    ),
}


@pytest.mark.parametrize("key", sorted(BROKEN_STAGE_INPUTS))
def test_broken_stage_input_fails_with_one_error_line(key, smoke_config, tmp_path, capsys):
    path, out = _smoke_copy(smoke_config, tmp_path)
    name, corrupt, argv, fragments = BROKEN_STAGE_INPUTS[key]
    target = out / name
    if target.is_dir():
        target = sorted(target.glob("state_*.json"))[0]
        fragments = [*fragments, target.name]
    corrupt(target)
    capsys.readouterr()
    assert main(argv + ["--config", str(path)]) == 1
    _assert_one_error_line(capsys, *fragments)
