"""Dataclass configuration objects and the JSON master config.

Every tunable lives here so experiments are reproducible from a single
file.  ``MasterConfig.from_json`` accepts a partial document; anything
omitted keeps its default.  Unknown keys are rejected so typos fail
loudly instead of being silently ignored.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .errors import ConfigurationError

DEFAULT_MATERN_LENGTH_SCALES = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
# Cap of the jitter escalation in the GP's Cholesky factorizations.
MAX_JITTER = 1e-2
# Decimals of the speeds in the trajectory files that the export writes.
EXPORT_SPEED_DECIMALS = 4
# Bins of the report's level histogram; their ends bound the level search.
LEVEL_INTERVAL_EDGES = (
    0.0, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9, 2.1, 2.3, 2.5, 2.7, 3.0,
)


@dataclass(frozen=True)
class KernelEntryConfig:
    """One entry of the kernel bank.

    ``kind`` is "bias" or "matern32".  ``length_scale`` applies only to
    the Matern entry and must be positive.
    """

    kind: str
    length_scale: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("bias", "matern32"):
            raise ConfigurationError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "matern32":
            if self.length_scale is None or self.length_scale <= 0:
                raise ConfigurationError(
                    "matern32 entry needs a positive length_scale"
                )


def _require_int(value, key: str, low: int) -> None:
    """Reject anything but an integer >= low; bools and floats too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigurationError(f"{key} must be an integer >= {low}, got {value!r}")


def default_bank_entries() -> tuple[KernelEntryConfig, ...]:
    """One bias entry plus six Matern entries on a fixed length-scale grid."""
    entries = [KernelEntryConfig(kind="bias")]
    entries += [
        KernelEntryConfig(kind="matern32", length_scale=ls)
        for ls in DEFAULT_MATERN_LENGTH_SCALES
    ]
    return tuple(entries)


@dataclass(frozen=True)
class OptimizerConfig:
    """L-BFGS-B settings for marginal-likelihood maximization."""

    restarts: int = 4
    max_iter: int = 200
    seed: int = 0

    def __post_init__(self):
        _require_int(self.restarts, "optimizer.restarts", 1)
        _require_int(self.max_iter, "optimizer.max_iter", 1)
        _require_int(self.seed, "optimizer.seed", 0)


@dataclass(frozen=True)
class GPConfig:
    """Posterior numerics: training levels and the starting jitter.

    ``MasterConfig`` requires ``levels`` to be 0..rl.max_level in order.
    """

    levels: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0)
    jitter: float = 1e-6

    def __post_init__(self):
        if not 0 < self.jitter <= MAX_JITTER:
            raise ConfigurationError(f"require 0 < jitter <= {MAX_JITTER}")


@dataclass(frozen=True)
class EnvConfig:
    """Ring-road traffic environment.

    Distances in meters, speeds in m/s.  The discretizer bins are chosen
    so the reachable state space stays near a thousand states, which a
    tabular learner covers in a few hundred episodes.
    """

    n_lanes: int = 3
    n_vehicles: int = 10
    ring_length: float = 300.0
    dt: float = 0.5
    speed_max: float = 25.0
    accel: float = 2.0
    decel: float = -2.0
    hard_brake: float = -6.0
    collision_gap: float = 2.0
    lane_change_min_rear_gap: float = 6.0
    front_gap_edges: tuple[float, ...] = (8.0, 20.0, 40.0)
    rear_gap_edges: tuple[float, ...] = (6.0, 15.0)
    rel_speed_threshold: float = 1.0
    speed_bin_count: int = 4
    episode_steps: int = 60
    w_speed: float = 1.0
    w_collision: float = 10.0
    w_lane_change: float = 0.15

    def __post_init__(self):
        _require_int(self.n_lanes, "env.n_lanes", 2)
        _require_int(self.n_vehicles, "env.n_vehicles", 2)
        _require_int(self.episode_steps, "env.episode_steps", 1)
        if self.dt <= 0 or self.ring_length <= 0 or self.speed_max <= 0:
            raise ConfigurationError("dt, ring_length, speed_max must be positive")
        for key in ("front_gap_edges", "rear_gap_edges"):
            edges = list(getattr(self, key))
            if not edges or edges != sorted(edges):
                raise ConfigurationError(f"{key} must be non-empty and increasing")
        _require_int(self.speed_bin_count, "env.speed_bin_count", 1)


@dataclass(frozen=True)
class RLConfig:
    """Tabular Q-learning schedule for the discrete level hierarchy."""

    max_level: int = 3
    episodes: int = 300
    learning_rate: float = 0.2
    discount: float = 0.95
    epsilon_start: float = 0.4
    epsilon_end: float = 0.05

    def __post_init__(self):
        _require_int(self.max_level, "rl.max_level", 1)
        _require_int(self.episodes, "rl.episodes", 1)
        if not 0 < self.learning_rate <= 1:
            raise ConfigurationError("learning_rate must lie in (0, 1]")
        if not 0 <= self.discount < 1:
            raise ConfigurationError("discount must lie in [0, 1)")


@dataclass(frozen=True)
class SAConfig:
    """Simulated annealing schedule for the level search.

    ``paper_acceptance_sign`` keeps the published acceptance rule, which
    accepts improvements only with probability exp(-delta/T).  The
    default corrected rule always accepts improvements.
    """

    initial_temperature: float = 2.0
    cooling: float = 0.90
    max_steps: int = 50
    neighbor_scale: float = 0.25
    restart_levels: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0)
    level_low: float = 0.0
    level_high: float = 3.0
    paper_acceptance_sign: bool = False

    def __post_init__(self):
        if self.initial_temperature <= 0:
            raise ConfigurationError("initial_temperature must be positive")
        if not 0 < self.cooling < 1:
            raise ConfigurationError("cooling must lie in (0, 1)")
        _require_int(self.max_steps, "sa.max_steps", 1)
        if self.level_high <= self.level_low:
            raise ConfigurationError("level_high must exceed level_low")
        if not self.restart_levels:
            raise ConfigurationError("restart_levels must be non-empty")
        for lv in self.restart_levels:
            if not self.level_low <= lv <= self.level_high:
                raise ConfigurationError("restart level outside the level range")


@dataclass(frozen=True)
class FitConfig:
    """Per-driver fitting thresholds."""

    n_th: int = 30
    theta_th: float = 0.05
    probability_floor: float = 0.01
    two_sample: bool = False

    def __post_init__(self):
        _require_int(self.n_th, "fit.n_th", 1)
        if not 0 < self.theta_th < 1:
            raise ConfigurationError("theta_th must lie in (0, 1)")
        if not 0 < self.probability_floor < 0.5:
            raise ConfigurationError("probability_floor must lie in (0, 0.5)")


@dataclass(frozen=True)
class DataConfig:
    """Trajectory file interpretation."""

    frame_dt: float = 0.1
    accel_threshold: float = 0.5
    hard_brake_threshold: float = -2.5

    def __post_init__(self):
        if self.frame_dt <= 0:
            raise ConfigurationError("frame_dt must be positive")
        if self.accel_threshold <= 0:
            raise ConfigurationError("accel_threshold must be positive")
        if self.hard_brake_threshold >= -self.accel_threshold:
            raise ConfigurationError(
                "data.hard_brake_threshold must lie below -data.accel_threshold, "
                "or no acceleration is labeled decelerate"
            )
        # the export writes each action's acceleration `margin` or more inside its band;
        # two speeds rounded to the file's decimals move a frame's change by up to a step
        margin = min(self.accel_threshold, -(self.hard_brake_threshold + self.accel_threshold) / 2)
        if margin * self.frame_dt < 2 * 10.0**-EXPORT_SPEED_DECIMALS:
            raise ConfigurationError(
                "data.accel_threshold and data.hard_brake_threshold leave an action band "
                "that the trajectory file's speeds cannot resolve over one data.frame_dt"
            )


@dataclass(frozen=True)
class DriverSpec:
    """A synthetic driver: a reasoning level and a sample budget."""

    driver_id: str
    level: float
    samples_per_state: int = 200

    def __post_init__(self):
        if not self.driver_id:
            raise ConfigurationError("driver_id must be non-empty")
        _require_int(self.samples_per_state, "synthesis.drivers[].samples_per_state", 1)


@dataclass(frozen=True)
class SynthesisConfig:
    """Synthetic driver population used by the pipeline."""

    n_states: int = 8
    min_state_visits: int = 5
    drivers: tuple[DriverSpec, ...] = (
        DriverSpec("driver-a", 0.5),
        DriverSpec("driver-b", 1.5),
        DriverSpec("driver-c", 2.5),
    )

    def __post_init__(self):
        _require_int(self.n_states, "synthesis.n_states", 1)
        _require_int(self.min_state_visits, "synthesis.min_state_visits", 1)
        ids = [d.driver_id for d in self.drivers]
        if len(ids) != len(set(ids)):
            raise ConfigurationError("driver ids must be unique")


@dataclass(frozen=True)
class MasterConfig:
    """Everything a pipeline run needs, bundled."""

    seed: int = 0
    out_dir: str = "out"
    env: EnvConfig = field(default_factory=EnvConfig)
    rl: RLConfig = field(default_factory=RLConfig)
    bank: tuple[KernelEntryConfig, ...] = field(default_factory=default_bank_entries)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    gp: GPConfig = field(default_factory=GPConfig)
    sa: SAConfig = field(default_factory=SAConfig)
    fit: FitConfig = field(default_factory=FitConfig)
    data: DataConfig = field(default_factory=DataConfig)
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)

    def __post_init__(self):
        _require_int(self.seed, "seed", 0)
        if not isinstance(self.out_dir, str):
            raise ConfigurationError(f"out_dir must be a string, got {self.out_dir!r}")
        # the GP's inputs are the trained levels themselves, in order
        expected = tuple(range(self.rl.max_level + 1))
        if tuple(self.gp.levels) != expected:
            raise ConfigurationError(
                f"gp.levels must be {list(expected)}, the levels 0..rl.max_level, "
                f"got {list(self.gp.levels)}"
            )
        low, high = LEVEL_INTERVAL_EDGES[0], LEVEL_INTERVAL_EDGES[-1]
        if not (low <= self.sa.level_low and self.sa.level_high <= high):
            raise ConfigurationError(
                f"sa.level_low and sa.level_high must lie in [{low}, {high}], "
                "the level range the report bins"
            )
        # the export's hard brake must not stop the slowest bin's representative speed
        slowest = 0.5 * (self.env.speed_max / self.env.speed_bin_count)
        hard_brake = self.data.hard_brake_threshold - self.data.accel_threshold
        if slowest + hard_brake * self.data.frame_dt < 0:
            raise ConfigurationError(
                f"data.hard_brake_threshold - data.accel_threshold = {hard_brake} over one "
                f"data.frame_dt would stop the slowest speed bin's {slowest} m/s, so the "
                "export could not write a hard brake there"
            )
        for i, spec in enumerate(self.synthesis.drivers):
            if not self.sa.level_low <= spec.level <= self.sa.level_high:
                raise ConfigurationError(
                    f"synthesis.drivers[{i}].level {spec.level} outside "
                    f"[sa.level_low, sa.level_high] = [{self.sa.level_low}, "
                    f"{self.sa.level_high}], where the level search cannot reach it"
                )

    @classmethod
    def from_json(cls, path: str | Path) -> "MasterConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError("master config must be a JSON object")
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "MasterConfig":
        kwargs: dict[str, Any] = {}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(f"unknown master config keys: {sorted(unknown)}")
        for key in ("seed", "out_dir"):
            if key in doc:
                kwargs[key] = doc[key]
        simple = {
            "env": EnvConfig,
            "rl": RLConfig,
            "optimizer": OptimizerConfig,
            "gp": GPConfig,
            "sa": SAConfig,
            "fit": FitConfig,
            "data": DataConfig,
        }
        for key, klass in simple.items():
            if key in doc:
                kwargs[key] = _build(klass, doc[key], key)
        if "bank" in doc:
            kwargs["bank"] = _build_list(KernelEntryConfig, doc["bank"], "bank")
        if "synthesis" in doc:
            synth = doc["synthesis"]
            if isinstance(synth, dict) and "drivers" in synth:
                drivers = _build_list(DriverSpec, synth["drivers"], "synthesis.drivers")
                synth = {**synth, "drivers": drivers}
            kwargs["synthesis"] = _build(SynthesisConfig, synth, "synthesis")
        return cls(**kwargs)


def _build(klass, doc, label: str):
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{label} must be a JSON object")
    known = {f.name for f in dataclasses.fields(klass)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigurationError(f"unknown keys in {label}: {sorted(unknown)}")
    fixed = {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in doc.items()
    }
    try:
        return klass(**fixed)
    except TypeError as exc:
        raise ConfigurationError(f"bad value in {label}: {exc}") from exc


def _build_list(klass, docs, label: str) -> tuple:
    if not isinstance(docs, list):
        raise ConfigurationError(f"{label} must be a JSON list")
    return tuple(_build(klass, d, f"{label}[{i}]") for i, d in enumerate(docs))

