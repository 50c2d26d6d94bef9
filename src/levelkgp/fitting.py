"""Fitting observed action distributions to a continuous reasoning level.

For one driver and one sufficiently visited state, the observed action
frequencies are compared against the model's predicted policy at a
candidate level using the Kolmogorov-Smirnov statistic over the
serialized action order.  The score is the K-S acceptance probability
(higher means the model explains the data better), maximized over the
level with simulated annealing restarted from each integer level.

A driver's fit succeeds in a state when the best score clears the
acceptance threshold.  The discrete comparison baseline scores only the
integer levels, using the raw level-k policies that the state's model
was trained on.
"""

from __future__ import annotations

import json
import logging
import math
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import kolmogorov

from .config import (
    FitConfig,
    GPConfig,
    KernelEntryConfig,
    OptimizerConfig,
    SAConfig,
)
from .errors import InputError, SchemaError, file_section, json_value, read_json
from .gp import ModelCache, Policy, StateGP, fit_state_gp

logger = logging.getLogger(__name__)


@dataclass
class DriverRecord:
    """Per-state action counts observed for one driver."""

    driver_id: str
    action_count: int
    counts: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.driver_id:
            raise InputError("driver_id must be non-empty")
        if self.action_count < 2:
            raise InputError("need at least two actions")
        fixed = {}
        for sid, row in self.counts.items():
            arr = np.asarray(row, dtype=np.int64)
            if arr.shape != (self.action_count,):
                raise InputError(
                    f"state {sid}: counts must have length {self.action_count}"
                )
            if np.any(arr < 0):
                raise InputError(f"state {sid}: counts must be non-negative")
            fixed[int(sid)] = arr
        self.counts = fixed

    def add(self, state_id: int, action: int):
        row = self.counts.setdefault(
            int(state_id), np.zeros(self.action_count, dtype=np.int64)
        )
        if not 0 <= action < self.action_count:
            raise InputError(f"action {action} out of range")
        row[action] += 1

    def n_visits(self, state_id: int) -> int:
        row = self.counts.get(int(state_id))
        return 0 if row is None else int(row.sum())

    def states(self) -> list[int]:
        return sorted(self.counts)

    def to_dict(self) -> dict:
        return {
            "driver_id": self.driver_id,
            "action_count": self.action_count,
            "counts": {str(s): self.counts[s].tolist() for s in self.states()},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DriverRecord":
        with file_section("driver record"):
            counts = {int(s): _count_row(s, v) for s, v in doc["counts"].items()}
            return cls(
                driver_id=json_value(doc["driver_id"], "driver_id", "a string"),
                action_count=json_value(doc["action_count"], "action_count", "an integer"),
                counts=counts,
            )


def _count_row(state, row) -> np.ndarray:
    """One state's counts as read from a file: a list of JSON integers,
    so a fraction, a boolean or an out-of-range count is not cast away."""
    if not (isinstance(row, list) and all(type(c) is int and 0 <= c < 2**63 for c in row)):
        raise SchemaError(
            f"malformed driver record: state {state}: counts must be non-negative "
            f"integers below 2**63, got {row!r}"
        )
    return np.asarray(row, dtype=np.int64)


def empirical_policy(counts, floor: float = 0.01) -> Policy:
    """Observed frequencies with small entries floored then renormalized.

    The floor keeps the K-S comparison away from exact zeros, which the
    model policies never produce.
    """
    arr = np.asarray(counts, dtype=float).ravel()
    if arr.size < 2:
        raise InputError("need counts for at least two actions")
    # min and max propagate NaN, so this passes only finite, non-negative counts
    if not (arr.min() >= 0 and arr.max() < math.inf):
        raise InputError("counts must be non-negative and finite")
    total = arr.sum()
    if total <= 0:
        raise InputError("counts must not be all zero")
    freq = arr / total
    freq = np.maximum(freq, floor)
    return Policy(freq / freq.sum())


def ks_statistic(p, q):
    """Max gap between the cumulative distributions over the action order,
    per row of a Policy or an (m, A) stack of probability rows."""
    a, b = getattr(p, "probs", p), getattr(q, "probs", q)
    if a.shape[-1] != b.shape[-1]:
        raise InputError("policies must share an action count")
    return np.abs(a.cumsum(axis=-1) - b.cumsum(axis=-1)).max(axis=-1)


def ks_acceptance(d, n: int):
    """K-S acceptance probability for each statistic in d at sample size n.

    Uses the asymptotic Kolmogorov survival function with the standard
    finite-sample correction.
    """
    d = np.asarray(d)
    if not (d.min() >= 0 and d.max() <= 1):
        raise InputError(f"statistic must lie in [0, 1], got {d}")
    if n < 1:
        raise InputError("sample size must be positive")
    en = math.sqrt(n)
    return kolmogorov(d * (en + 0.12 + 0.11 / en))


def score_policy(model, data: Policy, n_obs: int):
    """Acceptance probability of the data under the model policy or each row of a stack."""
    return ks_acceptance(ks_statistic(model, data), n_obs)


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one driver in one state."""

    state_id: int
    n_obs: int
    level: float
    crit: float
    success: bool
    method: str
    restarts: tuple[tuple[float, float], ...] = ()


@dataclass
class DriverReport:
    """All per-state fits for one driver under one method."""

    driver_id: str
    method: str
    n_states_observed: int
    results: list[FitResult] = field(default_factory=list)

    @property
    def n_comparisons(self) -> int:
        return len(self.results)

    @property
    def n_success(self) -> int:
        return sum(1 for r in self.results if r.success)

    @property
    def percent_explained(self) -> Optional[float]:
        if not self.results:
            return None
        return 100.0 * self.n_success / self.n_comparisons

    def to_dict(self) -> dict:
        return {
            "driver_id": self.driver_id,
            "method": self.method,
            "n_states_observed": self.n_states_observed,
            "n_comparisons": self.n_comparisons,
            "n_success": self.n_success,
            "percent_explained": self.percent_explained,
            "results": [
                {
                    "state_id": r.state_id,
                    "n_obs": r.n_obs,
                    "level": r.level,
                    "crit": r.crit,
                    "success": r.success,
                    "method": r.method,
                    "restarts": [list(t) for t in r.restarts],
                }
                for r in self.results
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DriverReport":
        with file_section("driver report"):
            results = [
                FitResult(
                    state_id=json_value(r["state_id"], "state_id", "an integer"),
                    n_obs=json_value(r["n_obs"], "n_obs", "an integer"),
                    level=float(json_value(r["level"], "level", "a number")),
                    crit=float(json_value(r["crit"], "crit", "a number")),
                    success=json_value(r["success"], "success", "a boolean"),
                    method=json_value(r["method"], "method", "a string"),
                    restarts=tuple(
                        (
                            json_value(level, "restart level", "a number"),
                            json_value(crit, "restart crit", "a number"),
                        )
                        for level, crit in r["restarts"]
                    ),
                )
                for r in doc["results"]
            ]
            return cls(
                driver_id=json_value(doc["driver_id"], "driver_id", "a string"),
                method=json_value(doc["method"], "method", "a string"),
                n_states_observed=json_value(
                    doc["n_states_observed"], "n_states_observed", "an integer"
                ),
                results=results,
            )


def sa_chains(
    score_fn: Callable[[list[float]], Sequence[float]],
    init_levels: Sequence[float],
    sa_cfg: SAConfig,
    rngs: Sequence[np.random.Generator],
) -> list[tuple[float, float]]:
    """Maximize score_fn over the level range by simulated annealing, one
    chain per start level and rng, all chains in lockstep.

    score_fn maps a list of levels to their scores, so each step scores
    every chain's proposal in one call.  Proposals are Gaussian steps
    whose scale shrinks with the shared temperature, each drawn from its
    chain's own rng.  The default acceptance rule always takes
    improvements and takes a worse candidate with probability
    exp(-delta/T); setting paper_acceptance_sign flips delta, reproducing
    the published rule that damps improvements instead.  Each chain
    returns the best (level, score) seen anywhere in its walk.
    """
    # min and max of Python floats: np.clip costs more per scalar than a step's other math
    low, high = float(sa_cfg.level_low), float(sa_cfg.level_high)
    levels = [min(max(float(init), low), high) for init in init_levels]
    scores = list(score_fn(levels))
    best = list(zip(levels, scores))
    temp = sa_cfg.initial_temperature
    span = high - low
    sign = 1.0 if sa_cfg.paper_acceptance_sign else -1.0  # exact: b - a is -(a - b)
    for _ in range(sa_cfg.max_steps):
        scale = sa_cfg.neighbor_scale * (temp / sa_cfg.initial_temperature) * span
        candidates = [
            min(max(level + rng.normal(0.0, scale), low), high)
            for level, rng in zip(levels, rngs)
        ]
        for i, cand_score in enumerate(score_fn(candidates)):
            delta = sign * (cand_score - scores[i])
            if delta <= 0 or rngs[i].random() < math.exp(-delta / temp):
                levels[i], scores[i] = candidates[i], cand_score
            if scores[i] > best[i][1]:
                best[i] = (levels[i], scores[i])
        temp *= sa_cfg.cooling
    return best


def sa_search(
    score_fn: Callable[[float], float],
    init_level: float,
    sa_cfg: SAConfig,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """``sa_chains`` for one chain, with score_fn taking one level."""
    return sa_chains(lambda levels: [score_fn(levels[0])], [init_level], sa_cfg, [rng])[0]


def _driver_key(driver_id: str) -> int:
    """Stable integer for seeding, independent of process hash salt."""
    return zlib.crc32(driver_id.encode("utf-8"))


def restart_rng(
    master_seed: int, driver_id: str, state_id: int, restart: int
) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([master_seed, _driver_key(driver_id), state_id, restart])
    )


def level_landscape(
    model: StateGP,
    data: Policy,
    n_obs: int,
    fit_cfg: FitConfig,
    step: float = 0.01,
) -> tuple[np.ndarray, np.ndarray]:
    """Scores on a dense grid over the annealing's level range: the exhaustive
    reference, scoring the policies the annealing scores at the same levels.
    fit_cfg is unused; the benchmark in perfbench/ passes it."""
    levels = np.arange(SAConfig.level_low, SAConfig.level_high + step / 2, step)
    return levels, score_policy(model.policies_at(levels), data, n_obs)


def grid_fit(
    model: StateGP,
    data: Policy,
    n_obs: int,
    fit_cfg: FitConfig,
    step: float = 0.01,
) -> tuple[float, float]:
    levels, scores = level_landscape(model, data, n_obs, fit_cfg, step)
    i = int(np.argmax(scores))
    return float(levels[i]), float(scores[i])


class LevelFitter:
    """Binds the models and configs needed to fit drivers.

    ``observation_set_builder`` maps a state id to the discrete-level
    policies [pi_0, ..., pi_K] for that state.  GP models are built on
    demand and cached, so a shared cache amortizes fits across drivers;
    both methods read a state's policies from its model.
    """

    def __init__(
        self,
        observation_set_builder: Callable[[int], Sequence[Policy]],
        discrete_levels: Sequence[float] = (0.0, 1.0, 2.0, 3.0),
        bank_entries: Optional[Sequence[KernelEntryConfig]] = None,
        optimizer: Optional[OptimizerConfig] = None,
        gp_config: Optional[GPConfig] = None,
        fit_cfg: Optional[FitConfig] = None,
        sa_cfg: Optional[SAConfig] = None,
        master_seed: int = 0,
        cache: Optional[ModelCache] = None,
    ):
        self.builder = observation_set_builder
        self.discrete_levels = tuple(float(v) for v in discrete_levels)
        self.bank_entries = bank_entries
        self.optimizer = optimizer
        self.gp_config = gp_config
        self.fit_cfg = fit_cfg or FitConfig()
        self.sa_cfg = sa_cfg or SAConfig()
        self.master_seed = master_seed
        self.cache = cache if cache is not None else ModelCache()

    def model_for(self, state_id: int) -> StateGP:
        """The cached model of a state, fitted and cached on first use."""
        if state_id not in self.cache:
            self.cache.put(
                fit_state_gp(
                    self.discrete_levels,
                    self.builder(state_id),
                    bank_entries=self.bank_entries,
                    optimizer=self.optimizer,
                    gp_config=self.gp_config,
                    state_id=state_id,
                )
            )
        return self.cache.get(state_id)

    # -- single-state fits -------------------------------------------------

    def fit_state(self, driver_id: str, state_id: int, counts) -> FitResult:
        n_obs = int(np.asarray(counts).sum())
        data = empirical_policy(counts, self.fit_cfg.probability_floor)
        model = self.model_for(state_id)

        def score(levels: list[float]) -> list[float]:
            # Python floats, exact, for the annealing's scalar arithmetic
            return score_policy(model.policies_at(levels), data, n_obs).tolist()

        starts = self.sa_cfg.restart_levels
        rngs = [restart_rng(self.master_seed, driver_id, state_id, r) for r in range(len(starts))]
        return self._result(state_id, n_obs, "sa", sa_chains(score, starts, self.sa_cfg, rngs))

    def fit_state_discrete(self, state_id: int, counts) -> FitResult:
        """Score the model's training rows, the raw integer-level policies, in one call."""
        n_obs = int(np.asarray(counts).sum())
        data = empirical_policy(counts, self.fit_cfg.probability_floor)
        model = self.model_for(state_id)
        crits = score_policy(model.policies, data, n_obs)
        return self._result(state_id, n_obs, "discrete", zip(model.levels, crits))

    def _result(self, state_id: int, n_obs: int, method: str, scored) -> FitResult:
        """The fit of the best (level, crit) pair of scored, which it keeps as the restarts."""
        restarts = tuple((float(level), float(crit)) for level, crit in scored)
        level, crit = max(restarts, key=lambda t: t[1])
        return FitResult(
            state_id=state_id,
            n_obs=n_obs,
            level=level,
            crit=crit,
            success=crit > self.fit_cfg.theta_th,
            method=method,
            restarts=restarts,
        )

    # -- whole-driver comparisons -------------------------------------------

    def _report(self, record: DriverRecord, method: str, fit) -> DriverReport:
        """Fit every sufficiently visited state of one driver with ``fit``."""
        eligible = [s for s in record.states() if record.n_visits(s) >= self.fit_cfg.n_th]
        return DriverReport(
            driver_id=record.driver_id,
            method=method,
            n_states_observed=len(record.states()),
            results=[fit(sid, record.counts[sid]) for sid in eligible],
        )

    def compare_driver(self, record: DriverRecord) -> DriverReport:
        return self._report(record, "continuous", partial(self.fit_state, record.driver_id))

    def compare_driver_discrete(self, record: DriverRecord) -> DriverReport:
        return self._report(record, "discrete", self.fit_state_discrete)


def save_reports(reports: Sequence[DriverReport], path) -> None:
    with open(path, "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, sort_keys=True)


def load_reports(path) -> list[DriverReport]:
    docs = read_json(path)
    if not isinstance(docs, list):
        raise SchemaError(f"{path}: reports must be a JSON list")
    return [DriverReport.from_dict(d) for d in docs]
