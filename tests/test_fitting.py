import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import kolmogorov
from scipy.stats import kstwobign

from conftest import random_policies, shift_normalize_row
from levelkgp import fitting
from levelkgp.config import OptimizerConfig, SAConfig
from levelkgp.errors import InputError, SchemaError
from levelkgp.fitting import (
    DriverRecord,
    DriverReport,
    FitResult,
    LevelFitter,
    empirical_policy,
    grid_fit,
    ks_acceptance,
    ks_statistic,
    level_landscape,
    load_reports,
    restart_rng,
    sa_chains,
    sa_search,
    save_reports,
    score_policy,
)
from levelkgp.gp import ModelCache, Policy

# -- observed counts ------------------------------------------------------------


def test_driver_record_validation():
    with pytest.raises(InputError):
        DriverRecord(driver_id="", action_count=5)
    with pytest.raises(InputError):
        DriverRecord(driver_id="d", action_count=1)
    with pytest.raises(InputError):
        DriverRecord(driver_id="d", action_count=5, counts={3: [1, 2]})
    with pytest.raises(InputError):
        DriverRecord(driver_id="d", action_count=3, counts={3: [1, -2, 0]})


def test_driver_record_add_accumulates():
    rec = DriverRecord(driver_id="d", action_count=3)
    rec.add(7, 0)
    rec.add(7, 0)
    rec.add(7, 2)
    rec.add(9, 1)
    assert rec.counts[7].tolist() == [2, 0, 1]
    assert rec.n_visits(7) == 3
    assert rec.n_visits(9) == 1
    assert rec.n_visits(8) == 0
    assert rec.states() == [7, 9]
    with pytest.raises(InputError):
        rec.add(7, 3)


def test_driver_record_round_trip():
    rec = DriverRecord(driver_id="d", action_count=3, counts={5: [1, 2, 3], 2: [4, 0, 0]})
    back = DriverRecord.from_dict(rec.to_dict())
    assert back.driver_id == rec.driver_id
    assert back.states() == rec.states()
    for sid in rec.states():
        assert np.array_equal(back.counts[sid], rec.counts[sid])
    with pytest.raises(SchemaError):
        DriverRecord.from_dict({"driver_id": "d"})


# -- empirical distribution -------------------------------------------------------


def test_empirical_policy_floors_rare_actions():
    p = empirical_policy([98, 1, 1, 0, 0])
    expected = np.array([0.98, 0.01, 0.01, 0.01, 0.01]) / 1.02
    assert np.allclose(p.probs, expected, atol=1e-15)


def test_empirical_policy_passthrough_when_no_floor_needed():
    p = empirical_policy([50, 50])
    assert p.probs.tolist() == [0.5, 0.5]


def test_empirical_policy_rejects_bad_counts():
    with pytest.raises(InputError):
        empirical_policy([0, 0, 0])
    with pytest.raises(InputError):
        empirical_policy([5])
    with pytest.raises(InputError):
        empirical_policy([3, -1])
    with pytest.raises(InputError):
        empirical_policy([np.nan, 1.0])


# -- Kolmogorov-Smirnov pieces -------------------------------------------------------


def _ks_loop(p, q):
    """Running-sum reference for the statistic."""
    cp = cq = 0.0
    worst = 0.0
    for a, b in zip(p, q):
        cp += a
        cq += b
        worst = max(worst, abs(cp - cq))
    return worst


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_ks_statistic_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    p = Policy(rng.dirichlet(np.ones(6)))
    q = Policy(rng.dirichlet(np.ones(6)))
    assert ks_statistic(p, q) == pytest.approx(_ks_loop(p.probs, q.probs), abs=1e-15)


def test_ks_statistic_basic_properties(rng):
    p = Policy(rng.dirichlet(np.ones(5)))
    q = Policy(rng.dirichlet(np.ones(5)))
    assert ks_statistic(p, p) == 0.0
    assert ks_statistic(p, q) == ks_statistic(q, p)
    assert 0.0 <= ks_statistic(p, q) <= 1.0
    with pytest.raises(InputError):
        ks_statistic(p, Policy([0.5, 0.5]))


def test_ks_acceptance_frozen_values():
    assert ks_acceptance(0.1, 100) == pytest.approx(0.25622118507010405, abs=1e-15)
    assert ks_acceptance(0.2, 50) == pytest.approx(0.03137665215307253, abs=1e-15)
    assert ks_acceptance(0.0, 10) == 1.0


def test_ks_acceptance_matches_limit_distribution():
    # same asymptotic survival function scipy exposes as kstwobign
    for d, n in [(0.05, 400), (0.1, 100), (0.15, 64)]:
        en = math.sqrt(n)
        arg = d * (en + 0.12 + 0.11 / en)
        assert ks_acceptance(d, n) == pytest.approx(kstwobign.sf(arg), rel=1e-12)


def test_ks_acceptance_monotone_in_statistic():
    values = [ks_acceptance(d, 80) for d in np.linspace(0.0, 1.0, 21)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_ks_acceptance_validation():
    with pytest.raises(InputError):
        ks_acceptance(-0.1, 10)
    with pytest.raises(InputError):
        ks_acceptance(1.1, 10)
    with pytest.raises(InputError):
        ks_acceptance(0.1, 0)


def _score_oracle(model, data, n_obs):
    """The scalar K-S score the row-wise one replaced: its bit-for-bit oracle."""
    d = float(np.max(np.abs(np.cumsum(model) - np.cumsum(data.probs))))
    en = math.sqrt(n_obs)
    return float(kolmogorov(d * (en + 0.12 + 0.11 / en)))


def _landscape_oracle(model, data, n_obs):
    """One query and one score per level, as the annealing makes them."""
    levels = np.arange(0.0, 3.0 + 0.01 / 2, 0.01)
    scores = np.empty(levels.size)
    for i, level in enumerate(levels):
        scores[i] = _score_oracle(_policy_oracle(model, level), data, n_obs)
    return levels, scores


def test_score_policy_scores_each_row_of_a_stack(rng):
    stack = rng.dirichlet(np.ones(5), size=30)
    data = Policy(rng.dirichlet(np.ones(5)))
    scores = score_policy(stack, data, 75)
    assert scores.shape == (30,)
    assert np.array_equal(scores, [_score_oracle(row, data, 75) for row in stack])
    with pytest.raises(InputError):
        ks_acceptance(np.array([0.2, 1.5]), 10)


def test_score_policy_composes_statistic_and_acceptance(rng):
    model = Policy(rng.dirichlet(np.ones(5)))
    data = Policy(rng.dirichlet(np.ones(5)))
    d = ks_statistic(model, data)
    assert score_policy(model, data, 120) == ks_acceptance(d, 120)


# -- annealing search -------------------------------------------------------------


def _bump(center):
    return lambda level: math.exp(-((level - center) ** 2))


def _four_restart(fn, cfg, seed):
    best = (None, -np.inf)
    for r, init in enumerate(cfg.restart_levels):
        cand = sa_search(fn, init, cfg, np.random.default_rng([seed, r]))
        if cand[1] > best[1]:
            best = cand
    return best


@pytest.mark.parametrize("width", [1.0, 0.05])
def test_restarted_sa_finds_unimodal_peak(width):
    # single runs wander at high temperature; the restart wrapper is the
    # unit the pipeline actually relies on
    cfg = SAConfig()
    hits = 0
    for seed in range(40):
        center = 0.3 + 2.4 * (seed / 39)
        fn = lambda l: math.exp(-((l - center) ** 2) / width)
        level, score = _four_restart(fn, cfg, seed)
        assert score == pytest.approx(fn(level))
        if abs(level - center) <= 0.15:
            hits += 1
    assert hits >= 36


def test_sa_search_is_deterministic_given_rng():
    cfg = SAConfig()
    a = sa_search(_bump(0.9), 2.0, cfg, np.random.default_rng(5))
    b = sa_search(_bump(0.9), 2.0, cfg, np.random.default_rng(5))
    assert a == b


def test_sa_search_clips_start_into_range():
    cfg = SAConfig(max_steps=1)
    seen = []
    fn = lambda level: (seen.append(level), _bump(1.0)(level))[1]
    level, _ = sa_search(fn, 10.0, cfg, np.random.default_rng(0))
    assert seen[0] == cfg.level_high
    assert cfg.level_low <= level <= cfg.level_high


def test_sa_search_paper_sign_still_returns_best_seen():
    cfg = SAConfig(paper_acceptance_sign=True)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        level, score = sa_search(_bump(1.7), 0.0, cfg, rng)
        assert score >= _bump(1.7)(0.0)
        assert score == pytest.approx(_bump(1.7)(level))


def test_sa_search_never_leaves_level_range():
    cfg = SAConfig(neighbor_scale=2.0)
    seen = []
    fn = lambda level: (seen.append(level), 0.5)[1]
    sa_search(fn, 1.5, cfg, np.random.default_rng(3))
    assert all(cfg.level_low <= l <= cfg.level_high for l in seen)


def _sa_search_oracle(score_fn, init_level, sa_cfg, rng):
    """The one-chain annealing loop the lockstep walk replaced: its bit-for-bit oracle."""
    low, high = sa_cfg.level_low, sa_cfg.level_high
    level = float(np.clip(init_level, low, high))
    score = score_fn(level)
    best_level, best_score = level, score
    temp = sa_cfg.initial_temperature
    span = high - low
    for _ in range(sa_cfg.max_steps):
        scale = sa_cfg.neighbor_scale * (temp / sa_cfg.initial_temperature) * span
        candidate = float(np.clip(level + rng.normal(0.0, scale), low, high))
        cand_score = score_fn(candidate)
        if sa_cfg.paper_acceptance_sign:
            delta = cand_score - score
        else:
            delta = score - cand_score
        if delta <= 0 or rng.random() < math.exp(-delta / temp):
            level, score = candidate, cand_score
        if score > best_score:
            best_level, best_score = level, score
        temp *= sa_cfg.cooling
    return best_level, best_score


@pytest.mark.parametrize("paper_sign", [False, True])
def test_sa_search_matches_one_chain_oracle(paper_sign):
    cfg = SAConfig(paper_acceptance_sign=paper_sign)
    for seed in range(12):
        fn = _bump(0.25 * seed)
        init = cfg.restart_levels[seed % len(cfg.restart_levels)]
        got = sa_search(fn, init, cfg, np.random.default_rng(seed))
        assert got == _sa_search_oracle(fn, init, cfg, np.random.default_rng(seed))


def test_sa_chains_scores_every_chain_in_one_call():
    cfg = SAConfig(max_steps=9)
    batches = []

    def score(levels):
        batches.append(len(levels))
        return [_bump(1.3)(level) for level in levels]

    rngs = [np.random.default_rng([5, r]) for r in range(len(cfg.restart_levels))]
    got = sa_chains(score, cfg.restart_levels, cfg, rngs)
    assert batches == [len(cfg.restart_levels)] * (cfg.max_steps + 1)
    want = [
        _sa_search_oracle(_bump(1.3), init, cfg, np.random.default_rng([5, r]))
        for r, init in enumerate(cfg.restart_levels)
    ]
    assert got == want


def test_restart_rng_is_reproducible_and_distinct():
    a = restart_rng(7, "driver-a", 12, 0).random(4)
    b = restart_rng(7, "driver-a", 12, 0).random(4)
    c = restart_rng(7, "driver-a", 12, 1).random(4)
    d = restart_rng(7, "driver-b", 12, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# -- end to end fitting -----------------------------------------------------------

FAST_OPT = OptimizerConfig(restarts=1, max_iter=80, seed=0)


def _builder(state_id):
    rng = np.random.default_rng(1000 + state_id)
    return [Policy(row) for row in random_policies(rng)]


@pytest.fixture(scope="module")
def fitter():
    return LevelFitter(_builder, optimizer=FAST_OPT, master_seed=11)


def test_model_for_fits_a_missing_state_once():
    calls = []

    def builder(state_id):
        calls.append(state_id)
        return _builder(state_id)

    cache = ModelCache()
    fitter = LevelFitter(builder, optimizer=OptimizerConfig(restarts=1, max_iter=5), cache=cache)
    first = fitter.model_for(9)
    assert fitter.model_for(9) is first
    assert calls == [9]
    assert cache.get(9) is first and first.state_id == 9


def _counts_at(fitter, state_id, level, n=400):
    """Near-exact observations drawn from the model's own policy."""
    probs = fitter.model_for(state_id).policy_at(level).probs
    counts = np.floor(probs * n).astype(int)
    counts[0] += n - counts.sum()
    return counts


LANDSCAPE_COUNTS = {
    "planted at 0.3": lambda f, sid: _counts_at(f, sid, 0.3),
    "planted at 2.6, few visits": lambda f, sid: _counts_at(f, sid, 2.6, n=35),
    "flat": lambda f, sid: np.full(5, 12),
}


@pytest.mark.parametrize("state_id", [1, 3, 6])
def test_level_landscape_matches_per_level_loop(fitter, state_id):
    model = fitter.model_for(state_id)
    for make in LANDSCAPE_COUNTS.values():
        counts = make(fitter, state_id)
        data = empirical_policy(counts)
        got = level_landscape(model, data, int(counts.sum()), fitter.fit_cfg)
        want = _landscape_oracle(model, data, int(counts.sum()))
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_level_landscape_scores_the_rows_the_annealing_scores(fitter, monkeypatch):
    model = fitter.model_for(3)
    data = empirical_policy(_counts_at(fitter, 3, 1.4))
    scored = []

    def spy(policies, *args):
        scored.append(policies)
        return score_policy(policies, *args)

    monkeypatch.setattr(fitting, "score_policy", spy)
    levels, _ = level_landscape(model, data, 400, fitter.fit_cfg)
    assert len(scored) == 1
    rows = [model.policies_at([level])[0] for level in levels]
    assert np.array_equal(scored[0], np.stack(rows))


def test_level_landscape_spans_the_annealing_range(fitter):
    model = fitter.model_for(3)
    data = empirical_policy(_counts_at(fitter, 3, 1.4))
    levels, _ = level_landscape(model, data, 400, fitter.fit_cfg, 0.05)
    assert levels[0] == SAConfig.level_low
    assert levels[-1] == pytest.approx(SAConfig.level_high)
    # wide steps from starts outside the range reach both of its clamps, never beyond
    cfg = SAConfig(neighbor_scale=2.0)
    starts = (-1.0, *cfg.restart_levels, 9.0)
    seen = []

    def score(batch):
        seen.extend(batch)
        return [0.5] * len(batch)

    sa_chains(score, starts, cfg, [np.random.default_rng([3, r]) for r in range(len(starts))])
    assert min(seen) == levels[0] and max(seen) == SAConfig.level_high
    assert all(levels[0] <= level <= SAConfig.level_high for level in seen)


def test_score_policy_one_row_matches_scalar_oracle(fitter):
    model = fitter.model_for(2)
    data = empirical_policy(_counts_at(fitter, 2, 1.1, n=60))
    for level in np.random.default_rng(4).uniform(0.0, 3.0, size=50):
        row = shift_normalize_row(model.predict_mean([level])[0])
        got = score_policy(model.policy_at(level), data, 60)
        assert np.ndim(got) == 0
        assert got == _score_oracle(row, data, 60)


def _policy_oracle(model, level):
    """The one-level policy query the batched one replaced."""
    return shift_normalize_row(model.predict_mean([level])[0])


@pytest.mark.parametrize("state_id", range(8))
def test_policies_at_rows_equal_policy_at(fitter, state_id):
    model = fitter.model_for(state_id)
    rng = np.random.default_rng(state_id)
    for size in (1, 2, 3, 4, 5, 8, 301):
        levels = rng.uniform(0.0, 3.0, size=size)
        rows = model.policies_at(levels)
        assert rows.shape == (size, model.action_count)
        for level, row in zip(levels, rows):
            assert np.array_equal(row, model.policy_at(level).probs)
            assert np.array_equal(row, _policy_oracle(model, level))
    with pytest.raises(InputError):
        model.policies_at([0.5, np.inf])


def _fit_state_oracle(fitter, driver_id, state_id, counts):
    """``fit_state`` as one annealing loop per restart, one level per query."""
    n_obs = int(np.asarray(counts).sum())
    data = empirical_policy(counts, fitter.fit_cfg.probability_floor)
    model = fitter.model_for(state_id)

    def score(level):
        return score_policy(Policy(_policy_oracle(model, level)), data, n_obs)

    restarts = [
        _sa_search_oracle(
            score, init, fitter.sa_cfg, restart_rng(fitter.master_seed, driver_id, state_id, r)
        )
        for r, init in enumerate(fitter.sa_cfg.restart_levels)
    ]
    best_level, best_crit = max(restarts, key=lambda t: t[1])
    return FitResult(
        state_id=state_id,
        n_obs=n_obs,
        level=float(best_level),
        crit=float(best_crit),
        success=bool(best_crit > fitter.fit_cfg.theta_th),
        method="sa",
        restarts=tuple((float(l), float(c)) for l, c in restarts),
    )


@pytest.mark.parametrize("paper_sign", [False, True])
def test_fit_state_matches_per_restart_oracle(fitter, paper_sign):
    variant = LevelFitter(
        _builder,
        optimizer=FAST_OPT,
        sa_cfg=SAConfig(paper_acceptance_sign=paper_sign),
        master_seed=fitter.master_seed,
        cache=fitter.cache,
    )
    for state_id in (1, 3, 6):
        for make in LANDSCAPE_COUNTS.values():
            counts = make(variant, state_id)
            got = variant.fit_state("driver-o", state_id, counts)
            assert got == _fit_state_oracle(variant, "driver-o", state_id, counts)


def test_grid_fit_matches_landscape_argmax(fitter):
    model = fitter.model_for(3)
    data = empirical_policy(_counts_at(fitter, 3, 1.4))
    levels, scores = level_landscape(model, data, 400, fitter.fit_cfg)
    level, crit = grid_fit(model, data, 400, fitter.fit_cfg)
    i = int(np.argmax(scores))
    assert level == levels[i]
    assert crit == scores[i]


def test_fit_state_recovers_planted_level(fitter):
    counts = _counts_at(fitter, 5, 1.25)
    result = fitter.fit_state("driver-x", 5, counts)
    assert result.success
    assert result.method == "sa"
    assert len(result.restarts) == len(fitter.sa_cfg.restart_levels)
    grid_level, _ = grid_fit(
        fitter.model_for(5), empirical_policy(counts), int(counts.sum()), fitter.fit_cfg
    )
    assert abs(grid_level - 1.25) <= 0.15
    assert abs(result.level - 1.25) <= 0.25


def test_fit_state_is_deterministic(fitter):
    counts = _counts_at(fitter, 5, 0.75)
    a = fitter.fit_state("driver-x", 5, counts)
    b = fitter.fit_state("driver-x", 5, counts)
    assert a == b


def test_fit_state_discrete_picks_matching_integer_level(fitter):
    policies = _builder(4)
    counts = np.floor(policies[2].probs * 400).astype(int)
    counts[0] += 400 - counts.sum()
    result = fitter.fit_state_discrete(4, counts)
    assert result.level == 2.0
    assert result.method == "discrete"
    assert len(result.restarts) == 4


DISCRETE_COUNTS = ([30, 5, 5, 2, 1], [1, 1, 40, 3, 9], [8, 8, 8, 8, 8])


def _discrete_oracle(state_id, counts):
    """The (level, crit) of each policy the builder makes for the state."""
    data = empirical_policy(counts)
    return [
        (k, _score_oracle(pi.probs, data, sum(counts)))
        for k, pi in zip((0.0, 1.0, 2.0, 3.0), _builder(state_id))
    ]


@pytest.mark.parametrize("state_id", [2, 4, 7])
def test_fit_state_discrete_matches_per_policy_oracle(fitter, state_id):
    for counts in DISCRETE_COUNTS:
        want = _discrete_oracle(state_id, counts)
        result = fitter.fit_state_discrete(state_id, counts)
        assert result.restarts == tuple(want)
        assert (result.level, result.crit) == max(want, key=lambda t: t[1])


def test_fit_state_discrete_reads_the_rows_of_loaded_models(fitter, tmp_path):
    cache = ModelCache()
    for state_id in (2, 4, 7):
        cache.put(fitter.model_for(state_id))
    cache.save_dir(tmp_path)

    def no_builder(state_id):
        raise AssertionError(f"state {state_id}: policies rebuilt, not read from the model")

    loaded = LevelFitter(no_builder, cache=ModelCache.load_dir(tmp_path))
    for state_id in (2, 4, 7):
        for counts in DISCRETE_COUNTS:
            want = _discrete_oracle(state_id, counts)
            assert loaded.fit_state_discrete(state_id, counts).restarts == tuple(want)


def test_compare_driver_filters_by_visit_threshold(fitter):
    rec = DriverRecord(
        driver_id="driver-y",
        action_count=5,
        counts={
            2: _counts_at(fitter, 2, 1.0, n=40),
            6: np.array([1, 1, 1, 1, 1]),
        },
    )
    report = fitter.compare_driver(rec)
    assert report.n_states_observed == 2
    assert report.n_comparisons == 1
    assert report.results[0].state_id == 2
    assert report.method == "continuous"


def test_compare_driver_discrete(fitter):
    rec = DriverRecord(
        driver_id="driver-w",
        action_count=5,
        counts={1: _counts_at(fitter, 1, 2.0, n=50)},
    )
    report = fitter.compare_driver_discrete(rec)
    assert report.method == "discrete"
    assert report.n_comparisons == 1
    assert float(report.results[0].level).is_integer()


def test_percent_explained():
    report = DriverReport(driver_id="d", method="continuous", n_states_observed=4)
    assert report.percent_explained is None
    common = dict(n_obs=50, level=1.0, crit=0.5, method="sa")
    report.results = [
        FitResult(state_id=0, success=True, **common),
        FitResult(state_id=1, success=True, **common),
        FitResult(state_id=2, success=False, **common),
        FitResult(state_id=3, success=False, **common),
    ]
    assert report.n_success == 2
    assert report.percent_explained == 50.0


_REPORT = {
    "driver_id": "d", "method": "continuous", "n_states_observed": 1,
    "results": [{"state_id": 2, "n_obs": 45, "level": 1.5, "crit": 0.5, "success": True,
                 "method": "sa", "restarts": []}],
}

# each raised a bare KeyError, TypeError or JSONDecodeError before
BROKEN_REPORT_FILES = {
    "result without crit": (
        json.dumps([{**_REPORT, "results": [
            {k: v for k, v in _REPORT["results"][0].items() if k != "crit"}
        ]}]),
        "malformed driver report: missing key 'crit'",
    ),
    "reports as an object": (json.dumps({"d": _REPORT}), "reports must be a JSON list"),
    "truncated": (json.dumps([_REPORT])[:-20], "not valid JSON"),
}


def _report_with(**fields):
    """_REPORT as a file, its one result's fields overridden."""
    return json.dumps([{**_REPORT, "results": [{**_REPORT["results"][0], **fields}]}])


# each loaded before, cast by bool(), int() or float(): a "false" success read as a success
BROKEN_REPORT_FILES.update({
    name: (text, f"malformed driver report: {named}")
    for name, text, named in [
        ("text success", _report_with(success="false"), "success must be a boolean, got 'false'"),
        ("fractional n_obs", _report_with(n_obs=30.9), "n_obs must be an integer, got 30.9"),
        ("boolean level", _report_with(level=True), "level must be a number, got True"),
        ("text crit", _report_with(crit="0.5"), "crit must be a number, got '0.5'"),
        ("fractional state_id", _report_with(state_id=2.0), "state_id must be an integer"),
        ("text restart", _report_with(restarts=["ab"]), "restart level must be a number"),
        ("boolean restart", _report_with(restarts=[[1.0, True]]), "restart crit must be a number"),
        (
            "fractional n_states_observed",
            json.dumps([{**_REPORT, "n_states_observed": 1.5}]),
            "n_states_observed must be an integer",
        ),
    ]
})


def test_report_document_loads():
    assert DriverReport.from_dict(_REPORT).results[0].crit == 0.5


@pytest.mark.parametrize("key", sorted(BROKEN_REPORT_FILES))
def test_load_reports_names_the_malformed_section(key, tmp_path):
    text, named = BROKEN_REPORT_FILES[key]
    path = tmp_path / "reports.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=named):
        load_reports(path)


def test_reports_round_trip(fitter, tmp_path):
    rec = DriverRecord(
        driver_id="driver-r",
        action_count=5,
        counts={2: _counts_at(fitter, 2, 1.5, n=45)},
    )
    reports = [fitter.compare_driver(rec), fitter.compare_driver_discrete(rec)]
    path = tmp_path / "reports.json"
    save_reports(reports, path)
    loaded = load_reports(path)
    assert len(loaded) == 2
    for orig, back in zip(reports, loaded):
        assert back.driver_id == orig.driver_id
        assert back.method == orig.method
        assert back.n_states_observed == orig.n_states_observed
        assert back.results == orig.results
    json.loads(path.read_text())  # stays plain JSON
