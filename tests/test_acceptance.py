"""Whole-system acceptance gate.

Each test prints one line "ACCEPTANCE <n> <name>: PASS|FAIL" before its
assertions, so a verbose run doubles as the acceptance report.  The
numbered checks pin the package's headline guarantees: the closed-form
best response against a brute-force grid, GP interpolation and
normalization bounds, planted-level recovery, the continuous-over-
discrete method ordering, annealing adequacy against exhaustive search,
kernel numerical validity, K-S exactness, and pipeline determinism.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from levelkgp.cli import main as cli_main
from levelkgp.config import (
    DriverSpec,
    EnvConfig,
    RLConfig,
    SAConfig,
    default_bank_entries,
)
from levelkgp.data import record_from_actions, sample_driver_actions
from levelkgp.errors import NumericalError
from levelkgp.fitting import LevelFitter, ks_acceptance, ks_statistic, sa_search
from levelkgp.game import (
    MixedStrategy,
    best_response_set,
    brute_force_best_response,
    mixed_utility,
    simplex_grid,
)
from levelkgp.gp import (
    LMCParams,
    ModelCache,
    Policy,
    _length_scales,
    fit_state_gp,
    jittered_cholesky,
    shift_normalize,
)
from levelkgp.levelk import train_hierarchy

LEVELS = (0.0, 1.0, 2.0, 3.0)
MASTER = 1234
REPO = Path(__file__).resolve().parents[1]


def _line(n: int, name: str, ok: bool, extra: str = ""):
    suffix = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}{suffix}")


# -- shared worlds ---------------------------------------------------------------


def _policies_for(i: int) -> np.ndarray:
    rng = np.random.default_rng([20260819, i])
    return rng.dirichlet(np.full(5, 0.6), size=4)


@pytest.fixture(scope="module")
def interpolation_models():
    """100 models over random policy sets, shared by the GP checks."""
    return [
        (_policies_for(i), fit_state_gp(LEVELS, _policies_for(i), state_id=i))
        for i in range(100)
    ]


@pytest.fixture(scope="module")
def world():
    """Trained hierarchy, 20 modeled states, and a fitter over them."""
    env = EnvConfig()
    policy_set = train_hierarchy(env, RLConfig(), seed=MASTER)
    common = policy_set.common_states(20)
    rng = np.random.default_rng([MASTER, 1001])
    state_ids = sorted(
        int(common[i]) for i in rng.choice(len(common), size=20, replace=False)
    )
    cache = ModelCache()
    for sid in state_ids:
        cache.put(
            fit_state_gp(LEVELS, policy_set.discrete_policies(sid), state_id=sid)
        )
    fitter = LevelFitter(
        policy_set.discrete_policies, master_seed=MASTER, cache=cache
    )
    return state_ids, cache, fitter


def _planted_driver(cache, driver_id, level, state_ids, samples):
    spec = DriverSpec(driver_id=driver_id, level=level, samples_per_state=samples)
    actions = sample_driver_actions(
        spec,
        lambda sid, l=level: cache.get(sid).policy_at(l),
        state_ids,
        seed=MASTER,
    )
    return record_from_actions(driver_id, actions)


# -- 1: best response ---------------------------------------------------------------


def test_acceptance_1_best_response_theorem():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    # responder mixtures over levels 1..4 at grid step 0.05, as a matrix:
    # utility against opponent body b (levels 0..3) is one dot product
    grid = np.array(list(simplex_grid(20, 4)), dtype=float) / 20.0

    value_ok = attained_ok = brute_ok = True
    for i in range(500):
        body = rng.dirichlet(np.ones(4))
        opponent = MixedStrategy(np.append(body, 0.0))
        result = best_response_set(opponent)
        reference = float((grid @ body).max())
        if abs(result.value - reference) > 1e-12:
            value_ok = False
        if mixed_utility(result.strategy, opponent) != result.value:
            attained_ok = False
        brute_value, _ = brute_force_best_response(opponent, grid_step=0.05)
        if abs(result.value - brute_value) > 1e-12:
            brute_ok = False
    elapsed = time.perf_counter() - t0
    ok = value_ok and attained_ok and brute_ok and elapsed < 60.0
    _line(1, "best-response-theorem-oracle", ok, f"({elapsed:.1f}s, 500 vectors)")
    assert value_ok, "closed-form value disagrees with the grid-matrix oracle"
    assert brute_ok, "closed-form value disagrees with brute_force_best_response"
    assert attained_ok, "returned strategy does not attain its value exactly"
    assert elapsed < 60.0


# -- 2 and 3: GP bounds ----------------------------------------------------------------


def test_acceptance_2_gp_interpolation(interpolation_models):
    worst = 0.0
    for policies, model in interpolation_models:
        for k in range(4):
            predicted = model.policy_at(float(k)).probs
            raw = model.predict(float(k)).mean
            worst = max(
                worst,
                float(np.max(np.abs(predicted - policies[k]))),
                float(np.max(np.abs(raw - policies[k]))),
            )
    ok = worst <= 1e-3
    _line(2, "gp-interpolates-training-levels", ok, f"(max err {worst:.2e})")
    assert ok


def test_acceptance_3_normalization_invariants(interpolation_models):
    levels = np.round(np.arange(0.0, 3.0 + 0.005, 0.01), 2)
    worst_raw = 0.0
    worst_norm = 0.0
    entries_ok = True
    for _, model in interpolation_models:
        means = model.predict_mean(levels)
        worst_raw = max(worst_raw, float(np.max(np.abs(means.sum(axis=1) - 1.0))))
        for row in means:
            policy = shift_normalize(row)
            worst_norm = max(worst_norm, abs(float(policy.probs.sum()) - 1.0))
            if np.any(policy.probs < 0):
                entries_ok = False
    ok = worst_raw <= 1e-6 and worst_norm <= 1e-9 and entries_ok
    _line(
        3,
        "normalization-invariants",
        ok,
        f"(raw sum dev {worst_raw:.2e}, normalized {worst_norm:.2e})",
    )
    assert worst_raw <= 1e-6
    assert worst_norm <= 1e-9
    assert entries_ok


# -- 4 and 5: recovery and ordering ------------------------------------------------------


def test_acceptance_4_level_recovery(world):
    state_ids, cache, fitter = world
    t0 = time.perf_counter()
    medians = {}
    for step in range(8):
        true_level = 0.25 * step  # 0.0 .. 1.75
        record = _planted_driver(
            cache, f"planted-{step}", true_level, state_ids, samples=500
        )
        errors = sorted(
            abs(fitter.fit_state(record.driver_id, sid, record.counts[sid]).level - true_level)
            for sid in state_ids
        )
        medians[true_level] = errors[len(errors) // 2]
    elapsed = time.perf_counter() - t0
    worst = max(medians.values())
    ok = worst <= 0.25 and elapsed < 600.0
    _line(4, "planted-level-recovery", ok, f"(worst median {worst:.3f}, {elapsed:.0f}s)")
    assert worst <= 0.25, medians
    assert elapsed < 600.0


def test_acceptance_5_method_ordering(world):
    state_ids, cache, fitter = world
    cont = []
    disc = []
    for i in range(50):
        true_level = 0.25 + 0.25 * (i % 11)  # mixes integers and quarter levels
        states = sorted(state_ids[(i + 2 * j) % len(state_ids)] for j in range(8))
        record = _planted_driver(cache, f"corpus-{i:02d}", true_level, states, samples=150)
        cont.append(fitter.compare_driver(record).percent_explained)
        disc.append(fitter.compare_driver_discrete(record).percent_explained)
    mean_cont = float(np.mean(cont))
    mean_disc = float(np.mean(disc))
    ok = mean_cont > mean_disc
    _line(
        5,
        "continuous-beats-discrete",
        ok,
        f"(continuous {mean_cont:.2f}% vs discrete {mean_disc:.2f}%)",
    )
    assert ok


# -- 6: annealing vs exhaustive search ----------------------------------------------------


def test_acceptance_6_sa_adequacy():
    cfg = SAConfig()
    grid = np.arange(0.0, 3.0 + 0.005, 0.01)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng([7, seed])
        center = rng.uniform(0.0, 3.0)
        width_left = 10 ** rng.uniform(-1.3, 0.0)
        width_right = 10 ** rng.uniform(-1.3, 0.0)
        floor = rng.uniform(0.0, 0.2)

        def fn(level):
            width = width_left if level < center else width_right
            return floor + (1 - floor) * math.exp(-(((level - center) / width) ** 2))

        grid_best = float(grid[int(np.argmax([fn(l) for l in grid]))])
        best = max(
            (
                sa_search(fn, init, cfg, np.random.default_rng([7, seed, r]))
                for r, init in enumerate(cfg.restart_levels)
            ),
            key=lambda t: t[1],
        )
        if abs(best[0] - grid_best) <= 0.15:
            hits += 1
    ok = hits >= 90
    _line(6, "annealing-matches-grid-search", ok, f"({hits}/100 within 0.15)")
    assert ok


# -- 7: kernel numerical validity ----------------------------------------------------------


def test_acceptance_7_kernel_validity():
    rng = np.random.default_rng(99)
    entries = default_bank_entries()
    symmetric = 0
    cheap_chol = 0
    for _ in range(1000):
        levels = np.sort(rng.uniform(0.0, 3.0, size=int(rng.integers(3, 9))))
        dim = int(rng.integers(2, 7))
        variances = 10 ** rng.uniform(-1.0, 0.5, size=len(entries))
        weights = [rng.normal(0.0, 0.5, size=(dim, dim)) for _ in entries]
        kappas = [10 ** rng.uniform(-2.0, -0.3, size=dim) for _ in entries]
        bank = LMCParams(variances, _length_scales(entries), tuple(weights), kappas)
        sigma = bank.covariance(levels, levels)
        if float(np.max(np.abs(sigma - sigma.T))) <= 1e-10:
            symmetric += 1
        try:
            _, used = jittered_cholesky(sigma, jitter=1e-6, max_jitter=1e-2)
            if used <= 1e-6 * (1 + 1e-12):
                cheap_chol += 1
        except NumericalError:
            pass
    ok = symmetric == 1000 and cheap_chol >= 990
    _line(
        7,
        "kernel-gram-validity",
        ok,
        f"(symmetric {symmetric}/1000, base jitter {cheap_chol}/1000)",
    )
    assert symmetric == 1000
    assert cheap_chol >= 990


# -- 8: K-S exactness --------------------------------------------------------------------


def test_acceptance_8_ks_correctness():
    rng = np.random.default_rng(77)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = Policy(rng.dirichlet(np.ones(n)))
        q = Policy(rng.dirichlet(np.ones(n)))
        cp = cq = 0.0
        worst = 0.0
        for a, b in zip(p.probs, q.probs):
            cp += a
            cq += b
            worst = max(worst, abs(cp - cq))
        if ks_statistic(p, q) != worst:
            exact = False
    monotone = True
    for n_obs in (10, 100, 1000):
        values = [ks_acceptance(d, n_obs) for d in np.linspace(0.0, 1.0, 201)]
        if any(b > a for a, b in zip(values, values[1:])):
            monotone = False
        if not values[0] > values[-1]:
            monotone = False
    ok = exact and monotone
    _line(8, "ks-statistic-exactness", ok, "(1000 pairs bitwise, monotone acceptance)")
    assert exact
    assert monotone


# -- 9: pipeline determinism ------------------------------------------------------------


def test_acceptance_9_pipeline_determinism(tmp_path, capsys):
    base = json.loads((REPO / "configs" / "desk.json").read_text())
    outputs = []
    for run in ("first", "second"):
        cfg = dict(base)
        cfg["out_dir"] = str(tmp_path / run)
        cfg_path = tmp_path / f"{run}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        outputs.append(tmp_path / run)
    capsys.readouterr()
    files = [
        "summary.json",
        "fig2_success.csv",
        "fig3_grid.csv",
        "fig4_scatter.csv",
        "fig5_intervals.csv",
    ]
    mismatched = [
        name
        for name in files
        if (outputs[0] / name).read_bytes() != (outputs[1] / name).read_bytes()
    ]
    ok = not mismatched
    _line(9, "pipeline-byte-determinism", ok, f"({', '.join(files[:1])} + figure files)")
    assert ok, f"files differ between runs: {mismatched}"
