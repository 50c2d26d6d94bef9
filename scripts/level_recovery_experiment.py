#!/usr/bin/env python3
"""Plant drivers at known levels and measure how well fitting recovers them.

Trains the discrete hierarchy, fits per-state models, synthesizes one
driver per requested level by sampling the model's own policy, then runs
the continuous fit and reports the per-level error distribution.  Writes
one CSV row per (level, state) fit.
"""

import argparse
import csv
import statistics
import sys
import time

import numpy as np

from levelkgp.config import DriverSpec, EnvConfig, RLConfig
from levelkgp.data import record_from_actions, sample_driver_actions
from levelkgp.fitting import LevelFitter
from levelkgp.gp import ModelCache, fit_state_gp
from levelkgp.levelk import train_hierarchy


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--episodes", type=int, default=300, help="RL episodes per level")
    parser.add_argument("--n-states", type=int, default=20)
    parser.add_argument("--samples", type=int, default=500, help="observations per state")
    parser.add_argument(
        "--levels",
        default="0.0,0.25,0.5,0.75,1.0,1.25,1.5,1.75",
        help="comma-separated true levels to plant",
    )
    parser.add_argument("--out", default="recovery.csv", help="per-fit CSV output")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    true_levels = [float(tok) for tok in args.levels.split(",")]

    t0 = time.perf_counter()
    env = EnvConfig()
    policy_set = train_hierarchy(env, RLConfig(episodes=args.episodes), seed=args.seed)
    common = policy_set.common_states(20)
    if len(common) < args.n_states:
        print(
            f"only {len(common)} well-visited states; rerun with more episodes",
            file=sys.stderr,
        )
        return 1
    rng = np.random.default_rng([args.seed, 1001])
    state_ids = sorted(
        int(common[i]) for i in rng.choice(len(common), size=args.n_states, replace=False)
    )
    cache = ModelCache()
    for sid in state_ids:
        cache.put(fit_state_gp(policy_set.levels, policy_set.discrete_policies(sid), state_id=sid))
    fitter = LevelFitter(policy_set.discrete_policies, master_seed=args.seed, cache=cache)
    print(f"setup: {len(state_ids)} states modeled in {time.perf_counter() - t0:.1f}s")

    rows = []
    print(f"{'true':>6} {'median|err|':>12} {'mean|err|':>10} {'max|err|':>9}")
    for true_level in true_levels:
        spec = DriverSpec(
            driver_id=f"planted-{true_level}",
            level=true_level,
            samples_per_state=args.samples,
        )
        actions = sample_driver_actions(
            spec,
            lambda sid, l=true_level: cache.get(sid).policy_at(l),
            state_ids,
            seed=args.seed,
        )
        record = record_from_actions(spec.driver_id, actions)
        errors = []
        for sid in state_ids:
            result = fitter.fit_state(spec.driver_id, sid, record.counts[sid])
            errors.append(abs(result.level - true_level))
            rows.append(
                {
                    "true_level": true_level,
                    "state_id": sid,
                    "fitted_level": result.level,
                    "crit": result.crit,
                    "success": result.success,
                }
            )
        print(
            f"{true_level:>6.2f} {statistics.median(errors):>12.3f} "
            f"{statistics.mean(errors):>10.3f} {max(errors):>9.3f}"
        )

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} fits to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
