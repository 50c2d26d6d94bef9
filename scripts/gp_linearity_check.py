#!/usr/bin/env python3
"""How far do predicted policies stray from combinations of the trained ones?

The closed-form best-response analysis applies to policies that are
exact mixtures of the discrete-level policies.  The models impose no
such structure: a predicted policy at a fractional level may leave the
span of pi_0..pi_3.  This diagnostic quantifies that, per state, as the
residual of projecting each predicted policy onto

  * the affine hull of the discrete policies (coefficients sum to 1), and
  * their convex hull (coefficients additionally non-negative),

over a dense level grid.  It reports numbers and makes no claim.
"""

import argparse
import sys

import numpy as np
from scipy.optimize import minimize

from levelkgp.config import EnvConfig, RLConfig
from levelkgp.gp import fit_state_gp
from levelkgp.levelk import train_hierarchy


def affine_residual(basis: np.ndarray, target: np.ndarray) -> float:
    """Distance from target to the affine hull of the basis rows."""
    # pin the sum-to-one constraint by working relative to the first row
    deltas = (basis[1:] - basis[0]).T
    coeffs, *_ = np.linalg.lstsq(deltas, target - basis[0], rcond=None)
    return float(np.linalg.norm(target - basis[0] - deltas @ coeffs))


def convex_residual(basis: np.ndarray, target: np.ndarray) -> float:
    """Distance from target to the convex hull of the basis rows."""
    n = basis.shape[0]

    def objective(c):
        return float(np.sum((basis.T @ c - target) ** 2))

    result = minimize(
        objective,
        np.full(n, 1.0 / n),
        method="SLSQP",
        bounds=[(0.0, 1.0)] * n,
        constraints=[{"type": "eq", "fun": lambda c: np.sum(c) - 1.0}],
    )
    return float(np.sqrt(max(result.fun, 0.0)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--episodes", type=int, default=300)
    parser.add_argument("--n-states", type=int, default=10)
    parser.add_argument("--grid-step", type=float, default=0.05)
    args = parser.parse_args()

    env = EnvConfig()
    policy_set = train_hierarchy(env, RLConfig(episodes=args.episodes), seed=args.seed)
    common = policy_set.common_states(20)
    rng = np.random.default_rng([args.seed, 1001])
    n = min(args.n_states, len(common))
    state_ids = sorted(int(common[i]) for i in rng.choice(len(common), size=n, replace=False))

    grid = np.arange(0.0, 3.0 + args.grid_step / 2, args.grid_step)
    print(f"{'state':>8} {'max affine':>11} {'mean affine':>12} {'max convex':>11}")
    overall_affine = 0.0
    overall_convex = 0.0
    for sid in state_ids:
        basis = np.vstack(
            [p.probs for p in policy_set.discrete_policies(sid)]
        )
        model = fit_state_gp(policy_set.levels, basis, state_id=sid)
        affine = []
        convex = []
        for level in grid:
            predicted = model.policy_at(float(level)).probs
            affine.append(affine_residual(basis, predicted))
            convex.append(convex_residual(basis, predicted))
        print(
            f"{sid:>8} {max(affine):>11.2e} {np.mean(affine):>12.2e} {max(convex):>11.2e}"
        )
        overall_affine = max(overall_affine, max(affine))
        overall_convex = max(overall_convex, max(convex))
    print(
        f"\nworst-case residual over {n} states, grid step {args.grid_step}: "
        f"affine {overall_affine:.2e}, convex {overall_convex:.2e}"
    )
    print("(zero would mean every predicted policy is a mixture of the discrete four)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
