"""Best response in the level hierarchy game.

Levels 0..K form the strategy universe.  A pure level k earns 1 against
a pure level j exactly when k = j + 1, else 0, so the expected payoff
of responding with level k to a mixture c over opponent levels is the
single coefficient c[k-1].  The best-response set against c is therefore
the set {j+1 : c[j] is maximal over j = 0..K-1}, achieved value
max_j c[j], and any mixture supported on that set attains it.  The
closed form requires the opponent to put no mass on the top level K,
since level K+1 is outside the universe.

``brute_force_best_response`` checks the closed form by scanning a
simplex grid of responder mixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InputError

# levels whose coefficients differ by at most this much tie
TIE_TOL = 1e-12


class MixedStrategy:
    """Probability vector over the level universe 0..K."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise InputError("mixed strategy needs at least two levels")
        if not np.all(np.isfinite(c)):
            raise InputError("coefficients must be finite")
        if np.any(c < -TIE_TOL):
            raise InputError("coefficients must be non-negative")
        if abs(float(c.sum()) - 1.0) > 1e-9:
            raise InputError(f"coefficients must sum to 1, got {c.sum()!r}")
        c = np.clip(c, 0.0, None)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("MixedStrategy is immutable")

    @property
    def n_levels(self) -> int:
        return self.coeffs.size

    @property
    def max_level(self) -> int:
        return self.coeffs.size - 1

    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.coeffs > TIE_TOL)[0])

    @classmethod
    def uniform_over(cls, levels: Sequence[int], n_levels: int) -> "MixedStrategy":
        if not levels:
            raise InputError("need at least one level")
        c = np.zeros(n_levels)
        for lv in levels:
            if not 0 <= lv < n_levels:
                raise InputError(f"level {lv} outside universe of {n_levels}")
            c[lv] += 1.0 / len(levels)
        return cls(c)

    def __repr__(self) -> str:
        return f"MixedStrategy({np.array2string(self.coeffs, precision=4)})"


def mixed_utility(responder: MixedStrategy, opponent: MixedStrategy) -> float:
    """Expected payoff sum_j responder[j+1] * opponent[j]."""
    if responder.n_levels != opponent.n_levels:
        raise InputError("strategies must share the level universe")
    a = responder.coeffs
    b = opponent.coeffs
    return float(np.dot(a[1:], b[:-1]))


@dataclass(frozen=True)
class BestResponseResult:
    """Closed-form responder summary against one opponent mixture."""

    levels: tuple[int, ...]
    strategy: MixedStrategy
    value: float


def best_response_set(opponent: MixedStrategy) -> BestResponseResult:
    """Best-response levels, a uniform mixture over them, and the value.

    The opponent may not play the top level of the universe; responding
    one step above it would leave the universe.
    """
    c = opponent.coeffs
    if c[-1] > TIE_TOL:
        raise InputError(
            "opponent plays the top level; no best response inside the universe"
        )
    body = c[:-1]
    value = float(body.max())
    levels = tuple(int(j) + 1 for j in np.nonzero(body >= value - TIE_TOL)[0])
    strategy = MixedStrategy.uniform_over(levels, opponent.n_levels)
    return BestResponseResult(levels=levels, strategy=strategy, value=value)


def simplex_grid(units: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All compositions of `units` into `parts` non-negative integers."""
    if parts < 1:
        raise InputError("parts must be positive")
    if parts == 1:
        yield (units,)
        return
    for first in range(units + 1):
        for rest in simplex_grid(units - first, parts - 1):
            yield (first,) + rest


def brute_force_best_response(
    opponent: MixedStrategy,
    grid_step: float = 0.05,
) -> tuple[float, list[MixedStrategy]]:
    """Grid search over responder mixtures on levels 1..K.

    Returns the best utility found and every grid mixture achieving it
    within TIE_TOL.  The grid contains all pure strategies, so the
    maximum matches the true value exactly.  The whole grid is scored as
    one matrix product; only the rows within TIE_TOL of the maximum
    become strategies.
    """
    if not 0 < grid_step <= 1:
        raise InputError("grid_step must lie in (0, 1]")
    units = round(1.0 / grid_step)
    if abs(units * grid_step - 1.0) > 1e-9:
        raise InputError("grid_step must divide 1")
    n = opponent.n_levels
    grid = np.array([(0,) + combo for combo in simplex_grid(units, n - 1)]) / units
    # mixed_utility of each row: responder level j+1 against opponent level j
    values = grid[:, 1:] @ opponent.coeffs[:-1]
    best_value = float(values.max())
    argmax = [MixedStrategy(row) for row in grid[values >= best_value - TIE_TOL]]
    return best_value, argmax
