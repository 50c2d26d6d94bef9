import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from levelkgp.config import default_bank_entries
from levelkgp.gp import LMCParams, _length_scales

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def random_policies(rng, n_levels=4, n_actions=5, concentration=0.6):
    """Dirichlet rows: generic, strictly positive, distinct policies."""
    return rng.dirichlet(np.full(n_actions, concentration), size=n_levels)


def kron_covariance(grams, variances, coregs, out):
    """The np.kron loop that ``gp.lmc_covariance`` replaced: its bit-for-bit oracle."""
    for var, coreg, gram in zip(variances, coregs, grams):
        out += var * np.kron(coreg, gram)
    return out


def shift_normalize_row(raw):
    """The one-vector ``gp.shift_normalize`` that the row-wise one replaced:
    its bit-for-bit oracle, returning the clipped probability vector."""
    v = np.asarray(raw, dtype=float).ravel()
    lowest = v.min()
    shifted = v - lowest if lowest < 0 else v.copy()
    total = shifted.sum()
    if total <= 1e-300:
        return np.full(v.size, 1.0 / v.size)
    return np.clip(shifted / total, 0.0, 1.0)


def default_bank(output_dim, rng=None):
    """Unit-variance default bank with small random coregionalization weights."""
    rng = rng or np.random.default_rng(0)
    entries = default_bank_entries()
    return LMCParams(
        variances=np.ones(len(entries)),
        length_scales=_length_scales(entries),
        weights=tuple(0.1 * rng.standard_normal((output_dim, output_dim)) for _ in entries),
        kappas=np.full((len(entries), output_dim), 0.1),
    )


# A hand-written version-1 model file: 3 actions, a bias and a Matern entry.
V1_MODEL = {
    "version": 1,
    "state_id": 17,
    "levels": [0.0, 1.0, 2.0, 3.0],
    "policies": [
        [0.5, 0.25, 0.25],
        [0.25, 0.5, 0.25],
        [0.2, 0.3, 0.5],
        [0.6, 0.3, 0.1],
    ],
    "bank": {
        "entries": [
            {"kind": "bias", "variance": 0.5, "weights": [[0.1], [-0.2]], "kappa": [0.05, 0.1]},
            {
                "kind": "matern32",
                "variance": 1.5,
                "length_scale": 0.75,
                "weights": [[0.3], [0.2]],
                "kappa": [0.2, 0.01],
            },
        ]
    },
    "jitter_used": 1e-06,
    "lml": -3.25,
}
