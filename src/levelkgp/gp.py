"""Per-state multi-output GP over the continuous reasoning level.

Training data are the discrete-level policies of one state: inputs are
the integer levels, outputs the action probabilities.  A probability
vector is determined by its deviation from uniform inside the zero-sum
hyperplane, so the GP models the coordinates of (policy - uniform) in
an orthonormal basis of that hyperplane.  Predictive means therefore
sum to one exactly at every level, and the modeled process has zero
prior mean.  The observed vectors are treated as noise-free up to the
stabilizing jitter.

The multi-output covariance is a linear model of coregionalization

    Sigma(X, X') = sum_z var_z B_z (x) k_z(X, X')

where (x) is the Kronecker product, each k_z is a unit-variance
Matern-3/2 kernel on the reasoning-level axis and each
B_z = W_z W_z^T + diag(kappa_z) couples the outputs.  The bias entry is
the entry with an infinite length scale, whose kernel is exactly 1.
Blocks are laid out output-major: row index d*N + i refers to output d
at input i.  ``lmc_covariance`` is the one routine that assembles
Sigma, for the training objective and for the posterior alike.  A
model lays its variances and B_z out for it once (``kron_factors``),
so a posterior query pays for its grams and products, not for layout.

The bank is fixed in shape (one bias entry plus Matern-3/2 entries on a
length-scale grid); only the variances and coregionalization weights
and kappa are learned, by maximizing the log marginal likelihood with
L-BFGS-B from several restarts, using the analytic gradient.

The restarts of a state run in lockstep: ``_lbfgsb_lockstep`` advances
each one through SciPy's L-BFGS-B reverse communication to its next
request for f and g, then answers every pending request with one call of
the objective over the stack of theta.  Each restart follows exactly the
path that ``scipy.optimize.minimize(method="L-BFGS-B")`` takes from its
start, so the fits are the same bit for bit.

The objective batches the bank and the restarts: one decode of the
theta stack, every B_z from one batched product, one stacked Cholesky,
every gradient slot from one einsum.  Only the triangular solves and the
log-likelihood sum run per restart.  Sigma is still summed entry by
entry in bank order from jitter*I, because float addition is not
associative and the fits, which stop at max_iter, would move.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrs
from scipy.optimize import OptimizeResult
from scipy.optimize._lbfgsb import setulb

from .config import (
    MAX_JITTER,
    GPConfig,
    KernelEntryConfig,
    OptimizerConfig,
    default_bank_entries,
)
from .errors import (
    ConfigurationError,
    InputError,
    LevelkgpError,
    MissingStateError,
    NumericalError,
    ParameterError,
    SchemaError,
    file_section,
    read_json,
)

logger = logging.getLogger(__name__)

LOG_2PI = math.log(2.0 * math.pi)
SQRT3 = math.sqrt(3.0)
# lmc_covariance forms at most this many Kronecker-term entries at once: the
# whole bank for the objective's small stacks and an annealing step's few
# levels, one entry at a time for a long query grid, whose bank-wide terms
# would take a megabyte
KRON_BLOCK = 1 << 15


class Policy:
    """Immutable probability vector over actions.

    Entries lie in [0, 1] and sum to one within 1e-9; violations raise
    InputError.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise InputError("policy must be a vector with at least two entries")
        # min and max propagate NaN, so this passes only finite entries in range
        if not (p.min() >= -1e-9 and p.max() <= 1.0 + 1e-9):
            if not np.all(np.isfinite(p)):
                raise InputError("policy entries must be finite")
            raise InputError("policy entries must lie in [0, 1]")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"policy must sum to 1, got {total!r}")
        p = np.clip(p, 0.0, 1.0)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __setattr__(self, name, value):
        raise AttributeError("Policy is immutable")

    def __len__(self) -> int:
        return self.probs.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Policy) and np.array_equal(self.probs, other.probs)

    def __repr__(self) -> str:
        return f"Policy({np.array2string(self.probs, precision=4)})"


def shift_normalize(raw):
    """Map each row of a real array to a probability vector: shift the
    row up by its minimum if any entry is negative, then divide by its
    sum.  A vector gives a Policy.  An (m, A) array gives the (m, A)
    rows, which lie in [0, 1] and sum to one by construction.

    A row whose shifted sum is (numerically) zero carries no preference
    information and becomes uniform, with one warning per call.
    """
    v = np.asarray(raw, dtype=float)
    if v.ndim == 0 or v.size == 0 or v.shape[-1] < 2:
        raise InputError("need at least two entries to normalize")
    if not np.isfinite(v).all():
        raise InputError("cannot normalize non-finite values")
    shifted = v - np.minimum(v.min(axis=-1, keepdims=True), 0.0)
    total = shifted.sum(axis=-1, keepdims=True)
    degenerate = total <= 1e-300
    if degenerate.any():
        logger.warning("degenerate vector in shift_normalize, using uniform")
        shifted = np.where(degenerate, 1.0, shifted)
        total = np.where(degenerate, float(v.shape[-1]), total)
    probs = shifted / total
    return Policy(probs) if v.ndim == 1 else probs


def zero_sum_basis(dim: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum hyperplane, shape (dim, dim-1).

    Column j has j+1 leading entries 1 and then -(j+1), scaled to unit
    norm.  Columns are mutually orthogonal and orthogonal to the ones
    vector, so V^T V = I and 1^T V = 0.
    """
    if dim < 2:
        raise InputError("basis needs dim >= 2")
    basis = np.zeros((dim, dim - 1))
    for j in range(1, dim):
        basis[:j, j - 1] = 1.0
        basis[j, j - 1] = -float(j)
        basis[:, j - 1] /= math.sqrt(j * (j + 1))
    return basis


def residual_target(policies: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coordinates of (policy - uniform) in ``basis``, one row per policy,
    flattened output-major: the zero-mean GP's training target."""
    return ((policies - 1.0 / policies.shape[1]) @ basis).T.ravel()


# --- LMC covariance -----------------------------------------------------------


def unit_grams(x, y, length_scales) -> np.ndarray:
    """Unit-variance Matern-3/2 grams, shape (Z, len(x), len(y)).

    An infinite length scale gives s = 0 and hence the constant bias
    kernel, exactly 1.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    scales = np.asarray(length_scales, dtype=float).ravel()
    return _matern_grams(x[:, None] - y[None, :], scales[:, None, None])


def _matern_grams(diff, scales) -> np.ndarray:
    """``unit_grams`` of the differences diff (N, N') at scales (Z, 1, 1)."""
    s = SQRT3 * np.abs(diff) / scales
    return (1.0 + s) * np.exp(-s)


def kron_factors(variances, coregs) -> tuple[np.ndarray, np.ndarray]:
    """The variances (Z,) and B_z (Z, D, D) of a bank, or of a stack of P
    banks (Z, P) and (Z, P, D, D), laid out for ``lmc_covariance``'s
    broadcast: (Z, ..., 1, 1, 1, 1) and (Z, ..., D, 1, D, 1)."""
    return np.reshape(variances, np.shape(variances) + (1, 1, 1, 1)), coregs[..., :, None, :, None]


def lmc_covariance(grams, variances, coregs, out: np.ndarray) -> np.ndarray:
    """Add sum_z var_z kron(B_z, k_z) into ``out`` in bank order and return it.

    grams (Z, N, N') with the ``kron_factors`` of one bank give out
    (D*N, D*N'); those of a stack of P banks give out (P, D*N, D*N').
    """
    if coregs.ndim < 5 or np.ndim(variances) != coregs.ndim:
        raise InputError("lmc_covariance takes the variances and B_z laid out by kron_factors")
    z, rows, cols = grams.shape
    gram = grams.reshape((z,) + (1,) * (coregs.ndim - 4) + (rows, 1, cols))
    step = max(1, KRON_BLOCK // out.size)
    for lo in range(0, z, step):
        # kron(B, k) as np.kron forms it: the products B[a, b] k[i, j] laid out (a, i, b, j)
        terms = coregs[lo : lo + step] * gram[lo : lo + step]
        terms *= variances[lo : lo + step]
        for term in terms.reshape((-1,) + out.shape):
            out += term
    return out


def jittered_cholesky(
    matrix: np.ndarray, jitter: float = 1e-6, max_jitter: float = MAX_JITTER
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of matrix + jitter*I, escalating jitter by 10x.

    Returns the factor and the jitter that succeeded.  Raises
    NumericalError once the jitter would exceed max_jitter.
    """
    if not 0 < jitter <= max_jitter:
        raise ParameterError("require 0 < jitter <= max_jitter")
    m = np.asarray(matrix, dtype=float)
    eye = np.eye(m.shape[0])
    level = jitter
    while level <= max_jitter * (1 + 1e-12):
        try:
            return np.linalg.cholesky(m + level * eye), level
        except np.linalg.LinAlgError:
            level *= 10.0
    raise NumericalError(
        f"covariance not positive definite up to jitter {max_jitter}"
    )


@dataclass(frozen=True, eq=False)
class LMCParams:
    """Hyperparameters of the LMC, one entry z per kernel of the bank.

    ``variances`` (Z,), ``length_scales`` (Z,) with inf for the bias
    entry, ``weights`` a tuple of W_z (D, R_z) and ``kappas`` (Z, D).
    Fits use R_z = D; model files may hold any width.
    Validated on construction, so model files are checked on load; the
    B_z are built once, into ``coregs`` (Z, D, D), and laid out for
    ``lmc_covariance`` once, into ``kron``.
    """

    variances: np.ndarray
    length_scales: np.ndarray
    weights: tuple
    kappas: np.ndarray
    coregs: np.ndarray = field(init=False, repr=False)
    kron: tuple = field(init=False, repr=False)

    def __post_init__(self):
        variances = np.asarray(self.variances, dtype=float).ravel()
        scales = np.asarray(self.length_scales, dtype=float).ravel()
        weights = tuple(np.atleast_2d(np.asarray(w, dtype=float)) for w in self.weights)
        kappas = [np.asarray(k, dtype=float).ravel() for k in self.kappas]
        if not weights or not len(variances) == len(scales) == len(weights) == len(kappas):
            raise ConfigurationError("need one variance, length scale, W and kappa per entry")
        if not (np.all(variances > 0) and np.all(scales > 0)):
            raise ParameterError(f"variances {variances}, length scales {scales}: need > 0")
        if any(w.shape[0] != k.size for w, k in zip(weights, kappas)):
            raise ParameterError("weights rows must match kappa size")
        if len({k.size for k in kappas}) != 1:
            raise ConfigurationError("inconsistent output dims in bank")
        if any(np.any(k < 0) for k in kappas):
            raise ParameterError("kappa entries must be non-negative")
        if not all(np.all(np.isfinite(a)) for a in weights + tuple(kappas)):
            raise ParameterError("coregionalization parameters must be finite")
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "length_scales", scales)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "kappas", np.vstack(kappas))
        # B_z = W_z W_z^T + diag(kappa_z), PSD; built per entry as W_z may be narrow
        coregs = np.stack([w @ w.T + np.diag(k) for w, k in zip(weights, kappas)])
        object.__setattr__(self, "coregs", coregs)
        object.__setattr__(self, "kron", kron_factors(variances, coregs))

    def covariance(self, x, y) -> np.ndarray:
        """Full cross-covariance Sigma(x, y), output-major."""
        grams = unit_grams(x, y, self.length_scales)
        dim = self.kappas.shape[1]
        out = np.zeros((dim * grams.shape[1], dim * grams.shape[2]))
        return lmc_covariance(grams, *self.kron, out)

    @classmethod
    def from_theta(
        cls, theta: np.ndarray, entries: Sequence[KernelEntryConfig], dim: int
    ) -> "LMCParams":
        """The parameters at a point of the optimizer's flat vector."""
        variances, weights, raw_kappas = _decode(
            np.asarray(theta, dtype=float), len(entries), dim
        )
        return cls(variances, _length_scales(entries), tuple(weights), _softplus(raw_kappas))

    def to_dict(self) -> dict:
        """The ``bank`` section of a version-1 model file."""
        entries = []
        for var, scale, w, k in zip(
            self.variances, self.length_scales, self.weights, self.kappas
        ):
            spec = {"kind": "bias", "variance": float(var)}
            if not math.isinf(scale):
                spec = {"kind": "matern32", "variance": float(var), "length_scale": float(scale)}
            entries.append({**spec, "weights": w.tolist(), "kappa": k.tolist()})
        return {"entries": entries}

    @classmethod
    def from_dict(cls, doc: dict) -> "LMCParams":
        entries = doc["entries"]
        for spec in entries:
            if spec["kind"] not in ("bias", "matern32"):
                raise ConfigurationError(f"unknown kernel kind {spec['kind']!r}")
        return cls(
            variances=[spec["variance"] for spec in entries],
            length_scales=[
                math.inf if spec["kind"] == "bias" else spec["length_scale"]
                for spec in entries
            ],
            weights=tuple(spec["weights"] for spec in entries),
            kappas=[spec["kappa"] for spec in entries],
        )


# --- parameter vector layout -------------------------------------------------
#
# One slot per bank entry z: [log_variance, W.ravel() (D*D), raw_kappa (D)]
# kappa = softplus(raw_kappa) keeps the diagonal non-negative.

LOG_VARIANCE_BOUNDS = (-12.0, 6.0)
WEIGHT_BOUND = 5.0
RAW_KAPPA_BOUNDS = (-12.0, 6.0)


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softplus_inv(y):
    y = np.asarray(y, dtype=float)
    return y + np.log(-np.expm1(-y))


def _length_scales(entries: Sequence[KernelEntryConfig]) -> np.ndarray:
    return np.array([math.inf if cfg.kind == "bias" else cfg.length_scale for cfg in entries])


def _decode(theta: np.ndarray, n_entries: int, dim: int):
    """Variances (..., Z), W (..., Z, D, D) and raw kappas (..., Z, D) of a
    theta of shape (..., n); W and the raw kappas are views of theta."""
    rows = theta.reshape(theta.shape[:-1] + (n_entries, -1))
    log_vars = rows[..., 0]
    # math.exp, as the fits were made with: numpy's vectorized exp may round differently
    variances = np.array([math.exp(v) for v in log_vars.ravel().tolist()])
    weights = rows[..., 1 : 1 + dim * dim].reshape(rows.shape[:-1] + (dim, dim))
    return variances.reshape(log_vars.shape), weights, rows[..., 1 + dim * dim :]


def _cholesky_rows(sigma: np.ndarray) -> list:
    """Lower Cholesky factors of a (P, m, m) stack, None for a matrix that
    is not positive definite."""
    try:
        return list(np.linalg.cholesky(sigma))
    except np.linalg.LinAlgError:
        pass
    chols = []
    for matrix in sigma:
        try:
            chols.append(np.linalg.cholesky(matrix))
        except np.linalg.LinAlgError:
            chols.append(None)
    return chols


def _neg_lml_and_grad(thetas, grams, target, dim, jitter):
    """Negative log marginal likelihood and its gradient at each row of a
    theta stack (P, n), all for one target (m,).

    Gives values (P,) and gradients (P, n), row p bit for bit the call on
    row p alone.  A row whose Sigma is not positive definite gives
    (1e12, 0).
    """
    problems = thetas.shape[0]
    n_entries, n = grams.shape[:2]
    m = dim * n
    variances, weights, raw_kappas = _decode(thetas, n_entries, dim)
    coregs = weights @ weights.swapaxes(-1, -2)
    diag = np.arange(dim)
    coregs[..., diag, diag] += _softplus(raw_kappas)
    sigma = lmc_covariance(
        grams,
        *kron_factors(variances.T, coregs.swapaxes(0, 1)),
        np.tile(jitter * np.eye(m), (problems, 1, 1)),
    )
    values = np.full(problems, 1e12)
    alphas = np.zeros((problems, m))
    sigma_invs = np.zeros((problems, m, m))
    failed = []
    eye = np.eye(m)
    for p, chol in enumerate(_cholesky_rows(sigma)):
        if chol is None:
            failed.append(p)
            continue
        # cho_solve's LAPACK call without its finiteness checks: theta and the target are finite
        alphas[p], info = dpotrs(chol, target, lower=1)
        sigma_invs[p], info_inv = dpotrs(chol, eye, lower=1)
        if info or info_inv:
            raise NumericalError(f"dpotrs failed with info {info or info_inv}")
        lml = (
            -0.5 * target @ alphas[p]
            - np.log(np.diag(chol)).sum()
            - 0.5 * m * LOG_2PI
        )
        values[p] = -lml
    # dLML/dtheta = 0.5 tr((alpha alpha^T - Sigma^-1) dSigma/dtheta)
    gbar = alphas[:, :, None] * alphas[:, None, :] - sigma_invs
    scaled = variances[..., None, None] * grams
    mb = 0.5 * np.einsum("paibj,pzij->pzab", gbar.reshape(problems, dim, n, dim, n), scaled)
    grad = np.empty((problems, n_entries, thetas.shape[1] // n_entries))
    grad[..., 0] = np.sum(mb * coregs, axis=(-2, -1))
    grad[..., 1 : 1 + dim * dim] = ((mb + mb.swapaxes(-1, -2)) @ weights).reshape(
        problems, n_entries, -1
    )
    grad[..., 1 + dim * dim :] = np.diagonal(mb, axis1=-2, axis2=-1) * _sigmoid(raw_kappas)
    grad = -grad.reshape(problems, -1)
    grad[failed] = 0.0
    return values, grad


def _initial_theta(n_entries: int, dim: int, rng, perturb: bool):
    pieces = []
    for _ in range(n_entries):
        log_var = 0.0
        w = 0.1 * rng.standard_normal((dim, dim))
        raw_kappa = np.full(dim, _softplus_inv(0.1))
        if perturb:
            log_var += rng.normal(scale=1.0)
            raw_kappa += rng.normal(scale=0.5, size=dim)
        pieces.append(np.concatenate(([log_var], w.ravel(), raw_kappa)))
    return np.concatenate(pieces)


def _bounds(n_entries: int, dim: int):
    slot = [LOG_VARIANCE_BOUNDS] + [(-WEIGHT_BOUND, WEIGHT_BOUND)] * (dim * dim)
    return (slot + [RAW_KAPPA_BOUNDS] * dim) * n_entries


# --- L-BFGS-B in lockstep ------------------------------------------------------
#
# scipy.optimize.minimize(method="L-BFGS-B") with its default options, driven
# through the reverse-communication routine it wraps.  setulb is private SciPy
# API; tests run this driver against minimize from the same starts, so a SciPy
# release that changes it fails loudly.

LBFGSB_MAXCOR = 10
LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
LBFGSB_PGTOL = 1e-5
LBFGSB_MAXLS = 20
LBFGSB_MAXFUN = 15000
TASK_NEW_X, TASK_FG, TASK_CONVERGENCE, TASK_STOP = 1, 3, 4, 5
STOP_MAXFUN, STOP_MAXITER = 502, 504


class _LbfgsbRun:
    """One L-BFGS-B minimization: setulb's state and minimize's counters."""

    def __init__(self, x0, lower, upper, max_iter: int):
        n, corrections = x0.size, LBFGSB_MAXCOR
        self.x = np.clip(x0, lower, upper)
        self.lower, self.upper = lower, upper
        self.nbd = np.full(n, 2, dtype=np.int32)  # every variable has both bounds
        self.f = 0.0
        self.g = np.zeros(n)
        self.wa = np.zeros(2 * corrections * n + 5 * n + 11 * corrections**2 + 8 * corrections)
        self.iwa = np.zeros(3 * n, dtype=np.int32)
        self.task = np.zeros(2, dtype=np.int32)
        self.ln_task = np.zeros(2, dtype=np.int32)
        self.lsave = np.zeros(4, dtype=np.int32)
        self.isave = np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29)
        self.max_iter = max_iter
        self.nit = 0
        self.nfev = 0

    def advance(self) -> bool:
        """Run setulb until it asks for f and g at ``x`` (True) or stops (False)."""
        while True:
            setulb(
                LBFGSB_MAXCOR, self.x, self.lower, self.upper, self.nbd, self.f, self.g,
                LBFGSB_FACTR, LBFGSB_PGTOL, self.wa, self.iwa, self.task, self.lsave,
                self.isave, self.dsave, LBFGSB_MAXLS, self.ln_task,
            )
            if self.task[0] == TASK_FG:
                return True
            if self.task[0] != TASK_NEW_X:
                return False
            self.nit += 1
            if self.nit >= self.max_iter:
                self.task[:] = TASK_STOP, STOP_MAXITER
            elif self.nfev > LBFGSB_MAXFUN:
                self.task[:] = TASK_STOP, STOP_MAXFUN

    def result(self) -> OptimizeResult:
        if self.task[0] == TASK_CONVERGENCE:
            status = 0
        elif self.nfev > LBFGSB_MAXFUN or self.nit >= self.max_iter:
            status = 1
        else:
            status = 2
        return OptimizeResult(fun=self.f, x=self.x, nit=self.nit, nfev=self.nfev, status=status)


def _lbfgsb_lockstep(fun, x0, bounds, max_iter: int) -> list:
    """Minimize from each start in ``x0`` (P, n) with L-BFGS-B, all in lockstep.

    ``fun`` maps a stack of points (k, n) to values (k,) and gradients
    (k, n).  Each round answers the pending requests of every unfinished
    run with one call.  ``bounds`` holds a finite (low, high) pair per
    variable.  Returns one OptimizeResult per start, with the ``fun``,
    ``x`` and ``nit`` of ``minimize(method="L-BFGS-B",
    options={"maxiter": max_iter})`` from that start, bit for bit;
    ``status`` is 0 on convergence, 1 at max_iter and 2 otherwise.
    """
    lower, upper = np.array(bounds, dtype=float).T.copy()
    starts = np.atleast_2d(np.asarray(x0, dtype=float))
    runs = [_LbfgsbRun(start, lower, upper, max_iter) for start in starts]
    pending = [run for run in runs if run.advance()]
    while pending:
        values, grads = fun(np.stack([run.x for run in pending]))
        for run, value, grad in zip(pending, values, grads):
            run.f, run.g = value, grad.astype(np.float64)
            run.nfev += 1
        pending = [run for run in pending if run.advance()]
    return [run.result() for run in runs]


def _validate_training_set(levels, policies):
    x = np.asarray(levels, dtype=float).ravel()
    rows = [p.probs if isinstance(p, Policy) else np.asarray(p, float) for p in policies]
    y = np.vstack(rows)
    if x.size != y.shape[0]:
        raise InputError("one policy per training level required")
    if x.size < 2:
        raise InputError("need at least two training levels")
    if len(np.unique(x)) != x.size:
        raise InputError("training levels must be distinct")
    if not np.all(np.isfinite(x)):
        raise InputError("training levels must be finite")
    if y.shape[1] < 2:
        raise InputError("policies need at least two actions")
    if not np.all(np.isfinite(y)):
        raise InputError("policies must be finite")
    if np.any(y < -1e-9) or np.abs(y.sum(axis=1) - 1.0).max() > 1e-6:
        raise InputError("training rows must be probability vectors")
    return x, y


@dataclass
class PolicyPrediction:
    """Posterior at one level: raw mean and covariance.  The raw mean sums
    to one by construction; entries may be slightly negative between
    training levels."""

    level: float
    mean: np.ndarray
    cov: np.ndarray


class StateGP:
    """Fitted per-state model; exposes posterior queries over levels.

    Instances are immutable after construction: prediction only reads
    the stored factorization.  ``jitter_used`` above ``MAX_JITTER``
    raises InputError, so a model file cannot raise the jitter cap.
    """

    def __init__(
        self,
        levels: np.ndarray,
        policies: np.ndarray,
        params: LMCParams,
        jitter_used: float,
        state_id: Optional[int],
        lml: float,
    ):
        self.levels, self.policies = _validate_training_set(levels, policies)
        self.params = params
        self.state_id = state_id
        self.action_count = self.policies.shape[1]
        self.basis = zero_sum_basis(self.action_count)
        self.prior_mean = np.full(self.action_count, 1.0 / self.action_count)
        self._target = residual_target(self.policies, self.basis)
        # the escalation tolerance of jittered_cholesky, so every fitted model loads
        if jitter_used > MAX_JITTER * (1 + 1e-12):
            raise InputError(f"jitter_used {jitter_used} above the cap {MAX_JITTER}")
        sigma = params.covariance(self.levels, self.levels)
        self.chol, self.jitter_used = jittered_cholesky(
            sigma, jitter_used, max(jitter_used, MAX_JITTER)
        )
        self._alpha = cho_solve((self.chol, True), self._target)
        self.lml = lml

    # -- queries --------------------------------------------------------

    def predict_mean(self, levels) -> np.ndarray:
        """Raw posterior means, one row per query level, shape (m, A); row i
        equals ``predict_mean([levels[i]])[0]`` bit for bit."""
        q = np.atleast_1d(np.asarray(levels, dtype=float)).ravel()
        if not np.isfinite(q).all():
            raise InputError("query levels must be finite")
        dim = self.action_count - 1
        scales = self.params.length_scales[:, None, None]
        grams = _matern_grams(q[:, None] - self.levels[None, :], scales)
        out = np.zeros((dim * q.size, dim * self.levels.size))
        star = lmc_covariance(grams, *self.params.kron, out)
        coords = (star @ self._alpha).reshape(dim, q.size).T
        means = np.empty((q.size, self.action_count))
        # a stack of one-row products: numpy takes gemv for one row and gemm for several
        # rows, which round differently, so each row is one query's gemv
        np.matmul(coords[:, None, :], self.basis.T, out=means[:, None, :])
        means += self.prior_mean
        return means

    def predict(self, level: float) -> PolicyPrediction:
        """Posterior mean and covariance of the action probabilities."""
        q = float(level)
        mean = self.predict_mean([q])[0]
        star = self.params.covariance([q], self.levels)
        prior = self.params.covariance([q], [q])
        solved = cho_solve((self.chol, True), star.T)
        cov_coords = prior - star @ solved
        cov = self.basis @ cov_coords @ self.basis.T
        cov = 0.5 * (cov + cov.T)
        return PolicyPrediction(level=q, mean=mean, cov=cov)

    def policies_at(self, levels) -> np.ndarray:
        """Posterior policies, one row per query level, shape (m, A): the
        posterior means, shifted and normalized row by row."""
        return shift_normalize(self.predict_mean(levels))

    def policy_at(self, level: float) -> Policy:
        return Policy(self.policies_at([level])[0])

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "state_id": self.state_id,
            "levels": self.levels.tolist(),
            "policies": self.policies.tolist(),
            "bank": self.params.to_dict(),
            "jitter_used": self.jitter_used,
            "lml": self.lml,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StateGP":
        if not isinstance(doc, dict):
            raise SchemaError("a model file must hold a JSON object")
        if doc.get("version") != 1:
            raise InputError(f"unsupported model version {doc.get('version')!r}")
        with file_section("model levels"):
            levels = np.asarray(doc["levels"], dtype=float)
        with file_section("model policies"):
            policies = np.asarray(doc["policies"], dtype=float)
        with file_section("model bank"):
            params = LMCParams.from_dict(doc["bank"])
        with file_section("model jitter_used, lml or state_id"):
            jitter_used, lml = float(doc["jitter_used"]), float(doc["lml"])
            state_id = doc["state_id"]
        if state_id is not None and type(state_id) is not int:
            raise SchemaError(f"model state_id {state_id!r} is not an integer")
        return cls(levels, policies, params, jitter_used, state_id, lml)

    def save(self, path: str | Path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)

    @classmethod
    def load(cls, path: str | Path) -> "StateGP":
        return cls.from_dict(read_json(path))


def fit_state_gp(
    levels,
    policies,
    bank_entries: Optional[Sequence[KernelEntryConfig]] = None,
    optimizer: Optional[OptimizerConfig] = None,
    gp_config: Optional[GPConfig] = None,
    state_id: Optional[int] = None,
) -> StateGP:
    """Fit bank hyperparameters to one state's discrete-level policies.

    Runs L-BFGS-B from ``optimizer.restarts`` starts in lockstep (the
    first start is a fixed default initialization, later ones are
    perturbed) and keeps the solution with the highest marginal
    likelihood.  Deterministic given (data, configs, state_id).
    """
    entries = tuple(bank_entries) if bank_entries is not None else default_bank_entries()
    opt = optimizer or OptimizerConfig()
    gpc = gp_config or GPConfig()
    x, y = _validate_training_set(levels, policies)
    action_count = y.shape[1]
    dim = action_count - 1
    target = residual_target(y, zero_sum_basis(action_count))

    grams = unit_grams(x, x, _length_scales(entries))
    seed_key = state_id if state_id is not None else 0
    rng = np.random.default_rng(np.random.SeedSequence([opt.seed, seed_key]))
    starts = [
        _initial_theta(len(entries), dim, rng, perturb=restart > 0)
        for restart in range(opt.restarts)
    ]
    results = _lbfgsb_lockstep(
        lambda thetas: _neg_lml_and_grad(thetas, grams, target, dim, gpc.jitter),
        starts,
        _bounds(len(entries), dim),
        opt.max_iter,
    )
    capped = sum(result.nit >= opt.max_iter for result in results)
    logger.debug(
        "state %s: %d of %d optimizer restarts stopped at max_iter=%d",
        state_id, capped, len(results), opt.max_iter,
    )
    best_theta = None
    best_nll = np.inf
    for result in results:
        if result.fun < best_nll:
            best_nll = result.fun
            best_theta = result.x
    if best_theta is None:
        raise NumericalError("all optimizer restarts failed")
    return StateGP(
        levels=x,
        policies=y,
        params=LMCParams.from_theta(best_theta, entries, dim),
        jitter_used=gpc.jitter,
        state_id=state_id,
        lml=-best_nll,
    )


class ModelCache:
    """Store of fitted per-state models, keyed by state id."""

    def __init__(self):
        self._models: dict[int, StateGP] = {}

    def put(self, model: StateGP):
        if model.state_id is None:
            raise InputError("cached models need a state_id")
        self._models[model.state_id] = model

    def get(self, state_id: int) -> StateGP:
        try:
            return self._models[state_id]
        except KeyError:
            raise MissingStateError(state_id) from None

    def __contains__(self, state_id: int) -> bool:
        return state_id in self._models

    def __len__(self) -> int:
        return len(self._models)

    def state_ids(self) -> list[int]:
        return sorted(self._models)

    def save_dir(self, path: str | Path):
        """Write one state_<id>.json per model and remove the model files of
        other states, so the directory holds exactly this cache."""
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        keep = {f"state_{state_id}.json" for state_id in self.state_ids()}
        for stale in root.glob("state_*.json"):
            if stale.name not in keep:
                stale.unlink()
        for state_id in self.state_ids():
            self.get(state_id).save(root / f"state_{state_id}.json")

    @classmethod
    def load_dir(cls, path: str | Path) -> "ModelCache":
        root = Path(path)
        if not root.is_dir():
            raise InputError(f"model directory {root} does not exist")
        cache = cls()
        files = sorted(root.glob("state_*.json"))
        if not files:
            raise InputError(f"model directory {root} contains no models")
        for file in files:
            try:
                cache.put(StateGP.load(file))
            except LevelkgpError as exc:
                raise type(exc)(f"{file.name}: {exc}") from exc
        return cache
