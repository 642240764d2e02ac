"""Unadjusted Langevin Algorithm, ergodic averages and Wasserstein-2
diagnostics.

The chain targets a log-density whose gradient is supplied as a drift
callable; one step reads

    theta' = theta + gamma * drift(theta) + sqrt(2 gamma) * xi,

with xi standard normal from the chain's own generator stream, so a run
is bit-reproducible from (seed, gamma, initial point).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

SLICED_W2_SEED = 20240807
SLICED_W2_PROJECTIONS = 128
ASSIGNMENT_MAX_N = 64


class DriftBlowUp(RuntimeError):
    """Non-finite drift or next iterate; carries a snapshot of the iterate
    the step started from."""

    def __init__(self, k: int, theta: np.ndarray):
        self.k = k
        self.theta = np.array(theta)
        super().__init__(f"non-finite drift or iterate at iteration {k}")


@dataclass
class ChainState:
    """One ULA iterate together with its RNG stream and the drift that
    produced it (None for the initial point)."""

    theta: np.ndarray
    gamma: float
    k: int
    rng: np.random.Generator
    drift: np.ndarray | None = None

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if not self.gamma > 0:
            raise ValueError("step size gamma must be positive")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("iterate must be finite")


def ula_step(state: ChainState, drift) -> ChainState:
    """One Euler-Maruyama step of the Langevin diffusion.

    Raises :class:`DriftBlowUp` at iteration ``state.k`` when the drift
    or the new iterate is not finite.
    """
    g = np.asarray(drift(state.theta), dtype=float)
    if not np.all(np.isfinite(g)):
        raise DriftBlowUp(state.k, state.theta)
    xi = state.rng.standard_normal(state.theta.size)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        theta = state.theta + state.gamma * g + np.sqrt(2.0 * state.gamma) * xi
    if not np.all(np.isfinite(theta)):
        raise DriftBlowUp(state.k, state.theta)
    return ChainState(theta=theta, gamma=state.gamma, k=state.k + 1,
                      rng=state.rng, drift=g)


@dataclass
class ChainRun:
    """Kept samples (after burn-in and thinning) plus run diagnostics."""

    samples: np.ndarray
    burn_in: int
    thin: int
    gamma: float
    n_steps: int
    seed: int | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_kept(self) -> int:
        return self.samples.shape[0]

    def save(self, csv_path):
        csv_path = Path(csv_path)
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"theta_{j + 1}" for j in range(self.samples.shape[1])])
            for row in self.samples:
                writer.writerow([repr(float(v)) for v in row])
        meta = {"burn_in": self.burn_in, "thin": self.thin, "gamma": self.gamma,
                "n_steps": self.n_steps, "seed": self.seed,
                "diagnostics": self.diagnostics}
        csv_path.with_suffix(".json").write_text(
            json.dumps(meta, indent=2, default=json_default))


def json_default(obj):
    """The ``default`` of every json.dumps of a report: numpy arrays and
    scalars become lists and Python numbers."""
    return obj.tolist()


def run_ula(drift, w_init: np.ndarray, gamma: float, n_steps: int,
            burn_in: int | None = None, thin: int = 1,
            rng: np.random.Generator | None = None, seed: int | None = None,
            energy=None) -> ChainRun:
    """Iterate :func:`ula_step` and keep every ``thin``-th iterate after burn-in.

    Burn-in defaults to 20% of the step count.  ``energy`` (optional
    callable) is traced along the kept samples for the boundedness
    diagnostic; drift norms are always traced.
    """
    if burn_in is None:
        burn_in = n_steps // 5
    if not 0 <= burn_in < n_steps:
        raise ValueError("need 0 <= burn_in < n_steps")
    if thin < 1:
        raise ValueError("thinning interval must be >= 1")
    if thin > n_steps - burn_in:
        raise ValueError(f"thin={thin} exceeds the {n_steps - burn_in} steps after "
                         "burn-in: no iterate would be kept")
    if rng is None:
        rng = np.random.default_rng(seed)

    state = ChainState(theta=w_init, gamma=gamma, k=0, rng=rng)
    kept = []
    drift_norms = []
    energies = []
    for step in range(1, n_steps + 1):
        state = ula_step(state, drift)
        if step > burn_in and (step - burn_in) % thin == 0:
            kept.append(state.theta)
            if energy is not None:
                energies.append(float(energy(state.theta)))
        if step % max(1, n_steps // 200) == 0:
            drift_norms.append(float(np.linalg.norm(state.drift)))

    samples = np.array(kept)
    diag = {"drift_norms": np.array(drift_norms), "gamma": gamma}
    if energies:
        diag["energy_trace"] = np.array(energies)
    if samples.shape[0] >= 8:
        diag["autocorr_time"] = np.array(
            [integrated_autocorr_time(samples[:, j])
             for j in range(samples.shape[1])])
    return ChainRun(samples=samples, burn_in=burn_in, thin=thin, gamma=gamma,
                    n_steps=n_steps, seed=seed, diagnostics=diag)


def ergodic_average(run: ChainRun, H=None) -> np.ndarray:
    """Arithmetic mean of H over the kept samples (H defaults to identity)."""
    if run.n_kept < 1:
        raise ValueError("no kept samples")
    if H is None:
        return run.samples.mean(axis=0)
    vals = np.array([np.atleast_1d(np.asarray(H(s), dtype=float))
                     for s in run.samples])
    return vals.mean(axis=0)


def integrated_autocorr_time(x: np.ndarray) -> float:
    """Sokal-windowed integrated autocorrelation time of a scalar trace (c = 6)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    x = x - x.mean()
    var = np.dot(x, x) / n
    if var == 0:
        return 1.0
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acf = np.fft.irfft(f * np.conj(f), nfft)[:n].real / (var * n)
    tau = 1.0
    for m in range(1, n):
        tau += 2.0 * acf[m]
        if m >= 6.0 * tau:
            break
    return float(max(tau, 1.0))


def default_step_size(precision_diag: np.ndarray, lam: float) -> float:
    """Stability heuristic: half the reciprocal curvature of the quadratic
    model Sigma^-1 plus the tail convexifier (curvature 2 lam)."""
    return 0.5 / (float(np.max(precision_diag)) + 2.0 * lam)


# ---------------------------------------------------------------------------
# Wasserstein-2 diagnostics


def _as_samples(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.size == 0:
        raise ValueError("empty sample set")
    return a


def w2sq_quantile_1d(a, b) -> float:
    """Exact squared W2 between two equal-size 1-d empirical measures."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size != b.size:
        raise ValueError("quantile path needs equal sample counts")
    return float(np.mean((a - b) ** 2))


def w2sq_assignment(a, b) -> float:
    """Exact squared W2 via optimal assignment (equal sample counts)."""
    a, b = _as_samples(a), _as_samples(b)
    if a.shape != b.shape:
        raise ValueError("assignment path needs equal sample counts")
    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def w2sq_sliced(a, b) -> float:
    """Sliced squared W2: mean over SLICED_W2_PROJECTIONS fixed-seed random directions."""
    a, b = _as_samples(a), _as_samples(b)
    rng = np.random.default_rng(SLICED_W2_SEED)
    d = a.shape[1]
    total = 0.0
    for _ in range(SLICED_W2_PROJECTIONS):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        total += w2sq_quantile_1d(a @ u, b @ u)
    return total / SLICED_W2_PROJECTIONS


def w2_squared(a, b) -> float:
    """Squared W2 diagnostic between two sample sets of equal size.

    1-d marginals use sorted quantiles (exact); small sets (n <= 64) use
    the exact assignment; larger multivariate sets fall back to the
    sliced estimate with fixed-seed projections.
    """
    a, b = _as_samples(a), _as_samples(b)
    if a.shape[1] == 1:
        return w2sq_quantile_1d(a[:, 0], b[:, 0])
    if a.shape[0] <= ASSIGNMENT_MAX_N:
        return w2sq_assignment(a, b)
    return w2sq_sliced(a, b)
