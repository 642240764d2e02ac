"""Statistical layer: regression data, truncated Gaussian prior, constants
validation, likelihood derivatives, expected curvature and the log-concave
surrogate.

The observation model is Y_i = rho_W(t_i, X_i) + noise_std * eps_i with
t_i uniform on [0,T] and X_i uniform on the torus; the log-likelihood is
ell_N(W) = -1/2 sum_i |Y_i - rho_W(t_i, X_i)|^2.  Its gradient costs
one nonlinear solve, one back-projection of the residuals onto the node
grid through the adjoint of the observation operator, and one backward
solve of the transposed linearised scheme in ``forward.Linearisation.vjp``;
the D derivative columns are never built, so the cost of a gradient does
not grow with D beyond one final contraction.

ell_N and its gradient are reached through :class:`LikelihoodEvaluator`
alone, which solves its own rho_W at every W; the expected Hessian reads
rho_W and rho_{W0} from the memo of ``forward.linearisation``; only
:func:`generate_data` and :func:`estimate_c1` take a supplied trajectory,
checked against the model by ``forward.check_density``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .forward import (Linearisation, McKVProblem, check_density, check_horizon,
                      linearisation, solve_mckv)
from .parabolic import ObservationOperator, StepperConfig, Trajectory, trapz_weights
from .spectral import PotentialVec, SpectralField, count_dim, mode_ksq


# ---------------------------------------------------------------------------
# rates and the constants system


def delta_n(alpha: float, d: int, n_obs: int) -> float:
    """Nonparametric rate N^(-(alpha+1)/(2(alpha+1)+d))."""
    if n_obs < 1:
        raise ValueError("sample size must be >= 1")
    return float(n_obs) ** (-(alpha + 1.0) / (2.0 * (alpha + 1.0) + d))


def eta_exponent(alpha: float, beta: float, zeta: float) -> float:
    """Inverse-problem exponent eta = (beta-2)/beta - 3 zeta / (2(alpha+1))."""
    return (beta - 2.0) / beta - 3.0 * zeta / (2.0 * (alpha + 1.0))


@dataclass
class ConstantsConfig:
    """Exponent system (d, alpha, beta, zeta, w) with a strictness flag."""

    d: int
    alpha: float
    beta: float
    zeta: float
    w: float
    mode: str = "experimental"

    def __post_init__(self):
        if self.mode not in ("strict", "experimental"):
            raise ValueError("mode must be 'strict' or 'experimental'")


@dataclass
class ConstantsReport:
    checks: dict
    values: dict
    mode: str


def validate_constants(cfg: ConstantsConfig, n_obs: int | None = None,
                       K: int | None = None, c_pr: float = 1.0,
                       bias_forward: float | None = None,
                       bias_inverse: float | None = None) -> ConstantsReport:
    """Per-inequality report on the exponent system and its side conditions.

    The four core inequalities: beta even and >= 4+d; alpha > 12 beta +
    6d - 1; beta + d/2 < zeta < (alpha+1)/12; 6 zeta/d < w < min of the
    two upper limits.  When (n_obs, K) are given, the dimension bound
    D <= c_pr N delta_N^2 and the implied cutoff constant c with
    K = c (N delta_N^2)^(1/d) are evaluated too; numerically supplied
    projection biases are tested against their thresholds.  Report-only:
    nothing raises.
    """
    d, alpha, beta, zeta, w = cfg.d, cfg.alpha, cfg.beta, cfg.zeta, cfg.w
    checks: dict = {}
    values: dict = {}

    checks["beta_even_ge"] = (beta >= 4 + d) and float(beta).is_integer() \
        and int(beta) % 2 == 0
    checks["alpha_window"] = alpha > 12.0 * beta + 6.0 * d - 1.0
    checks["zeta_window"] = (beta + d / 2.0) < zeta < (alpha + 1.0) / 12.0
    w_hi = min((alpha + 1.0) * (beta - 2.0) / beta - 1.5 * zeta,
               alpha + 1.0 - 6.0 * zeta) / d
    w_lo = 6.0 * zeta / d
    checks["w_window"] = w_lo < w < w_hi
    values["w_window"] = (w_lo, w_hi)

    delta = None
    if n_obs is not None:
        delta, eta = delta_n(alpha, d, n_obs), eta_exponent(alpha, beta, zeta)
        values["delta_N"] = delta
        values["eta"] = eta
        values["N_delta2"] = n_obs * delta**2
        checks["eta_positive"] = eta > 0
    else:
        checks["eta_positive"] = None

    if n_obs is not None and K is not None:
        D = count_dim(K, d)
        values["D"] = D
        checks["dim_bound"] = D <= c_pr * n_obs * delta**2
        values["cutoff_c"] = K / (n_obs * delta**2) ** (1.0 / d)
    else:
        checks["dim_bound"] = None

    if bias_forward is not None and delta is not None:
        checks["bias_forward"] = bias_forward <= delta / 2.0
        values["bias_forward"] = (bias_forward, delta / 2.0)
    else:
        checks["bias_forward"] = None
    if bias_inverse is not None and delta is not None:
        checks["bias_inverse"] = bias_inverse <= delta**eta
        values["bias_inverse"] = (bias_inverse, delta**eta)
    else:
        checks["bias_inverse"] = None

    return ConstantsReport(checks=checks, values=values, mode=cfg.mode)


# ---------------------------------------------------------------------------
# prior


@dataclass
class PriorSpec:
    """Truncated Gaussian prior on E_K, diagonal in the tau_k basis.

    Mode k has standard deviation
    (sqrt(N) delta_N)^-1 (1+|k|^2)^(-(alpha+1)/2); the rate delta_N and
    the per-mode scale are derived on construction.
    """

    alpha: float
    K: int
    d: int
    n_obs: int
    delta: float = field(init=False)
    diag: np.ndarray = field(init=False)

    def __post_init__(self):
        self.delta = delta_n(self.alpha, self.d, self.n_obs)
        scale = 1.0 / (np.sqrt(self.n_obs) * self.delta)
        self.diag = scale * (1.0 + mode_ksq(self.K, self.d)) ** (-(self.alpha + 1.0) / 2.0)
        if not np.all(self.diag > 0):
            raise ValueError("prior scales must be strictly positive")

    @property
    def dim(self) -> int:
        return self.diag.size

    def covariance_diag(self) -> np.ndarray:
        return self.diag**2

    def precision_diag(self) -> np.ndarray:
        return self.diag**-2


# ---------------------------------------------------------------------------
# data


@dataclass
class Dataset:
    """N observation triples (Y_i, t_i, X_i) plus generation metadata.

    ``obs`` is the observation operator at (t_i, X_i) that
    :func:`generate_data` evaluated the truth with, kept for the
    likelihood on the same grid; it is not saved, compared or shown.
    Two datasets are equal when their arrays, noise level, seed and
    truth are.
    """

    y: np.ndarray
    t: np.ndarray
    x: np.ndarray
    noise_std: float
    seed: int | None = None
    truth: dict = field(default_factory=dict)
    obs: ObservationOperator | None = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim == 1:
            self.x = self.x[:, None]
        n = self.y.size
        if n < 1 or self.t.shape != (n,) or self.x.shape[0] != n:
            raise ValueError("inconsistent dataset arrays")
        bad = ~np.isfinite(self.y)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"observation {i} is not finite: Y = {self.y.flat[i]}")

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (all(np.array_equal(a, b) for a, b in
                    ((self.y, other.y), (self.t, other.t), (self.x, other.x)))
                and (self.noise_std, self.seed, self.truth)
                == (other.noise_std, other.seed, other.truth))

    @property
    def n_obs(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def save(self, csv_path):
        csv_path = Path(csv_path)
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["Y", "t"] + [f"X_{j + 1}" for j in range(self.d)])
            for i in range(self.n_obs):
                writer.writerow([repr(float(self.y[i])), repr(float(self.t[i]))]
                                + [repr(float(v)) for v in self.x[i]])
        meta = {"seed": self.seed, "noise_std": self.noise_std,
                "truth": self.truth, "N": int(self.n_obs), "d": int(self.d)}
        csv_path.with_suffix(".json").write_text(json.dumps(meta, indent=2))

    @classmethod
    def load(cls, csv_path) -> "Dataset":
        """The dataset :meth:`save` wrote.  A CSV with no data row, or with a
        row of another length than its header, raises ValueError naming the
        file (and the row)."""
        csv_path = Path(csv_path)
        meta = json.loads(csv_path.with_suffix(".json").read_text())
        rows = []
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh)
            width = len(next(reader, ()))
            for row in reader:
                if len(row) != width:
                    raise ValueError(f"{csv_path}: data row {len(rows) + 1} has {len(row)} "
                                     f"fields, the header {width}")
                rows.append([float(v) for v in row])
        if not rows:
            raise ValueError(f"{csv_path}: no observation rows")
        arr = np.asarray(rows)
        return cls(y=arr[:, 0], t=arr[:, 1], x=arr[:, 2:],
                   noise_std=float(meta["noise_std"]), seed=meta.get("seed"),
                   truth=meta.get("truth", {}))


@dataclass
class ForwardModel:
    """Fixed problem context: initial density, horizon, truncation, stepper."""

    phi: SpectralField
    T: float
    K: int
    stepper: StepperConfig

    def __post_init__(self):
        check_horizon(self.T)

    @property
    def d(self) -> int:
        return self.phi.d

    @property
    def n(self) -> int:
        return self.phi.n

    @property
    def dim(self) -> int:
        return count_dim(self.K, self.d)

    def vec(self, values) -> PotentialVec:
        return PotentialVec(self.K, self.d, np.asarray(values, dtype=float))

    def problem(self, W: PotentialVec) -> McKVProblem:
        return McKVProblem(W=W, phi=self.phi, T=self.T, stepper=self.stepper)

    def solve(self, W: PotentialVec) -> Trajectory:
        return solve_mckv(self.problem(W))


def generate_data(W0: PotentialVec, model: ForwardModel, n_obs: int,
                  noise_std: float, rng: np.random.Generator,
                  seed: int | None = None,
                  rho0: Trajectory | None = None) -> Dataset:
    """Random-design regression sample from the forward map at W0.

    ``rho0``, if given, must be rho_{W0} on the model's discretisation.
    """
    if not noise_std >= 0:
        raise ValueError("noise_std must be >= 0")
    rho0 = model.solve(W0) if rho0 is None else check_density(rho0, model)
    t = rng.uniform(0.0, model.T, size=n_obs)
    x = rng.uniform(0.0, 1.0, size=(n_obs, model.d))
    obs = ObservationOperator(rho0.T, rho0.M, rho0.grid, t, x)
    y = obs(rho0.coeffs[None])[0] + noise_std * rng.standard_normal(n_obs)
    truth = {"W0": W0.values.tolist(), "K": W0.K, "noise_std": noise_std}
    data = Dataset(y=y, t=t, x=x, noise_std=noise_std, seed=seed, truth=truth)
    data.obs = obs
    return data


# ---------------------------------------------------------------------------
# likelihood and its gradient


class LikelihoodEvaluator:
    """ell_N and grad ell_N for a fixed dataset and forward model.

    The one way into the likelihood.  The observation operator at the
    data points is built once, or taken from the dataset when
    :func:`generate_data` built it on the model's (T, M, n, d).  A value
    costs one nonlinear solve; a gradient adds one back-projection
    B = A^T res of the residuals and the vector-Jacobian product
    grad_k = Re<D rho_W[tau_k], B> of
    :meth:`~mckvlab.forward.Linearisation.vjp` along that rho_W, one
    backward linear solve whatever D is; memory is O(N n^d + d M n^d),
    independent of D apart from the (D, d, n^d) basis gradients: the
    operator holds the phases of fewer than 1.5N rows, and a call adds
    O(N + M n^d) beside the solves.
    Every call solves its own rho_W.  Observation times outside [0, T],
    and non-finite times or points, are rejected.
    """

    def __init__(self, model: ForwardModel, dataset: Dataset):
        if dataset.d != model.d:
            raise ValueError("dataset dimension does not match the model")
        self.model = model
        self.dataset = dataset
        self._obs = dataset.obs
        if self._obs is None or self._obs.key != (model.T, model.stepper.M, model.n, model.d):
            self._obs = ObservationOperator(model.T, model.stepper.M, model.phi.grid,
                                            dataset.t, dataset.x)
        self.n_solves = 0

    def _residuals(self, problem: McKVProblem):
        self.n_solves += 1
        rho = solve_mckv(problem)
        return self.dataset.y - self._obs(rho.coeffs[None])[0], rho

    def residuals(self, W: PotentialVec):
        """(Y_i - rho_W(t_i, X_i), rho_W), from one nonlinear solve."""
        return self._residuals(self.model.problem(W))

    def loglik(self, W: PotentialVec) -> float:
        res, _ = self.residuals(W)
        return -0.5 * float(np.dot(res, res))

    def loglik_and_grad(self, W: PotentialVec):
        """Returns (ell_N, grad) with grad_k = sum_i res_i * D rho[tau_k](t_i, X_i)."""
        problem = self.model.problem(W)  # one validation of phi, shared by both solves
        res, rho = self._residuals(problem)
        grad = Linearisation(problem, rho, self.model.K).vjp(self._obs.adjoint(res))
        return -0.5 * float(np.dot(res, res)), grad


# ---------------------------------------------------------------------------
# expected curvature


def expected_neg_hessian(W: PotentialVec, W0: PotentialVec, model: ForwardModel) -> np.ndarray:
    """Average single-datum curvature E_{W0}[-Hess ell(W)], a D x D matrix.

    Equals (1/T) <D rho_W[tau_j], D rho_W[tau_k]> plus the correction
    (1/T) <rho_W - rho_{W0}, D^2 rho_W[tau_j, tau_k]>, both read off one
    :class:`~mckvlab.forward.Linearisation`, rho_W and rho_{W0} from the
    memo of :func:`~mckvlab.forward.linearisation`.  The Gram part takes one
    stacked solve of the D columns; the correction is a linear
    functional of the second derivatives, so it takes one backward solve
    (:meth:`~mckvlab.forward.Linearisation.second_derivative_vjp`) and no
    second-derivative solve.  The correction vanishes at W = W0, where
    the result is exactly the Gram matrix.  Exactly symmetric.
    """
    lin = linearisation(model.problem(W), model.K)
    rho = lin.rho
    out = lin.gram().copy()
    diff = rho.coeffs - linearisation(model.problem(W0), model.K).rho.coeffs
    if np.max(np.abs(diff)) > 0:
        weights = trapz_weights(rho.M + 1, rho.dt).reshape((-1,) + (1,) * model.d)
        out += lin.second_derivative_vjp(weights * diff.conj() / model.T)
    return out


# ---------------------------------------------------------------------------
# mollifier, cutoff and the surrogate likelihood

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _bump_raw(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


_BUMP_NORM = float(np.sum(_GL_WEIGHTS * _bump_raw(_GL_NODES)))


def mollifier(x) -> np.ndarray:
    """Smooth symmetric bump on (-1,1), normalized to unit integral."""
    return _bump_raw(x) / _BUMP_NORM


def gamma_tilde(t, r: float):
    """Quadratic hinge: 0 below 5r/8, (t - 5r/8)^2 above."""
    t = np.asarray(t, dtype=float)
    knot = 5.0 * r / 8.0
    return np.where(t < knot, 0.0, (t - knot) ** 2)


def _gamma_quadrature(t: float, r: float, order: int) -> float:
    # integral of mollifier(s) * d^order/dt^order gamma_tilde(t - (r/8) s)
    # over the active part of [-1, 1]; the subinterval split keeps the
    # integrand smooth so 64-point Gauss-Legendre is exact to rounding
    knot = 5.0 * r / 8.0
    h = r / 8.0
    s_star = (t - knot) / h
    if s_star <= -1.0:
        return 0.0
    hi = min(1.0, s_star)
    mid = 0.5 * (hi + (-1.0))
    half = 0.5 * (hi - (-1.0))
    s = mid + half * _GL_NODES
    u = t - h * s - knot
    if order == 0:
        integrand = mollifier(s) * u * u
    else:
        integrand = mollifier(s) * 2.0 * u
    return float(half * np.sum(_GL_WEIGHTS * integrand))


def gamma_smooth(t, r: float):
    """Mollified tail penalty gamma_r = bump_{r/8} * gamma_tilde.

    Vanishes identically for t <= r/2, is smooth, convex and
    nondecreasing, and equals (t - 5r/8)^2 + (r/8)^2 m2 for t >= 3r/4
    with m2 the second moment of the bump.
    """
    if np.isscalar(t):
        return _gamma_quadrature(float(t), r, 0)
    return np.array([_gamma_quadrature(float(ti), r, 0) for ti in np.atleast_1d(t)])


def gamma_smooth_deriv(t, r: float):
    if np.isscalar(t):
        return _gamma_quadrature(float(t), r, 1)
    return np.array([_gamma_quadrature(float(ti), r, 1) for ti in np.atleast_1d(t)])


def _smoothstep(x):
    # C^inf transition: 0 for x <= 0, 1 for x >= 1
    x = np.asarray(x, dtype=float)
    a = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
    b = np.where(x < 1, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return a / (a + b)


def _smoothstep_deriv(x):
    x = np.asarray(x, dtype=float)
    inside = (x > 0) & (x < 1)
    out = np.zeros_like(x)
    xi = x[inside]
    a = np.exp(-1.0 / xi)
    b = np.exp(-1.0 / (1.0 - xi))
    da = a / xi**2
    db = -b / (1.0 - xi) ** 2
    out[inside] = (da * b - a * db) / (a + b) ** 2
    return out


def cutoff_alpha(t):
    """Smooth cutoff: 1 on [0, 3/4], 0 on [7/8, infinity); no numpy on [0, 3/4]."""
    if isinstance(t, float) and 0.0 <= t <= 0.75:
        return 1.0
    return _smoothstep((7.0 / 8.0 - np.asarray(t, dtype=float)) * 8.0)


def cutoff_alpha_deriv(t):
    """Derivative of :func:`cutoff_alpha`: -0.0, the formula's bits, on [0, 3/4]."""
    if isinstance(t, float) and 0.0 <= t <= 0.75:
        return -0.0
    return -8.0 * _smoothstep_deriv((7.0 / 8.0 - np.asarray(t, dtype=float)) * 8.0)


def lambda_min_bound(n_obs: int, r: float, c_hat: float, c1_hat: float) -> float:
    """Lower admissible convexifier weight.

    max(N log N / r^2, c_hat N (c1_hat + 1)(1 + r^-2)); c_hat stands in
    for a non-constructive constant and c1_hat for the local regularity
    bound, both supplied through configuration.  r, c_hat and c1_hat must
    be finite, c_hat > 0 and c1_hat >= 0: ``max`` would drop a NaN, or a
    negative second term, without a word.
    """
    for name, value in (("r", r), ("c_hat", c_hat), ("c1_hat", c1_hat)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not c_hat > 0:
        raise ValueError(f"c_hat must be > 0, got {c_hat}")
    if not c1_hat >= 0:
        raise ValueError(f"c1_hat must be >= 0, got {c1_hat}")
    a = n_obs * np.log(max(n_obs, 2)) / r**2
    b = c_hat * n_obs * (c1_hat + 1.0) * (1.0 + r**-2)
    return float(max(a, b))


@dataclass
class SurrogateSpec:
    """Convexified-likelihood parameters: ball radius, centre, weight.

    The mollifier width is fixed at r/8.  ``lam`` must dominate the
    configured lower bound; in test mode the centre is the projected
    truth, for which the warm-start condition holds trivially.
    """

    r: float
    W_init: PotentialVec
    lam: float
    lam_floor: float = 0.0

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("ball radius must be positive")
        if not 0 < self.lam < np.inf:
            raise ValueError("convexifier weight must be positive and finite")
        if self.lam_floor > 0 and self.lam < self.lam_floor * (1 - 1e-12):
            raise ValueError(
                f"lam {self.lam:.3e} below the admissible floor {self.lam_floor:.3e}")

    @classmethod
    def build(cls, r: float, W_init: PotentialVec, n_obs: int,
              c_hat: float = 1.0, c1_hat: float = 1.0,
              lam: float | None = None) -> "SurrogateSpec":
        floor = lambda_min_bound(n_obs, r, c_hat, c1_hat)
        return cls(r=r, W_init=W_init, lam=lam if lam is not None else floor,
                   lam_floor=floor)

    def check_warm_start(self, W0K: PotentialVec) -> bool:
        return (self.W_init - W0K).l2_norm() <= self.r / 8.0


def surrogate_loglik(W: PotentialVec, spec: SurrogateSpec,
                     like: LikelihoodEvaluator):
    """Surrogate value and gradient: alpha_r(W) ell_N(W) - lam gamma_r(|W - W_init|).

    Outside the cutoff support (|W - W_init| >= 7r/8) the data term and
    its gradient vanish and no PDE solve is performed.
    """
    dv = W.values - spec.W_init.values
    # a W whose distance overflows gets a NaN gradient, which the sampler
    # reports as a diverged drift, with no RuntimeWarning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(np.linalg.norm(dv))
        direction = dv / s if s > 0 else np.zeros_like(dv)
        u = s / spec.r

        g_val = gamma_smooth(s, spec.r)
        g_der = gamma_smooth_deriv(s, spec.r)
        a_val = float(cutoff_alpha(u))
        a_der = float(cutoff_alpha_deriv(u))

        if u >= 7.0 / 8.0:
            value = -spec.lam * g_val
            grad = -spec.lam * g_der * direction
            return value, grad

    ln, gn = like.loglik_and_grad(W)
    value = a_val * ln - spec.lam * g_val
    grad = a_val * gn + (ln * a_der / spec.r - spec.lam * g_der) * direction
    return value, grad


# ---------------------------------------------------------------------------
# posterior energy and drift


def posterior_energy(W: PotentialVec, prior: PriorSpec, like: LikelihoodEvaluator):
    """(H(W), grad H(W)) with H(W) = 1/2 (sum residuals^2 + W^T Sigma^-1 W)
    = -ell_N + quadratic, both from one ``like.loglik_and_grad``, with ell_N
    on the data and model of ``like``."""
    ell, grad = like.loglik_and_grad(W)
    prec = prior.precision_diag()
    return -ell + 0.5 * float(np.sum(prec * W.values**2)), -grad + prec * W.values


def make_drift(spec: SurrogateSpec, prior: PriorSpec,
               like: LikelihoodEvaluator):
    """ULA drift theta -> grad surrogate-loglik(theta) - Sigma^-1 theta."""
    prec = prior.precision_diag()
    model = like.model

    def drift(theta: np.ndarray) -> np.ndarray:
        W = model.vec(theta)
        _, grad = surrogate_loglik(W, spec, like)
        return grad - prec * theta

    return drift


def estimate_c1(model: ForwardModel, W: PotentialVec,
                include_hessian: bool = True, rho: Trajectory | None = None) -> float:
    """Probe-set estimate of the local regularity bound.

    Maximum over the stored trajectory nodes and grid points of |G|,
    of the Euclidean norm of the gradient vector, and (optionally) of
    the Hessian operator norm, all read off forward-map outputs.  A
    supplied rho_W must lie on the model's discretisation; it builds its
    own linearisation, which is freed on return.  Without one, rho_W and
    its columns come from the memo of :func:`~mckvlab.forward.linearisation`.
    """
    problem = model.problem(W)
    lin = linearisation(problem, model.K) if rho is None else Linearisation(problem, rho, model.K)
    grid = model.phi.grid
    best = float(np.max(np.abs(grid.to_values(lin.rho.coeffs))))

    col_vals = grid.to_values(lin.columns)  # (D, M+1, grid)
    grad_norm = np.sqrt(np.sum(col_vals**2, axis=0))
    best = max(best, float(np.max(grad_norm)))

    if include_hessian:
        # Frobenius bound on the pointwise Hessian operator norm
        best = max(best, float(np.max(_hessian_frobenius(lin))))
    return best


def _hessian_frobenius(lin: Linearisation) -> np.ndarray:
    """sqrt(sum over (j, k) of D^2 rho_W[tau_j, tau_k]^2) in grid values, (M+1, grid),
    summed row by row (diagonal once, k > j twice): the pair nodes of
    ``Linearisation.second_derivatives`` are held once, one row in grid values."""
    D = len(lin.gtau)
    rows = np.split(lin.second_derivatives(), np.cumsum(np.arange(D, 1, -1)))  # (r, k >= r)
    sq = (lin.op.grid.to_values(block) ** 2 for block in rows)
    return np.sqrt(sum(s[0] + 2.0 * np.sum(s[1:], axis=0) for s in sq))
