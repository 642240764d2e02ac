"""The benchmark workloads: set-up, the timed op and the output check.

Every call into the library goes through its module attribute
(``inference.generate_data``, never a name bound at import), so that the
traced run's wrappers see it.  The seed decides the data, the chain
noise and the probe points; the fixed model settings do not depend on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from mckvlab import forward, inference, parabolic, sampler, spectral, stability

# settings shared by every workload, as in tests/fixtures/recovery_tau.json
W0_SEED = 100
W0_AMPLITUDE = 0.8
W0_DECAY = 4.0
NOISE_STD = 0.05
PRIOR_ALPHA = 1.0
RADIUS = 2.0
C1_HAT = 2.0
BETA = 6.0  # Sobolev index of the forward Lipschitz probe (the CLI default)

# what counts as a failed op, besides a failed output check
FAILURES = (parabolic.NumericalBlowUp, sampler.DriftBlowUp)


@dataclass(frozen=True)
class ModelSize:
    d: int
    n: int
    K: int
    zeta: float
    amplitude: float
    M: int = 48
    T: float = 0.06
    N: int = 2000


# the frozen criterion-13 recovery experiment
RECOVERY_1D = ModelSize(d=1, n=32, K=4, zeta=1.8, amplitude=0.48)
# d=2 with D=48: the batched linearised solve and the gather dominate
DRIFT_2D = ModelSize(d=2, n=16, K=4, zeta=3.8, amplitude=0.3)
# reduced sizes for the smoke test of the harness
SMOKE_1D = ModelSize(d=1, n=16, K=2, zeta=1.8, amplitude=0.48, M=8, N=200)
SMOKE_2D = ModelSize(d=2, n=8, K=2, zeta=3.8, amplitude=0.3, M=8, N=200)


@dataclass
class Setup:
    size: ModelSize
    model: inference.ForwardModel
    W0: spectral.PotentialVec
    like: inference.LikelihoodEvaluator
    prior: inference.PriorSpec
    spec: inference.SurrogateSpec


def build(size: ModelSize, seed: int) -> Setup:
    """Density, truth, data, likelihood evaluator, prior and surrogate."""
    phi = forward.decay_density(size.n, size.d, zeta=size.zeta,
                                amplitude=size.amplitude)
    model = inference.ForwardModel(phi=phi, T=size.T, K=size.K,
                                   stepper=parabolic.StepperConfig(M=size.M))
    W0 = spectral.random_potential(size.K, size.d, np.random.default_rng(W0_SEED),
                                   amplitude=W0_AMPLITUDE, decay=W0_DECAY)
    data = inference.generate_data(W0, model, size.N, NOISE_STD,
                                   np.random.default_rng(seed), seed=seed)
    like = inference.LikelihoodEvaluator(model, data)
    prior = inference.PriorSpec(alpha=PRIOR_ALPHA, K=size.K, d=size.d, n_obs=size.N)
    spec = inference.SurrogateSpec.build(r=RADIUS, W_init=W0, n_obs=size.N,
                                         c_hat=1.0, c1_hat=C1_HAT)
    return Setup(size, model, W0, like, prior, spec)


def _rel(a, b) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


class Chain:
    """A ULA chain from W0; one op is one step, i.e. one surrogate drift.

    The chain runs as consecutive ``run_ula`` calls sharing one generator,
    which is bit-identical to a single long call, so a seed fixes every
    iterate whatever the number of steps a run completes.
    """

    def __init__(self, setup: Setup, seed: int, gamma: float,
                 steps_per_call: int, recovery_steps: tuple[int, int] | None):
        self.s = setup
        self.gamma = gamma
        self.steps_per_call = steps_per_call
        self.recovery_steps = recovery_steps
        self.seed = seed
        self._drift = inference.make_drift(setup.spec, setup.prior, setup.like)
        self._starts: list[float] = []
        self.theta = setup.W0.values.copy()
        self.rng = np.random.default_rng(seed + 1000)
        self.samples: list[np.ndarray] = []

    def _timed_drift(self, theta):
        self._starts.append(time.perf_counter())
        return self._drift(theta)

    def warm_up(self):
        self._drift(self.s.W0.values)

    def batch(self) -> tuple[list[float], int]:
        """One run_ula call; returns (latencies of completed ops, failures)."""
        self._starts = []
        try:
            run = sampler.run_ula(self._timed_drift, self.theta, self.gamma,
                                  n_steps=self.steps_per_call, burn_in=0, rng=self.rng)
        except FAILURES:
            # restart from W0; the failed step is the last one started
            self.theta = self.s.W0.values.copy()
            return list(np.diff(self._starts)), 1
        lat = np.diff(self._starts + [time.perf_counter()])
        self.samples.append(run.samples)
        self.theta = run.samples[-1]
        return list(lat), 0

    def check(self) -> list[tuple[str, bool, str]]:
        """Central-FD directional derivative of loglik against grad . h."""
        s = self.s
        rng = np.random.default_rng(self.seed + 3000)
        K, d = s.size.K, s.size.d
        W = s.W0 + spectral.random_potential(K, d, rng, amplitude=0.05)
        h = rng.standard_normal(W.dim)
        h /= np.linalg.norm(h)
        _, grad = s.like.loglik_and_grad(W)
        eps = 1e-4
        fd = (s.like.loglik(s.model.vec(W.values + eps * h))
              - s.like.loglik(s.model.vec(W.values - eps * h))) / (2 * eps)
        err = abs(fd - float(grad @ h)) / max(1.0, float(np.linalg.norm(grad)))
        checks = [("loglik FD directional derivative", err <= 1e-6,
                   f"|fd - grad.h|/max(1,|grad|) = {err:.2e} (tol 1e-6)")]
        if self.samples:
            finite = bool(np.all(np.isfinite(np.concatenate(self.samples))))
            checks.append(("chain iterates finite", finite, ""))
        return checks

    def extras(self) -> dict:
        """Recovery error over a fixed chain prefix, so it repeats exactly."""
        if self.recovery_steps is None:
            return {}
        burn_in, length = self.recovery_steps
        chain = np.concatenate(self.samples) if self.samples else np.zeros((0, 1))
        if chain.shape[0] < length:
            return {"recovery_err": None}
        mean = chain[burn_in:length].mean(axis=0)
        return {"recovery_err": float(np.linalg.norm(mean - self.s.W0.values))}


class Curvature:
    """One op is one diagnostics pass at a seeded W near W0.

    ``estimate_c1`` with the Hessian, ``expected_neg_hessian`` away from W0,
    ``stability_report`` against W0 and ``sigma_min_trend``: per-column
    jacobians and second-derivative solves, no likelihood or observation.
    """

    PERTURBATION = 0.2

    def __init__(self, setup: Setup, seed: int):
        self.s = setup
        self.seed = seed
        self.rng = np.random.default_rng(seed + 2000)
        self.last = None

    def _pass(self):
        s, size = self.s, self.s.size
        W = s.W0 + spectral.random_potential(size.K, size.d, self.rng,
                                             amplitude=self.PERTURBATION)
        c1 = inference.estimate_c1(s.model, W, include_hessian=True)
        hess = inference.expected_neg_hessian(W, s.W0, s.model)
        report = stability.stability_report(s.model.problem(W), s.model.problem(s.W0),
                                            K=size.K, zeta=size.zeta, beta=BETA)
        trend = stability.sigma_min_trend(s.model.problem(W), size.K)
        self.last = (W, c1, hess, report, trend)

    def warm_up(self):
        self._pass()

    def batch(self) -> tuple[list[float], int]:
        t0 = time.perf_counter()
        try:
            self._pass()
        except FAILURES:
            return [], 1
        return [time.perf_counter() - t0], 0

    def check(self) -> list[tuple[str, bool, str]]:
        """Hessian symmetry, and the per-column Gram against the batched one."""
        W, c1, hess, report, trend = self.last
        s, size = self.s, self.s.size
        problem = s.model.problem(W)
        rho = forward.solve_mckv(problem)
        cols = forward.jacobian_columns(problem, rho, K=size.K)
        nodes, stages = forward.jacobian_stack(problem, rho, K=size.K)
        g_cols = forward.gram_matrix(cols, size.T)
        g_stack = forward.gram_matrix(
            forward.stack_to_trajectories(nodes, stages, size.T, size.d, size.n), size.T)
        gram_dev = _rel(g_cols, g_stack)

        rng = np.random.default_rng(self.seed + 3000)
        j, k = rng.choice(W.dim, size=2, replace=False)
        basis = [spectral.PotentialVec.from_mode_dict(size.K, size.d, {m: 1.0})
                 for m in (W.modes[j], W.modes[k])]
        d2_jk = forward.mckv_second_derivative(problem, basis[0], basis[1], rho,
                                               cols[j], cols[k])
        d2_kj = forward.mckv_second_derivative(problem, basis[1], basis[0], rho,
                                               cols[k], cols[j])
        d2_dev = _rel(d2_jk.coeffs, d2_kj.coeffs)
        hess_dev = _rel(hess, hess.T)
        finite = (np.isfinite(c1) and c1 > 0 and np.all(np.isfinite(hess))
                  and all(np.isfinite(v) for v in trend.values()))
        return [
            ("expected Hessian symmetric", hess_dev <= 1e-12,
             f"max|H-H^T|/max|H| = {hess_dev:.1e} (tol 1e-12)"),
            ("second derivative symmetric", d2_dev <= 1e-10,
             f"D2[{j},{k}] vs D2[{k},{j}] rel dev = {d2_dev:.1e} (tol 1e-10)"),
            ("Gram columns vs stack", gram_dev <= 1e-10,
             f"rel dev = {gram_dev:.1e} (tol 1e-10)"),
            ("diagnostics finite", bool(finite),
             f"c1={c1:.3e}, sigma_min={report.sigma_min:.3e}"),
        ]

    def extras(self) -> dict:
        return {}


@dataclass(frozen=True)
class Workload:
    name: str
    size: ModelSize
    smoke_size: ModelSize
    make: object  # (setup, seed) -> runner
    # share of an op's time that is interpreter-bound small-array work
    # rather than memory-bound gathers; weights the reference kernel
    interp_share: float


WORKLOADS = {w.name: w for w in [
    # the north-star chain: solve, jacobian_stack and observation share the drift
    Workload("ula-1d", RECOVERY_1D, SMOKE_1D,
             lambda s, seed: Chain(s, seed, gamma=2.5e-4, steps_per_call=25,
                                   recovery_steps=(100, 400)),
             interp_share=0.3),
    # batched linearised solve and the D*N*n^d gather dominate; memory-heavy.
    # Runs by name and under --workload all; not in BENCHMARK.json (see README)
    Workload("drift-2d", DRIFT_2D, SMOKE_2D,
             lambda s, seed: Chain(s, seed, gamma=2.5e-5, steps_per_call=1,
                                   recovery_steps=None),
             interp_share=0.3),
    # per-column jacobians and second derivatives; bypasses the gradient path
    Workload("curvature-1d", RECOVERY_1D, SMOKE_1D,
             lambda s, seed: Curvature(s, seed),
             interp_share=0.8),
]}
