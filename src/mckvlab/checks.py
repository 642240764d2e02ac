"""Verification suites behind the CLI: each check returns a record
{name, passed, measured, tolerance} so reports are machine readable.

The suites exercise the finite-difference oracles for every derivative,
the stability diagnostics, the surrogate identities and the sampler's
closed-form Gaussian target, at the scale given by the experiment
config.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from .config import ExperimentConfig
from .forward import ReactionSpec, solve_mckv, solve_rd, rd_linearisation
from .forward import is_uniform, linearisation
from .inference import (
    LikelihoodEvaluator,
    PriorSpec,
    gamma_smooth,
    gamma_tilde,
    generate_data,
    surrogate_loglik,
)
from .parabolic import self_convergence_error
from .sampler import run_ula, w2sq_assignment, w2sq_quantile_1d
from .spectral import random_potential
from .stability import (
    deconvolution_margin,
    forward_lipschitz_probe,
    gradient_stability_sigma_min,
    pseudo_linearised_difference,
)


def _record(name, passed, measured, tolerance):
    return {"name": name, "passed": bool(passed), "measured": float(measured),
            "tolerance": float(tolerance)}


def _coordinate_fd_error(f, x: np.ndarray, grad: np.ndarray, eps: float) -> float:
    """max_j |(f(x + eps e_j) - f(x - eps e_j)) / (2 eps) - grad_j| / max(1, max |grad|)."""
    fd = np.array([(f(x + e) - f(x - e)) / (2 * eps) for e in eps * np.eye(len(x))])
    return float(np.max(np.abs(fd - grad))) / max(1.0, float(np.max(np.abs(grad))))


def suite_gradients(config: ExperimentConfig) -> list[dict]:
    rng = np.random.default_rng(config.seed + 101)
    model = config.model()
    phi, T, K, d, stepper = model.phi, model.T, model.K, model.d, model.stepper
    records = []

    W_floor = random_potential(K, d, np.random.default_rng(config.seed), 0.5)
    floor = self_convergence_error(lambda c: replace(model, stepper=c).solve(W_floor), stepper)

    uniform = is_uniform(phi)
    tol = 1e-4 + 10.0 * floor
    for i in range(3):
        W = random_potential(K, d, rng, amplitude=0.5)
        H = random_potential(K, d, rng, amplitude=0.5)
        # D rho_W[H] and H^T D^2 rho_W H from the basis solves the pipeline runs,
        # against central first and second differences of rho
        lin, h = linearisation(model.problem(W)), H.values
        rows, cols = np.triu_indices(len(h))
        pair = np.where(rows == cols, 1.0, 2.0) * h[rows] * h[cols]
        derivs = {"first": np.tensordot(h, lin.columns, axes=1),
                  "second": np.tensordot(pair, lin.second_derivatives(), axes=1)}
        fds = {"first": [], "second": []}
        for eps in (1e-2, 1e-3):
            rp, rm = (solve_mckv(model.problem(W + s * H)).coeffs for s in (eps, -eps))
            fds["first"].append((rp - rm) / (2 * eps))
            fds["second"].append((rp - 2 * lin.rho.coeffs + rm) / eps**2)
        for order, v in derivs.items():
            if uniform:  # rho_W = phi for every W: all vanish, a relative error is 0/0
                worst = max(float(np.max(np.abs(a))) for a in (v, *fds[order]))
                records.append(_record(f"mckv_{order}_fd_uniform_zero_{i}", worst <= 1e-12,
                                       worst, 1e-12))
                continue
            den = np.sqrt(np.sum(np.abs(v) ** 2))
            errs = [np.sqrt(np.sum(np.abs(fd - v) ** 2)) / den for fd in fds[order]]
            records.append(_record(f"mckv_{order}_fd_{i}", errs[1] <= tol, errs[1], tol))
            slope = np.log10(errs[0] / errs[1])
            name = "mckv_fd_slope" if order == "first" else "mckv_second_fd_slope"
            records.append(_record(f"{name}_{i}", abs(slope - 2.0) <= 0.3, slope, 0.3))

    # reaction-diffusion linearisation
    R = ReactionSpec(R=np.sin, Rprime=np.cos)
    u = solve_rd(R, phi, T, stepper)
    iH = rd_linearisation(R, np.cos, u)
    eps = 1e-3
    up, um = (solve_rd(ReactionSpec(R=lambda v, s=s: np.sin(v) + s * np.cos(v),
                                    Rprime=lambda v, s=s: np.cos(v) - s * np.sin(v)),
                       phi, T, stepper) for s in (eps, -eps))
    fd = (up.coeffs - um.coeffs) / (2 * eps)
    err = float(np.sqrt(np.sum(np.abs(fd - iH.coeffs) ** 2)
                        / np.sum(np.abs(iH.coeffs) ** 2)))
    records.append(_record("rd_linearisation_fd", err <= 1e-4 + 10 * floor,
                           err, 1e-4 + 10 * floor))

    # likelihood gradient, small data
    W0 = config.w0()
    data = generate_data(W0, model, n_obs=30,
                         noise_std=config["inference"]["noise_std"],
                         rng=rng)
    like = LikelihoodEvaluator(model, data)
    Wt = W0 + random_potential(K, d, rng, amplitude=0.1)
    _, grad = like.loglik_and_grad(Wt)
    worst = _coordinate_fd_error(lambda v: like.loglik(model.vec(v)), Wt.values, grad, 1e-3)
    records.append(_record("loglik_grad_fd", worst <= 1e-3, worst, 1e-3))
    return records


def suite_stability(config: ExperimentConfig) -> list[dict]:
    rng = np.random.default_rng(config.seed + 202)
    model = config.model()
    K, d = model.K, model.d
    zeta, beta = config["constants"]["zeta"], config["constants"]["beta"]
    records = []

    W1 = random_potential(K, d, rng, amplitude=0.4)
    W2 = W1 + random_potential(K, d, rng, amplitude=0.3)
    p1, p2 = model.problem(W1), model.problem(W2)

    # rho_{W1} at M through the memo, so the probes below reuse it
    floor = self_convergence_error(
        lambda c: linearisation(replace(model, stepper=c).problem(W1)).rho, model.stepper)
    _, residual = pseudo_linearised_difference(p1, p2)
    tol = max(5.0 * floor, 1e-12)
    records.append(_record("pseudo_linearisation", residual <= tol, residual, tol))

    sigma = gradient_stability_sigma_min(p1, K=K)
    uniform = is_uniform(model.phi)
    if uniform:
        records.append(_record("sigma_min_uniform_zero", sigma <= 1e-12, sigma, 1e-12))
    else:
        records.append(_record("sigma_min_positive", sigma > 0, sigma, 0.0))

    margin = deconvolution_margin(linearisation(p1, K).rho, K, zeta)
    records.append(_record("decon_margin_zero" if uniform else "decon_margin",
                           (margin <= 1e-14) if uniform else margin >= 0.0,
                           margin, 0.0))

    if not uniform:
        ratios = []
        base = random_potential(K, d, rng, amplitude=1.0)
        for eps in (1e-2, 1e-3):
            ratios.append(forward_lipschitz_probe(p1, model.problem(W1 + eps * base), beta))
        rel = abs(ratios[0] - ratios[1]) / ratios[1]
        records.append(_record("lipschitz_ratio_stable", rel <= 0.2, rel, 0.2))
    return records


def suite_surrogate(config: ExperimentConfig) -> list[dict]:
    rng = np.random.default_rng(config.seed + 303)
    model = config.model()
    records = []

    W0 = config.w0()
    data = generate_data(W0, model, n_obs=20,
                         noise_std=config["inference"]["noise_std"], rng=rng)
    like = LikelihoodEvaluator(model, data)
    c1 = config["surrogate"]["c1_hat"]
    # cli.verify reports the radius warning
    spec = config.surrogate(W0, data.n_obs, 1.0 if c1 is None else c1, [])
    r = spec.r

    knot = gamma_tilde(5 * r / 8, r)
    far = gamma_tilde(9 * r / 8, r)
    records.append(_record("gamma_tilde_knot", knot == 0.0, knot, 0.0))
    records.append(_record("gamma_tilde_far", far == r * r / 4, far - r * r / 4, 0.0))

    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(model.dim)
        u *= rng.uniform(0, 0.5) * r / np.linalg.norm(u)
        Wp = model.vec(W0.values + u)
        sv, sg = surrogate_loglik(Wp, spec, like)
        lv, lg = like.loglik_and_grad(Wp)
        worst = max(worst, abs(sv - lv), float(np.max(np.abs(sg - lg))))
    records.append(_record("ball_exactness", worst == 0.0, worst, 0.0))

    ts = np.linspace(5 * r / 8, 3 * r, 200)
    vals = spec.lam * gamma_smooth(ts, r)
    d2 = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    records.append(_record("tail_convexity", d2.min() >= -1e-10, d2.min(), -1e-10))

    # gradient continuity across the annulus r/2 < |.| < 7r/8
    u = rng.standard_normal(model.dim)
    u /= np.linalg.norm(u)
    loglik = lambda v: surrogate_loglik(model.vec(v), spec, like)  # noqa: E731
    worst = max(_coordinate_fd_error(lambda v: loglik(v)[0], x, loglik(x)[1], 1e-4)
                for x in (W0.values + frac * r * u for frac in (0.6, 0.75, 0.85)))
    records.append(_record("annulus_gradient_fd", worst <= 1e-3, worst, 1e-3))
    return records


def suite_sampler(config: ExperimentConfig) -> list[dict]:
    records = []
    n_steps = 100_000
    prior = PriorSpec(alpha=1.0, K=2, d=1, n_obs=1024)
    sig2 = prior.covariance_diag()
    gamma = 0.3 * float(sig2.min())
    drift = lambda th: -th / sig2  # noqa: E731

    run = run_ula(drift, np.zeros(prior.dim), gamma, n_steps=n_steps,
                  burn_in=n_steps // 6, seed=config.seed + 404)
    emp = run.samples.var(axis=0)
    target = sig2 / (1.0 - gamma / (2.0 * sig2))
    a = 1.0 - gamma / sig2
    se = target * np.sqrt(2.0 * (1.0 + a**2) / (run.n_kept * (1.0 - a**2)))
    dev = float(np.max(np.abs(emp - target) / se))
    records.append(_record("gaussian_stationary_variance", dev <= 5.0, dev, 5.0))

    r1 = run_ula(drift, np.zeros(prior.dim), gamma, 500, burn_in=50, seed=7)
    r2 = run_ula(drift, np.zeros(prior.dim), gamma, 500, burn_in=50, seed=7)
    records.append(_record("chain_reproducibility",
                           np.array_equal(r1.samples, r2.samples), 0.0, 0.0))

    rng = np.random.default_rng(config.seed + 505)
    A = rng.standard_normal((6, 3))
    B = rng.standard_normal((6, 3))
    brute = min(float(np.mean(np.sum((A - B[list(perm)]) ** 2, axis=1)))
                for perm in itertools.permutations(range(6)))
    assign = w2sq_assignment(A, B)
    records.append(_record("w2_assignment_exact", assign == brute,
                           abs(assign - brute), 0.0))
    a1 = rng.standard_normal(40)
    b1 = rng.standard_normal(40)
    diff = abs(w2sq_quantile_1d(a1, b1) - w2sq_assignment(a1, b1))
    records.append(_record("w2_quantile_vs_assignment", diff <= 1e-12, diff, 1e-12))
    return records


SUITES = {
    "gradients": suite_gradients,
    "stability": suite_stability,
    "surrogate": suite_surrogate,
    "sampler": suite_sampler,
}


def run_suites(config: ExperimentConfig, names) -> dict:
    """Run the named suites; returns {suite: records} plus a summary."""
    out = {}
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        out[name] = SUITES[name](config)
    out["all_passed"] = all(rec["passed"] for recs in out.values()
                            if isinstance(recs, list) for rec in recs)
    return out
