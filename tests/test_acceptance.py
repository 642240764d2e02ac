"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured value and its frozen tolerance.

Reference desk scale: d=1, grid n=64, K <= 8 (D <= 16), T=0.5, M=256,
N <= 2000.  Monte-Carlo and sampling criteria run at the smaller scales
stated in their fixtures.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np

from mckvlab.forward import (
    McKVProblem,
    ReactionSpec,
    decay_density,
    jacobian_columns,
    mckv_second_derivative,
    rd_linearisation,
    solve_mckv,
    solve_rd,
    uniform_density,
)
from mckvlab.inference import (
    ConstantsConfig,
    ForwardModel,
    LikelihoodEvaluator,
    PriorSpec,
    SurrogateSpec,
    expected_neg_hessian,
    gamma_smooth,
    gamma_tilde,
    generate_data,
    make_drift,
    surrogate_loglik,
    validate_constants,
)
from mckvlab.parabolic import (
    StepperConfig,
    heat_trajectory_exact,
    rel_l2l2_error,
    self_convergence_error,
)
from mckvlab.sampler import (
    ergodic_average,
    run_ula,
    w2sq_assignment,
    w2sq_quantile_1d,
)
from mckvlab.spectral import PotentialVec, modes_in_ball, random_potential
from mckvlab.stability import pseudo_linearised_difference
from oracles import core_ok, mckv_first_derivative, w2inf_norm

N_GRID = 64
T = 0.5
CFG = StepperConfig(M=256)
FIXTURES = Path(__file__).parent / "fixtures"


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def _phi(zeta=3.0, amplitude=0.3, n=N_GRID):
    return decay_density(n, 1, zeta=zeta, amplitude=amplitude)


def _rel_err(a_coeffs, b_coeffs):
    return float(np.sqrt(np.sum(np.abs(a_coeffs - b_coeffs) ** 2)
                         / np.sum(np.abs(b_coeffs) ** 2)))


def test_criterion_01_heat_reduction():
    phi = _phi()
    prob = McKVProblem(W=PotentialVec.zeros(4, 1), phi=phi, T=T, stepper=CFG)
    t0 = time.perf_counter()
    rho = solve_mckv(prob)
    runtime = time.perf_counter() - t0
    err = rel_l2l2_error(rho, heat_trajectory_exact(phi, T, CFG.M))
    ok = err <= 1e-6 and runtime < 1.0
    _report(1, "heat-equation reduction", ok,
            f"rel L2L2 err={err:.3e} (tol 1e-6), runtime={runtime:.3f}s (<1s)")


def test_criterion_02_uniform_steady_state():
    rng = np.random.default_rng(2024)
    phi = uniform_density(N_GRID, 1)
    worst = 0.0
    for _ in range(5):
        W = random_potential(4, 1, rng, amplitude=0.8)
        rho = solve_mckv(McKVProblem(W=W, phi=phi, T=T, stepper=CFG))
        dev = rho.coeffs.copy()
        dev[:, 0] -= 1.0
        worst = max(worst, float(np.sqrt(np.max(np.sum(np.abs(dev) ** 2, axis=-1)))))
    _report(2, "uniform steady state", worst <= 1e-10,
            f"max_t |rho - 1|_L2 = {worst:.3e} (tol 1e-10) over 5 random W")


def test_criterion_03_mass_conservation():
    rng = np.random.default_rng(3)
    worst = 0.0
    for amp, phi in ((0.0, _phi()), (0.6, _phi()), (0.9, _phi(2.2, 0.4)),
                     (0.5, uniform_density(N_GRID, 1))):
        W = random_potential(4, 1, rng, amplitude=amp)
        rho = solve_mckv(McKVProblem(W=W, phi=phi, T=T, stepper=CFG))
        worst = max(worst, float(np.max(np.abs(rho.zero_mode() - 1.0))))
    _report(3, "mass conservation", worst <= 1e-12,
            f"max_step |rho_hat(t,0) - 1| = {worst:.3e} (tol 1e-12)")


def test_criterion_04_first_derivative_fd():
    rng = np.random.default_rng(4)
    phi = _phi()
    worst_err, worst_slope_dev, worst_tol = 0.0, 0.0, 0.0
    for _ in range(10):
        W = random_potential(4, 1, rng, amplitude=0.5)
        H = random_potential(4, 1, rng, amplitude=0.5)
        prob = McKVProblem(W=W, phi=phi, T=T, stepper=CFG)
        floor = self_convergence_error(
            lambda c: solve_mckv(McKVProblem(W=W, phi=phi, T=T, stepper=c)), CFG)
        rho = solve_mckv(prob)
        v = mckv_first_derivative(prob, H, rho)
        errs = []
        for eps in (1e-2, 1e-3):
            rp = solve_mckv(McKVProblem(W=W + eps * H, phi=phi, T=T, stepper=CFG))
            rm = solve_mckv(McKVProblem(W=W - eps * H, phi=phi, T=T, stepper=CFG))
            errs.append(_rel_err((rp.coeffs - rm.coeffs) / (2 * eps), v.coeffs))
        tol = 1e-4 + 10.0 * floor
        worst_tol = max(worst_tol, tol)
        worst_err = max(worst_err, errs[1])
        slope = np.log10(errs[0] / errs[1])
        worst_slope_dev = max(worst_slope_dev, abs(slope - 2.0))
        if errs[1] > tol or abs(slope - 2.0) > 0.3:
            break
    ok = worst_err <= worst_tol and worst_slope_dev <= 0.3
    _report(4, "first-derivative FD check", ok,
            f"worst rel err={worst_err:.3e} (tol {worst_tol:.3e}), "
            f"worst |slope-2|={worst_slope_dev:.3f} (tol 0.3), 10 pairs")


def test_criterion_05_second_derivative():
    rng = np.random.default_rng(5)
    phi = _phi()
    W = random_potential(4, 1, rng, amplitude=0.5)
    H1 = random_potential(4, 1, rng, amplitude=0.6)
    H2 = random_potential(4, 1, rng, amplitude=0.6)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=CFG)
    rho = solve_mckv(prob)
    v1 = mckv_first_derivative(prob, H1, rho)
    v2 = mckv_first_derivative(prob, H2, rho)
    s12 = mckv_second_derivative(prob, H1, H2, rho, v1, v2)
    s21 = mckv_second_derivative(prob, H2, H1, rho, v2, v1)
    sym = float(np.max(np.abs(s12.coeffs - s21.coeffs)))
    eps = 1e-3
    pp = McKVProblem(W=W + eps * H2, phi=phi, T=T, stepper=CFG)
    pm = McKVProblem(W=W - eps * H2, phi=phi, T=T, stepper=CFG)
    vp = mckv_first_derivative(pp, H1, solve_mckv(pp))
    vm = mckv_first_derivative(pm, H1, solve_mckv(pm))
    fd_err = _rel_err((vp.coeffs - vm.coeffs) / (2 * eps), s12.coeffs)
    ok = sym <= 1e-10 and fd_err <= 1e-3
    _report(5, "second-derivative symmetry and FD", ok,
            f"symmetry defect={sym:.3e} (tol 1e-10), FD rel err={fd_err:.3e} "
            f"(tol 1e-3)")


def test_criterion_06_reaction_diffusion():
    phi = _phi()
    R = ReactionSpec(R=np.sin, Rprime=np.cos)
    H = ReactionSpec(R=np.cos, Rprime=lambda u: -np.sin(u))
    floor = self_convergence_error(lambda c: solve_rd(R, phi, T, c), CFG)
    u = solve_rd(R, phi, T, CFG)
    iH = rd_linearisation(R, H.R, u)
    eps = 1e-3
    up = solve_rd(ReactionSpec(R=lambda v: np.sin(v) + eps * np.cos(v),
                               Rprime=lambda v: np.cos(v) - eps * np.sin(v)),
                  phi, T, CFG)
    um = solve_rd(ReactionSpec(R=lambda v: np.sin(v) - eps * np.cos(v),
                               Rprime=lambda v: np.cos(v) + eps * np.sin(v)),
                  phi, T, CFG)
    fd_err = _rel_err((up.coeffs - um.coeffs) / (2 * eps), iH.coeffs)
    tol = 1e-4 + 10.0 * floor

    lam = 0.8
    cfg_fine = StepperConfig(M=2048)
    Rlin = ReactionSpec(R=lambda v: lam * v, Rprime=lambda v: lam * np.ones_like(v))
    ulin = solve_rd(Rlin, phi, T, cfg_fine)
    exact = heat_trajectory_exact(phi, T, cfg_fine.M)
    exact.coeffs *= np.exp(lam * np.linspace(0, T, cfg_fine.M + 1))[:, None]
    lin_err = rel_l2l2_error(ulin, exact)
    ok = fd_err <= tol and lin_err <= 1e-8
    _report(6, "reaction-diffusion linearisation", ok,
            f"FD rel err={fd_err:.3e} (tol {tol:.3e}); exact linear case "
            f"err={lin_err:.3e} (tol 1e-8)")


def test_criterion_07_pseudo_linearisation():
    rng = np.random.default_rng(7)
    phi = _phi()
    worst, worst_tol = 0.0, np.inf
    for _ in range(5):
        W1 = random_potential(4, 1, rng, amplitude=1.0)
        W1 = (0.9 / w2inf_norm(W1, N_GRID)) * W1
        W2 = random_potential(4, 1, rng, amplitude=1.0)
        W2 = (0.9 / w2inf_norm(W2, N_GRID)) * W2
        p1 = McKVProblem(W=W1, phi=phi, T=T, stepper=CFG)
        p2 = McKVProblem(W=W2, phi=phi, T=T, stepper=CFG)
        floor = self_convergence_error(
            lambda c: solve_mckv(McKVProblem(W=W1, phi=phi, T=T, stepper=c)), CFG)
        _, residual = pseudo_linearised_difference(p1, p2)
        worst = max(worst, residual)
        worst_tol = min(worst_tol, 5.0 * floor)
    _report(7, "pseudo-linearisation identity", worst <= worst_tol,
            f"worst residual={worst:.3e} (tol 5x self-convergence="
            f"{worst_tol:.3e}) over 5 pairs, |W|_W2inf <= 1")


def test_criterion_08_likelihood_gradient():
    rng = np.random.default_rng(8)
    phi = _phi()
    model = ForwardModel(phi=phi, T=T, K=4, stepper=CFG)  # D = 8
    W0 = random_potential(4, 1, rng, amplitude=0.4)
    data = generate_data(W0, model, n_obs=50, noise_std=0.1, rng=rng)
    like = LikelihoodEvaluator(model, data)
    W = W0 + random_potential(4, 1, rng, amplitude=0.15)
    _, grad = like.loglik_and_grad(W)
    eps = 1e-3
    scale = max(1.0, float(np.max(np.abs(grad))))
    worst = 0.0
    for j in range(grad.size):
        e = np.zeros_like(grad)
        e[j] = eps
        fd = (like.loglik(model.vec(W.values + e))
              - like.loglik(model.vec(W.values - e))) / (2 * eps)
        worst = max(worst, abs(fd - grad[j]) / scale)
    _report(8, "likelihood gradient FD", worst <= 1e-3,
            f"worst per-coordinate rel err={worst:.3e} (tol 1e-3), N=50, D=8")


def test_criterion_09_expected_hessian():
    # smaller grid for the Monte-Carlo part; tolerances are statistical
    rng = np.random.default_rng(5)
    n, K, Tmc = 32, 2, 0.5
    cfg = StepperConfig(M=128)
    phi = decay_density(n, 1, zeta=2.5, amplitude=0.42)
    model = ForwardModel(phi=phi, T=Tmc, K=K, stepper=cfg)
    W0 = random_potential(K, 1, rng, amplitude=0.5)
    rho0 = solve_mckv(model.problem(W0))
    Wn = W0 + random_potential(K, 1, rng, amplitude=1.6)
    analytic = expected_neg_hessian(Wn, W0, model)

    probn = model.problem(Wn)
    rhon = solve_mckv(probn)
    cols = jacobian_columns(probn, rhon)
    basis = [PotentialVec.from_mode_dict(K, 1, {k: 1.0})
             for k in modes_in_ball(K, 1)]
    D = len(basis)
    NMC = 10_000
    tmc = rng.uniform(0, Tmc, NMC)
    xmc = rng.uniform(0, 1, (NMC, 1))
    gv = np.stack([c.eval_batch(tmc, xmc) for c in cols])
    hv = np.zeros((D, D, NMC))
    for j in range(D):
        for k in range(j, D):
            tr = mckv_second_derivative(probn, basis[j], basis[k], rhon,
                                        cols[j], cols[k])
            vals = tr.eval_batch(tmc, xmc)
            hv[j, k] = vals
            hv[k, j] = vals
    y = rho0.eval_batch(tmc, xmc) + rng.standard_normal(NMC)
    res = y - rhon.eval_batch(tmc, xmc)
    terms = gv[:, None, :] * gv[None, :, :] - res[None, None, :] * hv
    mc_mean = terms.mean(axis=2)
    mc_se = terms.std(axis=2) / np.sqrt(NMC)
    dev = float(np.max(np.abs(mc_mean - analytic) / mc_se))

    half = decay_density(n, 1, zeta=2.5, amplitude=0.5)
    model_half = ForwardModel(phi=half, T=Tmc, K=K, stepper=cfg)
    lam_pos = float(np.linalg.eigvalsh(
        expected_neg_hessian(W0, W0, model_half))[0])
    model_uni = ForwardModel(phi=uniform_density(n, 1), T=Tmc, K=K, stepper=cfg)
    lam_uni = float(np.linalg.eigvalsh(
        expected_neg_hessian(W0, W0, model_uni))[0])

    ok = dev <= 4.0 and lam_pos > 0.0 and abs(lam_uni) <= 1e-12
    _report(9, "expected negative Hessian", ok,
            f"MC dev={dev:.2f} SE (tol 4), lam_min designed phi={lam_pos:.3e} "
            f"(>0), lam_min uniform phi={lam_uni:.3e} (tol 1e-12), 1e4 draws")


def test_criterion_10_surrogate():
    rng = np.random.default_rng(10)
    n, K = 32, 2
    cfg = StepperConfig(M=64)
    phi = decay_density(n, 1, zeta=3.0, amplitude=0.3)
    model = ForwardModel(phi=phi, T=0.25, K=K, stepper=cfg)
    W0 = random_potential(K, 1, rng, amplitude=0.3)
    data = generate_data(W0, model, 20, 0.1, rng)
    like = LikelihoodEvaluator(model, data)
    r = 1.0  # dyadic radius keeps the hinge identities exact in floats
    spec = SurrogateSpec.build(r=r, W_init=W0, n_obs=20)

    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(model.dim)
        u *= rng.uniform(0, 0.5) * r / np.linalg.norm(u)
        W = model.vec(W0.values + u)
        sv, sg = surrogate_loglik(W, spec, like)
        lv, lg = like.loglik_and_grad(W)
        worst = max(worst, abs(sv - lv), float(np.max(np.abs(sg - lg))))

    ts = np.linspace(5 * r / 8, 4 * r, 300)
    vals = spec.lam * gamma_smooth(ts, r)
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    knot = float(gamma_tilde(5 * r / 8, r))
    far = float(gamma_tilde(9 * r / 8, r))
    ok = (worst == 0.0 and second.min() >= -1e-10 and knot == 0.0
          and far == r * r / 4)
    _report(10, "surrogate exactness and convex tails", ok,
            f"ball max dev={worst:.1e} (exact), min 2nd diff={second.min():.3e} "
            f"(tol -1e-10), hinge at knot={knot}, hinge at 9r/8-r^2/4="
            f"{far - r * r / 4:.1e}")


def test_criterion_11_ula_gaussian_law():
    prior = PriorSpec(alpha=1.0, K=2, d=1, n_obs=1024)
    sig2 = prior.covariance_diag()
    gamma = 0.3 * float(sig2.min())
    drift = lambda th: -th / sig2  # noqa: E731
    t0 = time.perf_counter()
    run = run_ula(drift, np.zeros(prior.dim), gamma, n_steps=125_000,
                  burn_in=25_000, seed=11)
    runtime = time.perf_counter() - t0
    emp = run.samples.var(axis=0)
    target = sig2 / (1.0 - gamma / (2.0 * sig2))
    a = 1.0 - gamma / sig2
    se = target * np.sqrt(2.0 * (1.0 + a**2) / (run.n_kept * (1.0 - a**2)))
    dev = float(np.max(np.abs(emp - target) / se))
    ok = dev <= 5.0 and runtime < 30.0 and run.n_kept >= 100_000
    _report(11, "ULA Gaussian-target stationary law", ok,
            f"max dev={dev:.2f} SE (tol 5) over {run.n_kept} kept samples, "
            f"runtime={runtime:.1f}s (<30s)")


def test_criterion_12_wasserstein():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((6, 3))
    B = rng.standard_normal((6, 3))
    brute = min(float(np.mean(np.sum((A - B[list(p)]) ** 2, axis=1)))
                for p in itertools.permutations(range(6)))
    assign = w2sq_assignment(A, B)
    a1 = rng.standard_normal(64)
    b1 = rng.standard_normal(64)
    diff1d = abs(w2sq_quantile_1d(a1, b1) - w2sq_assignment(a1, b1))
    ok = assign == brute and diff1d <= 1e-12
    _report(12, "Wasserstein-2 diagnostic", ok,
            f"assignment-brute force dev={abs(assign - brute):.1e} (exact), "
            f"1d quantile-assignment dev={diff1d:.1e} (tol 1e-12)")


def test_criterion_13_end_to_end_recovery():
    fixture = json.loads((FIXTURES / "recovery_tau.json").read_text())
    s = fixture["settings"]
    tau = fixture["tau"]
    t0 = time.perf_counter()

    phi = decay_density(s["n"], 1, zeta=s["zeta"], amplitude=s["amplitude"])
    model = ForwardModel(phi=phi, T=s["T"], K=s["K"],
                         stepper=StepperConfig(M=s["M"]))
    W0 = random_potential(s["K"], 1, np.random.default_rng(s["w0_seed"]),
                          amplitude=s["w0_amplitude"], decay=s["w0_decay"])
    prior = PriorSpec(alpha=s["prior_alpha"], K=s["K"], d=1, n_obs=s["N"])
    spec = SurrogateSpec.build(r=s["r"], W_init=W0, n_obs=s["N"],
                               c_hat=1.0, c1_hat=2.0)

    seed = 42  # not among the pilot seeds
    rng = np.random.default_rng(seed)
    data = generate_data(W0, model, s["N"], s["noise_std"], rng, seed=seed)
    like = LikelihoodEvaluator(model, data)
    drift = make_drift(spec, prior, like)
    run = run_ula(drift, W0.values.copy(), s["gamma"], n_steps=s["n_steps"],
                  burn_in=s["burn_in"], seed=seed + 1000)
    mean = ergodic_average(run)
    err = float(np.linalg.norm(mean - W0.values))
    runtime = time.perf_counter() - t0

    half = run.n_kept // 2
    from mckvlab.sampler import w2_squared

    w2h = w2_squared(run.samples[:half], run.samples[half:2 * half])
    ok = err <= tau and runtime < 600.0
    _report(13, "end-to-end recovery", ok,
            f"|mean - W0K|_L2={err:.4f} (tau={tau} from 10-seed pilot, "
            f"baseline |W0K|={fixture['w0_norm']:.3f}), W2^2 halves={w2h:.2e}, "
            f"runtime={runtime:.0f}s (<600s)")


def test_criterion_14_constants_validator():
    cfg = ConstantsConfig(d=1, alpha=78.0, beta=6.0, zeta=6.55, w=39.5,
                          mode="strict")
    rep = validate_constants(cfg)
    lo, hi = rep.values["w_window"]
    zeta_lo, zeta_hi = 6.0 + 0.5, 79.0 / 12.0
    ok = (core_ok(rep)
          and abs(lo - 39.3) < 1e-9 and abs(hi - 39.7) < 1e-9
          and zeta_lo == 6.5 and abs(zeta_hi - 6.5833333333) < 1e-6
          and not validate_constants(
              ConstantsConfig(d=1, alpha=78.0, beta=6.0, zeta=6.45, w=39.5)
          ).checks["zeta_window"]
          and not validate_constants(
              ConstantsConfig(d=1, alpha=78.0, beta=6.0, zeta=6.55, w=39.8)
          ).checks["w_window"])
    _report(14, "constants validator worked instance", ok,
            f"d=1 beta=6 alpha=78: zeta window ({zeta_lo}, {zeta_hi:.4f}), "
            f"w window ({lo:.4f}, {hi:.4f}); boundary cases rejected")

