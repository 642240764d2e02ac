import numpy as np
import pytest

from mckvlab.forward import McKVProblem, decay_density, solve_mckv, uniform_density
from mckvlab.parabolic import StepperConfig
from mckvlab.spectral import PotentialVec, modes_in_ball, random_potential
from mckvlab.stability import (
    StabilityReport,
    deconvolution_margin,
    deconvolution_window,
    forward_lipschitz_probe,
    gradient_stability_sigma_min,
    pseudo_linearised_difference,
    sigma_min_trend,
    stability_report,
)
from oracles import mckv_first_derivative, w2inf_norm

N_GRID = 32
T = 0.25
CFG = StepperConfig(M=64)


def _phi(zeta=3.0, amplitude=0.3):
    return decay_density(N_GRID, 1, zeta=zeta, amplitude=amplitude)


def _problem(W, phi=None, cfg=CFG):
    return McKVProblem(W=W, phi=phi if phi is not None else _phi(), T=T, stepper=cfg)


# ---------------------------------------------------------------------------
# pseudo-linearisation


def test_pseudo_linearisation_identical_potentials():
    rng = np.random.default_rng(0)
    phi = _phi()
    W = random_potential(2, 1, rng, amplitude=0.4)
    v, residual = pseudo_linearised_difference(_problem(W, phi), _problem(W, phi))
    assert residual == 0.0
    assert np.max(np.abs(v.coeffs)) < 1e-14


def test_pseudo_linearisation_uniform_state():
    rng = np.random.default_rng(1)
    phi = uniform_density(N_GRID, 1)
    W1 = random_potential(2, 1, rng, amplitude=0.4)
    W2 = random_potential(2, 1, rng, amplitude=0.4)
    v, residual = pseudo_linearised_difference(_problem(W1, phi), _problem(W2, phi))
    assert np.max(np.abs(v.coeffs)) < 1e-14
    assert residual == 0.0


def test_pseudo_linearisation_residual_small_generic():
    # stage-carrying trajectories make the discrete identity exact
    rng = np.random.default_rng(2)
    phi = _phi()
    for _ in range(3):
        W1 = random_potential(2, 1, rng, amplitude=1.0)
        W1 = (0.8 / w2inf_norm(W1, N_GRID)) * W1
        W2 = random_potential(2, 1, rng, amplitude=1.0)
        W2 = (0.8 / w2inf_norm(W2, N_GRID)) * W2
        _, residual = pseudo_linearised_difference(_problem(W1, phi),
                                                   _problem(W2, phi))
        assert residual < 1e-12


# ---------------------------------------------------------------------------
# deconvolution margin


def test_margin_zero_for_uniform_state():
    phi = uniform_density(N_GRID, 1)
    rho = solve_mckv(_problem(PotentialVec.zeros(2, 1), phi))
    assert deconvolution_margin(rho, 2, 3.0) == 0.0


def test_margin_at_time_zero_reads_off_cstar():
    # phi_hat_k = c |k|^-zeta exactly: the t = 0 term of the margin is c
    zeta, c = 3.0, 0.3
    phi = _phi(zeta=zeta, amplitude=c)
    rho = solve_mckv(_problem(PotentialVec.zeros(3, 1), phi))
    t0 = deconvolution_window(rho, 3, zeta)
    margin = deconvolution_margin(rho, 3, zeta)
    assert margin <= c + 1e-12
    if t0 < rho.dt:
        assert margin == pytest.approx(c, abs=1e-12)


def test_margin_heat_case_matches_closed_form():
    zeta, c, K = 2.5, 0.3, 3
    phi = _phi(zeta=zeta, amplitude=c)
    rho = solve_mckv(_problem(PotentialVec.zeros(K, 1), phi))
    t0 = deconvolution_window(rho, K, zeta)
    margin = deconvolution_margin(rho, K, zeta)
    # heat evolution: rho_hat(t,k) = phi_hat_k e^{-4 pi^2 k^2 t}
    best = np.inf
    m_max = int(np.floor(t0 / rho.dt + 1e-12))
    for m in range(m_max + 1):
        t = m * rho.dt
        for k in modes_in_ball(K, 1):
            kk = abs(k[0])
            best = min(best, c * kk ** (-zeta) * np.exp(-4 * np.pi**2 * kk**2 * t)
                       * kk**zeta)
    assert margin == pytest.approx(best, rel=1e-10)


@pytest.mark.parametrize("d,n,K,zeta", [(1, 32, 4, 2.5), (2, 16, 3, 3.8)])
def test_margin_equals_per_step_minimum(d, n, K, zeta):
    phi = decay_density(n, d, zeta=zeta, amplitude=0.3)
    W = random_potential(2, d, np.random.default_rng(41), amplitude=0.4)
    rho = solve_mckv(McKVProblem(W=W, phi=phi, T=0.1, stepper=StepperConfig(M=16)))
    t0 = 0.05
    per_step = []
    for m in range(int(np.floor(t0 / rho.dt + 1e-12)) + 1):
        per_step.append(min(abs(rho.coeffs[m][tuple(j % n for j in k)])
                            * np.sqrt(sum(j * j for j in k)) ** zeta
                            for k in modes_in_ball(K, d)))
    assert deconvolution_margin(rho, K, zeta, t0=t0) == min(per_step)


@pytest.mark.parametrize("t0", [-0.01, -0.001, float("nan"), float("inf")])
def test_margin_rejects_a_negative_or_non_finite_t0(t0):
    # t0 = -0.01 on M = 8, T = 0.05 would read nodes 0..M-1 through coeffs[:-1]
    rho = solve_mckv(McKVProblem(W=PotentialVec.zeros(2, 1), phi=_phi(), T=0.05,
                                 stepper=StepperConfig(M=8)))
    with pytest.raises(ValueError, match="^t0 must be finite and >= 0"):
        deconvolution_margin(rho, 3, 2.0, t0=t0)
    assert deconvolution_margin(rho, 3, 2.0, t0=0.0) > 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_margin_window_and_lipschitz_probe_reject_a_non_finite_exponent(bad):
    # a NaN zeta or beta once came back as a NaN margin, window or ratio
    W1 = random_potential(2, 1, np.random.default_rng(42), amplitude=0.4)
    p1 = _problem(W1, cfg=StepperConfig(M=8))
    p2 = _problem(W1 + random_potential(2, 1, np.random.default_rng(43), amplitude=0.3),
                  cfg=StepperConfig(M=8))
    rho = solve_mckv(p1)
    for probe in (lambda: deconvolution_margin(rho, 3, bad),
                  lambda: deconvolution_margin(rho, 3, bad, t0=0.01),
                  lambda: deconvolution_window(rho, 3, bad)):
        with pytest.raises(ValueError, match="^zeta must be finite"):
            probe()
    with pytest.raises(ValueError, match="^beta must be finite"):
        forward_lipschitz_probe(p1, p2, bad)
    assert np.isfinite(forward_lipschitz_probe(p1, p2, 6.0))


def test_margin_zero_iff_vanishing_mode():
    # a density missing mode 3 has zero margin at K = 3, positive at K = 2
    phi = _phi(zeta=2.0, amplitude=0.25)
    phi.coeffs[3] = 0.0
    phi.coeffs[-3] = 0.0
    rho = solve_mckv(McKVProblem(W=PotentialVec.zeros(2, 1), phi=phi, T=T,
                                 stepper=CFG))
    assert deconvolution_margin(rho, 3, 2.0) == 0.0
    assert deconvolution_margin(rho, 2, 2.0) > 0.0


# ---------------------------------------------------------------------------
# gradient stability


def test_sigma_min_zero_at_uniform_state():
    rng = np.random.default_rng(4)
    phi = uniform_density(N_GRID, 1)
    W = random_potential(2, 1, rng, amplitude=0.5)
    assert gradient_stability_sigma_min(_problem(W, phi)) < 1e-12


def test_sigma_min_positive_for_designed_density():
    rng = np.random.default_rng(5)
    W = random_potential(2, 1, rng, amplitude=0.3)
    sigma = gradient_stability_sigma_min(_problem(W))
    assert sigma > 0.0


def test_sigma_min_squared_is_min_gram_eigenvalue():
    from mckvlab.forward import gram_matrix, jacobian_columns

    rng = np.random.default_rng(6)
    W = random_potential(2, 1, rng, amplitude=0.3)
    prob = _problem(W)
    sigma = gradient_stability_sigma_min(prob)
    G = gram_matrix(jacobian_columns(prob, solve_mckv(prob)), T)
    assert sigma**2 == pytest.approx(np.linalg.eigvalsh(G)[0], abs=1e-10)


def test_sigma_min_monotone_in_truncation():
    # restricting to the nested smaller basis cannot lower the minimum
    rng = np.random.default_rng(7)
    W = random_potential(2, 1, rng, amplitude=0.3)
    prob = _problem(W)
    s_small = gradient_stability_sigma_min(prob, K=2)
    s_large = gradient_stability_sigma_min(prob, K=4)
    assert s_large <= s_small + 1e-12


# ---------------------------------------------------------------------------
# forward Lipschitz probe


def test_lipschitz_probe_identical_rejected():
    rng = np.random.default_rng(8)
    W = random_potential(2, 1, rng, amplitude=0.4)
    with pytest.raises(ValueError):
        forward_lipschitz_probe(_problem(W), _problem(W), beta=4.0)


def test_lipschitz_probe_zero_at_uniform_state():
    rng = np.random.default_rng(9)
    phi = uniform_density(N_GRID, 1)
    W1 = random_potential(2, 1, rng, amplitude=0.4)
    W2 = random_potential(2, 1, rng, amplitude=0.4)
    assert forward_lipschitz_probe(_problem(W1, phi), _problem(W2, phi),
                                   beta=4.0) < 1e-12


def test_lipschitz_probe_converges_to_derivative_quotient():
    rng = np.random.default_rng(10)
    beta = 4.0
    W = random_potential(2, 1, rng, amplitude=0.4)
    H = random_potential(2, 1, rng, amplitude=1.0)
    prob = _problem(W)
    rho = solve_mckv(prob)
    v = mckv_first_derivative(prob, H, rho)
    expected = v.l2l2_norm() / H.sobolev_norm(-(beta + 1.0))
    ratios = []
    for eps in (1e-2, 1e-3):
        p2 = _problem(W + eps * H)
        ratios.append(forward_lipschitz_probe(prob, p2, beta))
    assert ratios[1] == pytest.approx(expected, rel=1e-3)
    assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.2


# ---------------------------------------------------------------------------
# report container


def test_stability_report_fields_and_validation():
    rng = np.random.default_rng(11)
    W1 = random_potential(2, 1, rng, amplitude=0.3)
    W2 = W1 + random_potential(2, 1, rng, amplitude=0.2)
    rep = stability_report(_problem(W1), _problem(W2), K=2, zeta=3.0, beta=4.0)
    data = rep.to_json()
    for key in ("sigma_min", "decon_margin", "lipschitz_ratio",
                "pseudo_lin_residual"):
        assert key in data
    with pytest.raises(ValueError):
        StabilityReport(sigma_min=-1.0, decon_margin=0.0, lipschitz_ratio=0.0,
                        pseudo_lin_residual=0.0)


def test_sigma_min_is_last_entry_of_trend():
    rng = np.random.default_rng(40)
    prob = _problem(random_potential(3, 1, rng, amplitude=0.4))
    assert sigma_min_trend(prob, 3)[3] == gradient_stability_sigma_min(prob, 3)


def test_sigma_min_trend_rejects_K_beyond_the_grid():
    # at n = 8, K' = 4 and 5 would read aliased directions and report sigma_min = 0
    phi = decay_density(8, 1, zeta=3.0, amplitude=0.3)
    prob = McKVProblem(W=PotentialVec.zeros(2, 1), phi=phi, T=0.1, stepper=StepperConfig(M=8))
    with pytest.raises(ValueError, match="not representable"):
        sigma_min_trend(prob, 5)
