import tracemalloc
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

from mckvlab import forward, inference
from mckvlab.forward import (
    Linearisation,
    McKVProblem,
    ReactionSpec,
    decay_density,
    gram_matrix,
    jacobian_columns,
    jacobian_stack,
    linearisation,
    mckv_second_derivative,
    solve_mckv,
    uniform_density,
)
from mckvlab.inference import (
    ConstantsConfig,
    Dataset,
    ForwardModel,
    LikelihoodEvaluator,
    PriorSpec,
    SurrogateSpec,
    cutoff_alpha,
    cutoff_alpha_deriv,
    delta_n,
    estimate_c1,
    eta_exponent,
    expected_neg_hessian,
    gamma_smooth,
    gamma_smooth_deriv,
    gamma_tilde,
    generate_data,
    lambda_min_bound,
    make_drift,
    mollifier,
    posterior_energy,
    surrogate_loglik,
    _hessian_frobenius,
    validate_constants,
)
from mckvlab.parabolic import (
    LWOperator,
    ObservationOperator,
    StepperConfig,
    solver_states,
)
from mckvlab.spectral import Grid, PotentialVec, random_potential
from mckvlab.stability import (
    forward_lipschitz_probe,
    gradient_stability_sigma_min,
    pseudo_linearised_difference,
    sigma_min_trend,
    stability_report,
)
from oracles import core_ok, mckv_first_derivative, second_derivative_matrix

N_GRID = 32
T = 0.25
CFG = StepperConfig(M=64)


def _model(K=2, phi=None):
    if phi is None:
        phi = decay_density(N_GRID, 1, zeta=3.0, amplitude=0.3)
    return ForwardModel(phi=phi, T=T, K=K, stepper=CFG)


# ---------------------------------------------------------------------------
# rates and constants


def test_delta_n_examples():
    assert delta_n(1.0, 1, 1024) == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert delta_n(2.0, 1, 1) == 1.0
    ds = [delta_n(1.5, 2, n) for n in (10, 100, 1000)]
    assert ds[0] > ds[1] > ds[2]


def test_delta_n_returns_eta_when_asked():
    delta, eta = delta_n(78.0, 1, 1024), eta_exponent(78.0, 6.0, 6.55)
    assert delta == pytest.approx(1024.0 ** (-79.0 / 159.0))
    assert eta == pytest.approx((6.0 - 2.0) / 6.0 - 3 * 6.55 / (2 * 79.0))
    assert eta > 0


def test_validate_constants_worked_instance():
    cfg = ConstantsConfig(d=1, alpha=78.0, beta=6.0, zeta=6.55, w=39.5,
                          mode="strict")
    rep = validate_constants(cfg)
    assert core_ok(rep)
    lo, hi = rep.values["w_window"]
    assert lo == pytest.approx(39.3)
    assert hi == pytest.approx(39.7, abs=1e-9)


def test_validate_constants_rejects_zero_sample_size():
    cfg = ConstantsConfig(d=1, alpha=78.0, beta=6.0, zeta=6.55, w=39.5)
    with pytest.raises(ValueError, match="sample size must be >= 1"):
        validate_constants(cfg, n_obs=0)


def test_validate_constants_rejects_odd_beta():
    cfg = ConstantsConfig(d=1, alpha=78.0, beta=5.0, zeta=6.55, w=39.5)
    assert not validate_constants(cfg).checks["beta_even_ge"]


def test_validate_constants_rejects_zeta_equal_beta():
    cfg = ConstantsConfig(d=1, alpha=78.0, beta=6.0, zeta=6.0, w=39.5)
    assert not validate_constants(cfg).checks["zeta_window"]


def test_validate_constants_dimension_and_bias_checks():
    cfg = ConstantsConfig(d=1, alpha=78.0, beta=6.0, zeta=6.55, w=39.5)
    # at alpha = 78 the rate is nearly parametric and N delta_N^2 grows as
    # N^(1/159): the dimension bound needs astronomical N unless c_pr helps
    rep = validate_constants(cfg, n_obs=10**6, K=1, bias_forward=0.0,
                             bias_inverse=0.0, c_pr=2.0)
    assert rep.checks["dim_bound"] is True
    assert rep.checks["bias_forward"] is True
    assert rep.checks["bias_inverse"] is True
    assert "cutoff_c" in rep.values
    strict = validate_constants(cfg, n_obs=10**6, K=1, c_pr=1.0)
    assert strict.checks["dim_bound"] is False


def _phi_with_nan(index):
    phi = decay_density(N_GRID, 1, zeta=3.0, amplitude=0.3)
    phi.coeffs[index] = np.nan
    return phi


_NAN_INPUTS = {  # name: (the call, the message of its check)
    "decay_density-zeta": (lambda: decay_density(N_GRID, 1, zeta=np.nan), "positive"),
    "decay_density-amplitude": (lambda: decay_density(N_GRID, 1, zeta=3.0, amplitude=np.nan),
                                "positive"),
    "SurrogateSpec-r": (lambda: SurrogateSpec(r=np.nan, W_init=PotentialVec.zeros(2, 1),
                                              lam=1.0), "radius"),
    "SurrogateSpec-lam": (lambda: SurrogateSpec(r=1.0, W_init=PotentialVec.zeros(2, 1),
                                                lam=np.nan), "weight"),
    "PriorSpec-alpha": (lambda: PriorSpec(alpha=np.nan, K=2, d=1, n_obs=100), "scales"),
    "generate_data-noise_std": (lambda: generate_data(PotentialVec.zeros(2, 1), _model(), 10,
                                                      np.nan, np.random.default_rng(0)),
                                "noise_std"),
    "McKVProblem-mass": (lambda: McKVProblem(W=PotentialVec.zeros(2, 1), phi=_phi_with_nan(0),
                                             T=T, stepper=CFG), "unit mass"),
    "McKVProblem-real": (lambda: McKVProblem(W=PotentialVec.zeros(2, 1), phi=_phi_with_nan(3),
                                             T=T, stepper=CFG), "real field"),
    "ReactionSpec": (lambda: ReactionSpec(R=lambda u: np.nan * u, Rprime=lambda u: np.nan * u),
                     "finite differences"),
}


@pytest.mark.parametrize("case", list(_NAN_INPUTS))
def test_a_nan_input_fails_its_check(case):
    # NaN fails every comparison, so each check must be written to fail on it
    call, message = _NAN_INPUTS[case]
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# prior


def test_prior_mode_variance_example():
    # alpha=1, d=1, N=1024: variance at |k|=1 is (N delta^2)^-1 (1+1)^-2 = 1/16
    spec = PriorSpec(alpha=1.0, K=2, d=1, n_obs=1024)
    var = spec.covariance_diag()
    idx = [i for i, k in enumerate(spec_modes(spec)) if abs(k[0]) == 1]
    for i in idx:
        assert var[i] == pytest.approx(1.0 / 16.0, abs=1e-14)


def spec_modes(spec):
    from mckvlab.spectral import modes_in_ball

    return modes_in_ball(spec.K, spec.d)


# ---------------------------------------------------------------------------
# data


def test_generate_data_noiseless_matches_eval():
    rng = np.random.default_rng(1)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.4)
    rho = model.solve(W0)
    data = generate_data(W0, model, 25, 0.0, rng, rho0=rho)
    vals = rho.eval_batch(data.t, data.x)
    np.testing.assert_allclose(data.y, vals, atol=1e-14)


def test_generate_data_reproducible():
    model = _model()
    W0 = random_potential(2, 1, np.random.default_rng(2), amplitude=0.4)
    rho = model.solve(W0)
    d1 = generate_data(W0, model, 30, 0.3, np.random.default_rng(9), rho0=rho)
    d2 = generate_data(W0, model, 30, 0.3, np.random.default_rng(9), rho0=rho)
    assert np.array_equal(d1.y, d2.y) and np.array_equal(d1.x, d2.x)


def test_generate_data_noise_is_centred():
    rng = np.random.default_rng(3)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.4)
    rho = model.solve(W0)
    n = 4000
    data = generate_data(W0, model, n, 1.0, rng, rho0=rho)
    resid = data.y - rho.eval_batch(data.t, data.x)
    assert abs(resid.mean()) <= 4.0 / np.sqrt(n)


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    data = Dataset(y=rng.standard_normal(7), t=rng.uniform(0, 1, 7),
                   x=rng.uniform(0, 1, (7, 2)), noise_std=0.5, seed=11)
    data.save(tmp_path / "data.csv")
    back = Dataset.load(tmp_path / "data.csv")
    np.testing.assert_allclose(back.y, data.y, atol=0)
    np.testing.assert_allclose(back.x, data.x, atol=0)
    assert back.noise_std == 0.5


def test_loaded_dataset_equals_the_generated_one(tmp_path):
    model = _small_model(1)
    W0 = random_potential(2, 1, np.random.default_rng(25), amplitude=0.4)
    data = generate_data(W0, model, 30, 0.05, np.random.default_rng(26), seed=26)
    data.save(tmp_path / "data.csv")
    loaded = Dataset.load(tmp_path / "data.csv")
    assert loaded.obs is None and data.obs is not None
    assert loaded == data and not loaded != data
    loaded.y[3] += 1e-3
    assert loaded != data
    assert data != "data"


def test_a_loaded_dataset_with_a_nan_time_is_rejected_by_the_likelihood(tmp_path):
    model = _small_model(1)
    W0 = random_potential(2, 1, np.random.default_rng(27), amplitude=0.4)
    data = generate_data(W0, model, 10, 0.05, np.random.default_rng(28))
    data.save(tmp_path / "data.csv")
    lines = (tmp_path / "data.csv").read_text().splitlines()
    row = lines[4].split(",")  # the point of index 3, below the header
    lines[4] = ",".join([row[0], "nan"] + row[2:])
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^observation point 3 is not finite"):
        LikelihoodEvaluator(model, Dataset.load(tmp_path / "data.csv"))


def test_a_loaded_dataset_with_a_nan_observation_is_rejected(tmp_path):
    model = _small_model(1)
    W0 = random_potential(2, 1, np.random.default_rng(27), amplitude=0.4)
    data = generate_data(W0, model, 10, 0.05, np.random.default_rng(28))
    data.save(tmp_path / "data.csv")
    lines = (tmp_path / "data.csv").read_text().splitlines()
    row = lines[4].split(",")  # the point of index 3, below the header
    lines[4] = ",".join(["nan"] + row[1:])
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^observation 3 is not finite: Y = nan"):
        Dataset.load(tmp_path / "data.csv")
    with pytest.raises(ValueError, match="^observation 1 is not finite: Y = inf"):
        Dataset(y=[0.0, np.inf], t=[0.0, 0.01], x=[0.3, 0.4], noise_std=0.1)


# ---------------------------------------------------------------------------
# likelihood


def test_loglik_zero_at_truth_noiseless():
    rng = np.random.default_rng(5)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.4)
    data = generate_data(W0, model, 20, 0.0, rng)
    like = LikelihoodEvaluator(model, data)
    assert like.loglik(W0) == pytest.approx(0.0, abs=1e-20)
    _, grad = like.loglik_and_grad(W0)
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_loglik_single_unit_residual():
    model = _model()
    W0 = PotentialVec.zeros(2, 1)
    rho = model.solve(W0)
    t0, x0 = 0.1, np.array([0.3])
    y = rho.eval(t0, x0) + 1.0
    data = Dataset(y=[y], t=[t0], x=[[0.3]], noise_std=0.0)
    assert LikelihoodEvaluator(model, data).loglik(W0) == pytest.approx(-0.5, abs=1e-12)


def test_grad_loglik_fd_per_coordinate():
    rng = np.random.default_rng(6)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.3)
    data = generate_data(W0, model, 30, 0.1, rng)
    like = LikelihoodEvaluator(model, data)
    W = W0 + random_potential(2, 1, rng, amplitude=0.15)
    _, grad = like.loglik_and_grad(W)
    eps = 1e-3
    scale = max(1.0, np.max(np.abs(grad)))
    for j in range(grad.size):
        e = np.zeros_like(grad)
        e[j] = eps
        fd = (like.loglik(model.vec(W.values + e))
              - like.loglik(model.vec(W.values - e))) / (2 * eps)
        assert abs(fd - grad[j]) / scale <= 1e-3


def test_grad_loglik_linear_in_residuals():
    rng = np.random.default_rng(7)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.3)
    data = generate_data(W0, model, 25, 0.1, rng)
    W = W0 + random_potential(2, 1, rng, amplitude=0.1)
    like = LikelihoodEvaluator(model, data)
    fitted = data.y - like.residuals(W)[0]
    scaled = Dataset(y=fitted + 3.0 * (data.y - fitted), t=data.t, x=data.x,
                     noise_std=data.noise_std)
    g1 = LikelihoodEvaluator(model, data).loglik_and_grad(W)[1]
    g3 = LikelihoodEvaluator(model, scaled).loglik_and_grad(W)[1]
    np.testing.assert_allclose(g3, 3.0 * g1, atol=1e-12 * max(1, np.abs(g1).max()))


def test_likelihood_rejects_observation_time_beyond_horizon():
    model = _model()
    data = Dataset(y=np.zeros(3), t=np.array([0.0, 0.5 * T, T + 0.01]),
                   x=np.full((3, 1), 0.3), noise_std=0.1)
    with pytest.raises(ValueError):
        LikelihoodEvaluator(model, data)


def _small_model(d):
    n = {1: 16, 2: 8}[d]
    phi = decay_density(n, d, zeta=1.8 + 2 * (d - 1), amplitude=0.3)
    return ForwardModel(phi=phi, T=0.06, K=2, stepper=StepperConfig(M=8))


# every entry point that takes a density trajectory, called as
# call(model, W, W2, rho) with rho in the place of rho_W (or of rho_{W2})
_DENSITY_ENTRY_POINTS = {
    "Linearisation": lambda m, W, W2, rho: Linearisation(m.problem(W), rho),
    "jacobian_stack": lambda m, W, W2, rho: jacobian_stack(m.problem(W), rho),
    "jacobian_columns": lambda m, W, W2, rho: jacobian_columns(m.problem(W), rho),
    "estimate_c1": lambda m, W, W2, rho: estimate_c1(m, W, rho=rho),
    "generate_data": lambda m, W, W2, rho: generate_data(W, m, 10, 0.05,
                                                         np.random.default_rng(0), rho0=rho),
    "mckv_first_derivative": lambda m, W, W2, rho: mckv_first_derivative(m.problem(W), W2, rho),
    "mckv_second_derivative": lambda m, W, W2, rho: mckv_second_derivative(
        m.problem(W), W, W2, rho, rho, rho),
    "mckv_second_derivative-dH": lambda m, W, W2, rho: mckv_second_derivative(
        m.problem(W), W, W2, m.solve(W), m.solve(W), rho),
}


@pytest.mark.parametrize("entry", sorted(_DENSITY_ENTRY_POINTS))
def test_density_entry_points_reject_a_trajectory_of_another_model(entry):
    call = _DENSITY_ENTRY_POINTS[entry]
    model = _small_model(1)
    rng = np.random.default_rng(20)
    W = random_potential(2, 1, rng, amplitude=0.4)
    W2 = W + random_potential(2, 1, rng, amplitude=0.2)
    call(model, W, W2, model.solve(W))
    # twice and half the steps, twice the horizon, a finer grid
    others = [replace(model, stepper=StepperConfig(M=M)) for M in (16, 4)]
    others += [replace(model, T=0.12),
               replace(model, phi=decay_density(32, 1, zeta=1.8, amplitude=0.3))]
    for other in others:
        with pytest.raises(ValueError, match="does not match the model"):
            call(model, W, W2, other.solve(W))


@pytest.mark.parametrize("d", [1, 2])
def test_grad_loglik_equals_observed_jacobian_columns(d):
    # the gather of all D columns at the data points that back-projection replaced
    rng = np.random.default_rng(30 + d)
    model = _small_model(d)
    W0 = random_potential(2, d, rng, amplitude=0.4)
    data = generate_data(W0, model, 60, 0.05, rng)
    like = LikelihoodEvaluator(model, data)
    W = W0 + random_potential(2, d, rng, amplitude=0.1)
    res, rho = like.residuals(W)
    nodes, _ = jacobian_stack(model.problem(W), rho, K=model.K)
    obs = ObservationOperator(model.T, model.stepper.M, model.phi.grid, data.t, data.x)
    expected = obs(nodes) @ res
    value, grad = like.loglik_and_grad(W)
    assert value == -0.5 * float(res @ res)
    assert np.max(np.abs(grad - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("d", [1, 2])
def test_data_and_residuals_match_pointwise_eval(d):
    # Trajectory.eval synthesises axis by axis, a different summation from the
    # operator's flattened phases, so the two agree to rounding, not bitwise
    model = _small_model(d)
    W0 = random_potential(2, d, np.random.default_rng(50), amplitude=0.4)
    rho = model.solve(W0)
    data = generate_data(W0, model, 30, 0.05, np.random.default_rng(51), rho0=rho)
    rng = np.random.default_rng(51)
    t = rng.uniform(0.0, model.T, 30)
    x = rng.uniform(0.0, 1.0, (30, d))
    noise = 0.05 * rng.standard_normal(30)
    pointwise = np.array([rho.eval(ti, xi) for ti, xi in zip(t, x)])
    assert np.array_equal(data.t, t) and np.array_equal(data.x, x)
    scale = np.max(np.abs(pointwise))
    assert np.max(np.abs(data.y - (pointwise + noise))) <= 1e-14 * scale
    res, _ = LikelihoodEvaluator(model, data).residuals(W0)
    assert np.max(np.abs(res - noise)) <= 1e-14 * scale


def test_grad_loglik_memory_stays_below_one_column_gather():
    K, N = 4, 500
    phi = decay_density(16, 2, zeta=3.8, amplitude=0.3)
    model = ForwardModel(phi=phi, T=0.06, K=K, stepper=StepperConfig(M=8))
    rng = np.random.default_rng(60)
    W0 = random_potential(K, 2, rng, amplitude=0.3)
    data = generate_data(W0, model, N, 0.05, rng)
    like = LikelihoodEvaluator(model, data)
    like.loglik_and_grad(W0)  # warm the grid and basis caches
    tracemalloc.start()
    try:
        like.loglik_and_grad(W0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slab = model.dim * N * phi.grid.size * 16  # one (D, N, n^d) complex array
    assert model.dim == 48
    assert peak < 0.5 * slab


def _grad_loglik_peak_bytes(K, N=500):
    phi = decay_density(16, 2, zeta=3.8, amplitude=0.3)
    model = ForwardModel(phi=phi, T=0.06, K=K, stepper=StepperConfig(M=8))
    rng = np.random.default_rng(61)
    W0 = random_potential(K, 2, rng, amplitude=0.3)
    data = generate_data(W0, model, N, 0.05, rng)
    like = LikelihoodEvaluator(model, data)
    like.loglik_and_grad(W0)  # warm the grid and basis caches
    tracemalloc.start()
    try:
        like.loglik_and_grad(W0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return model.dim, peak


def test_grad_loglik_memory_independent_of_dim():
    # the gradient never builds the D derivative columns or their forcing
    (d_small, small), (d_large, large) = _grad_loglik_peak_bytes(2), _grad_loglik_peak_bytes(4)
    assert (d_small, d_large) == (12, 48)
    assert large <= 1.25 * small


# ---------------------------------------------------------------------------
# expected curvature


def test_expected_neg_hessian_gram_at_truth():
    rng = np.random.default_rng(8)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.4)
    M = expected_neg_hessian(W0, W0, model)
    prob = model.problem(W0)
    rho = solve_mckv(prob)
    G = gram_matrix(jacobian_columns(prob, rho), T)
    np.testing.assert_allclose(M, G, atol=1e-15)
    assert np.max(np.abs(M - M.T)) <= 1e-12
    assert np.linalg.eigvalsh(M)[0] >= -1e-14


def test_expected_neg_hessian_symmetric_off_truth():
    rng = np.random.default_rng(9)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.3)
    W = W0 + random_potential(2, 1, rng, amplitude=0.4)
    M = expected_neg_hessian(W, W0, model)
    assert np.max(np.abs(M - M.T)) <= 1e-12


def test_expected_neg_hessian_zero_at_uniform_state():
    rng = np.random.default_rng(10)
    model = _model(phi=uniform_density(N_GRID, 1))
    W0 = random_potential(2, 1, rng, amplitude=0.4)
    M = expected_neg_hessian(W0, W0, model)
    assert np.linalg.eigvalsh(M)[0] <= 1e-12
    assert np.max(np.abs(M)) <= 1e-12


def test_estimate_c1_bounds_density_and_hessian_only_raises_it():
    rng = np.random.default_rng(11)
    model = _model()
    W = random_potential(2, 1, rng, amplitude=0.4)
    rho_max = float(np.max(np.abs(model.phi.grid.to_values(model.solve(W).coeffs))))
    without = estimate_c1(model, W, include_hessian=False)
    assert without >= rho_max
    assert estimate_c1(model, W, include_hessian=True) >= without


def _curvature_model(d):
    n = {1: 16, 2: 8}[d]
    phi = decay_density(n, d, zeta=1.8 + 2 * (d - 1), amplitude=0.3)
    return ForwardModel(phi=phi, T=0.06, K=2, stepper=StepperConfig(M=8))


# a "scheme" parameter only labels the case: Lawson-Heun is the one scheme
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("scheme", ["if-heun"])
def test_hessian_frobenius_summed_by_rows_matches_the_full_array(d, scheme):
    model = _curvature_model(d)
    W = random_potential(2, d, np.random.default_rng(40 + d), amplitude=0.5)
    problem = model.problem(W)
    lin = Linearisation(problem, solve_mckv(problem))
    ref = np.sqrt(np.sum(second_derivative_matrix(lin, model.phi.grid.to_values) ** 2,
                         axis=(0, 1)))
    field = _hessian_frobenius(lin)
    assert field.shape == ref.shape
    assert np.max(np.abs(field - ref)) <= 1e-12 * np.max(np.abs(ref))


def _count_operator_work(monkeypatch):
    """Count LWOperator constructions and its forward and backward solves."""
    counts = dict.fromkeys(("built", "solve", "solve_transpose"), 0)

    def counting(key, method):
        def wrapper(self, *args, **kwargs):
            counts[key] += 1
            return method(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(LWOperator, "__init__", counting("built", LWOperator.__init__))
    for name in ("solve", "solve_transpose"):
        monkeypatch.setattr(LWOperator, name, counting(name, getattr(LWOperator, name)))
    return counts


def test_curvature_quantities_build_one_operator_per_W(monkeypatch, fresh_memo):
    rng = np.random.default_rng(12)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.3)
    W = W0 + random_potential(2, 1, rng, amplitude=0.4)
    counts = _count_operator_work(monkeypatch)

    # one operator at W and one column solve serve all three calls;
    # rho_{W0} is read from its memo entry, which builds no operator
    expected_neg_hessian(W, W0, model)
    assert counts == {"built": 1, "solve": 1, "solve_transpose": 1}
    counts.update(dict.fromkeys(counts, 0))
    estimate_c1(model, W, include_hessian=True)
    # only the second-derivative rows, all D(D+1)/2 pairs in one solve
    assert counts == {"built": 0, "solve": 1, "solve_transpose": 0}
    counts.update(dict.fromkeys(counts, 0))
    sigma_min_trend(model.problem(W), K=model.K)
    assert counts == {"built": 0, "solve": 0, "solve_transpose": 0}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("scheme", ["if-heun"])
def test_linearisation_vjp_equals_the_contraction_with_its_columns(d, scheme):
    model = _curvature_model(d)
    rng = np.random.default_rng(50 + d)
    problem = model.problem(random_potential(2, d, rng, amplitude=0.5))
    rho = solve_mckv(problem)
    g = rng.standard_normal(rho.coeffs.shape) + 1j * rng.standard_normal(rho.coeffs.shape)
    lin = Linearisation(problem, rho)
    vjp = lin.vjp(g)
    assert "states" not in vars(lin)  # the backward solve needs no columns
    nodes = lin.columns
    ref = np.sum(g[None] * nodes, axis=tuple(range(1, nodes.ndim))).real
    assert np.max(np.abs(vjp - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("scheme", ["if-heun"])
def test_linearisation_holds_its_columns_once(d, scheme):
    model = _curvature_model(d)
    problem = model.problem(random_potential(2, d, np.random.default_rng(60 + d)))
    rho = solve_mckv(problem)
    lin = Linearisation(problem, rho)
    lin.vjp(np.ones_like(rho.coeffs))
    assert "states" not in vars(lin)  # the backward solve needs no columns
    S = 2 * rho.M + 1
    assert lin.states.shape == (S, model.dim) + lin.op.grid.shape
    assert isinstance(lin.columns, np.ndarray)
    assert np.shares_memory(lin.columns, lin.states)


# ---------------------------------------------------------------------------
# the memo of rho_W and its linearisation


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty memo in place of the module's, restored after the test."""
    memo = OrderedDict()
    monkeypatch.setattr(forward, "_memo", memo)
    return memo


def _count_solves(monkeypatch):
    """Count nonlinear solves, wherever the library looks solve_mckv up."""
    calls = []
    original = forward.solve_mckv

    def counting(problem):
        calls.append(problem.W.values.copy())
        return original(problem)

    monkeypatch.setattr(forward, "solve_mckv", counting)
    monkeypatch.setattr(inference, "solve_mckv", counting)
    return calls


def _diagnostics(model, W, W0, zeta=1.8):
    """The curvature and stability diagnostics at (W, W0), as calls in the
    order a diagnostics pass makes them."""
    K = model.K
    return [lambda: estimate_c1(model, W, include_hessian=True),
            lambda: expected_neg_hessian(W, W0, model).tobytes(),
            lambda: stability_report(model.problem(W), model.problem(W0), K=K,
                                     zeta=zeta, beta=6.0),
            lambda: sigma_min_trend(model.problem(W), K),
            lambda: gradient_stability_sigma_min(model.problem(W0), K)]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("scheme", ["if-heun"])
def test_memoised_diagnostics_equal_those_from_an_empty_memo(monkeypatch, d, scheme):
    model = _curvature_model(d)
    rng = np.random.default_rng(70 + d)
    W0 = random_potential(2, d, rng, amplitude=0.5)
    shared = OrderedDict()
    for _ in range(2):
        W = W0 + random_potential(2, d, rng, amplitude=0.2)
        fresh = []
        for call in _diagnostics(model, W, W0):
            monkeypatch.setattr(forward, "_memo", OrderedDict())
            fresh.append(call())
        monkeypatch.setattr(forward, "_memo", shared)
        memoised = [call() for call in _diagnostics(model, W, W0)]
        assert memoised == fresh
        assert len(shared) == forward.MEMO_SIZE
    # a trajectory passed in builds its own Linearisation, with the same values
    rho = solve_mckv(model.problem(W))
    assert estimate_c1(model, W, include_hessian=True, rho=rho) == memoised[0]


@pytest.mark.parametrize("scheme", ["if-heun"])
def test_memo_entries_are_read_only(fresh_memo, scheme):
    model = _curvature_model(1)
    lin = linearisation(model.problem(random_potential(2, 1, np.random.default_rng(71))))
    arrays = [lin.rho.coeffs, solver_states(lin.rho), lin.states, lin.columns]
    arrays += [a for a in (lin.rho.stages,) if a is not None]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0.0
    assert linearisation(model.problem(random_potential(2, 1, np.random.default_rng(71)))) is lin


def test_memo_keeps_the_two_most_recent_problems(monkeypatch, fresh_memo):
    model = _curvature_model(1)
    rng = np.random.default_rng(72)
    problems = [model.problem(random_potential(2, 1, rng, amplitude=0.4)) for _ in range(3)]
    calls = _count_solves(monkeypatch)
    lins = [linearisation(p) for p in problems]
    assert len(calls) == 3 and len(fresh_memo) == forward.MEMO_SIZE == 2
    assert linearisation(problems[2]) is lins[2] and linearisation(problems[1]) is lins[1]
    assert len(calls) == 3
    # the first problem was evicted, so it is solved again and evicts the
    # least recently used entry, the third
    assert linearisation(problems[0]) is not lins[0] and len(calls) == 4
    assert linearisation(problems[1]) is lins[1] and len(fresh_memo) == 2
    # another K is another entry, on the rho_W of the first: no solve
    assert linearisation(problems[1], K=1).rho is lins[1].rho
    assert len(calls) == 4 and len(fresh_memo) == 2


def test_gram_is_computed_once_and_the_expected_hessian_leaves_it_alone(fresh_memo):
    model = _curvature_model(1)
    rng = np.random.default_rng(74)
    W0 = random_potential(2, 1, rng, amplitude=0.3)
    W = W0 + random_potential(2, 1, rng, amplitude=0.4)
    gram = linearisation(model.problem(W)).gram()
    kept = gram.copy()
    assert linearisation(model.problem(W)).gram() is gram and not gram.flags.writeable
    hess = expected_neg_hessian(W, W0, model)
    assert hess is not gram and not np.array_equal(hess, gram)
    assert np.array_equal(gram, kept)


def test_memo_solves_again_after_W_changes_in_place(monkeypatch, fresh_memo):
    model = _curvature_model(1)
    W = random_potential(2, 1, np.random.default_rng(73), amplitude=0.4)
    W_before = PotentialVec(W.K, W.d, W.values.copy())
    problem = model.problem(W)
    calls = _count_solves(monkeypatch)
    lin = linearisation(problem)
    W.values[0] += 0.1
    changed = linearisation(problem)
    assert changed is not lin and len(calls) == 2
    assert np.array_equal(changed.rho.coeffs, solve_mckv(model.problem(W)).coeffs)
    # the first entry's operator, built only now, still linearises at the old W
    ref = Linearisation(model.problem(W_before), solve_mckv(model.problem(W_before)))
    assert lin.gram().tobytes() == ref.gram().tobytes()


@pytest.mark.parametrize("scheme", ["if-heun"])
def test_the_probes_of_a_pair_share_its_two_solves(monkeypatch, fresh_memo, scheme):
    # every stability probe reads rho_1 and rho_2 from the memo, at W.K and at
    # a K < W.K, whose entry takes rho_1 from the entry at W.K
    model = _curvature_model(1)
    rng = np.random.default_rng(80)
    W1 = random_potential(2, 1, rng, amplitude=0.4)
    p1, p2 = model.problem(W1), model.problem(W1 + random_potential(2, 1, rng, amplitude=0.3))
    solve = forward.solve_mckv_field  # behind solve_mckv, wherever it is looked up
    for K in (model.K, model.K - 1):
        fresh_memo.clear()
        solves = []
        monkeypatch.setattr(forward, "solve_mckv_field",
                            lambda *args: solves.append(1) or solve(*args))
        pseudo_linearised_difference(p1, p2)
        forward_lipschitz_probe(p1, p2, 6.0)
        stability_report(p1, p2, K=K, zeta=3.0, beta=6.0)
        assert len(solves) == 2, K


def test_loglik_and_grad_neither_reads_nor_fills_the_memo(monkeypatch, fresh_memo):
    model = _curvature_model(1)
    W = random_potential(2, 1, np.random.default_rng(74), amplitude=0.4)
    data = generate_data(W, model, 40, 0.05, np.random.default_rng(75))
    assert not fresh_memo
    like = LikelihoodEvaluator(model, data)
    calls = _count_solves(monkeypatch)
    ref = like.loglik_and_grad(W)
    assert len(calls) == 1 and not fresh_memo
    lin = linearisation(model.problem(W))
    entries = list(fresh_memo.items())
    value, grad = like.loglik_and_grad(W)
    assert len(calls) == 3  # the entry's solve, then the likelihood's own
    assert list(fresh_memo.items()) == entries and fresh_memo[entries[0][0]] is lin
    assert value == ref[0] and grad.tobytes() == ref[1].tobytes()


def test_a_gradient_builds_one_problem(monkeypatch):
    # phi is validated once per gradient, and the solve count stays one
    model = _model()
    W = random_potential(2, 1, np.random.default_rng(76), amplitude=0.4)
    like = LikelihoodEvaluator(model, generate_data(W, model, 40, 0.05,
                                                    np.random.default_rng(77)))
    built = []
    post_init = forward.McKVProblem.__post_init__
    monkeypatch.setattr(forward.McKVProblem, "__post_init__",
                        lambda self: built.append(post_init(self)))
    like.loglik_and_grad(W)
    assert len(built) == 1 and like.n_solves == 1


def test_a_gradient_synthesises_the_density_states_once(monkeypatch):
    # the operator's padded rho serves the pull-back through the forcing too
    phi = decay_density(16, 1, zeta=3.0, amplitude=0.3)
    model = ForwardModel(phi=phi, T=T, K=2, stepper=StepperConfig(M=8))
    W = random_potential(2, 1, np.random.default_rng(78), amplitude=0.4)
    like = LikelihoodEvaluator(model, generate_data(W, model, 40, 0.05,
                                                    np.random.default_rng(79)))
    S = 2 * 8 + 1
    shapes = []
    to_padded = Grid.to_padded
    monkeypatch.setattr(Grid, "to_padded",
                        lambda self, c: shapes.append(np.shape(c)) or to_padded(self, c))
    like.loglik_and_grad(W)
    # one synthesis of the S states, stacked with their convolution gradW * rho
    assert [shape for shape in shapes if shape[0] == S] == [(S, 2) + phi.grid.shape]


# ---------------------------------------------------------------------------
# surrogate building blocks


def test_gamma_tilde_knot_values():
    r = 0.8
    assert gamma_tilde(5 * r / 8, r) == 0.0
    assert gamma_tilde(9 * r / 8, r) == pytest.approx(r * r / 4.0, abs=1e-16)


def test_gamma_smooth_vanishes_on_half_ball():
    r = 0.8
    for t in (0.0, 0.2 * r, 0.5 * r):
        assert gamma_smooth(t, r) == 0.0


def test_gamma_smooth_far_tail_formula():
    # beyond 3r/4 the mollified hinge is the exact quadratic plus the
    # bump's second moment
    from mckvlab.inference import _GL_NODES, _GL_WEIGHTS

    r = 0.8
    m2 = float(np.sum(_GL_WEIGHTS * mollifier(_GL_NODES) * _GL_NODES**2))
    for t in (0.8 * r, 1.5 * r, 3.0 * r):
        expected = (t - 5 * r / 8) ** 2 + (r / 8) ** 2 * m2
        assert gamma_smooth(t, r) == pytest.approx(expected, rel=1e-13)


def test_gamma_smooth_convex_nondecreasing():
    r, lam = 0.8, 2.5e4
    ts = np.linspace(5 * r / 8, 4 * r, 300)
    vals = lam * gamma_smooth(ts, r)
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-10)
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert np.all(second >= -1e-10)


def test_gamma_smooth_deriv_matches_fd():
    r = 0.8
    ts = np.linspace(0.3 * r, 2.0 * r, 41)
    fd = (gamma_smooth(ts + 1e-6, r) - gamma_smooth(ts - 1e-6, r)) / 2e-6
    np.testing.assert_allclose(gamma_smooth_deriv(ts, r), fd, atol=1e-8)


def test_cutoff_alpha_plateaus():
    assert cutoff_alpha(0.0) == 1.0
    assert cutoff_alpha(0.75) == 1.0
    assert cutoff_alpha(7.0 / 8.0) == 0.0
    assert cutoff_alpha(2.0) == 0.0
    ts = np.linspace(0.76, 0.87, 23)
    fd = (cutoff_alpha(ts + 1e-7) - cutoff_alpha(ts - 1e-7)) / 2e-7
    np.testing.assert_allclose(cutoff_alpha_deriv(ts), fd, atol=1e-6)


def test_lambda_floor_enforced():
    W = PotentialVec.zeros(2, 1)
    floor = lambda_min_bound(100, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SurrogateSpec(r=1.0, W_init=W, lam=floor / 2, lam_floor=floor)
    spec = SurrogateSpec.build(r=1.0, W_init=W, n_obs=100)
    assert spec.lam >= floor


_NON_FINITE_CONSTANTS = {  # name: (the call, the message of its check)
    "r-nan": (lambda: lambda_min_bound(100, np.nan, 1.0, 2.0), "^r must be finite"),
    "c_hat-nan": (lambda: lambda_min_bound(100, 1.0, np.nan, 2.0), "^c_hat must be finite"),
    "c1_hat-nan": (lambda: lambda_min_bound(100, 1.0, 1.0, np.nan), "^c1_hat must be finite"),
    "c_hat-inf": (lambda: SurrogateSpec.build(r=1.0, W_init=PotentialVec.zeros(2, 1), n_obs=100,
                                              c_hat=np.inf), "^c_hat must be finite"),
    "lam-inf": (lambda: SurrogateSpec(r=1.0, W_init=PotentialVec.zeros(2, 1), lam=np.inf),
                "weight must be positive and finite"),
    # max() would drop the negative c_hat N (c1_hat + 1)(1 + r^-2) term as well
    "c_hat-negative": (lambda: lambda_min_bound(100, 1.0, -1.0, 2.0), "^c_hat must be > 0"),
    "c1_hat-negative": (lambda: lambda_min_bound(100, 1.0, 1.0, -5.0), "^c1_hat must be >= 0"),
}


@pytest.mark.parametrize("case", list(_NON_FINITE_CONSTANTS))
def test_a_non_finite_surrogate_constant_fails_its_check(case):
    # max(a, nan) is a, so the floor would drop a NaN constant without a word
    call, message = _NON_FINITE_CONSTANTS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_surrogate_equals_likelihood_on_half_ball():
    rng = np.random.default_rng(11)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.3)
    data = generate_data(W0, model, 20, 0.1, rng)
    like = LikelihoodEvaluator(model, data)
    spec = SurrogateSpec.build(r=0.9, W_init=W0, n_obs=20)
    for _ in range(15):
        u = rng.standard_normal(model.dim)
        u *= rng.uniform(0.0, 0.5) * spec.r / np.linalg.norm(u)
        W = model.vec(W0.values + u)
        sv, sg = surrogate_loglik(W, spec, like)
        lv, lg = like.loglik_and_grad(W)
        assert sv == lv
        assert np.array_equal(sg, lg)


def test_surrogate_tail_is_pure_penalty():
    rng = np.random.default_rng(12)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.3)
    data = generate_data(W0, model, 20, 0.1, rng)
    like = LikelihoodEvaluator(model, data)
    spec = SurrogateSpec.build(r=0.9, W_init=W0, n_obs=20)
    u = rng.standard_normal(model.dim)
    u /= np.linalg.norm(u)
    solves_before = like.n_solves
    # strictly beyond the cutoff support: data term and its gradient are
    # gone and no forward solve happens
    for frac in (0.88, 1.0, 2.0):
        s = frac * spec.r
        W = model.vec(W0.values + s * u)
        sv, sg = surrogate_loglik(W, spec, like)
        assert sv == pytest.approx(-spec.lam * gamma_smooth(s, spec.r), rel=1e-14)
        expected_grad = -spec.lam * gamma_smooth_deriv(s, spec.r) * u
        np.testing.assert_allclose(sg, expected_grad, rtol=1e-12, atol=1e-12)
    assert like.n_solves == solves_before
    # at the boundary itself the cutoff value and slope both vanish, so the
    # surrogate is the pure penalty regardless of rounding in s/r
    s = 7.0 / 8.0 * spec.r
    sv, _ = surrogate_loglik(model.vec(W0.values + s * u), spec, like)
    assert sv == pytest.approx(-spec.lam * gamma_smooth(s, spec.r), rel=1e-14)


def test_surrogate_gradient_fd_in_annulus():
    rng = np.random.default_rng(13)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.3)
    data = generate_data(W0, model, 15, 0.1, rng)
    like = LikelihoodEvaluator(model, data)
    spec = SurrogateSpec.build(r=0.9, W_init=W0, n_obs=15)
    u = rng.standard_normal(model.dim)
    u /= np.linalg.norm(u)
    for frac in (0.55, 0.7, 0.8, 0.86):
        W = model.vec(W0.values + frac * spec.r * u)
        _, sg = surrogate_loglik(W, spec, like)
        eps = 1e-4
        scale = max(1.0, np.max(np.abs(sg)))
        for j in range(model.dim):
            e = np.zeros(model.dim)
            e[j] = eps
            fp, _ = surrogate_loglik(model.vec(W.values + e), spec, like)
            fm, _ = surrogate_loglik(model.vec(W.values - e), spec, like)
            assert abs((fp - fm) / (2 * eps) - sg[j]) / scale <= 1e-3


def test_warm_start_check():
    rng = np.random.default_rng(14)
    W0 = random_potential(2, 1, rng, amplitude=0.3)
    spec = SurrogateSpec.build(r=0.8, W_init=W0, n_obs=10)
    assert spec.check_warm_start(W0)
    far = W0 + random_potential(2, 1, rng, amplitude=1.0)
    assert not spec.check_warm_start(far)


# ---------------------------------------------------------------------------
# posterior energy


def test_posterior_energy_identities():
    rng = np.random.default_rng(15)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.3)
    data = generate_data(W0, model, 20, 0.0, rng)
    prior = PriorSpec(alpha=1.0, K=2, d=1, n_obs=20)
    like = LikelihoodEvaluator(model, data)
    zero = PotentialVec.zeros(2, 1)
    # W = 0 with zero residuals: energy is the pure prior quadratic of 0
    data0 = generate_data(zero, model, 10, 0.0, rng)
    like0 = LikelihoodEvaluator(model, data0)
    assert posterior_energy(zero, prior, like0)[0] == pytest.approx(
        0.0, abs=1e-18)

    # energy difference equals the log posterior-density ratio
    W1 = W0
    W2 = W0 + random_potential(2, 1, rng, amplitude=0.2)
    h1, _ = posterior_energy(W1, prior, like)
    h2, _ = posterior_energy(W2, prior, like)
    l1 = like.loglik(W1) - 0.5 * np.sum(prior.precision_diag() * W1.values**2)
    l2 = like.loglik(W2) - 0.5 * np.sum(prior.precision_diag() * W2.values**2)
    assert h2 - h1 == pytest.approx(l1 - l2, rel=1e-12)


def test_posterior_energy_grad_fd():
    rng = np.random.default_rng(16)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.3)
    data = generate_data(W0, model, 15, 0.1, rng)
    prior = PriorSpec(alpha=1.0, K=2, d=1, n_obs=15)
    like = LikelihoodEvaluator(model, data)
    W = W0 + random_potential(2, 1, rng, amplitude=0.1)
    _, g = posterior_energy(W, prior, like)
    eps = 1e-4
    for j in range(g.size):
        e = np.zeros_like(g)
        e[j] = eps
        fd = (posterior_energy(model.vec(W.values + e), prior, like)[0]
              - posterior_energy(model.vec(W.values - e), prior, like)[0]) / (2 * eps)
        assert abs(fd - g[j]) <= 1e-3 * max(1.0, abs(g[j]))


def test_drift_is_surrogate_grad_minus_prior_term():
    rng = np.random.default_rng(17)
    model = _model()
    W0 = random_potential(2, 1, rng, amplitude=0.3)
    data = generate_data(W0, model, 10, 0.1, rng)
    prior = PriorSpec(alpha=1.0, K=2, d=1, n_obs=10)
    like = LikelihoodEvaluator(model, data)
    spec = SurrogateSpec.build(r=1.0, W_init=W0, n_obs=10)
    drift = make_drift(spec, prior, like)
    theta = W0.values + 0.1 * rng.standard_normal(model.dim)
    _, sg = surrogate_loglik(model.vec(theta), spec, like)
    np.testing.assert_allclose(drift(theta),
                               sg - prior.precision_diag() * theta, atol=1e-14)


def test_setup_builds_the_observation_operator_once(monkeypatch, tmp_path):
    model = _small_model(1)
    W0 = random_potential(2, 1, np.random.default_rng(22), amplitude=0.4)
    built = []
    init = ObservationOperator.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ObservationOperator, "__init__", counting_init)
    data = generate_data(W0, model, 40, 0.05, np.random.default_rng(23))
    like = LikelihoodEvaluator(model, data)
    assert len(built) == 1
    assert "obs" not in repr(data)

    # a dataset without the operator, or a model on another grid, builds its own
    data.save(tmp_path / "data.csv")
    loaded = Dataset.load(tmp_path / "data.csv")
    fresh = LikelihoodEvaluator(model, replace(data))
    other_M = ForwardModel(phi=model.phi, T=model.T, K=2, stepper=StepperConfig(M=16))
    assert LikelihoodEvaluator(other_M, data)._obs is not data.obs
    LikelihoodEvaluator(model, loaded)
    assert len(built) == 4
    assert loaded.obs is None and replace(data).obs is None

    W = W0 + random_potential(2, 1, np.random.default_rng(24), amplitude=0.1)
    assert np.array_equal(like.residuals(W)[0], fresh.residuals(W)[0])
    assert np.array_equal(like.loglik_and_grad(W)[1], fresh.loglik_and_grad(W)[1])
