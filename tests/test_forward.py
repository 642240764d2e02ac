from types import SimpleNamespace

import numpy as np
import pytest

from mckvlab.forward import (
    Linearisation,
    LWOperator,
    McKVProblem,
    ReactionSpec,
    _PairForcing,
    decay_density,
    gram_matrix,
    jacobian_columns,
    jacobian_stack,
    mckv_second_derivative,
    rd_linearisation,
    solve_mckv,
    solve_mckv_field,
    solve_rd,
    tau_gradient_stack,
    uniform_density,
)
from mckvlab.parabolic import (
    StepperConfig,
    Trajectory,
    _as_grad_coeffs,
    heat_trajectory_exact,
    integrate,
    l2l2_inner,
    rel_l2l2_error,
    solve_linear_lw,
    solver_states,
)
from mckvlab.spectral import PotentialVec, SpectralField, get_grid, random_potential
from oracles import (
    mckv_first_derivative,
    padded_columns,
    particle_modes,
    second_derivative_forcing,
    second_derivative_matrix,
    second_derivative_row_forcing,
    to_field,
)

N_GRID = 32
T = 0.25
CFG = StepperConfig(M=64)


def _phi():
    return decay_density(N_GRID, 1, zeta=3.0, amplitude=0.3)


def _rel_traj_err(a_coeffs, b_coeffs):
    return float(np.sqrt(np.sum(np.abs(a_coeffs - b_coeffs) ** 2)
                         / np.sum(np.abs(b_coeffs) ** 2)))


# ---------------------------------------------------------------------------
# the trilinear transport operator div(r gradV * s) of Grid.transport_div


def _transport(r, V, s):
    """div(r gradV * s) of coefficient arrays r and s and a potential V."""
    grid = get_grid(r.shape[-1], V.d)
    return grid.transport_div(r, [grid.deriv(V.coeff_grid(grid.n), j) for j in range(V.d)], s)


def test_trilinear_zero_potential():
    rng = np.random.default_rng(0)
    r = _phi().coeffs
    s = random_potential(3, 1, rng).coeff_grid(N_GRID)
    out = _transport(r, PotentialVec.zeros(2, 1), s)
    assert np.max(np.abs(out)) == 0.0


def test_trilinear_constant_second_factor():
    # s = 1: gradV * 1 has only the zero mode of gradV, which vanishes
    rng = np.random.default_rng(1)
    r = _phi().coeffs
    V = random_potential(3, 1, rng)
    one = SpectralField.constant(1.0, N_GRID, 1)
    out = _transport(r, V, one.coeffs)
    assert np.max(np.abs(out)) < 1e-15


def test_trilinear_constant_first_factor_is_laplacian_of_convolution():
    rng = np.random.default_rng(2)
    V = random_potential(3, 1, rng)
    s = random_potential(4, 1, rng).coeff_grid(N_GRID)
    one = SpectralField.constant(1.0, N_GRID, 1)
    out = _transport(one.coeffs, V, s)
    expected = -4 * np.pi**2 * one.grid.ksq * V.coeff_grid(N_GRID) * s
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_trilinear_is_trilinear():
    rng = np.random.default_rng(3)
    r1 = random_potential(3, 1, rng).coeff_grid(N_GRID)
    r2 = random_potential(3, 1, rng).coeff_grid(N_GRID)
    V = random_potential(3, 1, rng)
    s = random_potential(3, 1, rng).coeff_grid(N_GRID)
    lhs = _transport(r1 + 2.0 * r2, V, s)
    rhs = _transport(r1, V, s) + 2.0 * _transport(r2, V, s)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("d, n, K", [(1, N_GRID, 2), (2, 12, 1)])
def test_lw_operator_apply_matches_trilinear(d, n, K):
    # the batched L_W - Lap against its definition through the transport operator,
    # at node m (state m) and at the Heun predictor of step m (state M+1+m)
    rng = np.random.default_rng(20)
    phi = _phi() if d == 1 else decay_density(n, 2, zeta=4.0, amplitude=0.1)
    W = random_potential(K, d, rng, amplitude=0.5)
    cfg = StepperConfig(M=16)
    rho = solve_mckv(McKVProblem(W=W, phi=phi, T=0.05, stepper=cfg))
    op = LWOperator(W, rho)
    v = np.stack([random_potential(n // 2 - 1, d, rng).coeff_grid(n) for _ in range(3)])
    m = 5
    for s, r in ((m, rho.coeffs[m]), (cfg.M + 1 + m, rho.stages[m])):
        got = op.apply(s, v)
        for b, vb in enumerate(v):
            ref = _transport(vb, W, r) + _transport(r, W, vb)
            assert np.max(np.abs(got[b] - ref)) <= 1e-13 * np.max(np.abs(ref))


def _grid_mismatch_calls():
    # a d=2 problem on n=8, with a d=1 potential and an n=12 field beside it
    rng = np.random.default_rng(31)
    phi = decay_density(8, 2, zeta=4.0, amplitude=0.1)
    cfg = StepperConfig(M=4)
    prob = McKVProblem(W=random_potential(1, 2, rng, amplitude=0.3), phi=phi, T=0.05,
                       stepper=cfg)
    rho = solve_mckv(prob)
    H1 = random_potential(2, 1, rng)
    F12 = to_field(random_potential(1, 2, rng), 12)
    return {
        "LWOperator": lambda: LWOperator(H1, rho),
        "solve_linear_lw": lambda: solve_linear_lw(H1, rho, None, phi),
        "solve_mckv_field": lambda: solve_mckv_field(to_field(H1, 8), phi, 0.05, cfg),
        "mckv_first_derivative": lambda: mckv_first_derivative(prob, H1, rho),
        "mckv_second_derivative": lambda: mckv_second_derivative(prob, H1, prob.W, rho,
                                                                 rho, rho),
        "solve_mckv_field-n": lambda: solve_mckv_field(F12, phi, 0.05, cfg),
    }


@pytest.mark.parametrize("call", list(_grid_mismatch_calls()))
def test_a_potential_off_the_grid_raises(call):
    # every W, H and V passes one gate: a d=1 potential or direction on a d=2
    # grid, or a field of another n, would broadcast into finite numbers
    with pytest.raises(ValueError, match="does not match the grid"):
        _grid_mismatch_calls()[call]()


# ---------------------------------------------------------------------------
# nonlinear forward solves


# a "scheme" parameter only labels the case: Lawson-Heun is the one scheme
@pytest.mark.parametrize("scheme", ["if-heun"])
@pytest.mark.parametrize("d", [1, 2])
def test_solve_mckv_equals_the_loop_on_the_one_shot_transport_kernel(d, scheme):
    n = 32 if d == 1 else 16
    phi = decay_density(n, d, zeta=1.8 + 2 * (d - 1), amplitude=0.3)
    W = random_potential(3, d, np.random.default_rng(30 + d), amplitude=0.6)
    cfg = StepperConfig(M=24)
    rho = solve_mckv(McKVProblem(W=W, phi=phi, T=T, stepper=cfg))
    grid = phi.grid
    grad_w = [grid.deriv(W.coeff_grid(n), j) for j in range(d)]
    oracle = integrate(phi, lambda s, u: grid.transport_div(u, grad_w, u), T, cfg)
    assert np.array_equal(rho.coeffs, oracle.coeffs)
    assert (rho.stages is None) == (oracle.stages is None)
    if rho.stages is not None:
        assert np.array_equal(rho.stages, oracle.stages)


def test_the_mean_field_pde_is_the_limit_of_its_particle_system():
    # mode 1 of rho_W - rho_{-W} at T against N particles driven by W and by -W on
    # common random numbers.  Over seeds 0..19 the error was at most 0.0023 (mean
    # 0.0015); a flipped drift sign gives 0.018 to 0.022.  The margin is 0.006.
    phi = decay_density(64, 1, zeta=1.8, amplitude=0.48)
    W = random_potential(4, 1, np.random.default_rng(0), amplitude=0.35)
    T, cfg = 0.1, StepperConfig(M=800)
    pde = [solve_mckv(McKVProblem(W=s * W, phi=phi, T=T, stepper=cfg)).coeffs[-1, 1]
           for s in (1.0, -1.0)]
    particles = [particle_modes(s * W, phi, T, N=20_000, steps=100, seed=0)[0]
                 for s in (1.0, -1.0)]
    effect = pde[0] - pde[1]
    assert abs(effect) > 0.009
    assert abs(particles[0] - particles[1] - effect) <= 0.006


def test_mckv_zero_potential_is_heat():
    phi = _phi()
    prob = McKVProblem(W=PotentialVec.zeros(2, 1), phi=phi, T=T, stepper=CFG)
    rho = solve_mckv(prob)
    exact = heat_trajectory_exact(phi, T, CFG.M)
    assert rel_l2l2_error(rho, exact) < 1e-12


def test_mckv_uniform_initial_state_stays_uniform():
    rng = np.random.default_rng(4)
    phi = uniform_density(N_GRID, 1)
    for _ in range(3):
        W = random_potential(3, 1, rng, amplitude=0.8)
        rho = solve_mckv(McKVProblem(W=W, phi=phi, T=T, stepper=CFG))
        dev = np.max(np.abs(rho.coeffs - phi.coeffs[None]))
        assert dev <= 1e-12


def test_mckv_mass_conservation():
    rng = np.random.default_rng(5)
    W = random_potential(3, 1, rng, amplitude=0.7)
    rho = solve_mckv(McKVProblem(W=W, phi=_phi(), T=T, stepper=CFG))
    np.testing.assert_allclose(rho.zero_mode(), 1.0, atol=1e-12)


def test_mckv_rejects_non_probability_initial_state():
    f = SpectralField.constant(2.0, N_GRID, 1)
    with pytest.raises(ValueError):
        McKVProblem(W=PotentialVec.zeros(2, 1), phi=f, T=T, stepper=CFG)


def test_constant_shift_invariance_of_potential():
    # only gradW enters; injecting a zero mode pre-projection changes nothing
    rng = np.random.default_rng(6)
    phi = _phi()
    W = random_potential(3, 1, rng, amplitude=0.5)
    W_field = to_field(W, N_GRID)
    shifted = to_field(W, N_GRID)
    shifted.coeffs[0] += 3.7
    a = solve_mckv_field(W_field, phi, T, CFG)
    b = solve_mckv_field(shifted, phi, T, CFG)
    assert np.array_equal(a.coeffs, b.coeffs)


# ---------------------------------------------------------------------------
# first derivative


def _fd_first(problem, H, eps, phi):
    rp = solve_mckv(McKVProblem(W=problem.W + eps * H, phi=phi, T=problem.T,
                                stepper=problem.stepper))
    rm = solve_mckv(McKVProblem(W=problem.W - eps * H, phi=phi, T=problem.T,
                                stepper=problem.stepper))
    return (rp.coeffs - rm.coeffs) / (2 * eps)


def test_first_derivative_zero_direction():
    rng = np.random.default_rng(7)
    phi = _phi()
    W = random_potential(3, 1, rng, amplitude=0.5)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=CFG)
    rho = solve_mckv(prob)
    v = mckv_first_derivative(prob, PotentialVec.zeros(3, 1), rho)
    assert np.max(np.abs(v.coeffs)) == 0.0


def test_first_derivative_vanishes_at_uniform_state():
    rng = np.random.default_rng(8)
    phi = uniform_density(N_GRID, 1)
    W = random_potential(3, 1, rng, amplitude=0.5)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=CFG)
    rho = solve_mckv(prob)
    H = random_potential(3, 1, rng, amplitude=1.0)
    v = mckv_first_derivative(prob, H, rho)
    assert np.max(np.abs(v.coeffs)) < 1e-14


def test_first_derivative_fd_oracle_and_slope():
    rng = np.random.default_rng(9)
    phi = _phi()
    W = random_potential(3, 1, rng, amplitude=0.5)
    H = random_potential(3, 1, rng, amplitude=0.6)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=CFG)
    rho = solve_mckv(prob)
    v = mckv_first_derivative(prob, H, rho)
    errs = []
    for eps in (1e-2, 1e-3):
        fd = _fd_first(prob, H, eps, phi)
        errs.append(_rel_traj_err(fd, v.coeffs))
    assert errs[1] <= 1e-4
    slope = np.log10(errs[0] / errs[1])
    assert abs(slope - 2.0) < 0.3


def test_first_derivative_linearity():
    rng = np.random.default_rng(10)
    phi = _phi()
    W = random_potential(3, 1, rng, amplitude=0.5)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=CFG)
    rho = solve_mckv(prob)
    H1 = random_potential(3, 1, rng)
    H2 = random_potential(3, 1, rng)
    a, b = 0.7, -1.3
    lhs = mckv_first_derivative(prob, a * H1 + b * H2, rho)
    v1 = mckv_first_derivative(prob, H1, rho)
    v2 = mckv_first_derivative(prob, H2, rho)
    err = np.max(np.abs(lhs.coeffs - a * v1.coeffs - b * v2.coeffs))
    assert err < 1e-10 * max(1.0, np.max(np.abs(lhs.coeffs)))


def test_derivative_trajectories_have_zero_mass():
    rng = np.random.default_rng(11)
    phi = _phi()
    W = random_potential(3, 1, rng, amplitude=0.5)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=CFG)
    rho = solve_mckv(prob)
    H = random_potential(3, 1, rng)
    v = mckv_first_derivative(prob, H, rho)
    np.testing.assert_allclose(v.zero_mode(), 0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# second derivative


def test_second_derivative_symmetry_and_fd():
    rng = np.random.default_rng(12)
    phi = _phi()
    W = random_potential(2, 1, rng, amplitude=0.5)
    H1 = random_potential(2, 1, rng, amplitude=0.6)
    H2 = random_potential(2, 1, rng, amplitude=0.6)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=CFG)
    rho = solve_mckv(prob)
    v1 = mckv_first_derivative(prob, H1, rho)
    v2 = mckv_first_derivative(prob, H2, rho)
    s12 = mckv_second_derivative(prob, H1, H2, rho, v1, v2)
    s21 = mckv_second_derivative(prob, H2, H1, rho, v2, v1)
    assert np.max(np.abs(s12.coeffs - s21.coeffs)) < 1e-10

    eps = 1e-3
    pp = McKVProblem(W=W + eps * H2, phi=phi, T=T, stepper=CFG)
    pm = McKVProblem(W=W - eps * H2, phi=phi, T=T, stepper=CFG)
    vp = mckv_first_derivative(pp, H1, solve_mckv(pp))
    vm = mckv_first_derivative(pm, H1, solve_mckv(pm))
    fd = (vp.coeffs - vm.coeffs) / (2 * eps)
    assert _rel_traj_err(fd, s12.coeffs) <= 1e-3


def test_second_derivative_zero_direction():
    rng = np.random.default_rng(13)
    phi = _phi()
    W = random_potential(2, 1, rng, amplitude=0.5)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=CFG)
    rho = solve_mckv(prob)
    H = random_potential(2, 1, rng)
    zero = PotentialVec.zeros(2, 1)
    v0 = mckv_first_derivative(prob, zero, rho)
    vH = mckv_first_derivative(prob, H, rho)
    s = mckv_second_derivative(prob, zero, H, rho, v0, vH)
    assert np.max(np.abs(s.coeffs)) == 0.0


# ---------------------------------------------------------------------------
# reaction-diffusion


def test_rd_zero_reaction_is_heat():
    phi = _phi()
    R = ReactionSpec(R=lambda u: np.zeros_like(u), Rprime=lambda u: np.zeros_like(u))
    u = solve_rd(R, phi, T, CFG)
    exact = heat_trajectory_exact(phi, T, CFG.M)
    assert rel_l2l2_error(u, exact) < 1e-12


def test_rd_linear_reaction_exponential_factor():
    lam = 0.8
    phi = _phi()
    cfg = StepperConfig(M=2048)
    R = ReactionSpec(R=lambda u: lam * u, Rprime=lambda u: lam * np.ones_like(u))
    u = solve_rd(R, phi, T, cfg)
    exact = heat_trajectory_exact(phi, T, cfg.M)
    ts = np.linspace(0, T, cfg.M + 1)
    exact.coeffs *= np.exp(lam * ts)[:, None]
    assert rel_l2l2_error(u, exact) < 1e-8


def test_rd_linearisation_fd_oracle():
    phi = _phi()
    R = ReactionSpec(R=np.sin, Rprime=np.cos)
    H = ReactionSpec(R=np.cos, Rprime=lambda u: -np.sin(u))
    u = solve_rd(R, phi, T, CFG)
    iH = rd_linearisation(R, H.R, u)
    eps = 1e-3
    up = solve_rd(ReactionSpec(R=lambda v: np.sin(v) + eps * np.cos(v),
                               Rprime=lambda v: np.cos(v) - eps * np.sin(v)),
                  phi, T, CFG)
    um = solve_rd(ReactionSpec(R=lambda v: np.sin(v) - eps * np.cos(v),
                               Rprime=lambda v: np.cos(v) + eps * np.sin(v)),
                  phi, T, CFG)
    fd = (up.coeffs - um.coeffs) / (2 * eps)
    assert _rel_traj_err(fd, iH.coeffs) <= 1e-4


@pytest.mark.parametrize("scheme", ["if-heun"])
def test_rd_linearisation_solves_on_the_trajectory_time_grid(scheme):
    # the exact derivative of the 8-step map that u was solved on, with no
    # stepper passed: O(eps^2) against central differences of solve_rd
    phi = _phi()
    cfg = StepperConfig(M=8)
    u = solve_rd(ReactionSpec(R=np.sin, Rprime=np.cos), phi, T, cfg)
    iH = rd_linearisation(ReactionSpec(R=np.sin, Rprime=np.cos), np.cos, u)
    assert (iH.M, iH.stages is not None) == (8, True)
    eps = 1e-4
    up, um = (solve_rd(ReactionSpec(R=lambda v, s=s: np.sin(v) + s * np.cos(v),
                                    Rprime=lambda v, s=s: np.cos(v) - s * np.sin(v)),
                       phi, T, cfg) for s in (eps, -eps))
    assert _rel_traj_err((up.coeffs - um.coeffs) / (2 * eps), iH.coeffs) <= 1e-6


def test_rd_linearisation_rejects_an_exact_trajectory():
    u = heat_trajectory_exact(_phi(), T, 8)
    with pytest.raises(ValueError, match="scheme"):
        rd_linearisation(ReactionSpec(R=np.sin, Rprime=np.cos), np.cos, u)


@pytest.mark.parametrize("kind", ["loaded", "exact", "hand-built"])
def test_a_trajectory_without_predictor_stages_carries_no_solve(kind, tmp_path):
    # a solve along nodes alone would differentiate another map than the discrete one
    phi = _phi()
    W = random_potential(2, 1, np.random.default_rng(81), amplitude=0.4)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=StepperConfig(M=8))
    rho = solve_mckv(prob)
    if kind == "loaded":
        rho.save(tmp_path / "rho")
        bare = Trajectory.load(tmp_path / "rho")
    elif kind == "exact":
        bare = heat_trajectory_exact(phi, T, 8)
    else:
        bare = Trajectory(T, 8, rho.coeffs.copy())
    assert bare.stages is None
    v = mckv_first_derivative(prob, W, rho)
    reaction = ReactionSpec(R=np.sin, Rprime=np.cos)
    calls = {
        "LWOperator": lambda: LWOperator(W, bare),
        "solve_linear_lw forcing": lambda: solve_linear_lw(W, rho, bare,
                                                           SpectralField.zeros(N_GRID, 1)),
        "mckv_second_derivative dH1": lambda: mckv_second_derivative(prob, W, W, rho, bare, v),
        "mckv_second_derivative dH2": lambda: mckv_second_derivative(prob, W, W, rho, v, bare),
        "rd_linearisation": lambda: rd_linearisation(reaction, np.cos, bare),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="no predictor stages"):
            call()
            pytest.fail(f"{name} accepted a trajectory without predictor stages")


def test_reaction_spec_rejects_wrong_derivative():
    with pytest.raises(ValueError):
        ReactionSpec(R=np.sin, Rprime=np.sin)


# ---------------------------------------------------------------------------
# jacobian


def test_jacobian_zero_at_uniform_state():
    rng = np.random.default_rng(14)
    phi = uniform_density(N_GRID, 1)
    W = random_potential(2, 1, rng, amplitude=0.5)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=CFG)
    cols = jacobian_columns(prob)
    for c in cols:
        assert np.max(np.abs(c.coeffs)) < 1e-14


def test_jacobian_column_equals_first_derivative_bit_identically():
    rng = np.random.default_rng(15)
    phi = _phi()
    W = random_potential(2, 1, rng, amplitude=0.5)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=CFG)
    rho = solve_mckv(prob)
    cols = jacobian_columns(prob, rho)
    for k, col in zip(W.modes, cols):
        H = PotentialVec.from_mode_dict(2, 1, {k: 1.0})
        single = mckv_first_derivative(prob, H, rho)
        assert np.array_equal(col.coeffs, single.coeffs)


def test_jacobian_stack_matches_columns():
    rng = np.random.default_rng(16)
    phi = _phi()
    W = random_potential(2, 1, rng, amplitude=0.5)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=CFG)
    rho = solve_mckv(prob)
    cols = jacobian_columns(prob, rho)
    nodes, stages = jacobian_stack(prob, rho)
    for i, col in enumerate(cols):
        assert np.max(np.abs(nodes[i] - col.coeffs)) < 1e-14
        assert np.max(np.abs(stages[i] - col.stages)) < 1e-14


def test_gram_matrix_symmetric_psd():
    rng = np.random.default_rng(17)
    phi = _phi()
    W = random_potential(2, 1, rng, amplitude=0.5)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=CFG)
    cols = jacobian_columns(prob)
    G = gram_matrix(cols, T)
    assert np.max(np.abs(G - G.T)) == 0.0
    assert np.linalg.eigvalsh(G)[0] >= -1e-14


def test_dimension_check_2d():
    # the whole derivative machinery runs in d = 2 as well
    rng = np.random.default_rng(18)
    phi = decay_density(12, 2, zeta=4.0, amplitude=0.1)
    W = random_potential(1, 2, rng, amplitude=0.3)
    cfg = StepperConfig(M=16)
    prob = McKVProblem(W=W, phi=phi, T=0.05, stepper=cfg)
    rho = solve_mckv(prob)
    np.testing.assert_allclose(rho.zero_mode(), 1.0, atol=1e-12)
    H = random_potential(1, 2, rng, amplitude=0.5)
    v = mckv_first_derivative(prob, H, rho)
    eps = 1e-3
    rp = solve_mckv(McKVProblem(W=W + eps * H, phi=phi, T=0.05, stepper=cfg))
    rm = solve_mckv(McKVProblem(W=W - eps * H, phi=phi, T=0.05, stepper=cfg))
    fd = (rp.coeffs - rm.coeffs) / (2 * eps)
    assert _rel_traj_err(fd, v.coeffs) <= 1e-4


def test_dimension_check_3d_smoke():
    rng = np.random.default_rng(19)
    phi = decay_density(8, 3, zeta=5.0, amplitude=0.05)
    W = random_potential(1, 3, rng, amplitude=0.2)
    cfg = StepperConfig(M=8)
    rho = solve_mckv(McKVProblem(W=W, phi=phi, T=0.02, stepper=cfg))
    np.testing.assert_allclose(rho.zero_mode(), 1.0, atol=1e-13)
    assert SpectralField(3, 8, rho.coeffs[cfg.M]).conj_symmetry_defect() < 1e-12


# ---------------------------------------------------------------------------
# stacked contractions against the pairwise paths they replace


@pytest.mark.parametrize("d, n, K, zeta, amplitude", [(1, 32, 3, 3.0, 0.3),
                                                     (2, 12, 2, 4.0, 0.1)])
def test_gram_matrix_matches_pairwise_inner_products(d, n, K, zeta, amplitude):
    rng = np.random.default_rng(30 + d)
    phi = decay_density(n, d, zeta=zeta, amplitude=amplitude)
    W = random_potential(K, d, rng, amplitude=0.4)
    prob = McKVProblem(W=W, phi=phi, T=0.1, stepper=StepperConfig(M=16))
    cols = jacobian_columns(prob)
    G = gram_matrix(cols)
    ref = np.array([[l2l2_inner(a, b) / 0.1 for b in cols] for a in cols])
    assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))


def _curvature_problem(d, seed):
    """A random W on a small grid per dimension, with its rho_W and D columns."""
    n, K, zeta, amplitude = {1: (N_GRID, 2, 3.0, 0.3), 2: (8, 2, 4.0, 0.1),
                             3: (8, 1, 4.0, 0.1)}[d]
    W = random_potential(K, d, np.random.default_rng(seed), amplitude=0.5)
    prob = McKVProblem(W=W, phi=decay_density(n, d, zeta=zeta, amplitude=amplitude), T=0.1,
                       stepper=StepperConfig(M=16))
    rho = solve_mckv(prob)
    return prob, rho, jacobian_columns(prob, rho)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("scheme", ["if-heun"])
def test_second_derivative_matrix_matches_pairwise_solves(d, scheme):
    prob, rho, cols = _curvature_problem(d, 32)
    W = prob.W
    D2 = second_derivative_matrix(Linearisation(prob, rho), lambda nodes: nodes)
    # the reference: one solve per pair, forced by the six-term expansion
    op = LWOperator(W, rho)
    basis = [PotentialVec.from_mode_dict(W.K, W.d, {m: 1.0}) for m in W.modes]
    grads = [_as_grad_coeffs(H, op.grid) for H in basis]
    v = np.stack([solver_states(c) for c in cols], axis=1)
    for j in range(W.dim):
        for k in range(W.dim):
            forcing = second_derivative_forcing(op, grads[j], [g[None] for g in grads[k]],
                                                v[:, j:j + 1], v[:, k:k + 1])
            ref = op.solve(forcing, keep_stages=False)[:, 0]
            assert np.max(np.abs(D2[j, k] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_single_pair_second_derivative_is_its_pair_of_the_stacked_solve(d):
    # D = 4, 12 and 6: every pair j <= k, one mckv_second_derivative call each
    prob, rho, cols = _curvature_problem(d, 36)
    W = prob.W
    basis = [PotentialVec.from_mode_dict(W.K, W.d, {m: 1.0}) for m in W.modes]
    pairs = Linearisation(prob, rho).second_derivatives()
    for b, (j, k) in enumerate(zip(*np.triu_indices(W.dim))):
        got = mckv_second_derivative(prob, basis[j], basis[k], rho, cols[j], cols[k])
        assert np.array_equal(got.coeffs, pairs[b])


def _second_derivative_rows(prob, rho, cols):
    """The row loop that the stacked solve replaced: one solve per row j over
    k >= j, forced by the oracle row forcing at every state at once."""
    op = LWOperator(prob.W, rho)
    gtau = tau_gradient_stack(prob.W.K, op.grid)
    v = np.stack([solver_states(c) for c in cols], axis=1)
    D = len(cols)
    padded = padded_columns(op, gtau, v)
    out = np.zeros((D, D, rho.M + 1) + op.grid.shape, dtype=complex)
    for j in range(D):
        forcing = second_derivative_row_forcing(op, gtau, v, padded, j)
        nodes = np.moveaxis(op.solve(forcing, keep_stages=False), 0, 1)
        out[j, j:] = nodes
        out[j:, j] = nodes
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("scheme", ["if-heun"])
def test_stacked_second_derivative_rows_match_the_row_loop_bit_for_bit(d, scheme):
    # D = 4, 12 and 6 rows: all D(D+1)/2 pairs in one solve
    prob, rho, cols = _curvature_problem(d, 33)
    stacked = second_derivative_matrix(Linearisation(prob, rho), lambda nodes: nodes)
    assert np.array_equal(stacked, _second_derivative_rows(prob, rho, cols))


def _pair_forcing_problem(d, n, K, M, seed):
    W = random_potential(K, d, np.random.default_rng(seed), amplitude=0.5)
    prob = McKVProblem(W=W, phi=decay_density(n, d, zeta=3.0, amplitude=0.2), T=0.1,
                       stepper=StepperConfig(M=M))
    return Linearisation(prob, solve_mckv(prob))


# the states per block at M = 12 (S = 25 states): more than one at (1, 16, 3),
# (2, 8, 1) and (3, 4, 1), and 25 is a multiple of none of them but 1
PAIR_FORCING_BLOCK = {(1, 16, 3): 13, (2, 8, 2): 1, (3, 8, 1): 1, (2, 8, 1): 9, (3, 4, 1): 3}


@pytest.mark.parametrize("d, n, K", list(PAIR_FORCING_BLOCK))
def test_pair_forcing_equals_the_row_forcing_bit_for_bit(d, n, K):
    # every state, read once in the loop order and once shuffled
    lin = _pair_forcing_problem(d, n, K, 12, 35)
    op, gtau, v = lin.op, lin.gtau, lin.states
    padded = padded_columns(op, gtau, v)
    D, S, M = len(gtau), len(v), op.M
    ref = np.concatenate([second_derivative_row_forcing(op, gtau, v, padded, r)
                          for r in range(D)], axis=1)
    loop_order = [s for m in range(M) for s in (m, M + 1 + m)] + [M]
    shuffled = np.random.default_rng(36).permutation(S)
    for order in (loop_order, shuffled):
        forcing = _PairForcing(op, gtau, v)
        assert forcing.block == PAIR_FORCING_BLOCK[d, n, K]
        assert forcing.shape == ref.shape == (S, D * (D + 1) // 2) + op.grid.shape
        for s in order:
            assert np.array_equal(forcing[s], ref[s])


class _OneStateForcing:
    """The pair forcing built one solver state at a time by the row oracle."""

    def __init__(self, op, gtau, v):
        self.op, self.gtau, self.v = op, gtau, v
        D = len(gtau)
        self.shape = (len(v), D * (D + 1) // 2) + op.grid.shape

    def __getitem__(self, s):
        op, gtau, v = self.op, self.gtau, self.v[s:s + 1]
        one = SimpleNamespace(grid=op.grid, grad_w=op.grad_w,
                              rho_states=op.rho_states[s:s + 1], rho_phys=op.rho_phys[s:s + 1])
        padded = padded_columns(one, gtau, v)
        return np.concatenate([second_derivative_row_forcing(one, gtau, v, padded, r)
                               for r in range(len(gtau))], axis=1)[0]


@pytest.mark.parametrize("d, n, K", [(1, 16, 3), (2, 8, 1), (3, 4, 1)])
def test_second_derivatives_equal_a_solve_forced_one_state_at_a_time(d, n, K):
    # blocks of 13, 9 and 3 of the 25 states
    lin = _pair_forcing_problem(d, n, K, 12, 37)
    op = lin.op
    ref = op.solve(_OneStateForcing(op, lin.gtau, lin.states), keep_stages=False)
    assert np.array_equal(lin.second_derivatives(), np.moveaxis(ref, 0, 1))


@pytest.mark.parametrize("d, n, K", [(1, 16, 3), (2, 8, 2), (3, 8, 1)])
def test_row_forcing_matches_the_six_term_forcing(d, n, K):
    # D = 6, 12, 6: the first, a middle and the last row
    W = random_potential(K, d, np.random.default_rng(34), amplitude=0.5)
    prob = McKVProblem(W=W, phi=decay_density(n, d, zeta=3.0, amplitude=0.2), T=0.1,
                       stepper=StepperConfig(M=8))
    lin = Linearisation(prob, solve_mckv(prob))
    op, gtau, v = lin.op, lin.gtau, lin.states
    padded = padded_columns(op, gtau, v)
    D = len(gtau)
    for r in (0, D // 2, D - 1):
        ref = second_derivative_forcing(op, list(gtau[r]), list(np.moveaxis(gtau[r:], 1, 0)),
                                        v[:, r:r + 1], v[:, r:])
        row = second_derivative_row_forcing(op, gtau, v, padded, r)
        assert row.shape == ref.shape
        assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_basis_maps_reject_K_beyond_the_grid():
    # at n = 8 the modes |k| = 4, 5 alias onto resolved ones (or the Nyquist plane)
    phi = decay_density(8, 1, zeta=3.0, amplitude=0.3)
    prob = McKVProblem(W=PotentialVec.zeros(2, 1), phi=phi, T=0.1, stepper=StepperConfig(M=8))
    rho = solve_mckv(prob)
    g = np.ones_like(rho.coeffs)
    with pytest.raises(ValueError, match="not representable"):
        jacobian_stack(prob, rho, K=5)
    with pytest.raises(ValueError, match="not representable"):
        Linearisation(prob, rho, K=5).vjp(g)
    with pytest.raises(ValueError, match="not representable"):
        Linearisation(prob, rho, K=5).second_derivatives()
