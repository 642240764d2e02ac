import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckvlab.parabolic import (
    LWOperator,
    NumericalBlowUp,
    ObservationOperator,
    StepperConfig,
    Trajectory,
    _folded_analysis,
    _integrate_arrays,
    heat_trajectory_exact,
    integrate,
    l2l2_diff_norm,
    l2l2_inner,
    rel_l2l2_error,
    self_convergence_error,
    solve_linear_lw,
    solver_states,
    transport_forcing,
)
from mckvlab.forward import McKVProblem, decay_density, solve_mckv
from mckvlab.spectral import PotentialVec, SpectralField, get_grid, random_potential
from oracles import DenseObservationOperator

N_GRID = 32
T = 0.25


def _phi():
    return decay_density(N_GRID, 1, zeta=3.0, amplitude=0.3)


def solve_heat(u0: SpectralField, T: float, config: StepperConfig) -> Trajectory:
    """Pure heat flow (F = 0); nodes carry the exact semigroup."""
    zero = np.zeros_like(u0.coeffs)
    return integrate(u0, lambda s, u: zero, T, config)


def test_zero_forcing_reproduces_heat_semigroup():
    phi = _phi()
    traj = solve_heat(phi, T, StepperConfig(M=64))
    exact = heat_trajectory_exact(phi, T, 64)
    assert rel_l2l2_error(traj, exact) < 1e-10


def test_constant_forcing_linear_growth_exact():
    # u0 = 0, F = c constant in space: u(t) = c t exactly on the zero mode
    n = N_GRID
    c_field = np.zeros(n, dtype=complex)
    c_field[0] = 0.7
    u0 = SpectralField.zeros(n, 1)
    traj = integrate(u0, lambda s, u: c_field, T, StepperConfig(M=32))
    ts = np.linspace(0, T, 33)
    np.testing.assert_allclose(traj.zero_mode(), 0.7 * ts, atol=1e-14)


@pytest.mark.parametrize("keep_stages", [True, False])
def test_the_time_loop_hands_its_rhs_the_solver_state(keep_stages):
    # node m at s = m and the Heun predictor of step m at s = M+1+m, kept or not
    seen = []

    def rhs(s, u):
        seen.append(s)
        return np.zeros_like(u)

    phi = _phi()
    states = _integrate_arrays(phi.coeffs, rhs, T, 3, phi.grid, keep_stages)
    assert seen == [0, 4, 1, 5, 2, 6]
    assert len(states) == (7 if keep_stages else 4)


def test_zero_mode_conservation_divergence_forcing():
    rng = np.random.default_rng(0)
    phi = _phi()
    W = random_potential(3, 1, rng, amplitude=0.5)
    traj = solve_mckv(McKVProblem(W=W, phi=phi, T=T, stepper=StepperConfig(M=64)))
    np.testing.assert_allclose(traj.zero_mode(), 1.0, atol=1e-12)


def test_determinism_bit_identical():
    rng = np.random.default_rng(1)
    phi = _phi()
    W = random_potential(3, 1, rng, amplitude=0.5)
    prob = McKVProblem(W=W, phi=phi, T=T, stepper=StepperConfig(M=32))
    a = solve_mckv(prob)
    b = solve_mckv(prob)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_self_convergence_order():
    expected_ratio, window = 4.0, (3.0, 5.2)
    rng = np.random.default_rng(2)
    phi = _phi()
    W = random_potential(3, 1, rng, amplitude=0.6)

    def solve(config):
        return solve_mckv(McKVProblem(W=W, phi=phi, T=T, stepper=config))

    e1 = self_convergence_error(solve, StepperConfig(M=32))
    e2 = self_convergence_error(solve, StepperConfig(M=64))
    ratio = e1 / e2
    assert window[0] < ratio < window[1], (ratio, expected_ratio)


def _blowup_problem(d):
    phi = decay_density(N_GRID, d, zeta=3.0 + 0.8 * (d - 1), amplitude=0.3)
    return phi, random_potential(3, d, np.random.default_rng(3), amplitude=500.0)


@pytest.mark.parametrize("d", [1, 2])
def test_blowup_detection_reports_step(d):
    phi, big = _blowup_problem(d)
    cfg = StepperConfig(M=8)
    with pytest.raises(NumericalBlowUp) as excinfo:
        solve_mckv(McKVProblem(W=big, phi=phi, T=T, stepper=cfg))
    # the step at which the loop on the one-shot transport kernel blows up
    grid = phi.grid
    grad_w = [grid.deriv(big.coeff_grid(N_GRID), j) for j in range(d)]
    with pytest.raises(NumericalBlowUp) as oracle:
        integrate(phi, lambda s, u: grid.transport_div(u, grad_w, u), T, cfg)
    assert excinfo.value.step == oracle.value.step


def test_a_blowup_raises_no_runtime_warning():
    # the loop runs on into overflow and NaN before its one guard reads the nodes
    phi, big = _blowup_problem(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalBlowUp) as excinfo:
            solve_mckv(McKVProblem(W=big, phi=phi, T=T, stepper=StepperConfig(M=8)))
    assert excinfo.value.step == 2


def test_linear_lw_heat_limit():
    # W = 0, f = 0, u0 = phi: the linear solve reduces to the heat flow
    phi = _phi()
    cfg = StepperConfig(M=64)
    rho = solve_heat(phi, T, cfg)
    W0 = PotentialVec.zeros(2, 1)
    traj = solve_linear_lw(W0, rho, None, phi)
    exact = heat_trajectory_exact(phi, T, 64)
    assert rel_l2l2_error(traj, exact) < 1e-10


def test_linear_lw_zero_data_is_zero():
    phi = _phi()
    cfg = StepperConfig(M=32)
    rng = np.random.default_rng(4)
    W = random_potential(2, 1, rng, amplitude=0.5)
    rho = solve_mckv(McKVProblem(W=W, phi=phi, T=T, stepper=cfg))
    zero = SpectralField.zeros(N_GRID, 1)
    forcing = Trajectory(T, 32, np.zeros((65, N_GRID), dtype=complex))
    traj = solve_linear_lw(W, rho, forcing, zero)
    assert np.max(np.abs(traj.coeffs)) == 0.0


def test_linear_lw_superposition():
    phi = _phi()
    cfg = StepperConfig(M=32)
    rng = np.random.default_rng(5)
    W = random_potential(2, 1, rng, amplitude=0.5)
    rho = solve_mckv(McKVProblem(W=W, phi=phi, T=T, stepper=cfg))
    zero = SpectralField.zeros(N_GRID, 1)

    def random_states():
        # nodes 0..32, then the predictors of the 32 steps
        c = np.zeros((65, N_GRID), dtype=complex)
        for m in range(65):
            c[m] = random_potential(4, 1, rng, amplitude=1.0).coeff_grid(N_GRID)
        return c

    c1, c2 = random_states(), random_states()
    f1, f2, both = (Trajectory(T, 32, c) for c in (c1, c2, c1 + c2))
    u1 = solve_linear_lw(W, rho, f1, zero)
    u2 = solve_linear_lw(W, rho, f2, zero)
    u12 = solve_linear_lw(W, rho, both, zero)
    err = np.max(np.abs(u12.coeffs - u1.coeffs - u2.coeffs))
    assert err < 1e-10 * max(1.0, np.max(np.abs(u12.coeffs)))


def test_time_grid_mismatch_rejected():
    phi = _phi()
    cfg = StepperConfig(M=32)
    rho = solve_heat(phi, T, cfg)
    forcing = Trajectory(T, 16, np.zeros((17, N_GRID), dtype=complex))
    with pytest.raises(ValueError):
        solve_linear_lw(PotentialVec.zeros(2, 1), rho, forcing, phi)


# a "scheme" parameter only labels the case: Lawson-Heun is the one scheme
@pytest.mark.parametrize("scheme", ["if-heun"])
def test_linearised_solves_run_on_the_density_time_grid(scheme):
    # with no stepper passed, the solve is the exact derivative of the 8-step map
    # that rho_W was solved on: O(eps^2) against central differences of solve_mckv
    phi = _phi()
    cfg = StepperConfig(M=8)
    rng = np.random.default_rng(96)
    W, H = (random_potential(2, 1, rng, amplitude=0.4) for _ in range(2))
    rho = solve_mckv(McKVProblem(W=W, phi=phi, T=T, stepper=cfg))
    op = LWOperator(W, rho)
    assert op.M == rho.M == cfg.M
    grad_h = phi.grid.deriv(H.coeff_grid(N_GRID), 0)[None, None]
    f = transport_forcing(phi.grid, solver_states(rho), grad_h)
    assert len(op.solve(f)) == len(f) == 17
    v = solve_linear_lw(W, rho, Trajectory(T, 8, f[:, 0]), SpectralField.zeros(N_GRID, 1))
    assert v.M == 8
    eps = 1e-5
    rp, rm = (solve_mckv(McKVProblem(W=W + s * H, phi=phi, T=T, stepper=cfg))
              for s in (eps, -eps))
    fd = (rp.coeffs - rm.coeffs) / (2 * eps)
    assert np.max(np.abs(v.coeffs - fd)) <= 1e-7 * np.max(np.abs(fd))


def test_lw_operator_rejects_an_exact_trajectory():
    rho = heat_trajectory_exact(_phi(), T, 8)
    with pytest.raises(ValueError, match="predictor stages"):
        LWOperator(PotentialVec.zeros(2, 1), rho)


def test_trajectory_eval_at_node_matches_heat_kernel():
    phi = _phi()
    M = 64
    traj = solve_heat(phi, T, StepperConfig(M=M))
    g = phi.grid
    t = 17 * T / M
    x = 0.3
    exact_coeffs = phi.coeffs * np.exp(g.lap_mult * t)
    exact = SpectralField(1, N_GRID, exact_coeffs).eval(x)
    assert traj.eval(t, x) == pytest.approx(exact, abs=1e-10)


def test_trajectory_eval_batch_matches_scalar():
    phi = _phi()
    traj = solve_heat(phi, T, StepperConfig(M=32))
    rng = np.random.default_rng(6)
    ts = rng.uniform(0, T, 11)
    xs = rng.uniform(0, 1, (11, 1))
    batch = traj.eval_batch(ts, xs)
    scalar = np.array([traj.eval(t, x) for t, x in zip(ts, xs)])
    np.testing.assert_allclose(batch, scalar, atol=1e-12)


def test_trajectory_eval_rejects_out_of_range():
    phi = _phi()
    traj = solve_heat(phi, T, StepperConfig(M=8))
    with pytest.raises(ValueError):
        traj.eval(T + 0.1, 0.0)


def test_trajectory_eval_rejects_a_nan_time():
    traj = solve_heat(_phi(), T, StepperConfig(M=8))
    with pytest.raises(ValueError, match="^time not finite or outside"):
        traj.eval(np.nan, 0.3)


def test_trajectory_inner_product_is_trapezoid():
    phi = _phi()
    traj = solve_heat(phi, T, StepperConfig(M=16))
    norms_sq = np.sum(np.abs(traj.coeffs) ** 2, axis=-1)
    dt = traj.dt
    expected = dt * (np.sum(norms_sq) - 0.5 * (norms_sq[0] + norms_sq[-1]))
    assert l2l2_inner(traj, traj) == pytest.approx(expected, rel=1e-14)
    assert traj.l2l2_norm() == pytest.approx(np.sqrt(expected), rel=1e-14)


def test_l2l2_diff_norm_rejects_another_horizon():
    phi = _phi()
    a = solve_heat(phi, T, StepperConfig(M=16))
    b = solve_heat(phi, 2 * T, StepperConfig(M=16))
    with pytest.raises(ValueError):
        l2l2_inner(a, b)
    with pytest.raises(ValueError):
        l2l2_diff_norm(a, b)
    assert l2l2_diff_norm(a, a) == 0.0


def test_trajectory_serialization_round_trip(tmp_path):
    phi = _phi()
    traj = solve_heat(phi, T, StepperConfig(M=8))
    traj.save(tmp_path / "traj")
    back = Trajectory.load(tmp_path / "traj")
    assert back.M == traj.M and back.T == traj.T
    np.testing.assert_allclose(back.coeffs, traj.coeffs, atol=0)


# ---------------------------------------------------------------------------
# the observation operator and its adjoint

_OBS_T = 0.3
_OBS_M = 6
# grid sizes per dimension: small enough to keep many examples fast
_OBS_N = {1: 16, 2: 8, 3: 4}


def _obs_points(d):
    time = st.one_of(st.just(0.0), st.just(_OBS_T),
                     st.floats(0.0, _OBS_T))
    point = st.tuples(time, st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                     min_size=d, max_size=d))
    return st.lists(point, min_size=1, max_size=12)


def _random_stack(rng, B, d):
    shape = (B, _OBS_M + 1) + (_OBS_N[d],) * d
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_observation_adjoint_dot_product_identity(d):
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(points=_obs_points(d), seed=st.integers(0, 2**32 - 1))
    def check(points, seed):
        t = np.array([p[0] for p in points])
        x = np.array([p[1] for p in points])
        op = ObservationOperator(_OBS_T, _OBS_M, get_grid(_OBS_N[d], d), t, x)
        rng = np.random.default_rng(seed)
        c = _random_stack(rng, 1, d)[0]
        y = rng.standard_normal(len(t))
        back = op.adjoint(y)
        assert back.shape == (_OBS_M + 1, _OBS_N[d] ** d)
        forward = op(c[None])[0]
        lhs = float(np.sum(back * c.reshape(back.shape)).real)
        assert abs(lhs - y @ forward) <= 1e-12 * np.linalg.norm(y) * np.linalg.norm(forward)

    check()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_observation_stacked_call_equals_single_calls(d):
    rng = np.random.default_rng(40 + d)
    t = np.concatenate([[0.0, _OBS_T], rng.uniform(0.0, _OBS_T, 9)])
    x = rng.uniform(0.0, 1.0, (11, d))
    op = ObservationOperator(_OBS_T, _OBS_M, get_grid(_OBS_N[d], d), t, x)
    c = _random_stack(rng, 3, d)
    single = np.stack([op(c[b:b + 1])[0] for b in range(3)])
    assert np.array_equal(op(c), single)


# time designs of N points: (name, N, times); the degenerate ones put every
# point in one bracket, on a node or at an end, or leave brackets empty, and
# three points in each bracket is one past a chunk of P = ceil(N / 2M) = 2
_OBS_DESIGNS = [
    ("random", 40, lambda rng, N: rng.uniform(0.0, _OBS_T, N)),
    ("one past a chunk", 3 * _OBS_M,
     lambda rng, N: np.repeat((np.arange(_OBS_M) + 0.5) * _OBS_T / _OBS_M, 3)),
    ("one time", 30, lambda rng, N: np.full(N, 0.37 * _OBS_T)),
    ("all at 0", 30, lambda rng, N: np.zeros(N)),
    ("all at T", 30, lambda rng, N: np.full(N, _OBS_T)),
    ("all at a node", 30, lambda rng, N: np.full(N, 2 * _OBS_T / _OBS_M)),
    ("N = 1", 1, lambda rng, N: rng.uniform(0.0, _OBS_T, N)),
    ("N < M", _OBS_M - 2, lambda rng, N: rng.uniform(0.0, _OBS_T, N)),
]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("design", [name for name, _, _ in _OBS_DESIGNS])
def test_observation_equals_the_dense_operator(d, design):
    # the bracket chunks sum in another order than the dense interpolation
    # matrix times the (N, n^d) phases, so the two agree to rounding; a
    # bracket pads at most P - 1 < N / 2M rows, so the chunks hold < 1.5N
    _, N, times = next(entry for entry in _OBS_DESIGNS if entry[0] == design)
    rng = np.random.default_rng(60 + d)
    t, x = times(rng, N), rng.uniform(0.0, 1.0, (N, d))
    grid = get_grid(_OBS_N[d], d)
    op = ObservationOperator(_OBS_T, _OBS_M, grid, t, x)
    dense = DenseObservationOperator(_OBS_T, _OBS_M, grid, t, x)
    assert op._phases.shape[0] * op._phases.shape[1] < 1.5 * N
    c, y = _random_stack(rng, 3, d), rng.standard_normal(N)
    for got, ref in ((op(c), dense(c)), (op.adjoint(y), dense.adjoint(y))):
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("bad", ["t", "x"])
def test_observation_rejects_a_non_finite_point(bad):
    # a NaN time passes every bound check of the bracket; a NaN position gives a NaN value
    t, x = np.linspace(0.0, _OBS_T, 5), np.full((5, 2), 0.5)
    (t if bad == "t" else x[:, 1])[3] = np.nan
    with pytest.raises(ValueError, match="^observation point 3 is not finite"):
        ObservationOperator(_OBS_T, _OBS_M, get_grid(_OBS_N[2], 2), t, x)


# ---------------------------------------------------------------------------
# the transposed linearised scheme

_LW_T = 0.06
_LW_M = 6
_LW_N = {1: 16, 2: 8}


def _lw_operator(d):
    phi = decay_density(_LW_N[d], d, zeta=1.8 + 2 * (d - 1), amplitude=0.3)
    cfg = StepperConfig(M=_LW_M)
    W = random_potential(2, d, np.random.default_rng(70 + d), amplitude=0.4)
    rho = solve_mckv(McKVProblem(W=W, phi=phi, T=_LW_T, stepper=cfg))
    return LWOperator(W, rho)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_transpose_pair(y, jh, jty, h):
    # Re sum(y * J h) = Re sum(J^T y * h), to rounding of either side
    lhs = float(np.sum(y * jh).real)
    rhs = float(np.sum(jty * h).real)
    scale = (np.linalg.norm(y) * np.linalg.norm(jh)
             + np.linalg.norm(jty) * np.linalg.norm(h))
    assert abs(lhs - rhs) <= 1e-12 * scale


_DOT_SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)


@pytest.mark.parametrize("scheme", ["if-heun"])
@pytest.mark.parametrize("d", [1, 2])
def test_lw_apply_transpose_dot_product_identity(d, scheme):
    op = _lw_operator(d)

    @_DOT_SETTINGS
    @given(s=st.integers(0, 2 * _LW_M), B=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def check(s, B, seed):
        rng = np.random.default_rng(seed)
        h = _complex(rng, (B,) + op.grid.shape)
        y = _complex(rng, (B,) + op.grid.shape)
        jty = op.apply_transpose(s, y)
        assert jty.shape == h.shape
        _assert_transpose_pair(y, op.apply(s, h), jty, h)

    check()


@pytest.mark.parametrize("scheme", ["if-heun"])
@pytest.mark.parametrize("d", [1, 2])
def test_lw_solve_transpose_dot_product_identity(d, scheme):
    # the whole map from forcing at every solver state to the nodes
    op = _lw_operator(d)
    n_states = len(op.rho_states)

    @_DOT_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        rng = np.random.default_rng(seed)
        f = _complex(rng, (n_states, 1) + op.grid.shape)
        g = _complex(rng, (_LW_M + 1,) + op.grid.shape)
        nodes = op.solve(f)[:_LW_M + 1, 0]
        w = op.solve_transpose(g)
        assert w.shape == (n_states,) + op.grid.shape
        _assert_transpose_pair(g, nodes, w, f[:, 0])

    check()


@pytest.mark.parametrize("scheme", ["if-heun"])
@pytest.mark.parametrize("d", [1, 2])
def test_lw_solve_returns_states_in_the_layout_of_its_forcing(d, scheme):
    op = _lw_operator(d)
    f = _complex(np.random.default_rng(90 + d), (len(op.rho_states), 2) + op.grid.shape)
    states = op.solve(f)
    assert states.shape == f.shape
    assert np.array_equal(op.solve(f, keep_stages=False), states[:_LW_M + 1])


@pytest.mark.parametrize("d", [1, 2])
def test_lw_pull_back_is_the_transpose_of_the_transport_forcing(d):
    op = _lw_operator(d)
    grid, states = op.grid, op.rho_states

    @_DOT_SETTINGS
    @given(B=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def check(B, seed):
        rng = np.random.default_rng(seed)
        grad_h = _complex(rng, (B, d) + grid.shape)
        weights = _complex(rng, states.shape)
        forcing = transport_forcing(grid, states, grad_h)
        _, back = op.pull_back(weights)
        assert back.shape == (len(states), d) + grid.shape
        for b in range(B):
            _assert_transpose_pair(weights, forcing[:, b], back, states[:, None] * grad_h[b])

    check()


@pytest.mark.parametrize("scheme", ["if-heun"])
def test_lw_solve_transpose_blowup_guard(scheme):
    op = _lw_operator(1)
    g = np.zeros((_LW_M + 1,) + op.grid.shape, dtype=complex)
    g[_LW_M, 1] = 1e13
    with pytest.raises(NumericalBlowUp):
        op.solve_transpose(g)
    g[_LW_M, 1] = np.nan
    with pytest.raises(NumericalBlowUp) as excinfo:
        op.solve_transpose(g)
    assert excinfo.value.step == _LW_M - 1


@pytest.mark.parametrize("bad", [1e16, np.nan])
def test_lw_solve_names_the_same_blowup_step_without_stages(bad):
    op = _lw_operator(1)
    forcing = np.zeros((2 * _LW_M + 1, 1) + op.grid.shape, dtype=complex)
    forcing[2, 0, 1] = bad  # node 2: step 2 writes node 3 from it
    steps = []
    for keep_stages in (True, False):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBlowUp) as excinfo:
                op.solve(forcing, keep_stages=keep_stages)
        steps.append(excinfo.value.step)
    assert steps == [3, 3]


@pytest.mark.parametrize("states_shape, M", [
    ((N_GRID,), 8),                     # no time axis
    ((1, N_GRID), 0),                   # M = 0
    ((10, N_GRID), 8),                  # S between M+1 and 2M+1
    ((18, N_GRID), 8),                  # S = 2M+2
    ((9, N_GRID, N_GRID // 2), 8),      # unequal spatial axes
    ((9, 4, 4, 4, 4), 8),               # d = 4
])
def test_trajectory_rejects_arrays_of_the_wrong_shape(states_shape, M):
    with pytest.raises(ValueError) as err:
        Trajectory(T, M, np.zeros(states_shape, dtype=complex))
    assert str(states_shape) in str(err.value) and f"M = {M}" in str(err.value)


def test_trajectory_accepts_matching_stages():
    traj = Trajectory(T, 8, np.zeros((17, N_GRID), dtype=complex))
    assert traj.M == 8
    assert (traj.coeffs.shape, traj.stages.shape) == ((9, N_GRID), (8, N_GRID))
    assert Trajectory(T, 8, np.zeros((9, N_GRID), dtype=complex)).stages is None


@pytest.mark.parametrize("d", [1, 2, 3])
def test_solver_states_of_a_solve_is_a_view_of_its_buffer(d):
    n = {1: 16, 2: 8, 3: 8}[d]
    phi = decay_density(n, d, zeta=1.8 + 2 * (d - 1), amplitude=0.05 if d == 3 else 0.3)

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 6))
    def check(seed, steps):
        W = random_potential(2, d, np.random.default_rng(seed), amplitude=0.4)
        rho = solve_mckv(McKVProblem(W=W, phi=phi, T=0.06, stepper=StepperConfig(M=steps)))
        assert solver_states(rho) is rho.states
        assert rho.states.shape == (2 * steps + 1,) + (n,) * d
        assert np.shares_memory(rho.states, rho.coeffs)
        assert np.shares_memory(rho.states, rho.stages)

    check()


def _apply_oracle(op, s, v):
    # LWOperator.apply on the one-shot padded transforms of Grid
    grid = op.grid
    comb = np.concatenate([v[None]] + [(gw * v)[None] for gw in op.grad_w], axis=0)
    phys = grid.to_padded(comb)  # (1+d, B, pad)
    v_phys, c2_phys = phys[0], phys[1:]
    q = v_phys[None] * op.conv1_phys[s][:, None] + op.rho_phys[s] * c2_phys
    return np.sum(grid.ik[:, None] * grid.from_padded(q), axis=0)


def _apply_transpose_oracle(op, s, y):
    # LWOperator.apply_transpose on the one-shot padded transforms of Grid
    grid = op.grid
    r = grid.from_padded_transpose(grid.ik[:, None] * y)  # (d, B, pad grid)
    v_phys = np.sum(op.conv1_phys[s][:, None] * r, axis=0, keepdims=True)
    w = np.concatenate([v_phys, op.rho_phys[s] * r], axis=0)
    back = grid.to_padded_transpose(w)  # (1+d, B, grid)
    out = back[0]
    for j in range(grid.d):
        out += op.grad_w[j] * back[1 + j]
    return out


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("scheme", ["if-heun"])
@pytest.mark.parametrize("d", [1, 2])
def test_lw_planned_kernels_equal_the_one_shot_kernels_bit_for_bit(d, scheme, B):
    # at d = 1 the diagonals fold into the transform matrices, so the kernels
    # equal the oracles to rounding; at d >= 2 they run the plans, bit for bit
    op = _lw_operator(d)
    rng = np.random.default_rng(120 + 10 * d + B)
    kernels = [(op.apply, _apply_oracle), (op.apply_transpose, _apply_transpose_oracle)]

    def assert_equal(got, want):
        if d == 1:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        else:
            assert np.array_equal(got, want)

    for kernel, oracle in kernels:
        # nodes 0 and M-1 and the predictors of steps 0 and M-1
        for s in (0, _LW_M + 1, _LW_M - 1, 2 * _LW_M):
            first = _complex(rng, (B,) + op.grid.shape)
            out = kernel(s, first)
            kept = out.copy()
            assert_equal(out, oracle(op, s, first))
            # a second call on new input is right and leaves the first result alone
            second = _complex(rng, (B,) + op.grid.shape)
            assert_equal(kernel(s, second), oracle(op, s, second))
            assert np.array_equal(out, kept)


def test_folded_stage_grid_matrix_is_built_once_per_grid_and_read_only():
    grid = get_grid(16, 1)
    for transpose in (False, True):
        mat = _folded_analysis(grid, transpose)
        assert _folded_analysis(grid, transpose) is mat
        assert not mat.flags.writeable
    assert _folded_analysis(get_grid(32, 1), False).shape != _folded_analysis(grid, False).shape


@pytest.mark.parametrize("scheme", ["if-heun"])
def test_lw_solves_drop_their_plans(scheme):
    # an operator kept between solves (the memo of forward.linearisation) holds no buffers
    op = _lw_operator(2)
    rng = np.random.default_rng(130)
    op.apply(0, _complex(rng, (2,) + op.grid.shape))
    assert op._plans
    op.solve(_complex(rng, (len(op.rho_states), 3) + op.grid.shape))
    assert not op._plans
    op.solve_transpose(_complex(rng, (_LW_M + 1,) + op.grid.shape))
    assert not op._plans
