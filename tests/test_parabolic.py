import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckvlab.parabolic import (
    SCHEMES,
    LWOperator,
    NumericalBlowUp,
    ObservationOperator,
    StepperConfig,
    Trajectory,
    heat_trajectory_exact,
    integrate,
    l2l2_diff_norm,
    l2l2_inner,
    rel_l2l2_error,
    self_convergence_error,
    solve_heat,
    solve_linear_lw,
    solver_states,
    transport_forcing,
    transport_forcing_transpose,
)
from mckvlab.forward import McKVProblem, decay_density, solve_mckv
from mckvlab.spectral import PotentialVec, SpectralField, get_grid, random_potential

N_GRID = 32
T = 0.25


def _phi():
    return decay_density(N_GRID, 1, zeta=3.0, amplitude=0.3)


def test_zero_forcing_reproduces_heat_semigroup():
    phi = _phi()
    for scheme in ("if-heun", "if-euler"):
        traj = solve_heat(phi, T, StepperConfig(M=64, scheme=scheme))
        exact = heat_trajectory_exact(phi, T, 64)
        assert rel_l2l2_error(traj, exact) < 1e-10


def test_constant_forcing_linear_growth_exact():
    # u0 = 0, F = c constant in space: u(t) = c t exactly on the zero mode
    n = N_GRID
    c_field = np.zeros(n, dtype=complex)
    c_field[0] = 0.7
    u0 = SpectralField.zeros(n, 1)
    for scheme in ("if-heun", "if-euler"):
        traj = integrate(u0, lambda m, s, u: c_field, T,
                         StepperConfig(M=32, scheme=scheme))
        ts = np.linspace(0, T, 33)
        np.testing.assert_allclose(traj.zero_mode(), 0.7 * ts, atol=1e-14)


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


@pytest.mark.parametrize("scheme,expected_ratio,window", [
    ("if-euler", 2.0, (1.5, 2.9)),
    ("if-heun", 4.0, (3.0, 5.2)),
])
def test_self_convergence_order(scheme, expected_ratio, window):
    rng = np.random.default_rng(2)
    phi = _phi()
    W = random_potential(3, 1, rng, amplitude=0.6)

    def solve(config):
        return solve_mckv(McKVProblem(W=W, phi=phi, T=T, stepper=config))

    e1 = self_convergence_error(solve, StepperConfig(M=32, scheme=scheme))
    e2 = self_convergence_error(solve, StepperConfig(M=64, scheme=scheme))
    ratio = e1 / e2
    assert window[0] < ratio < window[1], (ratio, expected_ratio)


def test_blowup_detection_reports_step():
    phi = _phi()
    big = random_potential(3, 1, np.random.default_rng(3), amplitude=500.0)
    with pytest.raises(NumericalBlowUp) as excinfo:
        solve_mckv(McKVProblem(W=big, phi=phi, T=T, stepper=StepperConfig(M=8)))
    assert 1 <= excinfo.value.step <= 8


def test_linear_lw_heat_limit():
    # W = 0, f = 0, u0 = phi: the linear solve reduces to the heat flow
    phi = _phi()
    cfg = StepperConfig(M=64)
    rho = solve_heat(phi, T, cfg)
    W0 = PotentialVec.zeros(2, 1)
    traj = solve_linear_lw(W0, rho, None, phi, cfg)
    exact = heat_trajectory_exact(phi, T, 64)
    assert rel_l2l2_error(traj, exact) < 1e-10


def test_linear_lw_zero_data_is_zero():
    phi = _phi()
    cfg = StepperConfig(M=32)
    rng = np.random.default_rng(4)
    W = random_potential(2, 1, rng, amplitude=0.5)
    rho = solve_mckv(McKVProblem(W=W, phi=phi, T=T, stepper=cfg))
    zero = SpectralField.zeros(N_GRID, 1)
    forcing = Trajectory(T=T, d=1, n=N_GRID,
                         coeffs=np.zeros((33, N_GRID), dtype=complex))
    traj = solve_linear_lw(W, rho, forcing, zero, cfg)
    assert np.max(np.abs(traj.coeffs)) == 0.0


def test_linear_lw_superposition():
    phi = _phi()
    cfg = StepperConfig(M=32)
    rng = np.random.default_rng(5)
    W = random_potential(2, 1, rng, amplitude=0.5)
    rho = solve_mckv(McKVProblem(W=W, phi=phi, T=T, stepper=cfg))
    zero = SpectralField.zeros(N_GRID, 1)

    def random_forcing():
        c = np.zeros((33, N_GRID), dtype=complex)
        for m in range(33):
            f = random_potential(4, 1, rng, amplitude=1.0).to_field(N_GRID)
            c[m] = f.coeffs
        return Trajectory(T=T, d=1, n=N_GRID, coeffs=c)

    f1, f2 = random_forcing(), random_forcing()
    both = Trajectory(T=T, d=1, n=N_GRID, coeffs=f1.coeffs + f2.coeffs)
    u1 = solve_linear_lw(W, rho, f1, zero, cfg)
    u2 = solve_linear_lw(W, rho, f2, zero, cfg)
    u12 = solve_linear_lw(W, rho, both, zero, cfg)
    err = np.max(np.abs(u12.coeffs - u1.coeffs - u2.coeffs))
    assert err < 1e-10 * max(1.0, np.max(np.abs(u12.coeffs)))


def test_time_grid_mismatch_rejected():
    phi = _phi()
    cfg = StepperConfig(M=32)
    rho = solve_heat(phi, T, cfg)
    forcing = Trajectory(T=T, d=1, n=N_GRID,
                         coeffs=np.zeros((17, N_GRID), dtype=complex))
    with pytest.raises(ValueError):
        solve_linear_lw(PotentialVec.zeros(2, 1), rho, forcing, phi, cfg)


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
_OBS_N = {1: 16, 2: 8}


def _obs_points(d):
    time = st.one_of(st.just(0.0), st.just(_OBS_T),
                     st.floats(0.0, _OBS_T))
    point = st.tuples(time, st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                     min_size=d, max_size=d))
    return st.lists(point, min_size=1, max_size=12)


def _random_stack(rng, B, d):
    shape = (B, _OBS_M + 1) + (_OBS_N[d],) * d
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("d", [1, 2])
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


@pytest.mark.parametrize("d", [1, 2])
def test_observation_stacked_call_equals_single_calls(d):
    rng = np.random.default_rng(40 + d)
    t = np.concatenate([[0.0, _OBS_T], rng.uniform(0.0, _OBS_T, 9)])
    x = rng.uniform(0.0, 1.0, (11, d))
    op = ObservationOperator(_OBS_T, _OBS_M, get_grid(_OBS_N[d], d), t, x)
    c = _random_stack(rng, 3, d)
    single = np.stack([op(c[b:b + 1])[0] for b in range(3)])
    assert np.array_equal(op(c), single)


# ---------------------------------------------------------------------------
# the transposed linearised scheme

_LW_T = 0.06
_LW_M = 6
_LW_N = {1: 16, 2: 8}


def _lw_operator(d, scheme):
    phi = decay_density(_LW_N[d], d, zeta=1.8 + 2 * (d - 1), amplitude=0.3)
    cfg = StepperConfig(M=_LW_M, scheme=scheme)
    W = random_potential(2, d, np.random.default_rng(70 + d), amplitude=0.4)
    rho = solve_mckv(McKVProblem(W=W, phi=phi, T=_LW_T, stepper=cfg))
    return LWOperator(W, rho, cfg)


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


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("d", [1, 2])
def test_lw_apply_transpose_dot_product_identity(d, scheme):
    op = _lw_operator(d, scheme)
    stages = (0, 1) if scheme == "if-heun" else (0,)

    @_DOT_SETTINGS
    @given(m=st.integers(0, _LW_M - 1), stage=st.sampled_from(stages),
           B=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def check(m, stage, B, seed):
        rng = np.random.default_rng(seed)
        h = _complex(rng, (B,) + op.grid.shape)
        y = _complex(rng, (B,) + op.grid.shape)
        jty = op.apply_transpose(m, stage, y)
        assert jty.shape == h.shape
        _assert_transpose_pair(y, op.apply(m, stage, h), jty, h)

    check()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("d", [1, 2])
def test_lw_solve_transpose_dot_product_identity(d, scheme):
    # the whole map from forcing at every solver state to the nodes
    op = _lw_operator(d, scheme)
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


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("d", [1, 2])
def test_lw_solve_returns_states_in_the_layout_of_its_forcing(d, scheme):
    op = _lw_operator(d, scheme)
    f = _complex(np.random.default_rng(90 + d), (len(op.rho_states), 2) + op.grid.shape)
    states = op.solve(f)
    assert states.shape == f.shape
    assert np.array_equal(op.solve(f, keep_stages=False), states[:_LW_M + 1])


@pytest.mark.parametrize("d", [1, 2])
def test_transport_forcing_transpose_dot_product_identity(d):
    op = _lw_operator(d, "if-heun")
    grid, states = op.grid, op.rho_states

    @_DOT_SETTINGS
    @given(B=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def check(B, seed):
        rng = np.random.default_rng(seed)
        grad_h = _complex(rng, (B, d) + grid.shape)
        weights = _complex(rng, states.shape)
        forcing = transport_forcing(grid, states, grad_h)
        G = transport_forcing_transpose(grid, states, weights)
        assert G.shape == (d,) + grid.shape
        for b in range(B):
            _assert_transpose_pair(weights, forcing[:, b], G, grad_h[b])

    check()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_lw_solve_transpose_blowup_guard(scheme):
    op = _lw_operator(1, scheme)
    g = np.zeros((_LW_M + 1,) + op.grid.shape, dtype=complex)
    g[_LW_M, 1] = 1e13
    with pytest.raises(NumericalBlowUp):
        op.solve_transpose(g)
    g[_LW_M, 1] = np.nan
    with pytest.raises(NumericalBlowUp) as excinfo:
        op.solve_transpose(g)
    assert excinfo.value.step == _LW_M - 1


@pytest.mark.parametrize("coeffs_shape, stages_shape", [
    ((N_GRID,), None),                  # no time axis
    ((1, N_GRID), None),                # M = 0
    ((9, N_GRID, N_GRID), None),        # d = 2 data declared d = 1
    ((9, N_GRID // 2), None),           # another n
    ((9, N_GRID), (9, N_GRID)),         # M + 1 stages
    ((9, N_GRID), (8, N_GRID // 2)),    # stages on another grid
])
def test_trajectory_rejects_arrays_of_the_wrong_shape(coeffs_shape, stages_shape):
    stages = None if stages_shape is None else np.zeros(stages_shape, dtype=complex)
    with pytest.raises(ValueError) as err:
        Trajectory(T=T, d=1, n=N_GRID, coeffs=np.zeros(coeffs_shape, dtype=complex),
                   stages=stages)
    bad = coeffs_shape if stages_shape is None else stages_shape
    assert str(bad) in str(err.value) and str((N_GRID,)) in str(err.value)


def test_trajectory_accepts_matching_stages():
    traj = Trajectory(T=T, d=1, n=N_GRID, coeffs=np.zeros((9, N_GRID), dtype=complex),
                      stages=np.zeros((8, N_GRID), dtype=complex))
    assert traj.M == 8


@pytest.mark.parametrize("d", [1, 2])
def test_solver_states_of_a_solve_is_a_view_of_its_buffer(d):
    n = {1: 16, 2: 8}[d]
    phi = decay_density(n, d, zeta=1.8 + 2 * (d - 1), amplitude=0.3)
    W = random_potential(2, d, np.random.default_rng(90 + d), amplitude=0.4)
    rho = solve_mckv(McKVProblem(W=W, phi=phi, T=0.06, stepper=StepperConfig(M=8)))
    states = solver_states(rho, "if-heun")
    assert np.shares_memory(states, rho.coeffs) and np.shares_memory(states, rho.stages)
    # a hand-built trajectory holds nodes and predictors apart: they are concatenated
    apart = Trajectory(T=rho.T, d=d, n=n, coeffs=rho.coeffs.copy(), stages=rho.stages.copy())
    copied = solver_states(apart, "if-heun")
    assert not np.shares_memory(copied, apart.coeffs)
    assert copied.tobytes() == states.tobytes()
    # as do nodes and predictors of one buffer in another order
    swapped = np.concatenate([states[rho.M + 1:], states[:rho.M + 1]])
    odd = Trajectory(T=rho.T, d=d, n=n, coeffs=swapped[rho.M:], stages=swapped[:rho.M])
    assert solver_states(odd, "if-heun").tobytes() == states.tobytes()
    assert not np.shares_memory(solver_states(odd, "if-heun"), swapped)


def test_without_stages_copies_the_nodes_alone():
    phi = decay_density(8, 2, zeta=3.8, amplitude=0.3)
    W = random_potential(2, 2, np.random.default_rng(92), amplitude=0.4)
    rho = solve_mckv(McKVProblem(W=W, phi=phi, T=0.06, stepper=StepperConfig(M=8)))
    bare = rho.without_stages()
    assert bare.stages is None and np.array_equal(bare.coeffs, rho.coeffs)
    assert not np.shares_memory(bare.coeffs, rho.stages)
    assert bare.coeffs.base is None  # no (2M+1, ...) buffer kept alive behind it
