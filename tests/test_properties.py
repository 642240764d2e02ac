"""Property tests of the mean-field forward map and its derivatives.

Random potentials W, H, random initial densities phi and d in {1, 2} at
small sizes.  They add to the fixed-seed oracles of
test_forward.py and test_acceptance.py and replace none of them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mckvlab.forward import (
    Linearisation,
    McKVProblem,
    gram_matrix,
    jacobian_columns,
    mckv_second_derivative,
    solve_mckv,
    solve_mckv_field,
)
from mckvlab.inference import ForwardModel, expected_neg_hessian
from mckvlab.parabolic import (
    StepperConfig,
    trapz_inner,
    trapz_weights,
)
from mckvlab.spectral import SpectralField, random_potential
from oracles import mckv_first_derivative, second_derivative_matrix, to_field

# (n, K) per dimension: K <= n/2 - 1 so every mode of E_K is resolved
SIZES = {1: (16, 3), 2: (8, 2)}
T, M = 0.1, 8

_SETTINGS = settings(derandomize=True, max_examples=50, deadline=None)
_CASES = dict(d=st.sampled_from(sorted(SIZES)), seed=st.integers(0, 2**32 - 1))


def _problem(d, seed):
    """A random W, a random positive phi of unit mass, and the rng for more draws."""
    n, K = SIZES[d]
    rng = np.random.default_rng(seed)
    W = random_potential(K, d, rng, amplitude=rng.uniform(0.1, 1.0))
    bump = to_field(random_potential(K, d, rng, decay=rng.uniform(0.0, 3.0)), n)
    scale = rng.uniform(0.05, 0.9) / np.max(np.abs(bump.values()))
    phi = SpectralField.constant(1.0, n, d)
    phi.coeffs += scale * bump.coeffs
    return McKVProblem(W=W, phi=phi, T=T, stepper=StepperConfig(M=M)), rng


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))


@_SETTINGS
@given(**_CASES)
def test_solve_keeps_real_field_invariants_and_unit_mass(d, seed):
    problem, _ = _problem(d, seed)
    rho = solve_mckv(problem)
    nyq = problem.phi.n // 2
    for m in range(rho.M + 1):
        node = SpectralField(d, problem.phi.n, rho.coeffs[m])
        assert node.conj_symmetry_defect() <= 1e-14
        for axis in range(d):
            assert not np.any(np.take(node.coeffs, nyq, axis=axis))
    np.testing.assert_allclose(rho.zero_mode(), 1.0, rtol=0, atol=1e-14)


@_SETTINGS
@given(shift=st.floats(-10.0, 10.0), **_CASES)
def test_constant_added_to_W_leaves_the_trajectory_unchanged(d, seed, shift):
    problem, _ = _problem(d, seed)
    W = to_field(problem.W, problem.phi.n)
    shifted = to_field(problem.W, problem.phi.n)
    shifted.coeffs[(0,) * d] += shift
    a = solve_mckv_field(W, problem.phi, T, problem.stepper)
    b = solve_mckv_field(shifted, problem.phi, T, problem.stepper)
    assert np.array_equal(a.coeffs, b.coeffs)


@_SETTINGS
@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), **_CASES)
def test_first_derivative_is_linear_in_H(d, seed, a, b):
    problem, rng = _problem(d, seed)
    rho = solve_mckv(problem)
    H1, H2 = (random_potential(problem.W.K, d, rng) for _ in range(2))
    lhs = mckv_first_derivative(problem, a * H1 + b * H2, rho)
    v1 = mckv_first_derivative(problem, H1, rho)
    v2 = mckv_first_derivative(problem, H2, rho)
    assert _rel(a * v1.coeffs + b * v2.coeffs, lhs.coeffs) <= 1e-12


@_SETTINGS
@given(**_CASES)
def test_second_derivative_is_symmetric(d, seed):
    problem, rng = _problem(d, seed)
    rho = solve_mckv(problem)
    H1, H2 = (random_potential(problem.W.K, d, rng) for _ in range(2))
    v1 = mckv_first_derivative(problem, H1, rho)
    v2 = mckv_first_derivative(problem, H2, rho)
    s12 = mckv_second_derivative(problem, H1, H2, rho, v1, v2)
    s21 = mckv_second_derivative(problem, H2, H1, rho, v2, v1)
    assert _rel(s21.coeffs, s12.coeffs) <= 1e-12


@_SETTINGS
@given(**_CASES)
def test_expected_hessian_from_one_backward_solve_matches_the_row_solves(d, seed):
    problem, rng = _problem(d, seed)
    W0 = random_potential(problem.W.K, d, rng, amplitude=rng.uniform(0.1, 1.0))
    model = ForwardModel(phi=problem.phi, T=T, K=problem.W.K, stepper=problem.stepper)
    rho, rho0 = solve_mckv(problem), model.solve(W0)
    cols = jacobian_columns(problem, rho)
    diff = rho.coeffs - rho0.coeffs

    # the reduction the backward solve replaced: every D^2 rho_W[tau_j, tau_k] solved
    ref = second_derivative_matrix(
        Linearisation(problem, rho),
        lambda nodes: trapz_inner(nodes, diff[None], rho.dt)[:, 0] / T)
    g = trapz_weights(M + 1, rho.dt).reshape((-1,) + (1,) * d) * diff.conj() / T
    corr = Linearisation(problem, rho).second_derivative_vjp(g)
    assert np.max(np.abs(corr - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(corr, corr.T)

    H = expected_neg_hessian(problem.W, W0, model)
    H_ref = gram_matrix(cols, T) + ref
    assert np.max(np.abs(H - H_ref)) <= 1e-12 * np.max(np.abs(H_ref))
    assert np.array_equal(H, H.T)
