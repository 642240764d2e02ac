"""Helpers that more than one test module shares."""

import numpy as np
from scipy import sparse

from mckvlab.forward import McKVProblem, check_density
from mckvlab.parabolic import (LWOperator, Trajectory, _as_grad_coeffs, _time_bracket,
                               transport_forcing)
from mckvlab.spectral import Grid, PotentialVec, SpectralField


def core_ok(report) -> bool:
    """Whether the four core inequalities of ``validate_constants`` hold."""
    keys = ("beta_even_ge", "alpha_window", "zeta_window", "w_window")
    return all(report.checks[k] for k in keys)


def to_field(v: PotentialVec, n: int) -> SpectralField:
    """The field of a potential on the n^d grid."""
    return SpectralField(v.d, n, v.coeff_grid(n))


def w2inf_norm(v: PotentialVec, n: int = 64) -> float:
    """Grid surrogate for the W^{2,inf} norm: sup|W| + sup|dW| + sup|d^2W|."""
    f = to_field(v, n)
    g = f.grid
    total = float(np.max(np.abs(f.values())))
    gr = [g.deriv(f.coeffs, j) for j in range(v.d)]
    total += max(float(np.max(np.abs(g.to_values(c)))) for c in gr)
    second = []
    for j in range(v.d):
        for l in range(v.d):
            second.append(float(np.max(np.abs(g.to_values(g.deriv(gr[j], l))))))
    return total + max(second)


class DenseObservationOperator:
    """The dense reference of ``parabolic.ObservationOperator``, point by point.

    One sparse (N, M+1) matrix interpolates linearly in time between the
    nodes (row i holds 1-w_i at node m_i and w_i at m_i+1), and the complex
    (N, n^d) phases e^{2 pi i k . x_i} synthesise exactly in space; the
    forward map is that matrix times the nodes, contracted with the phases,
    and the adjoint its transpose.
    """

    def __init__(self, T: float, M: int, grid: Grid, t, x):
        t = np.asarray(t, dtype=float)
        n_pts = len(t)
        x = np.asarray(x, dtype=float).reshape(n_pts, grid.d)
        m, w = _time_bracket(t, T, M)
        self.interp = sparse.csr_matrix(
            (np.column_stack([1.0 - w, w]).ravel(), np.column_stack([m, m + 1]).ravel(),
             np.arange(0, 2 * n_pts + 1, 2)), shape=(n_pts, M + 1))
        phase = np.ones((n_pts, grid.size), dtype=complex)
        for j in range(grid.d):
            phase *= np.exp(2j * np.pi * np.outer(x[:, j], grid.kvec[j].ravel()))
        self.phase = phase

    def __call__(self, stacked: np.ndarray) -> np.ndarray:
        """Values of (B, M+1, n, ..., n) trajectories at the points, shape (B, N)."""
        B, nodes = stacked.shape[:2]
        size = self.phase.shape[1]
        cols = np.moveaxis(stacked.reshape(B, nodes, size), 0, 1).reshape(nodes, B * size)
        c = (self.interp @ cols).reshape(-1, B, size)
        return np.einsum("nbk,nk->bn", c, self.phase).real

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Back-projection of point data y (N,) to the nodes, shape (M+1, n^d)."""
        return self.interp.T @ (y[:, None] * self.phase)


def mckv_first_derivative(problem: McKVProblem, H: PotentialVec,
                          rho_traj: Trajectory) -> Trajectory:
    """Derivative of W -> rho_W in direction H, as a linear PDE solve: the
    oracle of ``Linearisation.columns``, one direction at a time.

    Solves (d/dt - L_W)v = div(rho gradH * rho), v(0) = 0, where rho is
    the supplied solution trajectory for ``problem``.  Linear in H.
    """
    op = LWOperator(problem.W, check_density(rho_traj, problem))
    grad_h = np.stack(_as_grad_coeffs(H, problem.phi.grid))[None]
    states = op.solve(transport_forcing(op.grid, op.rho_states, grad_h))
    return Trajectory(op.T, op.M, states[:, 0])


def conj_symmetry_defect(f: SpectralField) -> float:
    """The real-field defect of ``f`` built by flips and rolls: the largest of
    |c[-k] - conj(c[k])|, |Im c[0]| and |c| on the Nyquist planes; the
    oracle of ``SpectralField.conj_symmetry_defect``."""
    c = f.coeffs
    flipped = c.copy()
    for ax in range(f.d):
        flipped = np.roll(np.flip(flipped, axis=ax), 1, axis=ax)
    defect = float(np.max(np.abs(flipped - np.conj(c))))
    defect = max(defect, float(abs(c[(0,) * f.d].imag)))
    return max(defect, float(np.max(np.abs(c[~f.grid.resolved]))))


def lawson_heun_loop(u0: np.ndarray, rhs, T: float, M: int, grid: Grid) -> np.ndarray:
    """The Lawson-Heun time loop written with temporaries and a real heat factor
    E: the oracle of ``parabolic._integrate_arrays``, whose E is complex.

    Returns the (2M+1, ...) states in solver-state order: node m at m, the
    predictor E (u + dt k1) of step m at M+1+m, and node m+1 =
    E u + (dt/2)(E k1 + k2), with ``rhs(s, u)`` the forcing at state s.
    """
    dt = T / M
    E = np.exp(grid.lap_mult * dt)
    states = np.zeros((2 * M + 1,) + u0.shape, dtype=complex)
    states[0] = u0
    for m in range(M):
        u = states[m]
        k1 = rhs(m, u)
        states[M + 1 + m] = E * (u + dt * k1)
        k2 = rhs(M + 1 + m, states[M + 1 + m])
        states[m + 1] = E * u + (0.5 * dt) * (E * k1 + k2)
    return states


def lawson_heun_transpose(op: LWOperator, g: np.ndarray) -> np.ndarray:
    """The backward recurrence of :func:`lawson_heun_loop` along ``op``, with a
    real E and temporaries: the oracle of ``LWOperator.solve_transpose``.

    ``g`` (M+1, grid) weights the nodes; returns the weights w (S, grid) of
    the forcing at every solver state.  With lam the weight of node m+1,
    step m gives its predictor kappa2 = (dt/2) lam and its node
    kappa1 = E (kappa2 + dt mu), mu = L^T kappa2 at the predictor, and then
    lam = E (lam + mu) + (L^T kappa1 at node m + g_m).
    """
    M = op.M
    dt = op.T / M
    E = np.exp(op.grid.lap_mult * dt)
    w = np.zeros((2 * M + 1,) + g.shape[1:], dtype=complex)
    lam = g[M][None].astype(complex)
    for m in range(M - 1, -1, -1):
        kappa2 = (0.5 * dt) * lam
        mu = op.apply_transpose(M + 1 + m, kappa2)
        kappa1 = E * (kappa2 + dt * mu)
        w[M + 1 + m], w[m] = kappa2[0], kappa1[0]
        lam = E * (lam + mu) + (op.apply_transpose(m, kappa1) + g[m])
    return w


def second_derivative_forcing(op: LWOperator, grad_h1, grad_h2, v1, v2) -> np.ndarray:
    """Forcing of D^2 rho_W[H1, H2_b] for one H1 and a stack of B directions H2_b:
    the six-term reference of ``forward._PairForcing``.

    ``grad_h1`` holds d arrays (grid) and ``grad_h2`` d arrays (B, grid);
    ``v1`` (S, 1, grid) and ``v2`` (S, B, grid) are the first derivatives
    in solver-state order.  Returns the six-term expansion of the
    quadratic transport term at every state, shape (S, B, grid).
    """
    grid, rho = op.grid, op.rho_states[:, None]
    forcing = grid.transport_div(v2, grad_h1, rho)
    forcing += grid.transport_div(rho, grad_h1, v2)
    forcing += grid.transport_div(v1, grad_h2, rho)
    forcing += grid.transport_div(rho, grad_h2, v1)
    forcing += grid.transport_div(v1, op.grad_w, v2)
    forcing += grid.transport_div(v2, op.grad_w, v1)
    return forcing


def padded_columns(op, gtau: np.ndarray, v: np.ndarray):
    """The padded fields that the forcing of every second-derivative row reads.

    For basis gradients ``gtau`` (D, d, grid) and first derivatives ``v``
    (S, D, grid) in solver-state order, returns P(v_k), shape (S, D, pad grid),
    and per axis j P(X_{k,j}) with X_{k,j} = d_j tau_k * rho + d_j W * v_k,
    where P is the padded synthesis.
    """
    grid, rho = op.grid, op.rho_states[:, None]
    return grid.to_padded(v), [grid.to_padded(gtau[:, j] * rho + op.grad_w[j] * v)
                               for j in range(grid.d)]


def second_derivative_row_forcing(op, gtau: np.ndarray, v: np.ndarray, padded,
                                  r: int) -> np.ndarray:
    """Forcing of row r, D^2 rho_W[tau_r, tau_k] for k >= r, at every state at
    once, shape (S, D-r, grid): the oracle of ``forward._PairForcing``.

    ``padded`` is :func:`padded_columns` of (op, gtau, v).  Per axis j and
    with A the padded analysis,
    ik_j A[P(rho) P(d_j tau_r v_k + d_j tau_k v_r) + P(v_k) P(X_{r,j}) + P(v_r) P(X_{k,j})],
    one synthesis and one analysis of D-r columns per axis.
    """
    grid, (v_phys, x_phys) = op.grid, padded
    forcing = None
    for j in range(grid.d):
        q = grid.to_padded(gtau[r, j] * v[:, r:] + gtau[r:, j] * v[:, r:r + 1])
        q *= op.rho_phys[:, None]
        q += v_phys[:, r:] * x_phys[j][:, r:r + 1]
        q += v_phys[:, r:r + 1] * x_phys[j][:, r:]
        term = grid.from_padded(q)
        term *= grid.ik[j]
        if forcing is None:
            forcing = term
        else:
            forcing += term
    return forcing


def second_derivative_matrix(lin, reduce) -> np.ndarray:
    """reduce(D^2 rho_W[tau_j, tau_k]) for every pair (j, k) of basis modes.

    ``reduce`` maps the (B, M+1, grid) pair nodes of ``lin.second_derivatives()``
    to an array with leading axis B; each pair fills both (j, k) and (k, j)
    through ``np.triu_indices``, so the (D, D, ...) result is symmetric by
    construction.
    """
    pairs = reduce(lin.second_derivatives())
    D = len(lin.gtau)
    rows, cols = np.triu_indices(D)
    out = np.zeros((D, D) + pairs.shape[1:], dtype=pairs.dtype)
    out[rows, cols] = pairs
    out[cols, rows] = pairs
    return out


def particle_modes(W: PotentialVec, phi: SpectralField, T: float, N: int, steps: int,
                   seed: int) -> np.ndarray:
    """Empirical Fourier modes mean(e^{-2 pi i k X_T}), k = 1..K, of N particles
    of dX = -(grad W * mu)(X) dt + sqrt(2) dB on the unit circle (d = 1).

    The mean-field PDE d/dt rho = Lap(rho) + div(rho gradW * rho) is the law of
    X in the limit N -> oo.  X_0 is drawn from phi by rejection against the
    bound sum |phi_hat_k|; Euler-Maruyama takes ``steps`` steps with the drift
    -sum_k 2 pi i k W_hat_k mu_hat_k e^{2 pi i k x} of the empirical modes mu_hat
    of the K modes of W.  One ``seed`` fixes the initial particles and the
    Brownian increments whatever W is, so W and -W run on common random numbers.
    """
    rng = np.random.default_rng(seed)
    freq = phi.grid.kvec[0]
    x = np.empty(0)
    while x.size < N:
        y = rng.random(2 * N)
        f = (np.exp(2j * np.pi * np.outer(y, freq)) @ phi.coeffs).real
        x = np.concatenate([x, y[rng.random(2 * N) * np.sum(np.abs(phi.coeffs)) < f]])
    x = x[:N]
    k = np.arange(1, W.K + 1)
    grad_w = 2j * np.pi * k * W.coeff_grid(2 * W.K + 2)[k]
    dt = T / steps
    for _ in range(steps):
        e = np.exp(2j * np.pi * np.outer(x, k))  # (N, K)
        # the modes -k are the conjugates of the modes k
        drift = -2.0 * (e @ (grad_w * e.conj().mean(axis=0))).real
        x = (x + dt * drift + np.sqrt(2.0 * dt) * rng.standard_normal(N)) % 1.0
    return np.exp(-2j * np.pi * np.outer(x, k)).mean(axis=0)
