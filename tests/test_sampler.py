import itertools

import numpy as np
import pytest

from mckvlab.sampler import (
    ChainState,
    DriftBlowUp,
    default_step_size,
    ergodic_average,
    integrated_autocorr_time,
    run_ula,
    ula_step,
    w2_squared,
    w2sq_assignment,
    w2sq_quantile_1d,
    w2sq_sliced,
)

D = 4
SIG2 = np.array([0.0625, 0.01, 0.04, 0.0625])


def _gauss_drift(theta):
    return -theta / SIG2


# ---------------------------------------------------------------------------
# single steps


def test_ula_step_vanishing_step_limit():
    # the deterministic part of the update scales linearly with gamma
    theta0 = np.ones(D)
    updates = []
    for gamma in (1e-3, 1e-6):
        state = ChainState(theta=theta0.copy(), gamma=gamma, k=0,
                           rng=np.random.default_rng(0))
        nxt = ula_step(state, _gauss_drift)
        xi = np.random.default_rng(0).standard_normal(D)
        drift_part = nxt.theta - theta0 - np.sqrt(2 * gamma) * xi
        updates.append(np.linalg.norm(drift_part))
    assert updates[1] == pytest.approx(updates[0] * 1e-3, rel=1e-9)
    with pytest.raises(ValueError):
        ChainState(theta=theta0, gamma=0.0, k=0, rng=np.random.default_rng(0))


def test_ula_zero_noise_contracts_on_gaussian_target():
    # with the noise forced off the recursion contracts by max|1 - gamma/sig^2|
    gamma = 0.01
    theta = np.ones(D)
    factor = np.abs(1.0 - gamma / SIG2)

    class _SilentRng:
        def standard_normal(self, size):
            return np.zeros(size)

    state = ChainState(theta=theta, gamma=gamma, k=0, rng=_SilentRng())
    for i in range(1, 40):
        state = ula_step(state, _gauss_drift)
        np.testing.assert_allclose(np.abs(state.theta), factor**i, rtol=1e-12)


def test_ula_step_reproducible():
    mk = lambda: ChainState(theta=np.ones(D), gamma=1e-3, k=0,  # noqa: E731
                            rng=np.random.default_rng(123))
    a = ula_step(mk(), _gauss_drift)
    b = ula_step(mk(), _gauss_drift)
    assert np.array_equal(a.theta, b.theta)
    assert a.k == 1


def test_ula_step_aborts_on_nonfinite_drift():
    state = ChainState(theta=np.ones(D), gamma=1e-3, k=5,
                       rng=np.random.default_rng(0))
    with pytest.raises(DriftBlowUp) as excinfo:
        ula_step(state, lambda th: th * np.nan)
    assert excinfo.value.k == 5
    np.testing.assert_allclose(excinfo.value.theta, np.ones(D))


def test_run_ula_matches_iterated_steps():
    seed = 31
    run = run_ula(_gauss_drift, np.zeros(D), 1e-3, n_steps=50, burn_in=0,
                  seed=seed)
    state = ChainState(theta=np.zeros(D), gamma=1e-3, k=0,
                       rng=np.random.default_rng(seed))
    manual = []
    for _ in range(50):
        state = ula_step(state, _gauss_drift)
        manual.append(state.theta.copy())
    assert np.array_equal(run.samples, np.array(manual))


# ---------------------------------------------------------------------------
# full runs


def test_run_reproducible_and_thinned():
    r1 = run_ula(_gauss_drift, np.zeros(D), 1e-3, n_steps=400, burn_in=100,
                 thin=3, seed=7)
    r2 = run_ula(_gauss_drift, np.zeros(D), 1e-3, n_steps=400, burn_in=100,
                 thin=3, seed=7)
    assert np.array_equal(r1.samples, r2.samples)
    assert r1.n_kept == 100


def test_gaussian_stationary_variance_closed_form():
    gamma = 0.3 * float(SIG2.min())
    run = run_ula(_gauss_drift, np.zeros(D), gamma, n_steps=120_000,
                  burn_in=20_000, seed=2)
    emp = run.samples.var(axis=0)
    target = SIG2 / (1.0 - gamma / (2.0 * SIG2))
    a = 1.0 - gamma / SIG2
    se = target * np.sqrt(2.0 * (1.0 + a**2) / (run.n_kept * (1.0 - a**2)))
    assert np.all(np.abs(emp - target) <= 5.0 * se)


def test_halving_gamma_shrinks_variance_bias():
    gamma = 0.4 * float(SIG2.min())
    biases = []
    for g in (gamma, gamma / 2):
        run = run_ula(_gauss_drift, np.zeros(D), g, n_steps=200_000,
                      burn_in=20_000, seed=3)
        emp = run.samples.var(axis=0)
        biases.append(np.abs(emp - SIG2))
    # the worst-mode bias is ~ gamma/2 relative; halving gamma halves it
    j = int(np.argmax(biases[0] / SIG2))
    assert biases[1][j] < biases[0][j]


def test_energy_trace_bounded():
    gamma = 0.2 * float(SIG2.min())
    energy = lambda th: 0.5 * float(np.sum(th**2 / SIG2))  # noqa: E731
    run = run_ula(_gauss_drift, np.zeros(D), gamma, n_steps=20_000,
                  burn_in=1000, seed=4, energy=energy)
    trace = run.diagnostics["energy_trace"]
    assert np.all(np.isfinite(trace))
    # no monotone blow-up: the second half is not systematically larger
    assert np.median(trace[len(trace) // 2:]) < 4.0 * np.median(trace[:len(trace) // 2]) + 10.0


def test_ergodic_average_constant_linearity_and_mean():
    run = run_ula(_gauss_drift, np.zeros(D), 0.3 * float(SIG2.min()),
                  n_steps=60_000, burn_in=10_000, seed=5)
    const = ergodic_average(run, lambda th: 3.5)
    assert const == pytest.approx(3.5, abs=1e-14)
    h1 = ergodic_average(run, lambda th: th[0])
    h2 = ergodic_average(run, lambda th: th[1])
    h12 = ergodic_average(run, lambda th: 2.0 * th[0] - th[1])
    assert h12 == pytest.approx(2 * h1 - h2, abs=1e-12)
    # identity functional on the centred target: mean within 4 SE
    mean = ergodic_average(run)
    a = 1.0 - run.gamma / SIG2
    n_eff = run.n_kept * (1 - a) / (1 + a)
    se = np.sqrt(SIG2 / n_eff)
    assert np.all(np.abs(mean) <= 4.0 * se)


def test_default_step_size():
    prec = np.array([10.0, 100.0])
    assert default_step_size(prec, lam=50.0) == pytest.approx(0.5 / 200.0)


def test_autocorr_time_white_noise_is_one():
    x = np.random.default_rng(6).standard_normal(20_000)
    assert integrated_autocorr_time(x) == pytest.approx(1.0, abs=0.15)


def test_chain_run_serialization(tmp_path):
    run = run_ula(_gauss_drift, np.zeros(D), 1e-3, n_steps=50, burn_in=10,
                  seed=8)
    run.save(tmp_path / "chain.csv")
    rows = (tmp_path / "chain.csv").read_text().strip().splitlines()
    assert len(rows) == run.n_kept + 1
    assert (tmp_path / "chain.json").exists()


# ---------------------------------------------------------------------------
# Wasserstein diagnostics


def test_w2_identical_sets_zero():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((20, 3))
    assert w2_squared(A, A) == 0.0
    assert w2sq_sliced(A, A) == 0.0


def test_w2_point_masses():
    a = np.array([[1.0, 2.0]])
    b = np.array([[4.0, 6.0]])
    assert w2_squared(a, b) == pytest.approx(25.0, abs=1e-14)


def test_w2_assignment_matches_brute_force_n6():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((6, 3))
    B = rng.standard_normal((6, 3))
    brute = min(float(np.mean(np.sum((A - B[list(p)]) ** 2, axis=1)))
                for p in itertools.permutations(range(6)))
    assert w2sq_assignment(A, B) == brute


def test_w2_quantile_matches_assignment_1d():
    rng = np.random.default_rng(11)
    a = rng.standard_normal(40)
    b = 0.5 + 1.3 * rng.standard_normal(40)
    assert abs(w2sq_quantile_1d(a, b) - w2sq_assignment(a, b)) <= 1e-12


def test_w2_symmetry():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((30, 2))
    B = rng.standard_normal((30, 2))
    assert w2_squared(A, B) == pytest.approx(w2_squared(B, A), rel=1e-12)


def test_w2_empty_rejected():
    with pytest.raises(ValueError):
        w2_squared(np.zeros((0, 2)), np.zeros((0, 2)))


def test_w2_sliced_reasonable_on_shifted_gaussians():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((500, 3))
    B = rng.standard_normal((500, 3)) + np.array([1.0, 0.0, 0.0])
    est = w2sq_sliced(A, B)
    # sliced-W2 of a pure shift contracts by the directional average E u_1^2 = 1/d
    assert 0.15 < est < 0.8


# ---------------------------------------------------------------------------
# bad inputs and divergence


@pytest.mark.parametrize("gamma", [0.0, -1e-3])
def test_run_ula_rejects_nonpositive_step(gamma):
    with pytest.raises(ValueError):
        run_ula(_gauss_drift, np.zeros(D), gamma, n_steps=10, burn_in=0, seed=0)


def test_run_ula_rejects_thin_below_one():
    with pytest.raises(ValueError):
        run_ula(_gauss_drift, np.zeros(D), 1e-3, n_steps=10, burn_in=0, thin=0, seed=0)


def test_run_ula_rejects_thinning_that_keeps_nothing():
    calls = []

    def drift(theta):
        calls.append(theta)
        return _gauss_drift(theta)

    with pytest.raises(ValueError, match="no iterate would be kept"):
        run_ula(drift, np.zeros(D), 1e-3, n_steps=10, thin=100, seed=0)
    assert calls == []
    # the last step after burn-in is still kept
    assert run_ula(drift, np.zeros(D), 1e-3, n_steps=10, burn_in=2, thin=8, seed=0).n_kept == 1


def _overflowing_drift(theta):
    # finite, but gamma * drift leaves the floating-point range
    return np.full(theta.size, 1e308)


def test_ula_step_overflow_raises_drift_blowup():
    state = ChainState(theta=np.ones(D), gamma=10.0, k=3, rng=np.random.default_rng(0))
    with pytest.raises(DriftBlowUp) as excinfo:
        ula_step(state, _overflowing_drift)
    assert excinfo.value.k == 3
    np.testing.assert_array_equal(excinfo.value.theta, np.ones(D))


def test_run_ula_overflow_raises_drift_blowup():
    with pytest.raises(DriftBlowUp) as excinfo:
        run_ula(_overflowing_drift, np.zeros(D), 10.0, n_steps=5, burn_in=0, seed=0)
    assert excinfo.value.k == 0


def test_run_ula_drift_norms_are_those_of_the_steps():
    run = run_ula(_gauss_drift, np.zeros(D), 1e-3, n_steps=30, burn_in=0, seed=12)
    state = ChainState(theta=np.zeros(D), gamma=1e-3, k=0, rng=np.random.default_rng(12))
    norms = []
    for _ in range(30):
        state = ula_step(state, _gauss_drift)
        norms.append(np.linalg.norm(state.drift))
    assert np.array_equal(run.diagnostics["drift_norms"], np.array(norms))
