"""Chains and stability reports are bit-reproducible whatever number of
threads BLAS runs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# 40 ULA iterates of the frozen criterion-13 recovery model, printed as hex
CHAIN = """
import json, sys
import numpy as np
from mckvlab.forward import decay_density
from mckvlab.inference import (ForwardModel, LikelihoodEvaluator, PriorSpec,
                               SurrogateSpec, generate_data, make_drift)
from mckvlab.parabolic import StepperConfig
from mckvlab.sampler import run_ula
from mckvlab.spectral import random_potential

s = json.loads(open(sys.argv[1]).read())["settings"]
phi = decay_density(s["n"], 1, zeta=s["zeta"], amplitude=s["amplitude"])
model = ForwardModel(phi=phi, T=s["T"], K=s["K"], stepper=StepperConfig(M=s["M"]))
W0 = random_potential(s["K"], 1, np.random.default_rng(s["w0_seed"]),
                      amplitude=s["w0_amplitude"], decay=s["w0_decay"])
prior = PriorSpec(alpha=s["prior_alpha"], K=s["K"], d=1, n_obs=s["N"])
spec = SurrogateSpec.build(r=s["r"], W_init=W0, n_obs=s["N"], c_hat=1.0, c1_hat=2.0)
data = generate_data(W0, model, s["N"], s["noise_std"], np.random.default_rng(7), seed=7)
drift = make_drift(spec, prior, LikelihoodEvaluator(model, data))
run = run_ula(drift, W0.values.copy(), s["gamma"], n_steps=40, burn_in=0, seed=1007)
print(run.samples.tobytes().hex())
"""

# stability_report at three points of a d=2, K=2 model (n=16, M=48), printed as
# hex; its forward Lipschitz quotient and pseudo-linearisation residual are
# L2([0,T];L2) norms of a single trajectory
REPORTS = """
import numpy as np
from mckvlab.forward import decay_density
from mckvlab.inference import ForwardModel
from mckvlab.parabolic import StepperConfig
from mckvlab.spectral import random_potential
from mckvlab.stability import stability_report

phi = decay_density(16, 2, zeta=3.8, amplitude=0.3)
model = ForwardModel(phi=phi, T=0.06, K=2, stepper=StepperConfig(M=48))
rng = np.random.default_rng(9)
W0 = random_potential(2, 2, rng, amplitude=0.8, decay=4.0)
for _ in range(3):
    W = W0 + random_potential(2, 2, rng, amplitude=0.2)
    rep = stability_report(model.problem(W), model.problem(W0), K=2, zeta=3.8, beta=6.0)
    print(np.array([rep.sigma_min, rep.decon_margin, rep.lipschitz_ratio,
                    rep.pseudo_lin_residual]).tobytes().hex())
"""

# the Frobenius field of the Hessian (every node) and the last node of every
# second derivative D^2 rho_W[tau_j, tau_k], at d=1 (n=32, K=4) and d=2
# (n=16, K=2), M=48, printed as hex
CURVATURE = """
import numpy as np
from mckvlab.forward import Linearisation, McKVProblem, decay_density, solve_mckv
from mckvlab.inference import _hessian_frobenius
from mckvlab.parabolic import StepperConfig
from mckvlab.spectral import random_potential

for d, n, K, zeta, amplitude in [(1, 32, 4, 1.8, 0.48), (2, 16, 2, 3.8, 0.3)]:
    W = random_potential(K, d, np.random.default_rng(100), amplitude=0.8, decay=4.0)
    problem = McKVProblem(W=W, phi=decay_density(n, d, zeta=zeta, amplitude=amplitude),
                          T=0.06, stepper=StepperConfig(M=48))
    lin = Linearisation(problem, solve_mckv(problem))
    print(_hessian_frobenius(lin).tobytes().hex())
    last = lin.second_derivatives()[:, -1]  # pairs r <= k in np.triu_indices order
    D = len(lin.gtau)
    rows, cols = np.triu_indices(D)
    nodes = np.zeros((D, D) + last.shape[1:], dtype=last.dtype)
    nodes[rows, cols] = last
    nodes[cols, rows] = last
    print(nodes.tobytes().hex())
"""


def _run(code, threads, *args):
    """The floats ``code`` prints as hex, run with ``threads`` BLAS threads
    (None: the default)."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if threads is not None:
        env.update({k: str(threads) for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return np.frombuffer(bytes.fromhex(out.stdout.replace("\n", "")), dtype=float)


def test_ula_chain_bit_equal_at_one_and_default_blas_threads():
    fixture = str(ROOT / "tests" / "fixtures" / "recovery_tau.json")
    pinned, default = _run(CHAIN, 1, fixture), _run(CHAIN, None, fixture)
    assert pinned.size == 40 * 8
    assert np.all(np.isfinite(pinned))
    assert np.array_equal(pinned, default)


def test_stability_report_bit_equal_at_one_and_two_blas_threads():
    one, two = _run(REPORTS, 1), _run(REPORTS, 2)
    assert one.size == 3 * 4
    assert np.all(np.isfinite(one)) and np.all(one[2::4] > 0)
    assert np.array_equal(one, two)


def test_second_derivatives_bit_equal_at_one_and_two_blas_threads():
    one, two = _run(CURVATURE, 1), _run(CURVATURE, 2)
    # d=1: (49, 32) field and (8, 8, 32) complex nodes; d=2: (49, 16, 16) and (12, 12, 16, 16)
    assert one.size == 49 * 32 + 8 * 8 * 32 * 2 + 49 * 256 + 12 * 12 * 256 * 2
    assert np.all(np.isfinite(one))
    assert np.array_equal(one, two)
