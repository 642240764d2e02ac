"""Config-driven experiment CLI.

Commands: simulate | verify | recover | gradcheck | stability | sample.
Exit codes: 0 success, 1 config error, 2 verification failure,
3 numerical abort.  Every artifact directory receives a manifest with
the config content hash and all derived quantities, sufficient to re-run
the experiment bit-identically.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .checks import SUITES, run_suites
from .config import ConfigError, ExperimentConfig, load_yaml
from .forward import McKVProblem, solve_mckv, solve_rd
from .inference import (
    ForwardModel,
    LikelihoodEvaluator,
    PriorSpec,
    SurrogateSpec,
    estimate_c1,
    generate_data,
    make_drift,
    validate_constants,
)
from .parabolic import NumericalBlowUp, heat_trajectory_exact, rel_l2l2_error
from .sampler import DriftBlowUp, default_step_size, ergodic_average, run_ula, w2_squared
from .spectral import random_potential
from .stability import sigma_min_trend, stability_report

EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3


def _load_config(path, seed, mode) -> ExperimentConfig:
    """The config file with the --seed and --mode overrides, validated once."""
    try:
        raw = load_yaml(path)
        raw.update({k: v for k, v in (("seed", seed), ("mode", mode)) if v is not None})
        return ExperimentConfig(raw=raw)
    except (ConfigError, FileNotFoundError, OSError) as exc:
        raise SystemExit(_fail(str(exc), EXIT_CONFIG))


def _fail(message: str, code: int) -> int:
    click.echo(f"error: {message}", err=True)
    return code


def _out_dir(config: ExperimentConfig, out) -> Path:
    path = Path(out) if out else Path(config["output"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _manifest(config: ExperimentConfig, extra: dict) -> dict:
    base = {
        "version": __version__,
        "config_hash": config.content_hash(),
        "config": config.raw,
        "derived": config.derived(),
    }
    base.update(extra)
    return base


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, default=_json_default))


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return str(obj)


def _is_uniform_phi(phi) -> bool:
    return float(np.sum(np.abs(phi.coeffs)) - abs(phi.mean())) < 1e-13


common_options = [
    click.option("--config", "config_path", required=True,
                 type=click.Path(exists=False), help="YAML experiment config"),
    click.option("--seed", type=int, default=None, help="override master seed"),
    click.option("--out", "out_dir", type=click.Path(), default=None,
                 help="artifact directory (default: config 'output')"),
    click.option("--mode", type=click.Choice(["strict", "experimental"]),
                 default=None, help="override strict/experimental mode"),
]


def _with_common(fn):
    for opt in reversed(common_options):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Mean-field PDE forward maps, derivative checks and Langevin inference."""


@main.command()
@_with_common
def simulate(config_path, seed, out_dir, mode):
    """Solve the configured forward problem and write the trajectory."""
    config = _load_config(config_path, seed, mode)
    out = _out_dir(config, out_dir)
    t0 = time.time()
    phi = _phi_or_exit(config)
    stepper = config.stepper()
    p = config["problem"]
    flags = []
    try:
        if p["kind"] == "mckv":
            W0 = config.w0()
            problem = McKVProblem(W=W0, phi=phi, T=p["T"], stepper=stepper)
            traj = solve_mckv(problem)
            extra = {}
            if W0.l2_norm() == 0.0:
                exact = heat_trajectory_exact(phi, traj.T, traj.M)
                extra["heat_limit_max_rel_dev"] = rel_l2l2_error(traj, exact)
            if _is_uniform_phi(phi):
                flags.append("uniform steady state, non-identifiable")
        else:
            traj = solve_rd(config.reaction(), phi, p["T"], stepper)
            extra = {}
    except NumericalBlowUp as exc:
        sys.exit(_fail(f"integration blew up at step {exc.step}", EXIT_NUMERIC))
    traj_dir = out / "trajectory"
    traj.save(traj_dir)
    manifest = _manifest(config, {
        "command": "simulate",
        "runtime_seconds": time.time() - t0,
        "artifacts": {"trajectory": str(traj_dir)},
        "flags": flags,
        **extra,
    })
    _write_json(out / "manifest.json", manifest)
    click.echo(f"trajectory written to {traj_dir} (hash {config.content_hash()[:12]})")


def _phi_or_exit(config):
    try:
        return config.phi()
    except ConfigError as exc:
        sys.exit(_fail(str(exc), EXIT_CONFIG))


@main.command()
@_with_common
@click.option("--suite", "suites", multiple=True,
              type=click.Choice(sorted(SUITES) + ["all"]), default=("all",),
              help="which verification suites to run")
def verify(config_path, seed, out_dir, mode, suites):
    """Run verification suites; nonzero exit when any property fails."""
    config = _load_config(config_path, seed, mode)
    out = _out_dir(config, out_dir)
    names = sorted(SUITES) if "all" in suites else list(suites)
    try:
        report = run_suites(config, names)
    except NumericalBlowUp as exc:
        sys.exit(_fail(f"verification aborted: blow-up at step {exc.step}",
                       EXIT_NUMERIC))
    payload = _manifest(config, {"command": "verify", "suites": report})
    _write_json(out / "verify_report.json", payload)
    for name in names:
        for rec in report[name]:
            status = "PASS" if rec["passed"] else "FAIL"
            click.echo(f"[{status}] {name}/{rec['name']}: "
                       f"measured={rec['measured']:.3e} tol={rec['tolerance']:.3e}")
    if not report["all_passed"]:
        sys.exit(EXIT_VERIFY)
    click.echo("all verification suites passed")


@main.command()
@_with_common
def gradcheck(config_path, seed, out_dir, mode):
    """Finite-difference checks of every derivative (gradients suite)."""
    ctx = click.get_current_context()
    ctx.invoke(verify, config_path=config_path, seed=seed, out_dir=out_dir,
               mode=mode, suites=("gradients",))


@main.command()
@_with_common
def stability(config_path, seed, out_dir, mode):
    """Stability diagnostics: sigma_min, margins, linear identity residual."""
    config = _load_config(config_path, seed, mode)
    out = _out_dir(config, out_dir)
    phi = _phi_or_exit(config)
    stepper = config.stepper()
    p = config["problem"]
    rng = np.random.default_rng(config.seed + 17)
    W1 = config.w0()
    W2 = W1 + random_potential(p["K"], p["d"], rng, amplitude=0.3)
    problem = McKVProblem(W=W1, phi=phi, T=p["T"], stepper=stepper)
    try:
        rep = stability_report(
            problem, McKVProblem(W=W2, phi=phi, T=p["T"], stepper=stepper),
            K=p["K"], zeta=config["constants"]["zeta"], beta=config["constants"]["beta"])
    except NumericalBlowUp as exc:
        sys.exit(_fail(f"stability run blew up at step {exc.step}", EXIT_NUMERIC))
    trend = sigma_min_trend(problem, K=p["K"])
    payload = _manifest(config, {"command": "stability",
                                 "report": json.loads(rep.to_json()),
                                 "sigma_min_vs_K": {str(k): v
                                                    for k, v in trend.items()}})
    _write_json(out / "stability_report.json", payload)
    with open(out / "sigma_min_vs_K.csv", "w") as fh:
        fh.write("K,sigma_min\n")
        for k, v in trend.items():
            fh.write(f"{k},{v!r}\n")
    click.echo(rep.to_json())
    click.echo("sigma_min vs K: "
               + ", ".join(f"K={k}: {v:.3e}" for k, v in trend.items()))


def _build_inference(config: ExperimentConfig):
    phi = _phi_or_exit(config)
    p = config["problem"]
    model = ForwardModel(phi=phi, T=p["T"], K=p["K"], stepper=config.stepper())
    W0 = config.w0()
    rng = np.random.default_rng(config.seed)
    data = generate_data(W0, model, n_obs=config["inference"]["N"],
                         noise_std=config["inference"]["noise_std"],
                         rng=rng, seed=config.seed)
    prior = PriorSpec(alpha=config.prior_alpha(), K=model.K, d=model.d,
                      n_obs=data.n_obs)
    return model, W0, data, prior


def _build_surrogate(config, model, W0, data, warnings):
    sur = config["surrogate"]
    r = config.surrogate_radius(model.dim)
    if r < 1e-12:
        warnings.append(
            f"surrogate radius r={r:.3e} is astronomically small; "
            "strict-mode scaling D^-w is impractical at this dimension; "
            "proceeding with the experimental-mode radius")
        r = sur["r"]
    c1 = sur["c1_hat"]
    if c1 is None:
        c1 = estimate_c1(model, W0, include_hessian=model.dim <= 16)
    try:
        spec = SurrogateSpec.build(r=r, W_init=W0, n_obs=data.n_obs,
                                   c_hat=sur["c_hat"], c1_hat=c1, lam=sur["lam"])
    except ValueError as exc:  # lam below the floor, known only once c1 is
        sys.exit(_fail(f"surrogate.lam: {exc}", EXIT_CONFIG))
    return spec, c1


def _run_chain(config, model, W0, data, prior, warnings):
    """Surrogate around W0, its drift and the ULA chain started at W0.

    Returns (spec, c1, gamma, run); a diverging drift or PDE solve exits
    with EXIT_NUMERIC.
    """
    spec, c1 = _build_surrogate(config, model, W0, data, warnings)
    drift = make_drift(spec, prior, LikelihoodEvaluator(model, data))
    sa = config["sampler"]
    gamma = sa["gamma"] or default_step_size(prior.precision_diag(), spec.lam)
    try:
        run = run_ula(drift, W0.values.copy(), gamma, n_steps=sa["n_steps"],
                      burn_in=sa["burn_in"], thin=sa["thin"], seed=config.seed + 1)
    except DriftBlowUp as exc:
        sys.exit(_fail(f"drift diverged at iteration {exc.k}", EXIT_NUMERIC))
    except NumericalBlowUp as exc:
        sys.exit(_fail(f"PDE solve blew up at step {exc.step}", EXIT_NUMERIC))
    return spec, c1, gamma, run


@main.command()
@_with_common
def sample(config_path, seed, out_dir, mode):
    """Run ULA over the surrogate posterior and store the chain."""
    config = _load_config(config_path, seed, mode)
    out = _out_dir(config, out_dir)
    t0 = time.time()
    warnings: list[str] = []
    model, W0, data, prior = _build_inference(config)
    spec, c1, gamma, run = _run_chain(config, model, W0, data, prior, warnings)
    run.save(out / "chain.csv")
    payload = _manifest(config, {
        "command": "sample",
        "gamma": gamma,
        "c1_hat": c1,
        "lambda": spec.lam,
        "runtime_seconds": time.time() - t0,
        "warnings": warnings,
        "n_kept": run.n_kept,
        "autocorr_time": run.diagnostics.get("autocorr_time"),
    })
    _write_json(out / "sample_manifest.json", payload)
    click.echo(f"kept {run.n_kept} samples (gamma={gamma:.3e})")


@main.command()
@_with_common
def recover(config_path, seed, out_dir, mode):
    """End-to-end recovery: data, surrogate, ULA, posterior-mean report."""
    config = _load_config(config_path, seed, mode)
    out = _out_dir(config, out_dir)
    t0 = time.time()
    warnings: list[str] = []
    model, W0, data, prior = _build_inference(config)

    if _is_uniform_phi(model.phi):
        warnings.append("uniform steady state, non-identifiable")

    # the truth lies in E_K, so both projection biases vanish
    constants = validate_constants(config.constants(), n_obs=data.n_obs,
                                   K=model.K, bias_forward=0.0, bias_inverse=0.0)

    spec, c1, gamma, run = _run_chain(config, model, W0, data, prior, warnings)

    mean = ergodic_average(run)
    err = float(np.linalg.norm(mean - W0.values))
    half = run.n_kept // 2
    w2_halves = w2_squared(run.samples[:half], run.samples[half:2 * half]) \
        if half >= 2 else None

    run.save(out / "chain.csv")
    data.save(out / "dataset.csv")
    report = _manifest(config, {
        "command": "recover",
        "runtime_seconds": time.time() - t0,
        "gamma": gamma,
        "lambda": spec.lam,
        "c1_hat": c1,
        "oracle_initialiser": True,
        "posterior_mean": mean.tolist(),
        "recovery_error_l2": err,
        "w2_squared_chain_halves": w2_halves,
        "constants_report": json.loads(constants.to_json()),
        "assumption_checks": {
            "bias_forward": 0.0,
            "bias_inverse": 0.0,
            "warm_start_ok": spec.check_warm_start(W0),
        },
        "warnings": warnings,
        "n_kept": run.n_kept,
    })
    _write_json(out / "recover_report.json", report)
    click.echo(f"recovery error |posterior mean - truth|_L2 = {err:.4e} "
               f"({time.time() - t0:.1f}s)")
    for w in warnings:
        click.echo(f"warning: {w}", err=True)


if __name__ == "__main__":
    main()
