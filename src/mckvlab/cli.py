"""Config-driven experiment CLI.

Commands: simulate | verify | recover | gradcheck | stability | sample.
Each command is a body ``(config, out, warnings, **options) -> fields``
run by :func:`_run`, which loads the config with the ``--seed`` and
``--mode`` overrides, creates the output directory, times the body and
writes its report.  Every report starts with the same header: version,
config content hash, merged config, derived quantities, command,
runtime and warnings, sufficient to re-run the experiment
bit-identically.  Exit codes: 0 success, 1 config or usage error, 2
verification failure, 3 numerical abort.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import __version__
from .checks import SUITES, run_suites
from .config import ConfigError, ExperimentConfig, load_yaml
from .forward import is_uniform, solve_rd
from .inference import (
    LikelihoodEvaluator,
    PriorSpec,
    estimate_c1,
    generate_data,
    make_drift,
    validate_constants,
)
from .parabolic import NumericalBlowUp, heat_trajectory_exact, rel_l2l2_error
from .sampler import (
    DriftBlowUp,
    default_step_size,
    ergodic_average,
    json_default,
    run_ula,
    w2_squared,
)
from .spectral import random_potential
from .stability import sigma_min_trend, stability_report

EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3

COMMON_OPTIONS = [
    click.Option(["--config", "config_path"], required=True,
                 type=click.Path(exists=False), help="YAML experiment config"),
    click.Option(["--seed"], type=int, default=None, help="override master seed"),
    click.Option(["--out", "out_dir"], type=click.Path(), default=None,
                 help="artifact directory (default: config 'output')"),
    click.Option(["--mode"], type=click.Choice(["strict", "experimental"]),
                 default=None, help="override strict/experimental mode"),
]


def _fail(message: str, code: int) -> int:
    click.echo(f"error: {message}", err=True)
    return code


class _Group(click.Group):
    """The command group.  Click's usage errors (a missing or bad option,
    an unknown or missing command) end like a config error, with one
    ``error:`` line and exit 1: click's own code for them, 2, is the
    code of a failed verification here."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            sys.exit(_fail(exc.format_message(), EXIT_CONFIG))

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            sys.exit(_fail(exc.format_message(), EXIT_CONFIG))


@click.group(cls=_Group, no_args_is_help=False)
@click.version_option(__version__)
def main():
    """Mean-field PDE forward maps, derivative checks and Langevin inference."""


def _run(body, report: str, mckv_only: bool, config_path, seed, out_dir, mode,
         options: dict) -> int:
    """Run one command body and write its report; returns the exit code.

    Exit 1 for a ConfigError, or an OSError from reading the config or
    creating the output directory; 2 when the body returns it after a
    failed verification (the report is written first); 3 for a blow-up
    of a PDE solve or of the chain's drift.
    """
    try:
        raw = load_yaml(config_path)
        raw.update({k: v for k, v in (("seed", seed), ("mode", mode)) if v is not None})
        config = ExperimentConfig(raw=raw)
        kind = config["problem"]["kind"]
        if mckv_only and kind != "mckv":
            raise ConfigError(f"problem.kind: {kind!r} is not supported; "
                              f"{body.__name__} runs mckv only")
        out = Path(out_dir or config["output"])
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        return _fail(str(exc), EXIT_CONFIG)
    warnings: list[str] = []
    t0 = time.time()
    try:
        result = body(config, out, warnings, **options)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except NumericalBlowUp as exc:
        return _fail(f"PDE solve blew up at step {exc.step}", EXIT_NUMERIC)
    except DriftBlowUp as exc:
        return _fail(f"drift diverged at iteration {exc.k}", EXIT_NUMERIC)
    finally:
        for w in warnings:
            click.echo(f"warning: {w}", err=True)
    fields, code = result if isinstance(result, tuple) else (result, 0)
    header = {
        "version": __version__,
        "config_hash": config.content_hash(),
        "config": config.raw,
        "derived": config.derived(),
        "command": body.__name__,
        "runtime_seconds": time.time() - t0,
        "warnings": warnings,
    }
    (out / report).write_text(json.dumps({**header, **fields}, indent=2,
                                         default=json_default))
    return code


def command(report: str, *options: click.Option, mckv_only: bool = False):
    """Register ``body(config, out, warnings, **options)`` as the command of
    its name, run by :func:`_run` and reporting to ``out / report``;
    ``mckv_only`` rejects ``problem.kind: rd`` before the body runs."""
    def register(body) -> click.Command:
        def run(config_path, seed, out_dir, mode, **kwargs):
            sys.exit(_run(body, report, mckv_only, config_path, seed, out_dir, mode, kwargs))

        cmd = click.Command(body.__name__, callback=run, help=body.__doc__,
                            params=[*COMMON_OPTIONS, *options])
        main.add_command(cmd)
        return cmd
    return register


@command("manifest.json")
def simulate(config, out, warnings):
    """Solve the configured forward problem and write the trajectory."""
    model = config.model()
    fields = {"flags": []}
    if config["problem"]["kind"] == "mckv":
        W0 = config.w0()
        traj = model.solve(W0)
        if W0.l2_norm() == 0.0:
            exact = heat_trajectory_exact(model.phi, traj.T, traj.M)
            fields["heat_limit_max_rel_dev"] = rel_l2l2_error(traj, exact)
        if is_uniform(model.phi):
            fields["flags"].append("uniform steady state, non-identifiable")
    else:
        traj = solve_rd(config.reaction(), model.phi, model.T, model.stepper)
    traj_dir = out / "trajectory"
    traj.save(traj_dir)
    click.echo(f"trajectory written to {traj_dir} (hash {config.content_hash()[:12]})")
    return {"artifacts": {"trajectory": str(traj_dir)}, **fields}


@command("verify_report.json",
         click.Option(["--suite", "suites"], multiple=True,
                      type=click.Choice(sorted(SUITES) + ["all"]), default=("all",),
                      help="which verification suites to run"))
def verify(config, out, warnings, suites):
    """Run verification suites; nonzero exit when any property fails."""
    names = sorted(SUITES) if "all" in suites else list(suites)
    if "surrogate" in names:
        config.usable_surrogate_radius(warnings)  # the radius the suite checks
    report = run_suites(config, names)
    for name in names:
        for rec in report[name]:
            status = "PASS" if rec["passed"] else "FAIL"
            click.echo(f"[{status}] {name}/{rec['name']}: "
                       f"measured={rec['measured']:.3e} tol={rec['tolerance']:.3e}")
    if not report["all_passed"]:
        return {"suites": report}, EXIT_VERIFY
    click.echo("all verification suites passed")
    return {"suites": report}


# an alias of `verify --suite gradients`, reporting as verify
main.add_command(click.Command(
    "gradcheck", params=COMMON_OPTIONS,
    callback=functools.partial(verify.callback, suites=("gradients",)),
    help="Finite-difference checks of every derivative (gradients suite)."))


@command("stability_report.json", mckv_only=True)
def stability(config, out, warnings):
    """Stability diagnostics: sigma_min, margins, linear identity residual."""
    model = config.model()
    rng = np.random.default_rng(config.seed + 17)
    W1 = config.w0()
    W2 = W1 + random_potential(model.K, model.d, rng, amplitude=0.3)
    problem = model.problem(W1)
    rep = stability_report(
        problem, model.problem(W2),
        K=model.K, zeta=config["constants"]["zeta"], beta=config["constants"]["beta"])
    trend = sigma_min_trend(problem, K=model.K)
    with open(out / "sigma_min_vs_K.csv", "w") as fh:
        fh.write("K,sigma_min\n")
        for k, v in trend.items():
            fh.write(f"{k},{v!r}\n")
    click.echo(rep.to_json())
    click.echo("sigma_min vs K: "
               + ", ".join(f"K={k}: {v:.3e}" for k, v in trend.items()))
    return {"report": asdict(rep),
            "sigma_min_vs_K": {str(k): v for k, v in trend.items()}}


def _chain(config, model, warnings):
    """Data from the truth W0, the surrogate around W0 and the ULA chain
    started there, on the configured ``model``.

    Returns (W0, data, spec, run, fields) with the chain's report fields.
    """
    sur, sa = config["surrogate"], config["sampler"]
    W0 = config.w0()
    rho0 = model.solve(W0)
    data = generate_data(W0, model, n_obs=config["inference"]["N"],
                         noise_std=config["inference"]["noise_std"],
                         rng=np.random.default_rng(config.seed), seed=config.seed, rho0=rho0)
    prior = PriorSpec(alpha=config.prior_alpha(), K=model.K, d=model.d,
                      n_obs=data.n_obs)
    c1 = sur["c1_hat"]
    if c1 is None:
        # on the data's rho_{W0}, not through the memo of forward.linearisation:
        # its linearisation and columns are freed before the chain starts
        c1 = estimate_c1(model, W0, include_hessian=model.dim <= 16, rho=rho0)
        if model.dim > 16:
            warnings.append(f"c1_hat estimated without the Hessian term "
                            f"(D = {model.dim} > 16)")
    spec = config.surrogate(W0, data.n_obs, c1, warnings)
    drift = make_drift(spec, prior, LikelihoodEvaluator(model, data))
    gamma = sa["gamma"] or default_step_size(prior.precision_diag(), spec.lam)
    top = float(np.max(prior.precision_diag()))
    if sa["gamma"] and gamma * top >= 2.0:
        warnings.append(f"sampler.gamma={gamma:.3e} is at or above 2/max(prior precision) "
                        f"= {2.0 / top:.3e}, where the chain diverges")
    run = run_ula(drift, W0.values.copy(), gamma, n_steps=sa["n_steps"],
                  burn_in=sa["burn_in"], thin=sa["thin"], seed=config.seed + 1)
    fields = {"gamma": gamma, "c1_hat": c1, "lambda": spec.lam, "n_kept": run.n_kept}
    return W0, data, spec, run, fields


@command("sample_manifest.json", mckv_only=True)
def sample(config, out, warnings):
    """Run ULA over the surrogate posterior and store the chain."""
    _, _, _, run, fields = _chain(config, config.model(), warnings)
    run.save(out / "chain.csv")
    click.echo(f"kept {run.n_kept} samples (gamma={fields['gamma']:.3e})")
    return {**fields, "autocorr_time": run.diagnostics.get("autocorr_time")}


@command("recover_report.json", mckv_only=True)
def recover(config, out, warnings):
    """End-to-end recovery: data, surrogate, ULA, posterior-mean report."""
    model = config.model()
    if is_uniform(model.phi):
        warnings.append("uniform steady state, non-identifiable")
    W0, data, spec, run, fields = _chain(config, model, warnings)
    mean = ergodic_average(run)
    err = float(np.linalg.norm(mean - W0.values))
    half = run.n_kept // 2
    w2_halves = w2_squared(run.samples[:half], run.samples[half:2 * half]) \
        if half >= 2 else None
    # the truth lies in E_K, so both projection biases vanish
    constants = validate_constants(config.constants(), n_obs=data.n_obs, K=W0.K,
                                   bias_forward=0.0, bias_inverse=0.0)
    run.save(out / "chain.csv")
    data.save(out / "dataset.csv")
    click.echo(f"recovery error |posterior mean - truth|_L2 = {err:.4e}")
    return {
        **fields,
        "oracle_initialiser": True,
        "posterior_mean": mean,
        "recovery_error_l2": err,
        "w2_squared_chain_halves": w2_halves,
        "constants_report": asdict(constants),
        "assumption_checks": {
            "bias_forward": 0.0,
            "bias_inverse": 0.0,
            "warm_start_ok": spec.check_warm_start(W0),
        },
    }


if __name__ == "__main__":
    main()
