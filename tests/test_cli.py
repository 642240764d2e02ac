import json
from collections import OrderedDict

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from mckvlab import cli, forward, sampler
from mckvlab.cli import main
from mckvlab.config import ConfigError, ExperimentConfig
from mckvlab.inference import ForwardModel, SurrogateSpec, estimate_c1, lambda_min_bound
from mckvlab.parabolic import LWOperator

BASE = {
    "seed": 11,
    "problem": {
        "kind": "mckv",
        "d": 1,
        "K": 2,
        "T": 0.2,
        "phi": {"type": "decay", "zeta": 3.0, "amplitude": 0.3},
        "W0": {"type": "random", "amplitude": 0.3, "decay": 1.0, "seed": 5},
    },
    "solver": {"n": 32, "M": 48},
    "constants": {"alpha": 2.0, "beta": 6.0, "zeta": 3.0, "w": 20.0},
    "inference": {"N": 30, "noise_std": 0.05},
    "surrogate": {"r": 1.0, "c1_hat": 2.0},
    "sampler": {"gamma": 1.0e-4, "n_steps": 80, "burn_in": 20},
}


def _write(tmp_path, overrides=None, name="exp.yaml"):
    cfg = json.loads(json.dumps(BASE))
    for path, value in (overrides or {}).items():
        node = cfg
        keys = path.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = value
    p = tmp_path / name
    p.write_text(yaml.safe_dump(cfg))
    return p


# ---------------------------------------------------------------------------
# config layer


def test_config_defaults_and_hash_stable(tmp_path):
    p = _write(tmp_path)
    c1 = ExperimentConfig.from_file(p)
    c2 = ExperimentConfig.from_file(p)
    assert c1.content_hash() == c2.content_hash()
    assert set(c1["solver"]) == {"n", "M"}
    derived = c1.derived()
    assert derived["D"] == 4
    assert derived["delta_N"] == pytest.approx(30 ** (-3.0 / 7.0))


def test_config_rejects_unknown_keys(tmp_path):
    p = _write(tmp_path, {"problem.bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(p)


def test_config_rejects_bad_values(tmp_path):
    for overrides in ({"problem.K": 40}, {"solver.n": 7},
                      {"solver.scheme": "rk9"}, {"inference.N": 0},
                      {"sampler.thin": 0}):
        p = _write(tmp_path, overrides)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(p)


@pytest.mark.parametrize("gamma", [0.0, -1.0e-4])
def test_sample_rejects_nonpositive_step_size(tmp_path, gamma):
    p = _write(tmp_path, {"sampler.gamma": gamma})
    res = CliRunner().invoke(main, ["sample", "--config", str(p),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert "sampler.gamma" in res.output


@pytest.mark.parametrize("command", ["sample", "recover"])
def test_chain_commands_reject_thinning_that_keeps_nothing(tmp_path, command):
    p = _write(tmp_path, {"sampler.n_steps": 10, "sampler.burn_in": None,
                          "sampler.thin": 100})
    res = CliRunner().invoke(main, [command, "--config", str(p),
                                    "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert "sampler.thin" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_strict_mode_scales_surrogate_radius(tmp_path):
    p = _write(tmp_path, {"mode": "strict", "constants.w": 39.5})
    cfg = ExperimentConfig.from_file(p)
    r = cfg.surrogate_radius(4)
    assert r == pytest.approx(1.0 * 4.0 ** (-39.5))


# ---------------------------------------------------------------------------
# commands


def test_simulate_writes_artifacts_and_reproducible_hash(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        res = runner.invoke(main, ["simulate", "--config", str(p),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "trajectory" / "manifest.json").exists()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]
    t1 = (out1 / "trajectory" / "node_00.csv").read_text()
    t2 = (out2 / "trajectory" / "node_00.csv").read_text()
    assert t1 == t2


def test_simulate_heat_limit_records_deviation(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path, {"problem.W0.type": "zero"})
    out = tmp_path / "heat"
    res = runner.invoke(main, ["simulate", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["heat_limit_max_rel_dev"] < 1e-10


def test_simulate_flags_uniform_state(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path, {"problem.phi.type": "uniform"})
    out = tmp_path / "uni"
    res = runner.invoke(main, ["simulate", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("non-identifiable" in f for f in manifest["flags"])


def test_simulate_rd_kind(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path, {"problem.kind": "rd"})
    out = tmp_path / "rd"
    res = runner.invoke(main, ["simulate", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output


def test_invalid_config_exits_one(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path, {"problem.kind": "wave"})
    res = runner.invoke(main, ["simulate", "--config", str(p)])
    assert res.exit_code == 1


def test_missing_config_exits_one(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["simulate", "--config", str(tmp_path / "nope.yaml")])
    assert res.exit_code == 1


@pytest.mark.parametrize("args, message", [
    (["sample"], "error: Missing option '--config'."),
    (["sample", "--config", "exp.yaml", "--mode", "fast"],
     "error: Invalid value for '--mode': 'fast' is not one of 'strict', 'experimental'."),
])
def test_usage_errors_exit_one_with_one_error_line(args, message):
    # exit 2 is reserved for a failed verification
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 1, res.output
    assert res.output.splitlines() == [message]


def test_blowup_exits_three(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path, {"problem.W0.amplitude": 2000.0, "solver.M": 8})
    res = runner.invoke(main, ["simulate", "--config", str(p),
                               "--out", str(tmp_path / "bang")])
    assert res.exit_code == 3


def test_verify_gradients_suite_passes(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path)
    out = tmp_path / "ver"
    res = runner.invoke(main, ["verify", "--config", str(p), "--out", str(out),
                               "--suite", "gradients"])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "verify_report.json").read_text())
    assert report["suites"]["all_passed"] is True
    assert all(rec["passed"] for rec in report["suites"]["gradients"])


def test_the_gradients_suite_solves_each_draw_once(tmp_path, monkeypatch):
    # rho_W and D rho_W[H] of a draw serve the central differences at every eps
    import mckvlab.checks as checks

    config = ExperimentConfig.from_file(_write(tmp_path))
    monkeypatch.setattr(forward, "_memo", OrderedDict())
    nonlinear, linear = [], []
    solve, lw_solve = forward.solve_mckv_field, LWOperator.solve
    monkeypatch.setattr(forward, "solve_mckv_field",
                        lambda *args: nonlinear.append(1) or solve(*args))
    monkeypatch.setattr(LWOperator, "solve",
                        lambda self, *args, **kw: linear.append(1) or lw_solve(self, *args, **kw))
    records = checks.suite_gradients(config)
    assert all(rec["passed"] for rec in records)
    D = config.model().dim
    # the floor's two solves; per draw rho_W and two shifted solves at each of two
    # eps; the data, one gradient and 2 D likelihoods of its finite differences
    assert len(nonlinear) == 2 + 3 * (1 + 2 * 2) + 1 + 1 + 2 * D
    # per draw the basis columns and the basis pairs of D^2 rho_W
    assert len(linear) == 3 * 2


def test_the_stability_suite_solves_each_potential_once(tmp_path, monkeypatch):
    # the floor's rho_{W1} at M is the one the probes read from the memo
    import mckvlab.checks as checks

    config = ExperimentConfig.from_file(_write(tmp_path))
    monkeypatch.setattr(forward, "_memo", OrderedDict())
    solves = []
    solve = forward.solve_mckv_field
    monkeypatch.setattr(forward, "solve_mckv_field",
                        lambda *args: solves.append(1) or solve(*args))
    records = checks.suite_stability(config)
    assert all(rec["passed"] for rec in records)
    # W1 at M and at 2M, W2, and the two Lipschitz perturbations of W1
    assert len(solves) == 5


def test_verify_stability_uniform_reports_zero_sigma(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path, {"problem.phi.type": "uniform"})
    out = tmp_path / "vuni"
    res = runner.invoke(main, ["verify", "--config", str(p), "--out", str(out),
                               "--suite", "stability"])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "verify_report.json").read_text())
    names = {rec["name"]: rec for rec in report["suites"]["stability"]}
    assert names["sigma_min_uniform_zero"]["measured"] <= 1e-12


def test_verify_surrogate_builds_the_configured_c1_hat(tmp_path, monkeypatch):
    # a configured c1_hat of 0.0 is checked as the sample command builds it
    import mckvlab.checks as checks

    built = []

    def capture(cls, **kwargs):
        built.append(kwargs["c1_hat"])
        raise RuntimeError("captured")

    monkeypatch.setattr(SurrogateSpec, "build", classmethod(capture))
    config = ExperimentConfig.from_file(_write(tmp_path, {"surrogate.c1_hat": 0.0}))
    for run in (lambda: checks.suite_surrogate(config),
                lambda: cli._chain(config, config.model(), [])):
        with pytest.raises(RuntimeError, match="captured"):
            run()
    assert built == [0.0, 0.0]


def test_verify_strict_surrogate_suite_falls_back_to_the_experimental_radius(tmp_path):
    # strict scaling gives r = 4^-20 here, below what a finite-difference step resolves
    runner = CliRunner()
    p = _write(tmp_path)
    out = tmp_path / "vstrict"
    res = runner.invoke(main, ["verify", "--config", str(p), "--out", str(out),
                               "--suite", "surrogate", "--mode", "strict"])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "verify_report.json").read_text())
    assert report["suites"]["all_passed"] is True
    # the header reports the radius the surrogate is built at, and its lambda floor
    assert report["derived"]["surrogate_r"] == 1.0
    assert report["derived"]["lambda_floor"] == lambda_min_bound(
        report["config"]["inference"]["N"], 1.0, report["config"]["surrogate"]["c_hat"],
        report["config"]["surrogate"]["c1_hat"])
    assert [w for w in report["warnings"] if "astronomically small" in w] != []


def test_verify_failure_exits_two(tmp_path, monkeypatch):
    import mckvlab.checks as checks

    def broken_suite(config):
        return [{"name": "always_fails", "passed": False, "measured": 1.0,
                 "tolerance": 0.0}]

    monkeypatch.setitem(checks.SUITES, "gradients", broken_suite)
    runner = CliRunner()
    p = _write(tmp_path)
    res = runner.invoke(main, ["verify", "--config", str(p),
                               "--out", str(tmp_path / "vf"),
                               "--suite", "gradients"])
    assert res.exit_code == 2


def test_gradcheck_alias(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path)
    res = runner.invoke(main, ["gradcheck", "--config", str(p),
                               "--out", str(tmp_path / "gc")])
    assert res.exit_code == 0, res.output


def test_stability_command_writes_report(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path)
    out = tmp_path / "st"
    res = runner.invoke(main, ["stability", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "stability_report.json").read_text())
    for key in ("sigma_min", "decon_margin", "lipschitz_ratio",
                "pseudo_lin_residual"):
        assert key in report["report"]


def test_stability_command_solves_the_columns_once(tmp_path, monkeypatch):
    # the report's sigma_min and the trend read one memoised linearisation at W1
    monkeypatch.setattr(forward, "_memo", OrderedDict())
    batches = []
    solve = LWOperator.solve

    def counting(self, forcing, *args, **kwargs):
        batches.append(forcing.shape[1])
        return solve(self, forcing, *args, **kwargs)

    monkeypatch.setattr(LWOperator, "solve", counting)
    res = CliRunner().invoke(main, ["stability", "--config", str(_write(tmp_path)),
                                    "--out", str(tmp_path / "st")])
    assert res.exit_code == 0, res.output
    # the pseudo-linearised difference solves one field, the columns D = 4
    assert sorted(batches) == [1, 4]

def test_chain_starts_with_an_empty_memo_and_the_memo_c1(tmp_path, monkeypatch):
    # with surrogate.c1_hat null, c1 is estimated on the data's rho_W0; no
    # linearisation at W0 stays alive while the chain runs
    monkeypatch.setattr(forward, "_memo", OrderedDict())
    seen = {}

    def run_ula(*args, **kwargs):
        seen["memo"] = len(forward._memo)
        return sampler.run_ula(*args, **kwargs)

    monkeypatch.setattr(cli, "run_ula", run_ula)
    config = ExperimentConfig.from_file(_write(tmp_path, {"surrogate.c1_hat": None}))
    res = CliRunner().invoke(main, ["sample", "--config", str(tmp_path / "exp.yaml"),
                                    "--out", str(tmp_path / "sa")])
    assert res.exit_code == 0, res.output
    assert seen == {"memo": 0}
    p = config["problem"]
    model = ForwardModel(phi=config.phi(), T=p["T"], K=p["K"], stepper=config.stepper())
    manifest = json.loads((tmp_path / "sa" / "sample_manifest.json").read_text())
    assert manifest["c1_hat"] == estimate_c1(model, config.w0(), include_hessian=True)


def test_sample_command(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path)
    out = tmp_path / "sa"
    res = runner.invoke(main, ["sample", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "chain.csv").exists()
    manifest = json.loads((out / "sample_manifest.json").read_text())
    assert manifest["n_kept"] == 60


def test_recover_command_report(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path)
    out = tmp_path / "rec"
    res = runner.invoke(main, ["recover", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "recover_report.json").read_text())
    assert report["oracle_initialiser"] is True
    assert report["assumption_checks"]["warm_start_ok"] is True
    assert np.isfinite(report["recovery_error_l2"])
    assert (out / "chain.csv").exists() and (out / "dataset.csv").exists()


def test_recover_uniform_phi_flags_non_identifiable(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path, {"problem.phi.type": "uniform",
                          "sampler.n_steps": 40, "sampler.burn_in": 10})
    out = tmp_path / "recuni"
    res = runner.invoke(main, ["recover", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "recover_report.json").read_text())
    assert any("non-identifiable" in w for w in report["warnings"])


def test_recover_strict_mode_warns_tiny_radius(tmp_path):
    runner = CliRunner()
    p = _write(tmp_path, {
        "mode": "strict",
        "constants": {"alpha": 78.0, "beta": 6.0, "zeta": 6.55, "w": 39.5},
        "inference": {"N": 30, "noise_std": 0.05, "alpha": 2.0},
        "sampler": {"gamma": 1.0e-4, "n_steps": 40, "burn_in": 10},
    })
    out = tmp_path / "strict"
    res = runner.invoke(main, ["recover", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "recover_report.json").read_text())
    checks = report["constants_report"]["checks"]
    assert checks["beta_even_ge"] and checks["alpha_window"]
    assert checks["zeta_window"] and checks["w_window"]
    assert any("astronomically small" in w for w in report["warnings"])


def test_seed_override_changes_hash(tmp_path):
    p = _write(tmp_path)
    c1 = ExperimentConfig.from_file(p)
    runner = CliRunner()
    out = tmp_path / "seeded"
    res = runner.invoke(main, ["simulate", "--config", str(p), "--out", str(out),
                               "--seed", "99"])
    assert res.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 99
    assert manifest["config_hash"] != c1.content_hash()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["sample", "recover"])
def test_diverging_chain_exits_three(tmp_path, command):
    runner = CliRunner()
    p = _write(tmp_path, {"sampler.gamma": 1.0e300})
    res = runner.invoke(main, [command, "--config", str(p), "--out", str(tmp_path / "out")])
    assert res.exit_code == 3
    assert "drift diverged" in res.output
    assert "warning: sampler.gamma=1.000e+300 is at or above 2/max(prior precision)" in res.output


# ---------------------------------------------------------------------------
# the one run path: every command ends in a report with the common header,
# or in one `error:` line and its exit code

COMMANDS = {  # command: its extra arguments
    "simulate": [],
    "verify": ["--suite", "surrogate"],
    "gradcheck": [],
    "stability": [],
    "sample": [],
    "recover": [],
}
REPORTS = {"simulate": "manifest.json", "verify": "verify_report.json",
           "gradcheck": "verify_report.json", "stability": "stability_report.json",
           "sample": "sample_manifest.json", "recover": "recover_report.json"}
HEADER = ["version", "config_hash", "config", "derived", "command",
          "runtime_seconds", "warnings"]


def _invoke(command, config, out):
    res = CliRunner().invoke(main, [command, "--config", str(config), "--out", str(out)]
                             + COMMANDS[command])
    assert res.exception is None or isinstance(res.exception, SystemExit), res.output
    assert "Traceback" not in res.output
    return res


def _errors(res):
    return [line for line in res.output.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_report_starts_with_the_common_header(tmp_path, command):
    res = _invoke(command, _write(tmp_path), tmp_path / "out")
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "out" / REPORTS[command]).read_text())
    assert list(report)[:len(HEADER)] == HEADER
    assert report["command"] == ("verify" if command == "gradcheck" else command)
    assert report["runtime_seconds"] > 0 and report["warnings"] == []


@pytest.mark.parametrize("command", COMMANDS)
def test_blowup_exits_three_with_one_error_line(tmp_path, command):
    p = _write(tmp_path, {"problem.W0.amplitude": 2000.0, "solver.M": 8})
    res = _invoke(command, p, tmp_path / "out")
    assert res.exit_code == 3, res.output
    assert _errors(res) == [_errors(res)[0]]
    assert "blew up at step" in _errors(res)[0]


@pytest.mark.parametrize("command", COMMANDS)
def test_bad_phi_exits_one(tmp_path, command):
    res = _invoke(command, _write(tmp_path, {"problem.phi.amplitude": 5.0}),
                  tmp_path / "out")
    assert res.exit_code == 1, res.output
    assert len(_errors(res)) == 1 and _errors(res)[0].startswith("error: problem.phi")


@pytest.mark.parametrize("key, overrides", [
    ("inference.alpha", {"inference.alpha": np.nan}),
    ("problem.phi.zeta", {"problem.phi.zeta": np.nan}),
    ("surrogate.c_hat", {"surrogate.c_hat": np.nan}),
    ("problem.W0.values", {"problem.W0.type": "coeffs",
                           "problem.W0.values": [0.1, np.nan, 0.0, 0.0]}),
])
def test_a_non_finite_config_value_exits_one(tmp_path, key, overrides):
    # YAML writes and reads these as .nan; past the config, a NaN ends in a
    # traceback, a blow-up at step 1 or, through max(), a silent exit 0
    res = _invoke("sample", _write(tmp_path, overrides), tmp_path / "out")
    assert res.exit_code == 1, res.output
    assert len(_errors(res)) == 1 and _errors(res)[0].startswith(f"error: {key} must be finite")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key, overrides", [
    ("constants.beta", {"constants.beta": 0.0}),
    ("constants.alpha", {"constants.alpha": -1.0}),
    ("constants.alpha", {"constants.alpha": -1.5}),
    ("inference.alpha", {"inference.alpha": -1.5}),
    ("surrogate.r", {"surrogate.r": 1.0e-200}),
    ("surrogate.r", {"surrogate.r": 1.0e200}),
    ("constants.w", {"constants.w": -400.0, "mode": "strict"}),
    ("surrogate.c_hat", {"surrogate.c_hat": -1.0}),
    ("surrogate.c1_hat", {"surrogate.c1_hat": -5.0}),
])
def test_a_config_whose_constants_break_a_formula_exits_one(tmp_path, command, key, overrides):
    # past the config, each ends in a ZeroDivisionError or an OverflowError of
    # delta_n, eta_exponent or the lambda floor, some after the body ran; a
    # negative c_hat or c1_hat silently lowers the floor, which max() keeps at
    # N log N / r^2
    out = tmp_path / "out"
    res = _invoke(command, _write(tmp_path, overrides), out)
    assert res.exit_code == 1, res.output
    assert len(_errors(res)) == 1 and _errors(res)[0].startswith(f"error: {key} ")
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_out_naming_an_existing_file_exits_one(tmp_path, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    res = _invoke(command, _write(tmp_path), taken)
    assert res.exit_code == 1, res.output
    assert len(_errors(res)) == 1 and str(taken) in _errors(res)[0]


@pytest.mark.parametrize("command", ["stability", "sample", "recover"])
def test_mean_field_commands_reject_rd(tmp_path, command):
    out = tmp_path / "out"
    res = _invoke(command, _write(tmp_path, {"problem.kind": "rd"}), out)
    assert res.exit_code == 1, res.output
    assert len(_errors(res)) == 1
    assert _errors(res)[0].startswith("error: problem.kind: 'rd'")
    assert _errors(res)[0].endswith("mckv only")
    assert not out.exists()


def test_verify_keeps_handling_rd(tmp_path):
    res = _invoke("verify", _write(tmp_path, {"problem.kind": "rd"}), tmp_path / "out")
    assert res.exit_code == 0, res.output


def test_verify_surrogate_lam_below_the_floor_exits_one(tmp_path):
    # the suite builds the surrogate as the sample command does; its floor is 120 here
    res = _invoke("verify", _write(tmp_path, {"surrogate.lam": 1.0e-3}), tmp_path / "out")
    assert res.exit_code == 1, res.output
    assert len(_errors(res)) == 1 and _errors(res)[0].startswith("error: surrogate.lam:")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_verify_gradients_uniform_reports_zero_derivatives(tmp_path):
    # rho_W = phi for every W: D rho_W[H], H^T D^2 rho_W H and their quotients are 0,
    # with no 0/0
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["verify", "--config",
                                    str(_write(tmp_path, {"problem.phi.type": "uniform"})),
                                    "--out", str(out), "--suite", "gradients"])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "verify_report.json").read_text(),
                        parse_constant=_reject_constant)
    records = {rec["name"]: rec for rec in report["suites"]["gradients"]}
    zero = [f"mckv_{order}_fd_uniform_zero_{i}" for i in range(3)
            for order in ("first", "second")]
    assert [name for name in records if name.startswith("mckv_")] == zero
    assert all(records[name]["measured"] <= 1e-12 for name in zero)


@pytest.mark.parametrize("K", [4, 9])
def test_sample_warns_when_c1_hat_leaves_out_the_hessian_term(tmp_path, K):
    # c1_hat takes the D^2 G term only up to D = 16; at d = 1, D = 2K
    p = _write(tmp_path, {"problem.K": K, "surrogate.c1_hat": None,
                          "sampler": {"gamma": 1.0e-4, "n_steps": 20, "burn_in": 5}})
    res = _invoke("sample", p, tmp_path / "out")
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "out" / "sample_manifest.json").read_text())
    expected = ["c1_hat estimated without the Hessian term (D = 18 > 16)"] if K == 9 else []
    assert [w for w in report["warnings"] if w.startswith("c1_hat")] == expected
    assert ("warning: c1_hat estimated without" in res.output) == (K == 9)


def test_sample_echoes_its_warnings(tmp_path):
    p = _write(tmp_path, {
        "mode": "strict",
        "constants": {"alpha": 78.0, "beta": 6.0, "zeta": 6.55, "w": 39.5},
        "inference": {"N": 30, "noise_std": 0.05, "alpha": 2.0},
        "sampler": {"gamma": 1.0e-4, "n_steps": 40, "burn_in": 10},
    })
    res = _invoke("sample", p, tmp_path / "out")
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "out" / "sample_manifest.json").read_text())
    assert len(report["warnings"]) == 1
    assert f"warning: {report['warnings'][0]}" in res.output
