"""The config schema: every key typed and ranged in one table, checked at load."""

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from mckvlab.cli import main
from mckvlab.config import SCHEMA, ConfigError, ExperimentConfig, Key
from mckvlab.spectral import tau_table

README = Path(__file__).resolve().parents[1] / "README.md"

BASE = {
    "seed": 11,
    "problem": {
        "kind": "mckv", "d": 1, "K": 2, "T": 0.2,
        "phi": {"type": "decay", "zeta": 3.0, "amplitude": 0.3},
        "W0": {"type": "random", "amplitude": 0.3, "decay": 1.0, "seed": 5},
    },
    "solver": {"n": 32, "M": 48},
    "inference": {"N": 30, "noise_std": 0.05},
    "surrogate": {"r": 1.0, "c1_hat": 2.0},
    "sampler": {"gamma": 1.0e-4, "n_steps": 80, "burn_in": 20},
}


def _leaves(schema, block=""):
    for name, key in schema.items():
        path = f"{block}.{name}" if block else name
        if isinstance(key, Key):
            yield path, key
        else:
            yield from _leaves(key, path)


KEYS = dict(_leaves(SCHEMA))


def _with(overrides):
    raw = copy.deepcopy(BASE)
    for path, value in overrides.items():
        node = raw
        *blocks, name = path.split(".")
        for b in blocks:
            node = node.setdefault(b, {})
        node[name] = value
    return raw


def _wrong_types(key: Key):
    if isinstance(key.type, tuple):
        bad = [1, 2.5] if isinstance(key.type[0], str) else ["1", 1.0, True]
    else:
        bad = {int: [2.5, 2.0, "2", True], float: ["abc", "1e-4", True, [1.0]],
               str: [7, True], list: ["abc", [1.0, "x"], [True]]}[key.type]
    return bad if key.null else bad + [None]


def _out_of_range(key: Key):
    if isinstance(key.type, tuple):
        return ["bogus"] if isinstance(key.type[0], str) else [0, 4]
    if key.range is None:
        return []
    op, bound = key.range.split()
    bound = key.type(bound)
    below = [bound - 1] if key.type is int else [bound - 0.5, float("nan")]
    return below + ([bound] if op == ">" else []) + ([5] if key.even else [])


def _cases(make):
    return [(path, bad) for path, key in KEYS.items() for bad in make(key)]


def _rejected(path, value):
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)} must be"):
        ExperimentConfig(raw=_with({path: value}))


def test_base_config_and_every_default_are_valid():
    ExperimentConfig(raw=_with({}))
    cfg = ExperimentConfig(raw={})
    for path, key in KEYS.items():
        node = cfg.raw
        for part in path.split("."):
            node = node[part]
        assert node == key.default


def test_model_is_built_from_the_configured_problem_and_solver():
    cfg = ExperimentConfig(raw=_with({"solver.M": 24}))
    model = cfg.model()
    assert (model.T, model.K, model.stepper) == (0.2, 2, cfg.stepper())
    assert model.stepper.M == 24
    assert np.array_equal(model.phi.coeffs, cfg.phi().coeffs)


@pytest.mark.parametrize("path,value", _cases(_wrong_types), ids=repr)
def test_every_key_rejects_a_value_of_the_wrong_type(path, value):
    _rejected(path, value)


@pytest.mark.parametrize("path,value", _cases(_out_of_range), ids=repr)
def test_every_ranged_key_rejects_a_value_outside_its_range(path, value):
    _rejected(path, value)


def test_blocks_must_be_mappings():
    for path in ("problem", "problem.W0", "problem.phi", "sampler"):
        _rejected(path, None)


def test_float_keys_store_floats_so_equal_values_hash_equally():
    a = ExperimentConfig(raw=_with({"problem.T": 1, "sampler.gamma": 1}))
    b = ExperimentConfig(raw=_with({"problem.T": 1.0, "sampler.gamma": 1.0}))
    assert a.raw == b.raw and a.content_hash() == b.content_hash()
    assert type(a["problem"]["T"]) is float and type(a["sampler"]["gamma"]) is float
    values = ExperimentConfig(raw=_with({"problem.W0.type": "coeffs",
                                         "problem.W0.values": [1, 0, 0, 0]}))
    assert values["problem"]["W0"]["values"] == [1.0, 0.0, 0.0, 0.0]
    assert all(type(v) is float for v in values["problem"]["W0"]["values"])


def test_keys_between_them():
    for overrides in ({"problem.K": 16, "solver.n": 32},
                      {"problem.W0.type": "coeffs", "problem.W0.values": [0.1]},
                      {"sampler.burn_in": 80},
                      {"sampler.burn_in": 70, "sampler.thin": 11}):
        with pytest.raises(ConfigError):
            ExperimentConfig(raw=_with(overrides))
    ExperimentConfig(raw=_with({"problem.K": 15, "solver.n": 32}))
    ExperimentConfig(raw=_with({"sampler.burn_in": 70, "sampler.thin": 10}))


# ---------------------------------------------------------------------------
# the CLI: a bad input ends with "error: <key> ..." and exit code 1


def _invoke(tmp_path, raw, *args):
    p = tmp_path / "exp.yaml"
    p.write_text(yaml.safe_dump(raw) if isinstance(raw, dict) else raw)
    return CliRunner().invoke(main, ["sample", "--config", str(p),
                                     "--out", str(tmp_path / "out"), *args])


def test_yaml_reads_an_exponent_without_a_dot_as_a_string():
    assert yaml.safe_load("gamma: 1e-4") == {"gamma": "1e-4"}
    assert yaml.safe_load("gamma: 1.0e-4") == {"gamma": 1.0e-4}


@pytest.mark.parametrize("key,overrides", [
    ("problem.K", {"problem.K": 2.5}),
    ("solver.M", {"solver.M": 16.7}),
    ("seed", {"seed": 1.5}),
    ("sampler.gamma", {"sampler.gamma": "1e-4"}),
    ("problem.T", {"problem.T": "abc"}),
    ("problem.W0", {"problem.W0": None}),
    ("surrogate.lam", {"surrogate.lam": -1}),
    ("problem.K", {"problem.K": 2.0, "problem.W0": {"type": "coeffs",
                                                    "values": [0.1, 0.2, 0.3, 0.4]}}),
])
def test_cli_reports_the_bad_key_and_exits_one(tmp_path, key, overrides):
    res = _invoke(tmp_path, _with(overrides))
    assert res.exit_code == 1
    assert f"error: {key} must be" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert tau_table(2, 1, 16).dtype.kind == "c"


def test_lam_below_the_admissible_floor_exits_one(tmp_path):
    res = _invoke(tmp_path, _with({"surrogate.lam": 1.0e-6}))
    assert res.exit_code == 1
    assert "error: surrogate.lam: lam 1.000e-06 below the admissible floor" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_density_that_is_not_positive_names_its_block(tmp_path):
    res = _invoke(tmp_path, _with({"problem.phi.amplitude": 5.0}))
    assert res.exit_code == 1
    assert "error: problem.phi: density not strictly positive" in res.output


def test_seed_override_is_validated_with_the_file(tmp_path):
    res = _invoke(tmp_path, _with({}), "--seed", "-1")
    assert res.exit_code == 1
    assert "error: seed must be >= 0" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_seed_and_mode_overrides_reach_the_manifest(tmp_path):
    p = tmp_path / "exp.yaml"
    p.write_text(yaml.safe_dump(_with({})))
    out = tmp_path / "sim"
    res = CliRunner().invoke(main, ["simulate", "--config", str(p), "--out", str(out),
                                    "--seed", "99", "--mode", "strict"])
    assert res.exit_code == 0, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 99 and manifest["config"]["mode"] == "strict"
    expected = ExperimentConfig(raw=_with({"seed": 99, "mode": "strict"}))
    assert manifest["config_hash"] == expected.content_hash()


def test_a_config_that_sets_solver_scheme_exits_one(tmp_path):
    # Lawson-Heun is the one time-stepping scheme, so no key selects it
    res = _invoke(tmp_path, _with({"solver.scheme": "if-heun"}))
    assert res.exit_code == 1
    errors = [line for line in res.output.splitlines() if line.startswith("error:")]
    assert errors == ["error: unknown keys in 'solver': ['scheme']"]
    assert "Traceback" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_non_mapping_config_file_exits_one(tmp_path):
    res = _invoke(tmp_path, "- 1\n- 2\n")
    assert res.exit_code == 1
    assert "must hold a mapping" in res.output


def _readme_config() -> str:
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_config_loads_and_simulates(tmp_path):
    text = _readme_config()
    ExperimentConfig(raw=yaml.safe_load(text))
    p = tmp_path / "readme.yaml"
    p.write_text(text)
    out = tmp_path / "readme"
    res = CliRunner().invoke(main, ["simulate", "--config", str(p), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "trajectory" / "manifest.json").exists()
