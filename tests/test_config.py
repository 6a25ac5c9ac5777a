"""Config loading, override merging, hashing, and builder helpers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spingraph
from spingraph.chain import ChainGeometry, IdealModel, RydbergModel
from spingraph.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    build_guess_spec,
    build_jump_channels,
    build_model,
    build_noise_spec,
    build_target_spec,
    config_hash,
    constants_version,
    default_b0,
    load_config,
)
from spingraph.targets import MAX_TARGET_SITES, TargetForm, complete_graph_state

TWO_PI = 2.0 * np.pi


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.mode == "rydberg"
    assert cfg.n_sites == 3
    assert cfg.t_total is None
    assert build_guess_spec(cfg).kind == "gaussian"
    assert cfg.samples == 50
    assert cfg.base_seed == 0
    assert cfg.gamma_up == pytest.approx(1.0 / 569.0)
    assert cfg.gamma_down == pytest.approx(1.0 / 1100.0)


def test_importing_the_cli_leaves_yaml_unloaded():
    # only load_config reads YAML, so a run without a config file never imports it
    env = {**os.environ, "PYTHONPATH": str(Path(spingraph.__file__).resolve().parents[1])}
    code = "import sys, spingraph.cli; print('yaml' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr


def test_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="classical")
    with pytest.raises(ConfigError):
        ExperimentConfig(guess_kind="triangular")
    with pytest.raises(ConfigError):
        ExperimentConfig(target_form="ghz")
    with pytest.raises(ConfigError):
        ExperimentConfig(n_sites=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_sites=8)


def test_atom_count_limit_is_the_targets_limit():
    # one limit, MAX_TARGET_SITES, behind both messages
    assert ExperimentConfig(n_sites=MAX_TARGET_SITES).n_sites == 7
    for n in (1, 8):
        with pytest.raises(ConfigError, match=r"^n_sites must be in \[2, 7\]$"):
            ExperimentConfig(n_sites=n)
        with pytest.raises(ValueError, match=r"^n_sites must be in \[2, 7\]$"):
            complete_graph_state(n)


def test_python_callers_get_the_config_file_type_check():
    # refused at construction, not as a TypeError deep inside optimize
    with pytest.raises(ConfigError, match="guess.seed must be int, not 1.5"):
        ExperimentConfig(t_total=0.141, guess_kind="random", seed=1.5)
    with pytest.raises(ConfigError, match="run.n_sites must be int"):
        ExperimentConfig(n_sites=True)
    # the same conversions a config file gets
    cfg = ExperimentConfig(t_total=1, position_sigma=[1, 2.5, 3])
    assert type(cfg.t_total) is float
    assert cfg.position_sigma == (1.0, 2.5, 3.0)
    same = ExperimentConfig(t_total=1.0, position_sigma=(1.0, 2.5, 3.0))
    assert config_hash(cfg) == config_hash(same)


def test_load_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "run:\n"
        "  mode: ideal\n"
        "  n_sites: 4\n"
        "  t_total: 2.808\n"
        "guess:\n"
        "  guess_kind: random\n"
        "  seed: 7\n"
        "noise:\n"
        "  position_sigma: [193.5, 193.5, 1242.9]\n"
        "jumps:\n"
        "  gamma_up: 1\n",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg.mode == "ideal"
    assert cfg.n_sites == 4
    assert cfg.t_total == pytest.approx(2.808)
    assert cfg.guess_kind == "random"
    assert cfg.seed == 7
    assert cfg.position_sigma == (193.5, 193.5, 1242.9)
    assert isinstance(cfg.position_sigma, tuple)
    # a YAML int is taken where the field is a float
    assert cfg.gamma_up == 1.0 and type(cfg.gamma_up) is float
    # untouched sections keep their defaults
    assert cfg.samples == 50


def test_load_config_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("", encoding="utf-8")
    assert load_config(path) == ExperimentConfig()


def test_load_config_errors(tmp_path):
    missing = tmp_path / "missing.yaml"
    with pytest.raises(ConfigError):
        load_config(missing)

    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("run: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad_yaml)

    bad_section = tmp_path / "section.yaml"
    bad_section.write_text("simulation:\n  mode: ideal\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(bad_section)

    bad_key = tmp_path / "key.yaml"
    bad_key.write_text("run:\n  sites: 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(bad_key)

    bad_sigma = tmp_path / "sigma.yaml"
    bad_sigma.write_text("noise:\n  position_sigma: [1.0, 2.0]\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="3-item"):
        load_config(bad_sigma)

    flat = tmp_path / "flat.yaml"
    flat.write_text("run: ideal\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="must be a mapping"):
        load_config(flat)


def test_apply_overrides():
    cfg = ExperimentConfig()
    out = apply_overrides(cfg, mode="ideal", n_sites=5, t_total=3.386)
    assert out.mode == "ideal"
    assert out.n_sites == 5
    assert out.t_total == pytest.approx(3.386)
    # None values leave the field alone
    same = apply_overrides(cfg, mode=None, t_total=None)
    assert same == cfg
    with pytest.raises(ConfigError, match="unknown config field"):
        apply_overrides(cfg, sites=3)


def test_config_hash_stability_and_sensitivity():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    c = apply_overrides(a, seed=2)
    assert config_hash(c) != config_hash(a)


def test_build_model():
    ideal = build_model(ExperimentConfig(mode="ideal", n_sites=4))
    assert isinstance(ideal, IdealModel)
    assert ideal.n_sites == 4
    assert ideal.coupling == 1.0
    ryd = build_model(ExperimentConfig(mode="rydberg", n_sites=3))
    assert isinstance(ryd, RydbergModel)
    assert ryd.geometry.n_sites == 3
    assert np.array_equal(ryd.geometry.positions, ChainGeometry.regular(3).positions)
    assert constants_version(ExperimentConfig()) == "rydberg-constants-v1"


def test_default_b0():
    assert default_b0(ExperimentConfig(mode="ideal")) == 1.0
    assert default_b0(ExperimentConfig(mode="rydberg")) == pytest.approx(TWO_PI)
    assert default_b0(ExperimentConfig(guess_b0=5.5)) == pytest.approx(5.5)


def test_build_guess_spec():
    spec = build_guess_spec(
        ExperimentConfig(guess_kind="random", seed=3, guess_slices=100)
    )
    assert spec.kind == "random"
    assert spec.seed == 3
    assert spec.n_slices == 100
    assert spec.b0 == pytest.approx(TWO_PI)


def test_build_noise_spec():
    spec = build_noise_spec(
        ExperimentConfig(
            position_sigma=(1.0, 2.0, 3.0), field_sigma=0.5, samples=10, base_seed=4
        )
    )
    assert spec.position_sigma == (1.0, 2.0, 3.0)
    assert spec.field_sigma == pytest.approx(0.5)
    assert spec.samples == 10
    assert spec.base_seed == 4


def test_build_jump_channels():
    jumps = build_jump_channels(ExperimentConfig(gamma_up=0.1, gamma_down=0.2))
    assert jumps.channels == (("up", "g", 0.1), ("down", "g", 0.2))


def test_build_target_spec():
    spec = build_target_spec(ExperimentConfig(n_sites=5, target_form="cz-circuit"))
    assert spec == TargetForm.CZ_CIRCUIT
