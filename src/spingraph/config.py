"""Experiment configuration: file loading, override merging, hashing.

A config file is YAML with nested sections (run, guess, noise, jumps,
constants, output). Command-line overrides win over file values. The
sha256 hash of the fully merged config is embedded in every output file,
together with the interaction-constants version, so any emitted number
can be traced back to the inputs that produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import yaml

from .chain import (
    DEFAULT_CONSTANTS,
    TWO_PI,
    ChainGeometry,
    IdealModel,
    ModelKind,
    PhysicalConstants,
    RydbergModel,
)
from .dynamics import GAMMA_DOWN, GAMMA_UP, JumpChannels, NoiseSpec
from .grape import GuessSpec
from .targets import TargetForm

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "load_config",
    "apply_overrides",
    "config_hash",
    "build_model",
    "build_guess_spec",
    "build_noise_spec",
    "build_jump_channels",
    "build_target_spec",
    "constants_version",
    "default_b0",
    "config_from_mapping",
]


class ConfigError(ValueError):
    """Config file or override set cannot be interpreted."""


@dataclass(frozen=True)
class ExperimentConfig:
    # run
    mode: str = "rydberg"
    n_sites: int = 3
    t_total: float | None = None
    target_form: str = "operator-product"
    coupling: float = 1.0
    # guess
    guess_kind: str = "gaussian"
    guess_b0: float | None = None
    guess_sigma: float = 0.1
    guess_slices: int | None = None
    seed: int = 1
    # scan
    t_min: float = 0.05
    t_max: float = 0.75
    scan_steps: int = 71
    # noise
    position_sigma: tuple[float, float, float] = (0.0, 0.0, 0.0)
    field_sigma: float = 0.0
    samples: int = 50
    base_seed: int = 0
    delta_r: float | None = None
    # jumps
    gamma_up: float = GAMMA_UP
    gamma_down: float = GAMMA_DOWN
    # constants overrides (None keeps the package defaults)
    spacing: float | None = None
    c3: float | None = None
    c6_up: float | None = None
    c6_down: float | None = None
    # output
    output_dir: str = "."

    def __post_init__(self) -> None:
        if self.mode not in ("ideal", "rydberg"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.guess_kind not in ("gaussian", "random"):
            raise ConfigError(f"unknown guess kind {self.guess_kind!r}")
        if self.target_form not in ("operator-product", "cz-circuit"):
            raise ConfigError(f"unknown target form {self.target_form!r}")
        if not 2 <= self.n_sites <= 7:
            raise ConfigError("n_sites must be in [2, 7]")


_SECTIONS = {
    "run": ("mode", "n_sites", "t_total", "target_form", "coupling"),
    "guess": ("guess_kind", "guess_b0", "guess_sigma", "guess_slices", "seed"),
    "scan": ("t_min", "t_max", "scan_steps"),
    "noise": ("position_sigma", "field_sigma", "samples", "base_seed", "delta_r"),
    "jumps": ("gamma_up", "gamma_down"),
    "constants": ("spacing", "c3", "c6_up", "c6_down"),
    "output": ("output_dir",),
}

_FIELD_TO_SECTION = {
    name: section for section, names in _SECTIONS.items() for name in names
}


def config_from_mapping(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    kwargs = {}
    for section, content in data.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key, value in content.items():
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
            kwargs[key] = value
    if "position_sigma" in kwargs and kwargs["position_sigma"] is not None:
        sig = kwargs["position_sigma"]
        if not (isinstance(sig, (list, tuple)) and len(sig) == 3):
            raise ConfigError("position_sigma must be a 3-item list")
        kwargs["position_sigma"] = tuple(float(s) for s in sig)
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from None
    if data is None:
        data = {}
    return config_from_mapping(data)


def apply_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Replace fields with any non-None override values."""
    updates = {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FIELD_TO_SECTION:
            raise ConfigError(f"unknown config field {key!r}")
        updates[key] = value
    if not updates:
        return config
    return replace(config, **updates)


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _constants(config: ExperimentConfig) -> PhysicalConstants:
    base = DEFAULT_CONSTANTS
    fields = {}
    for name in ("spacing", "c3", "c6_up", "c6_down"):
        value = getattr(config, name)
        if value is not None:
            fields[name] = float(value)
    if not fields:
        return base
    fields["version"] = base.version + "+custom"
    return replace(base, **fields)


def build_model(config: ExperimentConfig) -> ModelKind:
    if config.mode == "ideal":
        return IdealModel(n_sites=config.n_sites, coupling=config.coupling)
    geometry = ChainGeometry.regular(config.n_sites, constants=_constants(config))
    return RydbergModel(geometry=geometry)


def default_b0(config: ExperimentConfig) -> float:
    # guess amplitude scale: the coupling in ideal mode, 2 pi rad/us otherwise
    if config.guess_b0 is not None:
        return config.guess_b0
    return abs(config.coupling) if config.mode == "ideal" else TWO_PI


def build_guess_spec(config: ExperimentConfig) -> GuessSpec:
    return GuessSpec(
        kind=config.guess_kind,
        b0=default_b0(config),
        sigma_g=config.guess_sigma,
        seed=config.seed,
        n_slices=config.guess_slices,
    )


def build_noise_spec(config: ExperimentConfig) -> NoiseSpec:
    return NoiseSpec(
        position_sigma=config.position_sigma,
        field_sigma=config.field_sigma,
        samples=config.samples,
        base_seed=config.base_seed,
        delta_r=config.delta_r,
    )


def build_jump_channels(config: ExperimentConfig) -> JumpChannels:
    return JumpChannels(
        channels=(("up", "g", config.gamma_up), ("down", "g", config.gamma_down))
    )


def build_target_spec(config: ExperimentConfig) -> TargetForm:
    return TargetForm(config.target_form)


def constants_version(config: ExperimentConfig) -> str:
    return _constants(config).version
