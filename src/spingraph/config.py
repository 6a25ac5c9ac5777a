"""Experiment configuration: file loading, override merging, hashing.

A config file is YAML with nested sections (run, guess, scan, noise,
jumps, output) whose keys are the destinations of the command-line flags.
Command-line overrides win over file values. The
sha256 hash of the fully merged config, and of the schedule a command read
from a file, is embedded in every output file, together with the
interaction-constants version, so any emitted number can be traced back
to the inputs that produced it.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import asdict, dataclass, replace

import yaml

from .chain import (
    CONSTANTS_VERSION,
    TWO_PI,
    ChainGeometry,
    IdealModel,
    ModelKind,
    RydbergModel,
)
from .dynamics import GAMMA_DOWN, GAMMA_UP, JumpChannels, NoiseSpec
from .grape import ControlSchedule, GuessSpec
from .targets import MAX_TARGET_SITES, TargetForm

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
    # guess (None: the command's default kind)
    guess_kind: str | None = None
    guess_b0: float | None = None
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
    # jumps
    gamma_up: float = GAMMA_UP
    gamma_down: float = GAMMA_DOWN
    # output
    output_dir: str = "."

    def __post_init__(self) -> None:
        # one type check for config files, overrides and Python callers
        for name, hint in _FIELD_TYPES.items():
            value = _checked(f"{_SECTION_OF[name]}.{name}", hint, getattr(self, name))
            object.__setattr__(self, name, value)
        if self.mode not in ("ideal", "rydberg"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.guess_kind not in (None, "gaussian", "random"):
            raise ConfigError(f"unknown guess kind {self.guess_kind!r}")
        if self.target_form not in ("operator-product", "cz-circuit"):
            raise ConfigError(f"unknown target form {self.target_form!r}")
        if not 2 <= self.n_sites <= MAX_TARGET_SITES:
            raise ConfigError(f"n_sites must be in [2, {MAX_TARGET_SITES}]")


_SECTIONS = {
    "run": ("mode", "n_sites", "t_total", "target_form"),
    "guess": ("guess_kind", "guess_b0", "guess_slices", "seed"),
    "scan": ("t_min", "t_max", "scan_steps"),
    "noise": ("position_sigma", "field_sigma", "samples", "base_seed"),
    "jumps": ("gamma_up", "gamma_down"),
    "output": ("output_dir",),
}

_SECTION_OF = {key: section for section, keys in _SECTIONS.items() for key in keys}

_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _checked(name: str, hint, value):
    """The value of a field whose annotation is ``hint``, refused unless it
    has that type; an int stands for a float, a list for a tuple."""
    if typing.get_origin(hint) is tuple:
        items = typing.get_args(hint)
        if not (isinstance(value, (list, tuple)) and len(value) == len(items)):
            raise ConfigError(f"{name} must be a {len(items)}-item list")
        return tuple(_checked(name, item, v) for item, v in zip(items, value))
    allowed = typing.get_args(hint) or (hint,)
    if type(value) in allowed:
        return value
    if type(value) is int and float in allowed:
        return float(value)
    names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
    raise ConfigError(f"{name} must be {names}, not {value!r}")


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
    return ExperimentConfig(**kwargs)


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
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config field {key!r}")
        updates[key] = value
    return replace(config, **updates)


def config_hash(config: ExperimentConfig, schedule: ControlSchedule | None = None) -> str:
    """sha256 of the merged config, and of a schedule read from a file when
    one is given: its duration and amplitudes are inputs the config does
    not hold."""
    record = asdict(config)
    if schedule is not None:
        record["schedule"] = {"T": schedule.t_total, "amplitudes": schedule.amplitudes.tolist()}
    canonical = json.dumps(record, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_model(config: ExperimentConfig) -> ModelKind:
    if config.mode == "ideal":
        return IdealModel(n_sites=config.n_sites)
    return RydbergModel(geometry=ChainGeometry.regular(config.n_sites))


def default_b0(config: ExperimentConfig) -> float:
    # guess amplitude scale: J = 1 in ideal mode, 2 pi rad/us otherwise
    if config.guess_b0 is not None:
        return config.guess_b0
    return 1.0 if config.mode == "ideal" else TWO_PI


def build_guess_spec(config: ExperimentConfig) -> GuessSpec:
    return GuessSpec(
        kind=config.guess_kind or "gaussian",
        b0=default_b0(config),
        seed=config.seed,
        n_slices=config.guess_slices,
    )


def build_noise_spec(config: ExperimentConfig) -> NoiseSpec:
    return NoiseSpec(
        position_sigma=config.position_sigma,
        field_sigma=config.field_sigma,
        samples=config.samples,
        base_seed=config.base_seed,
    )


def build_jump_channels(config: ExperimentConfig) -> JumpChannels:
    return JumpChannels(
        channels=(("up", "g", config.gamma_up), ("down", "g", config.gamma_down))
    )


def build_target_spec(config: ExperimentConfig) -> TargetForm:
    return TargetForm(config.target_form)


def constants_version(config: ExperimentConfig) -> str:
    return CONSTANTS_VERSION
