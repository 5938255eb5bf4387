"""INI experiment configuration: one section per subcommand.

Every run is described by a flat key/value section.  Unknown sections or keys
are rejected so typos cannot silently fall back to defaults.  A canonical
serialization (every field written explicitly, fixed order, ``repr`` floats)
makes configuration hashes and rerun comparisons byte-stable:
``serialize(parse(text))`` is a fixed point of ``parse``.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .fringes import _STRATEGIES
from .probes import ORACLE_MAX_QUBITS

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SUBCOMMANDS",
    "parse_config_text",
    "load_config",
    "serialize_config",
    "config_hash",
]

SUBCOMMANDS = (
    "fringe",
    "scaling",
    "compare-markovian",
    "noise-sweep",
    "witness",
    "channel-calibration",
)

_MODES = ("analytic", "montecarlo")
_MODEL_KINDS = ("quadratic", "markovian", "tabulated")
_SAMPLING_COMMANDS = ("fringe", "scaling", "compare-markovian")

_DEFAULT_MARKOVIAN_RATE = math.exp(-0.5)


class ConfigError(ValueError):
    """A configuration file or value failed validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs for one subcommand run (unused fields are ignored)."""

    strategy: str = "ghz"
    n_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    model_kind: str = "quadratic"
    model_coefficient: float = 1.0
    model_csv: str | None = None
    markovian_rate: float = _DEFAULT_MARKOVIAN_RATE
    interrogation_time: str = "opt"
    shots_per_setting: int = 1_000_000
    theta_points: int | None = None
    trials: int = 200
    seed: int | None = None
    visibilities: tuple[float, ...] | None = None
    fusion_visibility: float | None = None
    fusion_visibilities: tuple[float, ...] = (0.9, 0.95, 0.99, 1.0)
    n_max: int = 1000
    witness_value: float | None = None
    x_expectation: float | None = None
    p_all_zero: float | None = None
    p_all_one: float | None = None
    waist_mm: float = 1.05
    table_csv: str | None = None
    mode: str = "analytic"
    out_dir: str = "out"


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: value must be finite")
    return value


def _parse_int_list(section: str, key: str, raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if ".." in raw and "," not in raw:
        lo_txt, _, hi_txt = raw.partition("..")
        lo = _parse_int(section, key, lo_txt.strip())
        hi = _parse_int(section, key, hi_txt.strip())
        if hi < lo:
            raise ConfigError(f"[{section}] {key}: empty range {raw!r}")
        return tuple(range(lo, hi + 1))
    items = [c.strip() for c in raw.split(",") if c.strip()]
    if not items:
        raise ConfigError(f"[{section}] {key}: expected a list of integers")
    return tuple(_parse_int(section, key, item) for item in items)


def _parse_float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    items = [c.strip() for c in raw.split(",") if c.strip()]
    if not items:
        raise ConfigError(f"[{section}] {key}: expected a list of numbers")
    return tuple(_parse_float(section, key, item) for item in items)


def _is_none(raw: str) -> bool:
    return raw.strip().lower() in ("", "none")


_TYPE_PARSERS = {
    str: lambda s, k, v: v.strip(),
    int: _parse_int,
    float: _parse_float,
    tuple[int, ...]: _parse_int_list,
    tuple[float, ...]: _parse_float_list,
}
_TYPE_PARSERS |= {hint | None: parser for hint, parser in _TYPE_PARSERS.items()}


def _parser_for(name: str, hint):
    try:
        return _TYPE_PARSERS[hint]
    except KeyError:
        raise TypeError(f"ExperimentConfig.{name}: no parser for {hint}") from None


_PARSERS = {name: _parser_for(name, hint)
            for name, hint in typing.get_type_hints(ExperimentConfig).items()}
_OPTIONAL = {f.name for f in fields(ExperimentConfig) if f.default is None}


def parse_config_text(text: str) -> dict[str, ExperimentConfig]:
    """Parse an INI document into one config per present section."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    configs: dict[str, ExperimentConfig] = {}
    for section in parser.sections():
        if section not in SUBCOMMANDS:
            raise ConfigError(
                f"unknown section [{section}]; expected one of {', '.join(SUBCOMMANDS)}"
            )
        values: dict[str, object] = {}
        for key, raw in parser.items(section):
            if key not in _PARSERS:
                raise ConfigError(f"[{section}] {key}: unknown key")
            if _is_none(raw):
                if key in _OPTIONAL:
                    values[key] = None
                    continue
                raise ConfigError(f"[{section}] {key}: value required")
            values[key] = _PARSERS[key](section, key, raw)
        configs[section] = ExperimentConfig(**values)
    return configs


def load_config(path, section: str, overrides: dict | None = None) -> ExperimentConfig:
    """Load one section (defaults when the file or section is absent).

    ``overrides`` maps field names to already-typed values (command-line
    flags); they are applied after the file and validated together.
    """
    if section not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {section!r}")
    cfg = ExperimentConfig()
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        configs = parse_config_text(p.read_text())
        if section in configs:
            cfg = configs[section]
    if overrides:
        names = {f.name for f in fields(cfg)}
        for key in overrides:
            if key not in names:
                raise ConfigError(f"unknown override {key!r}")
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    validate_config(cfg, section)
    return cfg


def validate_config(cfg: ExperimentConfig, section: str) -> None:
    """Domain checks with field-path error messages."""
    def fail(key: str, message: str) -> None:
        raise ConfigError(f"[{section}] {key}: {message}")

    if cfg.strategy not in _STRATEGIES:
        fail("strategy", f"must be one of {', '.join(_STRATEGIES)}")
    if cfg.mode not in _MODES:
        fail("mode", f"must be one of {', '.join(_MODES)}")
    if cfg.model_kind not in _MODEL_KINDS:
        fail("model_kind", f"must be one of {', '.join(_MODEL_KINDS)}")
    if not cfg.n_values or any(n < 1 for n in cfg.n_values):
        fail("n_values", "every qubit count must be >= 1")
    if len(set(cfg.n_values)) != len(cfg.n_values):
        fail("n_values", "every qubit count must appear once")
    if cfg.model_kind == "tabulated":
        if cfg.model_csv is None:
            fail("model_csv", "required for a tabulated model")
        if not Path(cfg.model_csv).is_file():
            fail("model_csv", f"file not found: {cfg.model_csv}")
    elif cfg.model_coefficient <= 0.0:
        fail("model_coefficient", "must be positive")
    if cfg.markovian_rate <= 0.0:
        fail("markovian_rate", "must be positive")
    if cfg.interrogation_time != "opt":
        try:
            t = float(cfg.interrogation_time)
        except ValueError:
            fail("interrogation_time", "must be 'opt' or a number")
        else:
            if not math.isfinite(t) or t < 0.0:
                fail("interrogation_time", "must be finite and >= 0")
            if t == 0.0 and section == "scaling":
                fail("interrogation_time", "must be positive for scaling")
    if cfg.shots_per_setting < 1:
        fail("shots_per_setting", "must be >= 1")
    if cfg.theta_points is not None and cfg.theta_points < 5:
        fail("theta_points", "need at least 5 points")
    if cfg.trials < 100:
        fail("trials", "need at least 100 resampling trials")
    if cfg.seed is not None and not 0 <= cfg.seed < 2**64:
        fail("seed", "must fit in an unsigned 64-bit integer")
    if cfg.visibilities is not None:
        if len(cfg.visibilities) not in (1, len(cfg.n_values)):
            fail("visibilities", "give one value, or one per entry of n_values")
        if any(not 0.0 < v <= 1.0 for v in cfg.visibilities):
            fail("visibilities", "every value must lie in (0, 1]")
    if cfg.fusion_visibility is not None and not 0.0 < cfg.fusion_visibility <= 1.0:
        fail("fusion_visibility", "must lie in (0, 1]")
    if not cfg.fusion_visibilities or any(
            not 0.0 < v <= 1.0 for v in cfg.fusion_visibilities):
        fail("fusion_visibilities", "every value must lie in (0, 1]")
    if len(set(cfg.fusion_visibilities)) != len(cfg.fusion_visibilities):
        fail("fusion_visibilities", "every value must appear once")
    if cfg.n_max < 1:
        fail("n_max", "must be >= 1")
    if cfg.waist_mm <= 0.0 or not math.isfinite(cfg.waist_mm):
        fail("waist_mm", "must be finite and positive")
    if cfg.table_csv is not None and not Path(cfg.table_csv).is_file():
        fail("table_csv", f"file not found: {cfg.table_csv}")
    for key, lo, hi in (("witness_value", -1.0, 3.0), ("x_expectation", -1.0, 1.0),
                        ("p_all_zero", 0.0, 1.0), ("p_all_one", 0.0, 1.0)):
        value = getattr(cfg, key)
        if value is not None and not lo <= value <= hi:
            fail(key, f"must lie in [{lo:g}, {hi:g}]")

    if section in _SAMPLING_COMMANDS and cfg.mode == "montecarlo" and cfg.seed is None:
        fail("seed", "required when mode is montecarlo")
    if section == "witness":
        settings = (cfg.x_expectation, cfg.p_all_zero, cfg.p_all_one)
        has_settings = all(v is not None for v in settings)
        if any(v is not None for v in settings) and not has_settings:
            fail("x_expectation",
                 "x_expectation, p_all_zero, and p_all_one go together")
        if has_settings and cfg.p_all_zero + cfg.p_all_one > 1.0 + 1e-12:
            fail("p_all_one", "p_all_zero and p_all_one cannot exceed 1 in total")
        if cfg.witness_value is None and not has_settings and cfg.fusion_visibility is None:
            fail("witness_value",
                 "give witness_value, the three setting values, or fusion_visibility")
        if cfg.witness_value is None and not has_settings \
                and cfg.fusion_visibility is not None:
            if any(n < 2 for n in cfg.n_values):
                fail("n_values", "the witness needs at least 2 qubits")
            if any(n > ORACLE_MAX_QUBITS for n in cfg.n_values):
                fail("n_values", "the dense-matrix oracle holds at most "
                     f"{ORACLE_MAX_QUBITS} qubits")


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig, section: str) -> str:
    """Canonical single-section INI text (every field, fixed order)."""
    lines = [f"[{section}]"]
    for f in fields(cfg):
        lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig, section: str) -> str:
    """SHA-256 of the canonical serialization.

    The output directory is excluded: it locates the results but is not part
    of the experiment, and reruns into different directories must hash alike.
    """
    text = serialize_config(cfg, section)
    kept = [line for line in text.splitlines() if not line.startswith("out_dir =")]
    return hashlib.sha256(("\n".join(kept) + "\n").encode()).hexdigest()
