"""INI experiment configuration: one section and one config type per subcommand.

``CONFIG_TYPES`` maps each subcommand to a frozen dataclass whose fields are
exactly the keys its command reads; the annotations are the key table.  A
section parses, validates, serializes and hashes only its own type's fields.
A key that only another subcommand's type holds is dropped unread, so one
body can serve several sections; an unknown section or key is rejected so a
typo cannot silently fall back to a default.  A type's ``check(fail)`` calls
``fail(key, message)``, which raises, on the first bad value; it checks the
fields the type declares after ``super().check`` checks the inherited ones.
A canonical serialization (every field written explicitly, fixed order,
``repr`` floats) makes configuration hashes and rerun comparisons
byte-stable: ``serialize(parse(text))`` is a fixed point of ``parse``.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .channel import GaussianMode, load_bd_calibration
from .decay import Tabulated
from .fringes import _STRATEGIES
from .probes import ORACLE_MAX_QUBITS

__all__ = [
    "ConfigError",
    "CONFIG_TYPES",
    "parse_config_text",
    "load_config",
    "serialize_config",
    "config_hash",
]

_MODES = ("analytic", "montecarlo")
_MODEL_KINDS = ("quadratic", "markovian", "tabulated")

_DEFAULT_MARKOVIAN_RATE = math.exp(-0.5)

# Largest noise-sweep table (README): four visibilities at n_max = 1e6 took
# 12 s and 494 MiB.  The crossings are solved for, so they need no longer table.
N_MAX_LIMIT = 1_000_000
# Size caps of the sampling commands, refused before anything is allocated.
# A fringe has theta_points settings, or up to 4 N + 1 by default, and the
# bootstrap holds about 80 bytes per trial and setting: README gives the
# budget at the caps.
QUBITS_LIMIT = 1000
THETA_POINTS_LIMIT = 4 * QUBITS_LIMIT + 1
TRIALS_LIMIT = 1000
# Counts pass through float64 in the estimates and the bootstrap means, which
# holds integers exactly only up to 2**53.
SHOTS_LIMIT = 2**53


class ConfigError(ValueError):
    """A configuration file or value failed validation."""


def _check_table(fail, key: str, path: str, load) -> None:
    """Load the table once, so a bad one fails before any output is made."""
    if not Path(path).is_file():
        fail(key, f"file not found: {path}")
    try:
        load(path)
    except (OSError, ValueError) as exc:
        fail(key, str(exc))


@dataclass(frozen=True)
class _Qubits:
    n_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6)

    def check(self, fail) -> None:
        if not self.n_values or any(not 1 <= n <= QUBITS_LIMIT for n in self.n_values):
            fail("n_values", f"every qubit count must lie in [1, {QUBITS_LIMIT}]")
        if len(set(self.n_values)) != len(self.n_values):
            fail("n_values", "every qubit count must appear once")


@dataclass(frozen=True)
class _Sampling(_Qubits):
    model_kind: str = "quadratic"
    model_coefficient: float = 1.0
    model_csv: str | None = None
    mode: str = "analytic"
    seed: int | None = None
    shots_per_setting: int = 1_000_000
    theta_points: int | None = None

    def check(self, fail) -> None:
        super().check(fail)
        if self.model_kind not in _MODEL_KINDS:
            fail("model_kind", f"must be one of {', '.join(_MODEL_KINDS)}")
        if self.model_kind == "tabulated":
            if self.model_csv is None:
                fail("model_csv", "required for a tabulated model")
            _check_table(fail, "model_csv", self.model_csv, Tabulated.from_csv)
        elif self.model_coefficient <= 0.0:
            fail("model_coefficient", "must be positive")
        if self.mode not in _MODES:
            fail("mode", f"must be one of {', '.join(_MODES)}")
        if not 1 <= self.shots_per_setting <= SHOTS_LIMIT:
            fail("shots_per_setting", f"must lie in [1, {SHOTS_LIMIT}]")
        if (self.theta_points is not None
                and not 5 <= self.theta_points <= THETA_POINTS_LIMIT):
            fail("theta_points", f"must lie in [5, {THETA_POINTS_LIMIT}]")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            fail("seed", "must fit in an unsigned 64-bit integer")
        if self.mode == "montecarlo" and self.seed is None:
            fail("seed", "required when mode is montecarlo")


@dataclass(frozen=True)
class _Resampling(_Sampling):
    trials: int = 200

    def check(self, fail) -> None:
        super().check(fail)
        if not 100 <= self.trials <= TRIALS_LIMIT:
            fail("trials", f"must lie in [100, {TRIALS_LIMIT}]")


@dataclass(frozen=True)
class FringeConfig(_Sampling):
    """``[fringe]``: one parity fringe per qubit number, with its cosine fit."""

    strategy: str = "ghz"
    visibilities: tuple[float, ...] | None = None
    interrogation_time: str = "opt"

    def check(self, fail) -> None:
        super().check(fail)
        if self.strategy not in _STRATEGIES:
            fail("strategy", f"must be one of {', '.join(_STRATEGIES)}")
        if self.visibilities is not None:
            if len(self.visibilities) not in (1, len(self.n_values)):
                fail("visibilities", "give one value, or one per entry of n_values")
            if any(not 0.0 < v <= 1.0 for v in self.visibilities):
                fail("visibilities", "every value must lie in (0, 1]")
        if self.interrogation_time != "opt":
            try:
                t = float(self.interrogation_time)
            except ValueError:
                fail("interrogation_time", "must be 'opt' or a number")
            if not math.isfinite(t) or t < 0.0:
                fail("interrogation_time", "must be finite and >= 0")


@dataclass(frozen=True)
class ScalingConfig(FringeConfig, _Resampling):
    """``[scaling]``: the fringe keys, and the bootstrap's trial count."""

    def check(self, fail) -> None:
        super().check(fail)
        if self.interrogation_time != "opt" and float(self.interrogation_time) == 0.0:
            fail("interrogation_time", "must be positive for scaling")


@dataclass(frozen=True)
class CompareConfig(_Resampling):
    """``[compare-markovian]``: ideal GHZ probes, each at its own optimal time."""

    markovian_rate: float = _DEFAULT_MARKOVIAN_RATE

    def check(self, fail) -> None:
        super().check(fail)
        if self.model_kind == "markovian":
            fail("model_kind", "the test channel must not itself be markovian")
        if self.markovian_rate <= 0.0:
            fail("markovian_rate", "must be positive")


@dataclass(frozen=True)
class NoiseSweepConfig:
    """``[noise-sweep]``: closed-form GHZ advantage per fusion visibility."""

    model_kind: str = "quadratic"
    model_coefficient: float = 1.0
    fusion_visibilities: tuple[float, ...] = (0.9, 0.95, 0.99, 1.0)
    n_max: int = 1000

    def check(self, fail) -> None:
        if self.model_kind != "quadratic":
            fail("model_kind", "sweep bounds assume the quadratic family")
        if self.model_coefficient <= 0.0:
            fail("model_coefficient", "must be positive")
        if not self.fusion_visibilities or any(
                not 0.0 < v <= 1.0 for v in self.fusion_visibilities):
            fail("fusion_visibilities", "every value must lie in (0, 1]")
        if len(set(self.fusion_visibilities)) != len(self.fusion_visibilities):
            fail("fusion_visibilities", "every value must appear once")
        if not 1 <= self.n_max <= N_MAX_LIMIT:
            fail("n_max", f"must lie in [1, {N_MAX_LIMIT}]")


@dataclass(frozen=True)
class WitnessConfig(_Qubits):
    """``[witness]``: a direct value, three setting values, or the oracle."""

    witness_value: float | None = None
    x_expectation: float | None = None
    p_all_zero: float | None = None
    p_all_one: float | None = None
    fusion_visibility: float | None = None

    def check(self, fail) -> None:
        super().check(fail)
        for key, lo, hi in (("witness_value", -1.0, 3.0), ("x_expectation", -1.0, 1.0),
                            ("p_all_zero", 0.0, 1.0), ("p_all_one", 0.0, 1.0)):
            value = getattr(self, key)
            if value is not None and not lo <= value <= hi:
                fail(key, f"must lie in [{lo:g}, {hi:g}]")
        if self.fusion_visibility is not None and not 0.0 < self.fusion_visibility <= 1.0:
            fail("fusion_visibility", "must lie in (0, 1]")
        settings = (self.x_expectation, self.p_all_zero, self.p_all_one)
        has_settings = all(v is not None for v in settings)
        if any(v is not None for v in settings) and not has_settings:
            fail("x_expectation",
                 "x_expectation, p_all_zero, and p_all_one go together")
        if has_settings and self.p_all_zero + self.p_all_one > 1.0 + 1e-12:
            fail("p_all_one", "p_all_zero and p_all_one cannot exceed 1 in total")
        if self.witness_value is None and not has_settings:
            if self.fusion_visibility is None:
                fail("witness_value",
                     "give witness_value, the three setting values, or fusion_visibility")
            if any(n < 2 for n in self.n_values):
                fail("n_values", "the witness needs at least 2 qubits")
            # kept: `oracle` rows name the dense oracle the closed form is pinned to
            if any(n > ORACLE_MAX_QUBITS for n in self.n_values):
                fail("n_values", "the dense-matrix oracle holds at most "
                     f"{ORACLE_MAX_QUBITS} qubits")


@dataclass(frozen=True)
class CalibrationConfig:
    """``[channel-calibration]``: Gaussian waist and displacer table."""

    waist_mm: float = 1.05
    table_csv: str | None = None

    def check(self, fail) -> None:
        try:
            GaussianMode(self.waist_mm)
        except ValueError as exc:
            fail("waist_mm", str(exc))
        if self.table_csv is not None:
            _check_table(fail, "table_csv", self.table_csv, load_bd_calibration)


# Each subcommand's section is read into its own type.
CONFIG_TYPES = {
    "fringe": FringeConfig,
    "scaling": ScalingConfig,
    "compare-markovian": CompareConfig,
    "noise-sweep": NoiseSweepConfig,
    "witness": WitnessConfig,
    "channel-calibration": CalibrationConfig,
}


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
        if hi - lo >= QUBITS_LIMIT:
            raise ConfigError(f"[{section}] {key}: range {raw!r} holds more "
                              f"than {QUBITS_LIMIT} values")
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
        raise TypeError(f"config field {name}: no parser for {hint}") from None


# A key's annotation, and so its parser, is the same in every type that holds it.
_PARSERS = {name: _parser_for(name, hint) for cls in CONFIG_TYPES.values()
            for name, hint in typing.get_type_hints(cls).items()}
_OPTIONAL = {f.name for cls in CONFIG_TYPES.values() for f in fields(cls)
             if f.default is None}
_KEYS = {section: {f.name for f in fields(cls)}
         for section, cls in CONFIG_TYPES.items()}


def parse_config_text(text: str) -> dict[str, object]:
    """Parse an INI document into one config per present section."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    configs: dict[str, object] = {}
    for section in parser.sections():
        if section not in CONFIG_TYPES:
            raise ConfigError(
                f"unknown section [{section}]; expected one of {', '.join(CONFIG_TYPES)}"
            )
        values: dict[str, object] = {}
        for key, raw in parser.items(section):
            if key not in _PARSERS:
                raise ConfigError(f"[{section}] {key}: unknown key")
            if key not in _KEYS[section]:
                continue  # another subcommand's key: dropped unread
            if _is_none(raw):
                if key in _OPTIONAL:
                    values[key] = None
                    continue
                raise ConfigError(f"[{section}] {key}: value required")
            values[key] = _PARSERS[key](section, key, raw)
        configs[section] = CONFIG_TYPES[section](**values)
    return configs


def load_config(path, section: str, overrides: dict | None = None) -> object:
    """Load one section (defaults when the file or section is absent).

    ``overrides`` maps fields of the section's type to already-typed values
    (command-line flags); a ``None`` value is skipped.  They are applied
    after the file, and the result's ``check`` raises ConfigError naming
    ``[section] key`` on the first bad value.
    """
    if section not in CONFIG_TYPES:
        raise ConfigError(f"unknown subcommand {section!r}")
    cfg = CONFIG_TYPES[section]()
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        configs = parse_config_text(p.read_text())
        if section in configs:
            cfg = configs[section]
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})

    def fail(key: str, message: str) -> typing.NoReturn:
        raise ConfigError(f"[{section}] {key}: {message}")
    cfg.check(fail)
    return cfg


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def serialize_config(cfg, section: str) -> str:
    """Canonical single-section INI text (every field, fixed order)."""
    lines = [f"[{section}]"]
    for f in fields(cfg):
        lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def config_hash(cfg, section: str) -> str:
    """SHA-256 of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg, section).encode()).hexdigest()
