"""Experiment configuration: line-oriented ``key = value`` files.

The format is deliberately flat and diff-friendly: one ``key = value`` per
line, ``#`` starts a comment anywhere, numeric lists are comma-separated.
The keys are ``ExperimentConfig``'s fields, in field order.  Unknown keys
are errors so typos cannot silently change an experiment.  All dimension
constraints are checked at parse time with messages naming the violated
inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

from .detectors import DetectorKind, kind_list
from .errors import ConfigError
from .montecarlo import _check_calibration_budget, _check_grid
from .scenario import Scenario, check_dimensions, check_integer, check_rho, make_scenario

__all__ = ["ExperimentConfig", "parse_config", "format_config", "build_scenario",
           "DESK_SCALE", "PAPER_SCALE"]

# Trial budgets: a desk-scale preset runs in under a second, paper scale (the
# published protocol: PFA 1e-3, 1e5 calibration / 1e4 PD realizations) in 3-7 s.
DESK_SCALE = {"pfa": 1e-2, "calib_trials": 5_000, "pd_trials": 2_000}
PAPER_SCALE = {"pfa": 1e-3, "calib_trials": 100_000, "pd_trials": 10_000}


class _Key(NamedTuple):
    """How one config key's value is read from and written to its line."""

    parse: Callable[[str], object]  # a ValueError reads "<key> must be <expected>"
    format: Callable[[object], str]
    expected: str | None = None  # None: `parse` raises a ConfigError naming the fault


def _split_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _parse_detectors(value: str) -> tuple[DetectorKind, ...]:
    kinds = []
    for name in _split_list(value):
        if name not in DetectorKind.__members__:
            valid = ", ".join(k.name for k in DetectorKind)
            raise ConfigError(f"unknown detector {name!r} (valid: {valid})")
        kinds.append(DetectorKind[name])
    return tuple(kinds)


_INT = _Key(int, str, "an integer")
# repr of a Python float reads back exactly; a numpy float's repr does not parse
_FLOAT = _Key(float, lambda value: repr(float(value)), "a number")
_GRID = _Key(lambda value: tuple(float(v) for v in _split_list(value)),
             lambda grid: ", ".join(_FLOAT.format(v) for v in grid),
             "a comma-separated list of numbers")
_DETECTORS = _Key(_parse_detectors, lambda kinds: ", ".join(k.name for k in kinds))


def _key(spec: _Key):
    return field(metadata={"key": spec})


@dataclass(frozen=True)
class ExperimentConfig:
    N: int = _key(_INT)
    K: int = _key(_INT)
    M: int = _key(_INT)
    J: int = _key(_INT)
    L: int = _key(_INT)
    rho: float = _key(_FLOAT)
    pfa: float = _key(_FLOAT)
    snr_grid_db: tuple[float, ...] = _key(_GRID)
    calib_trials: int = _key(_INT)
    pd_trials: int = _key(_INT)
    detectors: tuple[DetectorKind, ...] = _key(_DETECTORS)
    master_seed: int = _key(_INT)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, master_seed=check_integer(seed, "seed"))


# In field order: the order in which format_config writes the keys and messages list them.
_KEYS = {f.name: f.metadata["key"] for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a configuration; raises ConfigError."""
    parsed: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} "
                              f"(known keys: {', '.join(_KEYS)})")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {seen[key]})")
        seen[key] = lineno
        try:
            parsed[key] = _KEYS[key].parse(value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} must be {_KEYS[key].expected}, "
                              f"got {value!r}") from None

    missing = [k for k in _KEYS if k not in parsed]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    config = ExperimentConfig(**parsed)  # type: ignore[arg-type]
    _validate(config)
    return config


def _validate(cfg: ExperimentConfig) -> None:
    try:
        check_dimensions(cfg.N, cfg.K, cfg.M, cfg.J, cfg.L, kind_list(cfg.detectors))
        _check_grid(cfg.snr_grid_db)
        _check_calibration_budget(cfg.pfa, cfg.calib_trials)  # implies calib_trials > 20
        check_integer(cfg.pd_trials, "pd_trials", 1)
        check_integer(cfg.master_seed, "master_seed")
        check_rho(cfg.rho)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def format_config(cfg: ExperimentConfig) -> str:
    """Serialize a config to the ``key = value`` format, one line per field in
    field order, which parse_config reads back to an equal config."""
    lines = [f"{key} = {spec.format(getattr(cfg, key))}" for key, spec in _KEYS.items()]
    return "\n".join(lines) + "\n"


def build_scenario(cfg: ExperimentConfig) -> Scenario:
    """Scenario for a config: subspaces drawn once from the master seed."""
    return make_scenario(cfg.N, cfg.K, cfg.M, cfg.J, cfg.L, rho=cfg.rho,
                         seed=cfg.master_seed)
