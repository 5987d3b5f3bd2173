"""Experiment configuration: line-oriented ``key = value`` files.

The format is deliberately flat and diff-friendly: one ``key = value`` per
line, ``#`` starts a comment anywhere, numeric lists are comma-separated.
Unknown keys are errors so typos cannot silently change an experiment.
All dimension constraints are checked at parse time with messages naming
the violated inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .detectors import DetectorKind
from .errors import ConfigError
from .montecarlo import _check_calibration_budget, _check_grid
from .scenario import Scenario, check_dimensions, make_scenario

__all__ = ["ExperimentConfig", "parse_config", "format_config", "build_scenario",
           "DESK_SCALE", "PAPER_SCALE"]

# Trial budgets: desk scale answers in minutes on a laptop, paper scale is
# the published protocol (PFA 1e-3, 1e5 calibration / 1e4 PD realizations).
DESK_SCALE = {"pfa": 1e-2, "calib_trials": 5_000, "pd_trials": 2_000}
PAPER_SCALE = {"pfa": 1e-3, "calib_trials": 100_000, "pd_trials": 10_000}

_INT_KEYS = ("N", "K", "M", "J", "L", "calib_trials", "pd_trials", "master_seed")
_FLOAT_KEYS = ("rho", "pfa")
_ALL_KEYS = _INT_KEYS + _FLOAT_KEYS + ("snr_grid_db", "detectors", "output_path")
_REQUIRED_KEYS = tuple(k for k in _ALL_KEYS if k != "output_path")


@dataclass(frozen=True)
class ExperimentConfig:
    N: int
    K: int
    M: int
    J: int
    L: int
    rho: float
    pfa: float
    snr_grid_db: tuple[float, ...]
    calib_trials: int
    pd_trials: int
    detectors: tuple[DetectorKind, ...]
    master_seed: int
    output_path: str | None = None

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, master_seed=int(seed))


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
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} "
                              f"(known keys: {', '.join(_ALL_KEYS)})")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {seen[key]})")
        seen[key] = lineno
        parsed[key] = _parse_value(key, value, lineno)

    missing = [k for k in _REQUIRED_KEYS if k not in parsed]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    config = ExperimentConfig(**parsed)  # type: ignore[arg-type]
    _validate(config)
    return config


def _parse_value(key: str, value: str, lineno: int):
    if key in _INT_KEYS:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} must be an integer, "
                              f"got {value!r}") from None
    if key in _FLOAT_KEYS:
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} must be a number, "
                              f"got {value!r}") from None
    if key == "snr_grid_db":
        try:
            return tuple(float(v) for v in _split_list(value))
        except ValueError:
            raise ConfigError(f"line {lineno}: snr_grid_db must be a "
                              f"comma-separated list of numbers, got {value!r}") from None
    if key == "detectors":
        kinds = []
        for name in _split_list(value):
            try:
                kinds.append(DetectorKind[name])
            except KeyError:
                valid = ", ".join(k.name for k in DetectorKind)
                raise ConfigError(f"line {lineno}: unknown detector {name!r} "
                                  f"(valid: {valid})") from None
        return tuple(kinds)
    if not value:
        raise ConfigError(f"line {lineno}: output_path is empty")
    return value


def _split_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _validate(cfg: ExperimentConfig) -> None:
    try:
        check_dimensions(cfg.N, cfg.K, cfg.M, cfg.J, cfg.L, cfg.detectors)
        _check_grid(cfg.snr_grid_db)
        _check_calibration_budget(cfg.pfa, cfg.calib_trials)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not 0.0 <= cfg.rho < 1.0:
        raise ConfigError(f"rho must lie in [0, 1), got {cfg.rho}")
    if cfg.calib_trials < 1 or cfg.pd_trials < 1:
        raise ConfigError("calib_trials and pd_trials must be positive")
    if cfg.master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {cfg.master_seed}")
    if not cfg.detectors:
        raise ConfigError("empty detector list")
    if len(set(cfg.detectors)) != len(cfg.detectors):
        raise ConfigError("duplicate detector in list")


def format_config(cfg: ExperimentConfig) -> str:
    """Serialize a config back to the ``key = value`` format (round-trips)."""
    lines = [
        f"N = {cfg.N}",
        f"K = {cfg.K}",
        f"M = {cfg.M}",
        f"J = {cfg.J}",
        f"L = {cfg.L}",
        f"rho = {cfg.rho!r}",
        f"pfa = {cfg.pfa!r}",
        "snr_grid_db = " + ", ".join(repr(v) for v in cfg.snr_grid_db),
        f"calib_trials = {cfg.calib_trials}",
        f"pd_trials = {cfg.pd_trials}",
        "detectors = " + ", ".join(kind.name for kind in cfg.detectors),
        f"master_seed = {cfg.master_seed}",
    ]
    if cfg.output_path is not None:
        lines.append(f"output_path = {cfg.output_path}")
    return "\n".join(lines) + "\n"


def build_scenario(cfg: ExperimentConfig) -> Scenario:
    """Scenario for a config: subspaces drawn once from the master seed."""
    return make_scenario(cfg.N, cfg.K, cfg.M, cfg.J, cfg.L, rho=cfg.rho,
                         seed=cfg.master_seed)
