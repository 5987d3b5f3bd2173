"""Command-line front end.

Subcommands:

* ``calibrate``: detection thresholds for every configured detector.
* ``pd-curve``: the full PD-versus-SNR experiment, written as CSV.
* ``verify``: the self-verification suite (exit code 2 on failure).
* ``preset fig1|fig2``: bundled experiment presets at desk scale, with
  ``--paper-scale`` switching to the published trial budgets.

Exit codes: 0 success, 1 usage/config error, 2 verification failure,
3 runtime numerical error (a singular covariance estimate or a non-finite
statistic).  ``ADAPTDET_THREADS`` sets the default worker count.  Timing
lives outside the package, in ``perfbench/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, montecarlo
from .config import (DESK_SCALE, PAPER_SCALE, ExperimentConfig, build_scenario,
                     format_config, parse_config)
from .detectors import DetectorKind
from .errors import ConfigError, NonFiniteStatisticError, SingularMatrixError
from .verify import run_verification

_CSV_HEADER = ("detector", "snr_db", "pd", "trials", "threshold", "pfa", "seed")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_NUMERICAL = 3


def _preset_fig1(paper_scale: bool, seed: int) -> ExperimentConfig:
    """All five detectors, sample-abundant regime (L >= N, K >= M+N)."""
    scale = PAPER_SCALE if paper_scale else DESK_SCALE
    return ExperimentConfig(
        N=12, K=16, M=3, J=2, L=14, rho=0.95,
        pfa=scale["pfa"],
        snr_grid_db=tuple(float(v) for v in range(6, 31, 3)),
        calib_trials=scale["calib_trials"],
        pd_trials=scale["pd_trials"],
        detectors=(DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU, DetectorKind.GLRGDD,
                   DetectorKind.AMGDD, DetectorKind.BOSE_GLRT),
        master_seed=seed,
    )


# Low-sample preset: L < N and K < M+N, where only the augmented-SCM
# detectors remain valid.  K is swept over a fixed documented grid to show
# PD improving with the number of virtual training columns.
FIG2_K_GRID = (6, 10, 14)


def _preset_fig2(paper_scale: bool, seed: int, k: int) -> ExperimentConfig:
    scale = PAPER_SCALE if paper_scale else DESK_SCALE
    return ExperimentConfig(
        N=12, K=k, M=3, J=2, L=11, rho=0.95,
        pfa=scale["pfa"],
        snr_grid_db=tuple(float(v) for v in range(6, 31, 3)),
        calib_trials=scale["calib_trials"],
        pd_trials=scale["pd_trials"],
        detectors=(DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU),
        master_seed=seed,
    )


def run_experiment(config: ExperimentConfig, *, threads: int = 1,
                   out_path: str | None = None) -> str:
    """Run the configured experiment and write one CSV.

    Header: ``detector,snr_db,pd,trials,threshold,pfa,seed``; one row per
    (detector, SNR point).  Output is byte-identical for a fixed config and
    seed, independent of the worker-thread count; each ``pd`` field is an
    exact count/trials ratio printed with full precision.
    """
    path = out_path if out_path is not None else config.output_path
    if path is None:
        raise ConfigError("no output path: set output_path in the config or pass --out")
    scenario = build_scenario(config)
    curves = montecarlo.pd_curves(scenario, config.detectors, config.snr_grid_db,
                                  config.pfa, config.calib_trials, config.pd_trials,
                                  config.master_seed, threads=threads)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for kind in config.detectors:
        curve = curves[kind]
        for snr_db, pd in curve.points:
            writer.writerow([kind.name, _fmt(snr_db), _fmt(pd), curve.trials_per_point,
                             _fmt(curve.threshold_used), _fmt(config.pfa),
                             config.master_seed])
    _write_text(path, buffer.getvalue())
    return path


def _fmt(value: float) -> str:
    # str() of a float is the shortest round-trip form, so counts are
    # recoverable from pd * trials exactly.
    return str(float(value))


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


def _read_config(args) -> ExperimentConfig:
    text = Path(args.config).read_text(encoding="utf-8")
    config = parse_config(text)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return config


def _cmd_calibrate(args) -> int:
    config = _read_config(args)
    scenario = build_scenario(config)
    results = montecarlo.calibrate_thresholds(scenario, config.detectors, config.pfa,
                                              config.calib_trials, config.master_seed,
                                              threads=args.threads)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("detector", "threshold", "pfa", "trials", "seed"))
    for kind in config.detectors:
        cal = results[kind]
        writer.writerow([kind.name, _fmt(cal.threshold), _fmt(cal.pfa_target),
                         cal.trials, cal.seed])
    _write_text(args.out, buffer.getvalue())
    return EXIT_OK


def _cmd_pd_curve(args) -> int:
    config = _read_config(args)
    path = run_experiment(config, threads=args.threads, out_path=args.out)
    if path != "-":
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_verification(seed=args.seed, instance_count=args.instances)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_preset(args) -> int:
    seed = args.seed if args.seed is not None else 20260810
    if args.name == "fig1":
        configs = [("", _preset_fig1(args.paper_scale, seed))]
    else:
        configs = [(f"_K{k}", _preset_fig2(args.paper_scale, seed, k))
                   for k in FIG2_K_GRID]
    if args.print_config:
        for suffix, config in configs:
            if suffix:
                print(f"# {args.name}{suffix}")
            print(format_config(config), end="")
        return EXIT_OK
    base = args.out if args.out is not None else f"{args.name}.csv"
    for suffix, config in configs:
        if base == "-":
            path = "-"
        else:
            root = Path(base)
            path = str(root.with_name(root.stem + suffix + root.suffix)) if suffix else base
        run_experiment(config, threads=args.threads, out_path=path)
        if path != "-":
            print(f"wrote {path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2 (2 means verification failure)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_threads() -> int:
    raw = os.environ.get("ADAPTDET_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adaptdet",
                     description="Adaptive detection of a rank-one subspace signal "
                                 "with limited training data.")
    parser.add_argument("--version", action="version", version=f"adaptdet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, config: bool):
        if config:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--threads", type=int, default=_default_threads(),
                       help="worker threads (default: ADAPTDET_THREADS or 1)")

    p = sub.add_parser("calibrate", help="calibrate detection thresholds")
    add_common(p, config=True)
    p.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("pd-curve", help="run the PD-versus-SNR experiment")
    add_common(p, config=True)
    p.add_argument("--out", default=None, help="output CSV path ('-' for stdout; "
                                               "default: output_path from the config)")
    p.set_defaults(func=_cmd_pd_curve)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--instances", type=int, default=500)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("preset", help="run a bundled experiment preset")
    p.add_argument("name", choices=("fig1", "fig2"))
    add_common(p, config=False)
    p.add_argument("--out", default=None, help="output CSV path (fig2 writes one "
                                               "file per K, suffixed _K<k>)")
    p.add_argument("--paper-scale", action="store_true",
                   help="use the published trial budgets (pfa 1e-3, 1e5/1e4 trials)")
    p.add_argument("--print-config", action="store_true",
                   help="print the preset config(s) instead of running")
    p.set_defaults(func=_cmd_preset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularMatrixError, np.linalg.LinAlgError, NonFiniteStatisticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
