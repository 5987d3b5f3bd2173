"""Command-line front end.

Subcommands:

* ``calibrate``: detection thresholds for every configured detector.
* ``pd-curve``: the full PD-versus-SNR experiment, written as CSV.
* ``verify``: the self-verification suite (exit code 2 on failure).
* ``preset fig1|fig2``: bundled experiment presets at desk scale, with
  ``--paper-scale`` switching to the published trial budgets.

Exit codes: 0 success, 1 usage, config or file error, 2 verification failure,
3 runtime numerical error (a singular covariance estimate or a non-finite
statistic).  The output path and worker count come only from ``--out`` and
``--threads``; nothing is read from the environment.  Timing lives outside
the package, in ``perfbench/``.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, montecarlo
from .config import (DESK_SCALE, PAPER_SCALE, ExperimentConfig, build_scenario,
                     format_config, parse_config)
from .detectors import DetectorKind
from .errors import ConfigError, NonFiniteStatisticError
from .scenario import DEFAULT_SEED, STREAM_VERSION

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_NUMERICAL = 3


# K values (one config each), L and detectors of each preset.  fig1 is the
# sample-abundant regime (L >= N, K >= M+N) with all five detectors.  fig2 is
# the low-sample one (L < N and K < M+N), where only the augmented-SCM
# detectors remain valid; K is swept over a fixed documented grid to show PD
# improving with the number of virtual training columns.
FIG2_K_GRID = (6, 10, 14)
_PRESETS = {"fig1": ((16,), 14, tuple(DetectorKind)),
            "fig2": (FIG2_K_GRID, 11, (DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU))}


def _preset(name: str, paper_scale: bool, seed: int) -> list[tuple[str, ExperimentConfig]]:
    """A preset's (output-name suffix, config) pairs: N=12, M=3, J=2, rho=0.95
    and the 6..30 dB grid at the desk or paper trial budget; a K sweep names
    each output after its K."""
    k_grid, l, kinds = _PRESETS[name]
    scale = PAPER_SCALE if paper_scale else DESK_SCALE
    return [(f"_K{k}" if len(k_grid) > 1 else "",
             ExperimentConfig(N=12, K=k, M=3, J=2, L=l, rho=0.95,
                              snr_grid_db=tuple(float(v) for v in range(6, 31, 3)),
                              detectors=kinds, master_seed=seed, **scale))
            for k in k_grid]


def _curves(configs, threads: int) -> list[dict]:
    """{kind: PdCurve} of each config, all computed by one engine call."""
    if not all(config.snr_grid_db for config in configs):
        raise ConfigError("snr_grid_db is empty: a PD curve needs at least one SNR point")
    return montecarlo._pd_experiments([(build_scenario(c), c.detectors, c.snr_grid_db, c.pfa,
                                        c.calib_trials, c.pd_trials, c.master_seed)
                                       for c in configs], threads)


def _write_curves(path: str, config: ExperimentConfig, curves: dict) -> None:
    """Write one experiment's CSV to `path` ('-' for stdout): header
    ``detector,snr_db,pd,trials,threshold,pfa,seed`` and one row per (detector,
    SNR point), each ``pd`` an exact count/trials ratio at full precision.
    The bytes depend on the config and seed only, not on the thread count."""
    rows = [[kind.name, _fmt(snr_db), _fmt(pd), config.pd_trials,
             _fmt(curves[kind].threshold), _fmt(config.pfa), config.master_seed]
            for kind in config.detectors for snr_db, pd in curves[kind].points]
    _write_csv(path, ("detector", "snr_db", "pd", "trials", "threshold", "pfa", "seed"), rows)


def _fmt(value: float) -> str:
    # str() of a float is the shortest round-trip form, so counts are
    # recoverable from pd * trials exactly.
    return str(float(value))


def _check_writable(path: str) -> None:
    """Refuse an unusable output path before any trial is drawn, leaving it as it was."""
    if path != "-":
        try:  # remove a file the probe created; an existing one keeps its contents
            open(path, "x", encoding="utf-8").close()
            Path(path).unlink()
        except FileExistsError:
            open(path, "a", encoding="utf-8").close()


def _write_csv(path: str, header, rows) -> None:
    """Write a header and rows as CSV with LF line ends to `path`, or to stdout for '-'."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if path == "-":
        sys.stdout.write(buffer.getvalue())
    else:
        Path(path).write_text(buffer.getvalue(), encoding="utf-8", newline="")


def _run_experiments(outputs, threads: int) -> int:
    """Run each (path, config) output in one engine call, every path checked
    before the first trial; a failure writes no output."""
    for path, _ in outputs:
        _check_writable(path)
    for (path, config), curves in zip(outputs, _curves([config for _, config in outputs],
                                                       threads)):
        _write_curves(path, config, curves)
        if path != "-":
            print(f"wrote {path}")
    return EXIT_OK


def _read_config(args) -> ExperimentConfig:
    config = parse_config(Path(args.config).read_text(encoding="utf-8-sig"))  # skips a BOM
    return config if args.seed is None else config.with_seed(args.seed)


def _cmd_calibrate(args) -> int:
    config = _read_config(args)
    scenario = build_scenario(config)
    _check_writable(args.out)
    thresholds = montecarlo.calibrate_thresholds(scenario, config.detectors, config.pfa,
                                                 config.calib_trials, config.master_seed,
                                                 threads=args.threads)
    rows = [[kind.name, _fmt(threshold), _fmt(config.pfa), config.calib_trials,
             config.master_seed] for kind, threshold in thresholds.items()]
    _write_csv(args.out, ("detector", "threshold", "pfa", "trials", "seed"), rows)
    return EXIT_OK


def _cmd_pd_curve(args) -> int:
    return _run_experiments([(args.out, _read_config(args))], args.threads)


def _cmd_verify(args) -> int:
    from .verify import run_verification

    report = run_verification(seed=args.seed, instance_count=args.instances)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_preset(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    configs = _preset(args.name, args.paper_scale, seed)
    if args.print_config:
        for suffix, config in configs:
            if suffix:
                print(f"# {args.name}{suffix}")
            print(format_config(config), end="")
        return EXIT_OK
    base = args.out if args.out is not None else f"{args.name}.csv"
    if base == "-" and len(configs) > 1:  # back-to-back CSVs with no K to tell them apart
        names = ", ".join(f"{args.name}{suffix}.csv" for suffix, _ in configs)
        raise ValueError(f"preset {args.name} writes one CSV per K ({names}): "
                          "--out - cannot hold them; give a file path")
    root = Path(base)
    if len(configs) > 1 and (base.endswith(("/", os.sep)) or root.is_dir()):
        # the _K<k> files would be named after the directory and land beside it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), base)
    outputs = [(str(root.with_name(root.stem + suffix + root.suffix)) if suffix else base,
                config) for suffix, config in configs]
    return _run_experiments(outputs, args.threads)


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2 (2 means verification failure)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """argparse type for a decimal integer >= low."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)
    return parse


_seed = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adaptdet",
                     description="Adaptive detection of a rank-one subspace signal "
                                 "with limited training data.")
    parser.add_argument("--version", action="version",
                        version=f"adaptdet {__version__} (stream layout {STREAM_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, config: bool):
        if config:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=_seed, default=None, help="override master_seed")
        p.add_argument("--threads", type=_int_at_least(1), default=1,
                       help="worker threads (default: 1); output does not depend on it")

    p = sub.add_parser("calibrate", help="calibrate detection thresholds")
    add_common(p, config=True)
    p.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("pd-curve", help="run the PD-versus-SNR experiment")
    add_common(p, config=True)
    p.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    p.set_defaults(func=_cmd_pd_curve)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--instances", type=_int_at_least(0), default=500)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("preset", help="run a bundled experiment preset")
    p.add_argument("name", choices=tuple(_PRESETS))
    add_common(p, config=False)
    p.add_argument("--out", default=None, help="output CSV path (fig2 writes one "
                                               "file per K, suffixed _K<k>, so not '-')")
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (np.linalg.LinAlgError, NonFiniteStatisticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
