#!/usr/bin/env python3
"""Record the reference PD curves that run.py checks every repetition against.

    python3 perfbench/make_reference.py --work-dir perfbench/out/reference

runs ``adaptdet preset fig1`` and ``adaptdet preset fig2`` (desk scale, one
thread) for every seed in SEEDS, keeps the CSVs in ``--work-dir`` (a seed
whose CSVs are already there is not run again) and writes, for each
experiment, detector and SNR point, the mean and standard deviation of pd
over the seeds to ``perfbench/reference.json``.

Why a spread over seeds and not a binomial interval alone: pd also moves
with the calibrated threshold (5000 H0 trials, 50 false alarms at PFA
1e-2), so across seeds the standard deviation of pd is up to ~4x the
binomial one on steep parts of a curve.  A different valid RNG layout
changes the draws exactly as a different seed does (the scenario's
subspaces come from their own stream), so it stays within this spread.
The check in run.py accepts |pd - mean| <= Z * sd * sqrt(1 + 1/len(SEEDS)),
with sd floored at the binomial standard deviation (and at 1/trials where
the curve is flat at 0 or 1).  Z is set from the leave-one-out deviations
this script prints: each seed's curve against the reference of the others.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = [20260810] + list(range(1, 16))
Z = 6.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-dir", type=Path, default=HERE / "out" / "reference")
    args = parser.parse_args()
    args.work_dir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(HERE.parent / "src"))
    from adaptdet import cli

    for preset in ("fig1", "fig2"):
        for seed in SEEDS:
            out = args.work_dir / f"{preset}_s{seed}.csv"
            if not any(seed_of(p) == seed for p in args.work_dir.glob(f"{preset}_s*.csv")):
                code = cli.main(["preset", preset, "--seed", str(seed), "--threads", "1",
                                 "--out", str(out)])
                if code != 0:
                    print(f"preset {preset} seed {seed} exited {code}", file=sys.stderr)
                    return 1

    # stem -> detector -> snr -> {seed: pd}
    curves = defaultdict(lambda: defaultdict(lambda: defaultdict(dict)))
    trials = None
    for path in sorted(args.work_dir.glob("fig*_s*.csv")):
        seed = seed_of(path)
        if seed in SEEDS:
            preset, _, suffix = path.stem.partition(f"_s{seed}")
            for row in csv.DictReader(path.open(encoding="utf-8")):
                curves[preset + suffix][row["detector"]][float(row["snr_db"])][seed] = \
                    float(row["pd"])
                trials = int(row["trials"])

    experiments = {}
    for stem, detectors in sorted(curves.items()):
        experiments[stem] = {}
        for det, points in detectors.items():
            grid = sorted(points)
            experiments[stem][det] = {
                "snr_db": grid,
                "pd_mean": [statistics.fmean(points[s].values()) for s in grid],
                "pd_sd": [statistics.stdev(points[s].values()) for s in grid],
            }
    reference = {
        "description": "pd mean and sd over seeds of adaptdet preset fig1/fig2 at desk "
                       "scale; written by make_reference.py",
        "seeds": SEEDS, "z": Z, "trials": trials, "experiments": experiments,
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n",
                                         encoding="utf-8")
    print(f"worst leave-one-out deviation: {leave_one_out(curves, trials):.2f} sd "
          f"(tolerance Z = {Z})")
    return 0


def seed_of(path: Path) -> int:
    """Seed in a CSV name such as fig1_s3.csv or fig2_s3_K6.csv."""
    return int(path.stem.split("_s", 1)[1].split("_", 1)[0])


def leave_one_out(curves, trials: int) -> float:
    """Largest |pd - mean of the other seeds| over sd of the others, floored as in run.py."""
    worst = 0.0
    for detectors in curves.values():
        for points in detectors.values():
            for by_seed in points.values():
                for seed, pd in by_seed.items():
                    rest = [v for s, v in by_seed.items() if s != seed]
                    mean = statistics.fmean(rest)
                    floor = max(mean * (1.0 - mean), 1.0 / trials) / trials
                    sd = math.sqrt(max(statistics.variance(rest), floor)
                                   * (1.0 + 1.0 / len(rest)))
                    worst = max(worst, abs(pd - mean) / sd)
    return worst


if __name__ == "__main__":
    sys.exit(main())
