"""Record tests/law_reference.json: the engine's law at the presets' dimensions.

Run from the repository root:

    PYTHONPATH=src python tests/make_law_reference.py

For each case it draws REFERENCE_SEED's scenario and
``simulate_statistics`` at that seed, then records, per kind,

* H0: the quantiles at PROBABILITIES of H0_TRIALS noise-only statistics,
  each the order statistic that ``threshold_from_h0`` takes at pfa 1 - p,
  with the count of reference statistics above it;
* H1: the count of H1_TRIALS statistics above the kind's 0.99 quantile at
  each SNR of the case.

``tests/test_law.py`` compares a run at other seeds with these counts.  A
rerun rewrites the file; do so only for a change that is meant to move the
law, and say why.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from adaptdet import make_scenario, simulate_statistics, threshold_from_h0
from adaptdet.detectors import DetectorKind
from adaptdet.scenario import STREAM_VERSION

REFERENCE_SEED = 20260810
H0_TRIALS = 1_000_000
H1_TRIALS = 200_000
PROBABILITIES = (0.5, 0.9, 0.99)
H1_PROBABILITY = 0.99  # the H1 points count exceedances of this quantile
THREADS = 2  # the engine's output does not depend on it
RHO = 0.95
# name: ((N, K, M, J, L), kinds, H1 SNRs in dB); fig1's preset and fig2's at K = 6
CASES = {
    "fig1": ((12, 16, 3, 2, 14), tuple(DetectorKind), (12.0, 21.0)),
    "fig2_K6": ((12, 6, 3, 2, 11), (DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU),
                (18.0, 21.0)),
}
OUT = Path(__file__).with_name("law_reference.json")


def record_case(dims, kinds, snrs):
    sc = make_scenario(*dims, rho=RHO, seed=REFERENCE_SEED)
    h0 = simulate_statistics(sc, kinds, H0_TRIALS, REFERENCE_SEED, threads=THREADS)
    h1 = simulate_statistics(sc, kinds, H1_TRIALS, REFERENCE_SEED, snr_db=snrs,
                             threads=THREADS)
    quantiles, h1_above = {}, {}
    for j, kind in enumerate(kinds):
        rows = []
        for p in PROBABILITIES:
            q = threshold_from_h0(h0[:, j], 1.0 - p)
            rows.append({"p": p, "value": q, "above": int(np.count_nonzero(h0[:, j] > q))})
        quantiles[kind.name] = rows
        q = next(row["value"] for row in rows if row["p"] == H1_PROBABILITY)
        h1_above[kind.name] = [int(n) for n in np.count_nonzero(h1[:, :, j] > q, axis=0)]
    return {"dims": dict(zip("NKMJL", dims)), "rho": RHO, "kinds": [k.name for k in kinds],
            "h0_trials": H0_TRIALS, "quantiles": quantiles,
            "h1_trials": H1_TRIALS, "h1_probability": H1_PROBABILITY,
            "snr_db": list(snrs), "h1_above": h1_above}


def main() -> None:
    reference = {
        "command": "PYTHONPATH=src python tests/make_law_reference.py",
        "seed": REFERENCE_SEED,
        "stream_version": STREAM_VERSION,
        "numpy": np.__version__,
        "cases": {},
    }
    for name, (dims, kinds, snrs) in CASES.items():
        start = time.perf_counter()
        reference["cases"][name] = record_case(dims, kinds, snrs)
        print(f"{name}: {time.perf_counter() - start:.1f} s")
    OUT.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
