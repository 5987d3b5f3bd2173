"""The engine keeps its law: a run at seeds the reference did not use is
compared with ``law_reference.json`` (recorded by ``make_law_reference.py``).

A change that moves draws or rounding but not the law passes; so the test
judges a change of stream layout by the distribution of its output, not by
its bytes.  It does not show that the law is right, only that it is kept.

Each point of the family is one exact two-sided test (twice the smaller
tail, capped at 1):

* an H0 quantile q_p, the (m+1)-th largest of N reference statistics: the
  count K of n test statistics above q_p follows the negative
  hypergeometric law of the test values ranked before the (m+1)-th
  reference value in the pooled order, whatever the law itself;
* an H1 pd against the reference's 0.99 quantile: Fisher's exact test of
  the test's count against the reference's count above that fixed number.

The test draws its own scenario (A, C and the direction pair of its seed),
not the reference's, which a layout change redraws.  Both laws are the
scenario's in all but the dimensions and the SNR: under H0 every statistic
is CFAR; under H1 a statistic invariant under A -> A T, C -> T C and a
common nonsingular transform of the data and A, with white noise across
columns, sees a rank-one signal A theta alpha^H C only through its output
SNR (README, "Library use"; ``TestExactSignalLaw`` checks the resulting law
against Kelly's at J = M = 1).

Holm's step-down procedure holds the family-wise level at ALPHA over every
point of both cases.  The level, seeds and trial counts were fixed before
the test first ran.
"""

import json
from pathlib import Path

import numpy as np
from scipy.stats import hypergeom

from adaptdet import DetectorKind, make_scenario, simulate_statistics

REFERENCE = json.loads(Path(__file__).with_name("law_reference.json").read_text(encoding="utf-8"))
ALPHA = 1e-3
SEED = 1
TRIALS = {"fig1": (25_600, 12_800), "fig2_K6": (51_200, 25_600)}  # (H0, H1) per case


def _two_sided(lower: float, upper: float) -> float:
    return min(1.0, 2.0 * min(lower, upper))


def _quantile_p(k: int, n: int, m: int, total: int) -> float:
    """p of k of n test values above the (m+1)-th largest of `total` reference values."""
    pooled = total + n
    # K <= k: the top m+1+k pooled values hold at least m+1 reference values
    lower = hypergeom.sf(m, pooled, total, m + 1 + k)
    # K >= k: the top m+k pooled values hold at most m reference values
    upper = hypergeom.cdf(m, pooled, total, m + k)
    return _two_sided(lower, upper)


def _count_p(k: int, n: int, r: int, total: int) -> float:
    """Fisher's exact p of k of n test trials against r of `total` reference trials."""
    law = hypergeom(total + n, k + r, n)
    return _two_sided(law.cdf(k), law.sf(k - 1))


def _case_points(name: str, case: dict) -> list[tuple[str, float]]:
    n0, n1 = TRIALS[name]
    kinds = [DetectorKind[kind] for kind in case["kinds"]]
    d = case["dims"]
    sc = make_scenario(d["N"], d["K"], d["M"], d["J"], d["L"], rho=case["rho"], seed=SEED)
    h0 = simulate_statistics(sc, kinds, n0, SEED)
    h1 = simulate_statistics(sc, kinds, n1, SEED, snr_db=case["snr_db"])
    points = []
    for j, kind in enumerate(kinds):
        for row in case["quantiles"][kind.name]:
            k = int(np.count_nonzero(h0[:, j] > row["value"]))
            points.append((f"{name} {kind.name} H0 q{row['p']}: {k}/{n0} above",
                           _quantile_p(k, n0, row["above"], case["h0_trials"])))
        q = next(row["value"] for row in case["quantiles"][kind.name]
                 if row["p"] == case["h1_probability"])
        for i, snr in enumerate(case["snr_db"]):
            k = int(np.count_nonzero(h1[:, i, j] > q))
            r = case["h1_above"][kind.name][i]
            points.append((f"{name} {kind.name} H1 {snr} dB: pd {k / n1:.4f} "
                           f"against {r / case['h1_trials']:.4f}",
                           _count_p(k, n1, r, case["h1_trials"])))
    return points


def _holm_rejections(points, alpha):
    ranked = sorted(points, key=lambda point: point[1])
    rejected = []
    for i, (label, p) in enumerate(ranked):
        if p > alpha / (len(ranked) - i):
            break
        rejected.append(f"{label} (p {p:.2e})")
    return rejected


def test_the_quantile_law_is_that_of_a_simulated_ranking():
    # K for 7 test values against the 4th largest of 20 reference values,
    # simulated with uniform draws, follows the law _quantile_p sums
    n, m, total, reps = 7, 3, 20, 40_000
    rng = np.random.default_rng(0)
    q = -np.sort(-rng.random((reps, total)), axis=1)[:, m]
    k = np.count_nonzero(rng.random((reps, n)) > q[:, None], axis=1)
    pooled = total + n
    cdf = hypergeom.sf(m, pooled, total, m + 1 + np.arange(n + 1))
    assert cdf[-1] == 1.0
    assert np.allclose(np.bincount(k, minlength=n + 1) / reps, np.diff(cdf, prepend=0.0),
                       atol=0.01)
    assert all(0.0 < _quantile_p(j, n, m, total) <= 1.0 for j in range(n + 1))
    assert _count_p(5, 10, 50, 100) == 1.0  # equal proportions
    assert _count_p(0, 1000, 500, 1000) < 1e-100


def test_holm_steps_down_and_stops_at_the_first_acceptance():
    points = [("a", 1e-5), ("b", 3e-4), ("c", 0.5), ("d", 6e-4)]
    # 1e-5 <= 1e-3/4, 3e-4 <= 1e-3/3, then 6e-4 > 1e-3/2 stops the procedure
    assert _holm_rejections(points, 1e-3) == ["a (p 1.00e-05)", "b (p 3.00e-04)"]


def test_the_engine_keeps_the_reference_law():
    points = [point for name, case in REFERENCE["cases"].items()
              for point in _case_points(name, case)]
    assert len(points) == 35
    rejected = _holm_rejections(points, ALPHA)
    assert not rejected, (f"the engine's law moved (Holm at {ALPHA} over {len(points)} "
                          f"points, reference seed {REFERENCE['seed']}, test seed {SEED}): "
                          + "; ".join(rejected))
