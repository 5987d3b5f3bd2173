"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured numbers (run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines for passing criteria too).

Criterion 7 contains a detector-ordering inequality that the implemented
detectors do not satisfy at the stated measurement point (AMGDD vs Bose at
the SNR where GLRGDD-RU first crosses PD 0.5: measured gap is ~0 with
seed-dependent sign, far below the required two-sigma separation, while
the first three inequalities hold for every seed tried).  The check is
implemented exactly as stated and is expected to fail; the printed table
shows the measured values.
"""

import numpy as np
import pytest

from adaptdet import cli
from adaptdet.config import parse_config
from adaptdet.detectors import DetectorKind, appendix_identities, evaluate
from adaptdet.errors import ConfigError
from adaptdet.montecarlo import (calibrate_thresholds, cfar_check, pd_curves,
                                 simulate_statistics)
from adaptdet.scenario import make_scenario, toeplitz_covariance
from adaptdet.verify import instance_stream

from oracles import amgdd_projection_form, glrgdd_raw_form, ru_glr_direct

SEED = 20260810
THREADS = 4

RU_GLR = DetectorKind.GLRGDD_RU
RU_AM = DetectorKind.AMGDD_RU
GLR = DetectorKind.GLRGDD
AM = DetectorKind.AMGDD
BOSE = DetectorKind.BOSE_GLRT


def _report(number, name, passed, detail):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'} — {detail}")


def test_criterion_1_identity_suite():
    worst = 0.0
    count = 0
    for _, inst in instance_stream(SEED + 1, 500, regimes=("abundant", "square")):
        residuals = appendix_identities(inst.x, inst.x_l, inst.a, inst.c)
        worst = max(worst, max(residuals.values()))
        count += 1
    passed = worst <= 1e-8
    _report(1, "identity suite", passed,
            f"{count} instances, worst residual {worst:.3e} (budget 1e-8)")
    assert passed


def test_criterion_2_monotone_map_equivalence():
    worst = 0.0
    for _, inst in instance_stream(SEED + 2, 500, regimes=("abundant", "square")):
        t_full = evaluate([GLR], inst.x, inst.x_l, inst.a, inst.c)[GLR]
        t_ru = evaluate([RU_GLR], inst.x, inst.x_l, inst.a, inst.c)[RU_GLR]
        residual = abs(t_full - t_ru / (1.0 - t_ru)) / (1.0 + t_full)
        worst = max(worst, residual)
    passed = worst <= 1e-8
    _report(2, "monotone-map equivalence", passed,
            f"500 instances, worst |GLRGDD - t/(1-t)| / (1+GLRGDD) = {worst:.3e}")
    assert passed


def test_criterion_2_holds_against_independent_oracles():
    # GLRGDD-RU is computed as mu / (1 + mu) of GLRGDD, so criterion 2 holds by
    # construction; here each statistic is held against an oracle of its own
    # that shares no code with the kernels, on the same instances.
    worst_glr = 0.0
    worst_ru = 0.0
    for _, inst in instance_stream(SEED + 2, 500, regimes=("abundant", "square")):
        glr = evaluate([GLR], inst.x, inst.x_l, inst.a, inst.c)[GLR]
        glr_ref = glrgdd_raw_form(inst.x, inst.x_l, inst.a, inst.c)
        worst_glr = max(worst_glr, abs(glr - glr_ref) / abs(glr_ref))
        _, _, vh = np.linalg.svd(inst.c)
        x_par, x_perp = inst.x @ vh[:inst.m].conj().T, inst.x @ vh[inst.m:].conj().T
        s_plus = inst.x_l @ inst.x_l.conj().T + x_perp @ x_perp.conj().T
        t_ru = evaluate([RU_GLR], inst.x, inst.x_l, inst.a, inst.c)[RU_GLR]
        t_ref = ru_glr_direct(x_par, s_plus, inst.a)
        worst_ru = max(worst_ru, abs(t_ru - t_ref) / abs(t_ref))
    passed = worst_glr <= 1e-8 and worst_ru <= 1e-8
    _report("2b", "oracles of the monotone-map pair", passed,
            f"500 instances, GLRGDD vs raw form: {worst_glr:.3e}; "
            f"GLRGDD-RU vs explicit inversion: {worst_ru:.3e} (budget 1e-8)")
    assert passed


def test_criterion_3_degenerate_agreements():
    worst_bose = 0.0
    for _, inst in instance_stream(SEED + 3, 200, regimes=("notraining",)):
        ru = evaluate([RU_GLR], inst.x, inst.x_l, inst.a, inst.c)[RU_GLR]
        bose = evaluate([BOSE], inst.x, inst.x_l, inst.a, inst.c)[BOSE]
        worst_bose = max(worst_bose, abs(bose - ru) / max(1.0, abs(ru)))
    worst_square = 0.0
    for _, inst in instance_stream(SEED + 4, 200, regimes=("square",)):
        am_ru = evaluate([RU_AM], inst.x, inst.x_l, inst.a, inst.c)[RU_AM]
        am = evaluate([AM], inst.x, inst.x_l, inst.a, inst.c)[AM]
        worst_square = max(worst_square, abs(am - am_ru) / max(1.0, abs(am_ru)))
    passed = worst_bose <= 1e-12 and worst_square <= 1e-12
    _report(3, "degenerate agreements", passed,
            f"Bose=GLRGDD-RU at L=0: {worst_bose:.3e}; "
            f"AMGDD=AMGDD-RU at K=M: {worst_square:.3e} (budget 1e-12)")
    assert passed


def test_criterion_4_dual_formula_oracles():
    worst_am = 0.0
    worst_glr = 0.0
    for _, inst in instance_stream(SEED + 5, 200, regimes=("abundant",)):
        am = evaluate([AM], inst.x, inst.x_l, inst.a, inst.c)[AM]
        am_ref = amgdd_projection_form(inst.x, inst.x_l, inst.a, inst.c)
        worst_am = max(worst_am, abs(am - am_ref) / (1.0 + abs(am_ref)))
        glr = evaluate([GLR], inst.x, inst.x_l, inst.a, inst.c)[GLR]
        glr_ref = glrgdd_raw_form(inst.x, inst.x_l, inst.a, inst.c)
        worst_glr = max(worst_glr, abs(glr - glr_ref) / (1.0 + abs(glr_ref)))
    passed = worst_am <= 1e-8 and worst_glr <= 1e-8
    _report(4, "dual-formula oracles", passed,
            f"AMGDD projection vs reduced: {worst_am:.3e}; "
            f"GLRGDD raw vs factored: {worst_glr:.3e} (budget 1e-8)")
    assert passed


def test_criterion_5_invariance_suite():
    rng = np.random.default_rng(SEED + 6)
    worst = {"A -> A T": 0.0, "C -> T C": 0.0, "scale": 0.0}
    for _, inst in instance_stream(SEED + 6, 200, regimes=("full",)):
        t_a = rng.standard_normal((inst.j, inst.j)) + 1j * rng.standard_normal(
            (inst.j, inst.j)) + 2 * np.eye(inst.j)
        t_c = rng.standard_normal((inst.m, inst.m)) + 1j * rng.standard_normal(
            (inst.m, inst.m)) + 2 * np.eye(inst.m)
        c_scale = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        for kind in DetectorKind:
            base = evaluate([kind], inst.x, inst.x_l, inst.a, inst.c)[kind]
            denom = 1.0 + abs(base)
            moved = evaluate([kind], inst.x, inst.x_l, inst.a @ t_a, inst.c)[kind]
            worst["A -> A T"] = max(worst["A -> A T"], abs(moved - base) / denom)
            moved = evaluate([kind], inst.x, inst.x_l, inst.a, t_c @ inst.c)[kind]
            worst["C -> T C"] = max(worst["C -> T C"], abs(moved - base) / denom)
            moved = evaluate([kind], c_scale * inst.x, c_scale * inst.x_l,
                             inst.a, inst.c)[kind]
            worst["scale"] = max(worst["scale"], abs(moved - base) / denom)
    passed = all(v <= 1e-8 for v in worst.values())
    _report(5, "invariance suite", passed,
            "; ".join(f"{k}: {v:.3e}" for k, v in worst.items()) + " (budget 1e-8)")
    assert passed


def test_criterion_6_empirical_cfar():
    pfa, trials = 1e-2, 20_000
    scenario = make_scenario(6, 10, 2, 2, 8, rho=0.0, seed=SEED)  # R = I
    reports = cfar_check(scenario, toeplitz_covariance(scenario.N, 0.95), list(DetectorKind),
                         pfa, trials, SEED, threads=THREADS)
    band = 4.0 * reports[RU_GLR].sigma
    passed = all(report.passed for report in reports.values())
    _report(6, "empirical CFAR", passed,
            f"target {pfa}, band ±{band:.2e}: "
            + ", ".join(f"{kind.name}={report.pfa_empirical:.4f}"
                        for kind, report in reports.items()))
    assert passed


def test_criterion_7_sample_abundant_ordering():
    kinds = [RU_GLR, RU_AM, GLR, AM, BOSE]
    scenario = make_scenario(12, 16, 3, 2, 14, rho=0.95, seed=SEED)
    grid = [float(v) for v in range(6, 31, 3)]
    pd_trials = 2_000
    curves = pd_curves(scenario, kinds, grid, 1e-2, 5_000, pd_trials, SEED,
                       threads=THREADS)
    pd = {kind: [p for _, p in curves[kind].points] for kind in kinds}
    idx = next((i for i, v in enumerate(pd[RU_GLR]) if v > 0.5), None)
    assert idx is not None, "grid does not reach PD 0.5 for GLRGDD-RU"
    at = {kind: pd[kind][idx] for kind in kinds}

    def sigma(p):
        return np.sqrt(max(p * (1.0 - p), 1e-12) / pd_trials)

    def joint(p1, p2):
        return float(np.hypot(sigma(p1), sigma(p2)))

    checks = [
        ("GLRGDD-RU matches GLRGDD",
         abs(at[RU_GLR] - at[GLR]) <= 2.0 * joint(at[RU_GLR], at[GLR])),
        ("GLRGDD-RU >= AMGDD-RU - 2s",
         at[RU_GLR] >= at[RU_AM] - 2.0 * joint(at[RU_GLR], at[RU_AM])),
        ("AMGDD-RU > AMGDD + 2s",
         at[RU_AM] > at[AM] + 2.0 * joint(at[RU_AM], at[AM])),
        ("AMGDD > Bose + 2s",
         at[AM] > at[BOSE] + 2.0 * joint(at[AM], at[BOSE])),
    ]
    values = ", ".join(f"{kind.name}={at[kind]:.4f}" for kind in kinds)
    detail = (f"at {grid[idx]:g} dB: {values}; "
              + "; ".join(f"{name}: {'ok' if ok else 'VIOLATED'}" for name, ok in checks))
    passed = all(ok for _, ok in checks)
    _report(7, "sample-abundant ordering", passed, detail)
    for name, ok in checks:
        assert ok, f"{name} violated — {detail}"


def test_criterion_8_low_sample_trend_in_k():
    probe_snr = 15.0
    pfa, calib_trials, pd_trials = 1e-2, 5_000, 2_000
    kinds = [RU_GLR, RU_AM]
    pd = {kind: [] for kind in kinds}
    for k in cli.FIG2_K_GRID:
        scenario = make_scenario(12, k, 3, 2, 11, rho=0.95, seed=SEED)
        cals = calibrate_thresholds(scenario, kinds, pfa, calib_trials, SEED,
                                    threads=THREADS)
        stats = simulate_statistics(scenario, kinds, pd_trials, SEED, snr_db=[probe_snr],
                                    threads=THREADS)
        for j, kind in enumerate(kinds):
            pd[kind].append(np.count_nonzero(stats[:, 0, j] > cals[kind].threshold) / pd_trials)

    def sigma(p):
        return np.sqrt(max(p * (1.0 - p), 1e-12) / pd_trials)

    passed = True
    details = []
    for kind in kinds:
        values = pd[kind]
        details.append(f"{kind.name}: " + " -> ".join(f"{v:.3f}" for v in values))
        for lo, hi in zip(values, values[1:]):
            passed &= hi > lo + 2.0 * float(np.hypot(sigma(lo), sigma(hi)))

    # the training-only detectors must refuse this regime outright
    refusals = []
    for kind, pattern in ((GLR, "requires L >= N"), (AM, "requires L >= N"),
                          (BOSE, "requires K >= M+N")):
        try:
            kind.check_dims(12, cli.FIG2_K_GRID[0], 3, 11)
            refusals.append(f"{kind.name}: NOT refused")
            passed = False
        except ValueError as exc:
            ok = pattern in str(exc)
            passed &= ok
            refusals.append(f"{kind.name}: refused")
    text = SMALL_FIG2_TEXT.replace("detectors = GLRGDD_RU, AMGDD_RU",
                                   "detectors = GLRGDD")
    with pytest.raises(ConfigError, match="GLRGDD requires L >= N"):
        parse_config(text)

    _report(8, "low-sample PD grows with K", passed,
            f"probe {probe_snr:g} dB over K={cli.FIG2_K_GRID}: "
            + "; ".join(details) + "; " + ", ".join(refusals))
    assert passed


SMALL_FIG2_TEXT = """\
N = 12
K = 6
M = 3
J = 2
L = 11
rho = 0.95
pfa = 0.01
snr_grid_db = 6, 15, 24
calib_trials = 5000
pd_trials = 2000
detectors = GLRGDD_RU, AMGDD_RU
master_seed = 20260810
"""


def test_criterion_9_csv_determinism_across_threads(tmp_path):
    config = parse_config("""\
N = 5
K = 8
M = 2
J = 2
L = 6
rho = 0.5
pfa = 0.05
snr_grid_db = 0, 8, 16
calib_trials = 600
pd_trials = 200
detectors = GLRGDD_RU, AMGDD_RU, GLRGDD, AMGDD, BOSE_GLRT
master_seed = 7
""")
    blobs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}.csv"
        cli.run_experiment(config, threads=threads, out_path=str(out))
        blobs.append(out.read_bytes())
    passed = blobs[0] == blobs[1] == blobs[2]
    _report(9, "CSV byte determinism across threads", passed,
            f"1/4/8 workers, {len(blobs[0])} bytes each")
    assert passed
