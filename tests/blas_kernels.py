"""Which OpenBLAS core numpy runs, and the engine's contract checked on it.

numpy's wheels bundle an OpenBLAS built for several CPU generations; it
picks one core's kernels when it loads, or the one that
``OPENBLAS_CORETYPE`` names.  Kernels may round differently, so every byte
comparison of the test suite pins one core's rounding, and
``tests/conftest.py`` names that core in the log header.

Run as a script, ``python tests/blas_kernels.py`` (with ``src`` on
``PYTHONPATH``) prints a JSON object with the core it runs and the failures
of :func:`contract_failures` there; ``tests/test_blas_kernels.py`` runs it
once per core.
"""

from __future__ import annotations

import ctypes
import json
from pathlib import Path

import numpy as np


def openblas_core() -> str | None:
    """The name of the core numpy's bundled OpenBLAS runs, or None where
    numpy runs another BLAS."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    try:  # the library numpy has loaded
        lib = ctypes.CDLL(str(min(libs.glob("libscipy_openblas64_*.so"))))
        name = lib.scipy_openblas_get_corename64_
    except (ValueError, OSError, AttributeError):  # no such library or symbol
        return None
    name.argtypes, name.restype = [], ctypes.c_char_p
    return name().decode()


def contract_failures() -> list[str]:
    """The ways a trial's value depends on the stack it is computed in, at a
    fig1-like (L >= N: two Grams, all five kinds) and a fig2-like (L < N:
    one Gram, the RU kinds) shape.  N is odd, so that the count x N rows of
    a stack end on every residue of a GEMM kernel's row unrolling; at the
    figures' N = 12 a stack of one and a block may agree by luck.  A shorter
    run must be the head of a longer one, a trial of a short last block must
    replay bitwise under H0 and H1, and the engine's X_par of a trial inside
    a block must be that of a replayed stack of one."""
    from adaptdet import montecarlo
    from adaptdet.detectors import DetectorKind, evaluate, statistics
    from adaptdet.montecarlo import (BLOCK_TRIALS, DOMAIN_NULL, DOMAIN_SIGNAL, replay_trial,
                                     simulate_statistics)
    from adaptdet.scenario import make_scenario
    from adaptdet.transform import transform_stack

    ru = [DetectorKind.GLRGDD_RU, DetectorKind.AMGDD_RU]
    shapes = {"fig1-like (N, K, M, J, L) = (7, 11, 3, 2, 9)": (11, 9, list(DetectorKind)),
              "fig2-like (N, K, M, J, L) = (7, 6, 3, 2, 6)": (6, 6, ru)}
    seed, snrs, inside = 3, [6.0, 18.0], BLOCK_TRIALS + 44
    failures = []
    engine_statistics = montecarlo.statistics
    for name, (k, l, kinds) in shapes.items():
        sc = make_scenario(7, k, 3, 2, l, seed=5)
        x_par = []  # the engine's X_par of each block, in block order at 1 thread

        def recorded(kinds_, td, *args, **kwargs):
            x_par.append(td.x_par.copy())
            return engine_statistics(kinds_, td, *args, **kwargs)

        montecarlo.statistics = recorded
        try:
            long = simulate_statistics(sc, kinds, 700, seed)  # its last block has 188 trials
        finally:
            montecarlo.statistics = engine_statistics
        if not np.array_equal(simulate_statistics(sc, kinds, 300, seed, threads=2), long[:300]):
            failures.append(f"{name}: 300 trials at 2 threads are not the head of 700 at 1")
        x, x_l = replay_trial(sc, seed, DOMAIN_NULL, 699)
        values = evaluate(kinds, x, x_l, sc.A, sc.C)
        if [values[kind] for kind in kinds] != list(long[699]):
            failures.append(f"{name}: H0 trial 699 of a short block does not replay")
        h1 = simulate_statistics(sc, kinds, 300, seed, snr_db=snrs)  # its last block has 44
        x, x_l = replay_trial(sc, seed, DOMAIN_SIGNAL, 299)
        td = transform_stack(x[None], x_l[None], sc.waveform)
        c = montecarlo._coefficients(sc, snrs, seed)
        if not np.array_equal(statistics(kinds, td, sc.A, c)[0], h1[299]):
            failures.append(f"{name}: H1 trial 299 of a short block does not replay")
        x, x_l = replay_trial(sc, seed, DOMAIN_NULL, inside)
        if not np.array_equal(x_par[1][inside - BLOCK_TRIALS],
                              transform_stack(x, x_l, sc.waveform).x_par):
            failures.append(f"{name}: the engine's X_par of trial {inside} is not a "
                            "replayed stack of one's")
    return failures


if __name__ == "__main__":
    print(json.dumps({"core": openblas_core(), "failures": contract_failures()}))
