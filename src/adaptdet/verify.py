"""Self-verification suite.

Draws random problem instances across the four dimension regimes and
checks, on each, the algebraic facts the detectors rest on:

* the identity report from :func:`adaptdet.detectors.appendix_identities`,
* invariance of every statistic under subspace reparameterization
  (A -> A T, C -> T C) and under common data scaling (X, X_L) -> (c X, c X_L),
* boundedness of the [0, 1) statistics.

Each instance costs one :func:`adaptdet.detectors.evaluate` of its valid
kinds per (A, C, data) variant, plus the identity report where GLRGDD is
valid.  These are theorems, so any persistent failure flags an
implementation bug; each failure records the instance index for replay.
Each instance's own :class:`adaptdet.scenario.Scenario` colors its noise
and scales its signal to an SNR, as the Monte Carlo engine's scenarios do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .detectors import DetectorKind, appendix_identities, evaluate
from .linalg import TOL
from .scenario import (DEFAULT_SEED, VERIFY_INSTANCE, VERIFY_TRANSFORM, Scenario,
                       _draw_full_rank, _draw_subspaces, check_integer, complex_gaussian,
                       make_signal, scale_to_snr, stream, toeplitz_covariance)

__all__ = ["Instance", "REGIMES", "random_instance", "instance_stream",
           "CheckSuite", "VerificationReport", "run_verification"]

REGIMES = ("abundant", "lowsample", "notraining", "square")

_RHO_CYCLE = (0.0, 0.5, 0.95)
_TRANSFORM_RTOL = 1e-3  # the invariance transforms T are drawn with cond(T) < 1e3


@dataclass(frozen=True, eq=False)
class Instance:
    """One random problem instance: dimensions, subspaces, and data."""

    regime: str
    n: int
    k: int
    m: int
    j: int
    l: int
    a: np.ndarray
    c: np.ndarray
    x: np.ndarray
    x_l: np.ndarray

    def valid_kinds(self) -> tuple[DetectorKind, ...]:
        return tuple(kd for kd in DetectorKind
                     if kd.is_valid(self.n, self.k, self.m, self.l))


def random_instance(regime: str, rng: np.random.Generator) -> Instance:
    """Draw dimensions (3 <= N <= 8) for the regime, then subspaces, covariance, data.

    Regimes: 'abundant' (L >= N, K > M), 'lowsample' (1 <= L < N and
    L+K >= M+N with K < M+N, so only the augmented-SCM detectors apply),
    'notraining' (L = 0, K >= M+N), 'square' (K = M, L >= N), and 'full'
    (L >= N and K >= M+N, where every detector is valid).
    """
    n = int(rng.integers(3, 9))
    j = int(rng.integers(1, min(n, 3) + 1))
    m = int(rng.integers(1, 4))
    if regime == "abundant":
        k = m + int(rng.integers(1, 6))
        l = n + int(rng.integers(0, 5))
    elif regime == "full":
        k = m + n + int(rng.integers(0, 3))
        l = n + int(rng.integers(0, 5))
    elif regime == "lowsample":
        l = int(rng.integers(1, n))
        k_min = max(m, m + n - l)
        k = int(rng.integers(k_min, m + n))  # keeps K < M+N
    elif regime == "notraining":
        l = 0
        k = m + n + int(rng.integers(0, 4))
    elif regime == "square":
        k = m
        l = n + int(rng.integers(0, 5))
    else:
        raise ValueError(f"unknown regime {regime!r}")

    a, c = _draw_subspaces(rng, n, j, m, k)
    rho = _RHO_CYCLE[int(rng.integers(0, len(_RHO_CYCLE)))]
    sc = Scenario(A=a, C=c, R=toeplitz_covariance(n, rho), L=l)
    x = sc.coloring @ complex_gaussian(rng, n, k)
    if rng.integers(0, 2):
        # moderate SNR keeps the bounded statistics well away from 1: a strong
        # signal could push a correct value into the boundedness margin
        theta_dir = complex_gaussian(rng, j)
        alpha_dir = complex_gaussian(rng, m)
        snr_db = float(rng.uniform(-5.0, 15.0))
        theta = scale_to_snr(sc, theta_dir, alpha_dir, snr_db)
        x = x + make_signal(a, theta, alpha_dir, c)
    x_l = sc.coloring @ complex_gaussian(rng, n, l)
    return Instance(regime=regime, n=n, k=k, m=m, j=j, l=l, a=a, c=c, x=x, x_l=x_l)


def instance_stream(seed: int, count: int):
    """Iterator of (index, Instance) pairs cycling through REGIMES; instance i
    is drawn from ``stream(seed, VERIFY_INSTANCE, i)``.  The seed and count
    are checked when it is called, not on the first ``next``."""
    check_integer(seed, "seed")
    return ((idx, random_instance(REGIMES[idx % len(REGIMES)], stream(seed, VERIFY_INSTANCE, idx)))
            for idx in range(check_integer(count, "count")))


@dataclass
class CheckSuite:
    name: str
    instances: int = 0
    max_residual: float = 0.0
    failures: list[tuple[int, str]] = field(default_factory=list)

    def record(self, idx: int, residual: float, budget: float, detail: str) -> None:
        self.instances += 1
        # np.maximum, unlike max, keeps a NaN residual: the FAIL line shows it
        self.max_residual = float(np.maximum(self.max_residual, residual))
        if not residual <= budget:
            self.failures.append((idx, f"{detail}: residual {residual:.3e} > {budget:.1e}"))

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (f"{status} {self.name}: {self.instances} instances, "
                f"max residual {self.max_residual:.3e}")
        if self.failures:
            shown = "; ".join(f"instance {idx} ({msg})" for idx, msg in self.failures[:5])
            text += f" [{shown}{'; ...' if len(self.failures) > 5 else ''}]"
        return text


@dataclass
class VerificationReport:
    seed: int
    instance_count: int
    suites: list[CheckSuite]

    @property
    def passed(self) -> bool:
        return all(suite.passed for suite in self.suites)

    @property
    def vacuous(self) -> bool:
        return self.instance_count == 0

    def lines(self) -> list[str]:
        out = [suite.line() for suite in self.suites]
        if self.vacuous:
            out.append("WARNING: 0 instances requested, vacuous pass")
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"{verdict}: verification over {self.instance_count} instances "
                   f"(seed {self.seed}; replay instance i from stream(seed, VERIFY_INSTANCE, i))")
        return out


def run_verification(seed: int = DEFAULT_SEED, instance_count: int = 500) -> VerificationReport:
    """Run every check suite over `instance_count` random instances."""
    check_integer(seed, "seed")
    instance_count = check_integer(instance_count, "instance_count")
    suites = {
        "identities": CheckSuite("identities"),
        "invariance": CheckSuite("reparameterization and scale invariance"),
        "boundedness": CheckSuite("bounded statistics stay below 1"),
    }
    for idx, inst in instance_stream(seed, instance_count):
        _check_instance(idx, inst, stream(seed, VERIFY_TRANSFORM, idx), suites)
    return VerificationReport(seed=seed, instance_count=instance_count,
                              suites=list(suites.values()))


def compute(kind, x, x_l, a, c):
    """One statistic with ``.value``, for the benchmark's per-instance probe and
    test_benchmark_reads_instances_and_runs_the_engine_as_called, its only
    callers; ROADMAP item 14B deletes it."""
    return SimpleNamespace(value=evaluate([kind], x, x_l, a, c)[kind])


def _check_instance(idx: int, inst: Instance, rng, suites: dict[str, CheckSuite]) -> None:
    kinds = inst.valid_kinds()
    base = evaluate(kinds, inst.x, inst.x_l, inst.a, inst.c)

    if DetectorKind.GLRGDD in kinds:
        residuals = appendix_identities(inst.x, inst.x_l, inst.a, inst.c)
        worst = max(residuals.values())
        suites["identities"].record(idx, worst, TOL.identity_rtol,
                                    f"{inst.regime}, worst of {len(residuals)} identities")

    t_a = _draw_full_rank(rng, inst.j, inst.j, "T", _TRANSFORM_RTOL)
    t_c = _draw_full_rank(rng, inst.m, inst.m, "T", _TRANSFORM_RTOL)
    scale = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
    variants = (
        ("A -> A T", evaluate(kinds, inst.x, inst.x_l, inst.a @ t_a, inst.c)),
        ("C -> T C", evaluate(kinds, inst.x, inst.x_l, inst.a, t_c @ inst.c)),
        ("(X, X_L) -> (c X, c X_L)",
         evaluate(kinds, scale * inst.x, scale * inst.x_l, inst.a, inst.c)),
    )
    for kind in kinds:
        value = base[kind]
        for label, stats in variants:
            res = abs(stats[kind] - value) / (1.0 + abs(value))
            suites["invariance"].record(idx, res, TOL.identity_rtol, f"{kind.name} {label}")
        if kind.bounded_below_one:
            overshoot = value - (1.0 - TOL.stat_unit_margin)
            suites["boundedness"].record(idx, max(overshoot, 0.0), 0.0, kind.name)

