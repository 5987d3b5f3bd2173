#!/usr/bin/env python3
"""Monte Carlo benchmark for adaptdet: trials per second end to end, spans per layer.

Run from the root of a checkout that holds ``src/adaptdet``:

    python3 perfbench/run.py --workload fig1_desk --seed 1 --seconds 30 --trace 0

Each repetition of a workload is a fresh ``python3 perfbench/worker.py``
process that imports the package, builds the workload's scenarios and makes
one call into ``adaptdet.cli.main``, as a user running ``adaptdet preset``
would.  Repetitions run one after another while the next one is expected
to end within ``--seconds`` (at least one; two traced ones with
``--trace 1``).
Every repetition's outputs are checked (see ``check_csv``); any failed check
or failed trial makes the run exit 1.

``--trace 0`` prints the end-to-end metrics (medians over repetitions);
``--trace 1`` prints the per-layer metrics from a traced run, plus the
tracing overhead against one untraced repetition; on ``fig1_desk`` it also
traces the per-instance detector path of ``adaptdet verify``.  The last line
of stdout is one JSON object; the metric names and units are those of
BENCHMARK.json.
Full results, including every span, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import coverage, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

# fig1_desk is the plain single-thread baseline and the only workload that
# runs the classic and Bose kernels; fig2_lowsample_t2 runs only the RU
# pair, so the engine's RNG share is largest, and uses the 2-thread pool.
WORKLOADS = {
    "fig1_desk": {"preset": "fig1", "threads": 1},
    "fig2_lowsample_t2": {"preset": "fig2", "threads": 2},
}
SETUP_PROBES = 15
SPEEDUP_TRIALS = 4096
SPEEDUP_PAIRS = 3
# Random verification instances in the traced per-instance probe.
PROBE_INSTANCES = 500
CHILD_TIMEOUT_S = 150
# One BLAS thread per process, so a workload uses no more threads than its
# engine thread count (the machine has two cores).
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CSV_HEADER = ["detector", "snr_db", "pd", "trials", "threshold", "pfa", "seed"]
# Reduced fig2 configuration for the byte-determinism check across thread
# counts; both budgets exceed the engine's 512-trial block, so the pool runs.
DETERMINISM_CONFIG = """\
N = 12
K = 6
M = 3
J = 2
L = 11
rho = 0.95
pfa = 0.01
snr_grid_db = 6, 12, 18
calib_trials = 2048
pd_trials = 1024
detectors = GLRGDD_RU, AMGDD_RU
master_seed = {seed}
"""


class BenchmarkError(Exception):
    """The benchmark itself cannot run (no source tree, worker crashed)."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "adaptdet" / "__init__.py").is_file():
        print(f"error: no adaptdet source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        bench = Bench(args.workload, args.seed, args.trace)
        report = bench.run(args.seconds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report))
    return 0 if report["correct"] and report["failed"] == 0 else 1


class Bench:
    def __init__(self, workload: str, seed: int, trace: int):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.trace = bool(trace)
        self.out = OUT / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("ADAPTDET_") and k != "PYTHONPATH"}
        self.env.update(CHILD_ENV)
        self.jobs = 0
        self.errors: list[str] = []
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        key = "per_layer" if self.trace else "end_to_end"
        self.units = {m["name"]: m["unit"] for m in spec[key]}
        self.reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    # -- child processes ---------------------------------------------------

    def spawn(self, mode: str, **extra) -> tuple[dict, str]:
        self.jobs += 1
        result_path = self.out / f"job{self.jobs:03d}-{mode}.json"
        job = {"mode": mode, "src": str(SRC), "seed": self.seed, "result": str(result_path),
               "preset": self.workload["preset"], **extra}
        try:
            proc = subprocess.run([sys.executable, str(WORKER), json.dumps(job)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{mode} worker exceeded {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchmarkError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if not Path(result["package_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchmarkError(f"imported adaptdet from {result['package_file']}, "
                                 f"not from {SRC}")
        return result, proc.stdout

    def rep(self, index: int, trace: bool) -> dict:
        rep_dir = self.out / f"rep{index}"
        rep_dir.mkdir()
        argv = ["preset", self.workload["preset"], "--seed", str(self.seed),
                "--threads", str(self.workload["threads"]),
                "--out", str(rep_dir / f"{self.workload['preset']}.csv")]
        result, _ = self.spawn("run", argv=argv, trace=trace)
        result["errors"] = self.check_rep(result, rep_dir)
        result["failed"] = self.failed_trials(result)
        result["wall_ref_s"] = wall_at_reference(result)
        result["trials_per_s"] = result["trials"] / result["wall_ref_s"]
        self.errors.extend(f"rep {index}: {e}" for e in result["errors"])
        return result

    # -- correctness -------------------------------------------------------

    def check_rep(self, result: dict, rep_dir: Path) -> list[str]:
        if result["exit_code"] != 0:
            return [f"adaptdet exited {result['exit_code']}"
                    f"{': ' + result['exception'] if result.get('exception') else ''}"]
        errors = []
        for exp in result["experiments"]:
            found, worst = check_csv(rep_dir / f"{exp['stem']}.csv", exp, self.reference)
            errors += found
            result["reference_worst"] = max(result.get("reference_worst", 0.0), worst)
        return errors

    @staticmethod
    def failed_trials(result: dict) -> int:
        # An error aborts the call, and every trial of it counts as failed.
        if result["exit_code"] != 0:
            return result["trials"]
        return result["nonfinite"]

    def check_determinism(self) -> None:
        config = self.out / "determinism.cfg"
        config.write_text(DETERMINISM_CONFIG.format(seed=self.seed), encoding="utf-8")
        outs = [self.out / f"determinism_t{threads}.csv" for threads in (1, 2)]
        result, _ = self.spawn("determinism", config=str(config), outs=[str(p) for p in outs])
        if result["exit_codes"] != [0, 0]:
            self.errors.append(f"determinism: pd-curve exited {result['exit_codes']}")
        elif outs[0].read_bytes() != outs[1].read_bytes():
            self.errors.append("determinism: CSV at 2 threads differs from 1 thread")
        else:
            print(f"determinism: reduced fig2 CSV byte-identical at 1 and 2 threads "
                  f"({outs[0].stat().st_size} bytes)")

    # -- the run -----------------------------------------------------------

    def run(self, seconds: float) -> dict:
        self.spawn("warm")
        env = environment(self.workload["threads"])
        print("environment: " + json.dumps(env))
        if self.trace:
            metrics, attempted, failed = self.run_traced(seconds)
        else:
            metrics, attempted, failed = self.run_untraced(seconds)
        if self.name == "fig2_lowsample_t2":
            self.check_determinism()
        for error in self.errors:
            print(f"CHECK FAILED: {error}")
        missing = sorted(set(self.units) - set(metrics))
        if missing:
            raise BenchmarkError(f"metrics not computed: {missing}")
        correct = not self.errors
        record = {"workload": self.name, "seed": self.seed, "trace": int(self.trace),
                  "environment": env, "errors": self.errors, "metrics": metrics}
        (self.out / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": self.units[name]}
                            for name in self.units}}

    def run_untraced(self, seconds: float):
        setups = [setup_at_reference(self.spawn("setup")[0]) for _ in range(SETUP_PROBES)]
        reps = []
        start = time.perf_counter()
        while not reps or fits(start, len(reps), seconds):
            reps.append(self.rep(len(reps), trace=False))
            print_rep(reps[-1], len(reps) - 1)
        setups += [setup_at_reference(r) for r in reps]
        attempted = sum(r["trials"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        series = {
            "trials_per_s": [r["trials_per_s"] for r in reps],
            "wall_s": [r["wall_ref_s"] for r in reps],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
            "measured wall_s": [r["wall_s"] for r in reps],
        }
        for name, values in series.items():
            print_series(name, values)
        print(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted} trials)")
        metrics = {name: statistics.median(values) for name, values in series.items()}
        metrics["success_frac"] = (attempted - failed) / attempted
        return metrics, attempted, failed

    def run_traced(self, seconds: float):
        threads = self.workload["threads"]
        plain = self.rep(0, trace=False)
        print_rep(plain, 0)
        reps = []
        start = time.perf_counter()
        while len(reps) < 2 or fits(start, len(reps), seconds):
            reps.append(self.rep(len(reps) + 1, trace=True))
            print_rep(reps[-1], len(reps))
        layers = [layer_metrics(r, threads) for r in reps]
        counts = [{k: v for k, v in m.items() if k.endswith((".calls", ".trials", ".nonfinite"))}
                  for m in layers]
        if any(c != counts[0] for c in counts[1:]):
            self.errors.append("trace: call or trial counts differ between traced repetitions")
        metrics = {name: counts[0][name] if name in counts[0]
                   else statistics.median(m[name] for m in layers) for name in layers[0]}
        traced_rate = statistics.median(r["trials_per_s"] for r in reps)
        plain_rate = plain["trials_per_s"]
        metrics["trace.trials_per_s"] = traced_rate
        metrics["trace.trials_per_s_ratio"] = traced_rate / plain_rate
        metrics["montecarlo.thread_speedup"] = (self.thread_speedup()
                                                if self.name == "fig2_lowsample_t2" else 0.0)
        if self.name == "fig1_desk":
            metrics.update(self.instance_probe())
        print_span_table(reps[-1], threads)
        print(f"trace overhead: traced {traced_rate:.1f} trials/s against untraced "
              f"{plain_rate:.1f} trials/s "
              f"(ratio {metrics['trace.trials_per_s_ratio']:.4f})")
        all_reps = [plain] + reps
        attempted = sum(r["trials"] for r in all_reps)
        failed = sum(r["failed"] for r in all_reps)
        return metrics, attempted, failed

    def thread_speedup(self) -> float:
        result, _ = self.spawn("speedup", trials=SPEEDUP_TRIALS, pairs=SPEEDUP_PAIRS)
        one = statistics.median(result["timings"]["1"])
        two = statistics.median(result["timings"]["2"])
        stem = result["experiments"][0]["stem"]
        print(f"thread speedup: {SPEEDUP_TRIALS}-trial block of {stem}: "
              f"{one * REFERENCE_NOMINAL_S * 1e3:.1f} ms at 1 thread, "
              f"{two * REFERENCE_NOMINAL_S * 1e3:.1f} ms at 2 threads (at reference speed)")
        return one / two

    def instance_probe(self) -> dict[str, float]:
        """Per-layer metrics of the per-instance detector path (the layers
        ``adaptdet verify`` runs), from one traced pass over random instances."""
        result, _ = self.spawn("instances", instances=PROBE_INSTANCES)
        if result["nonfinite"]:
            self.errors.append(f"instances: {result['nonfinite']} non-finite statistics "
                               f"over {PROBE_INSTANCES} instances")
        scale = 2.0 * REFERENCE_NOMINAL_S / sum(result["references"])
        metrics = per_instance_metrics(aggregate(result["spans"]), scale)
        calls = sum(metrics[f"detectors.compute.{kind}.calls"] for kind in KINDS)
        print(f"per-instance path: {PROBE_INSTANCES} instances, {calls} detector calls, "
              f"{metrics['detectors.appendix_identities.calls']} identity reports; "
              f"identity residual over its budget on instances {result['over_budget']} "
              f"(a known defect of adaptdet, see NOTES.md; not a benchmark check)")
        return metrics


def fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more repetition, as long as the mean of the `done` so far,
    would end within `seconds` of `start`."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


# -- times at reference speed --------------------------------------------------------

# Time of worker.reference_seconds() on an uncontended core of the 2-vCPU
# machine the benchmark was defined on.  Neighbouring load there slows all
# code on a core by up to 1.7x for seconds at a time, so each chunk of work
# is rescaled by this over the reference time measured on either side of
# it: the reported times are those of an uncontended core.
REFERENCE_NOMINAL_S = 0.0016


def wall_at_reference(rep: dict) -> float:
    """A repetition's wall_s at reference speed, without the reference loops."""
    refs, chunks = rep["references"], rep["chunks"]
    if not chunks:
        return rep["wall_s"] * REFERENCE_NOMINAL_S / rep["setup_reference_s"]
    inside = sum(d * 2.0 * REFERENCE_NOMINAL_S / (refs[i] + refs[i + 1])
                 for i, (_, d) in enumerate(chunks))
    outside = rep["wall_s"] - sum(d for _, d in chunks) - sum(refs[:-1])
    return inside + outside * speed_factor(rep)


def speed_factor(rep: dict) -> float:
    """Reference time over the repetition's median reference time."""
    refs = rep.get("references") or [rep["setup_reference_s"]]
    return REFERENCE_NOMINAL_S / statistics.median(refs)


def setup_at_reference(result: dict) -> float:
    return result["setup_s"] * REFERENCE_NOMINAL_S / result["setup_reference_s"]


# -- correctness of one CSV -----------------------------------------------------

def check_csv(path: Path, exp: dict, reference: dict) -> tuple[list[str], float]:
    """Errors found in one experiment's CSV (empty when it is correct), and
    the largest |pd - reference| as a share of its tolerance.

    Beyond the format, two checks tie the numbers to the statistics:
    GLRGDD-RU and GLRGDD rows must have identical pd (the map t -> t/(1-t)
    is strictly increasing, so both detectors make the same decisions), and
    every pd must lie within the tolerance recorded in reference.json of
    the reference curve (see make_reference.py for how it was set).
    """
    name = path.name
    if not path.is_file():
        return [f"{name}: not written"], math.inf
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    if not rows or rows[0] != CSV_HEADER:
        return [f"{name}: header {rows[:1]} is not {CSV_HEADER}"], math.inf
    expected = [(d, float(s)) for d in exp["detectors"] for s in exp["snr_grid_db"]]
    try:
        parsed = [(r[0], float(r[1]), float(r[2]), int(r[3]), float(r[4]), float(r[5]),
                   int(r[6])) for r in rows[1:] if len(r) == len(CSV_HEADER)]
    except ValueError:
        return [f"{name}: malformed row"], math.inf
    keys = [(r[0], r[1]) for r in parsed]
    if keys != expected or len(parsed) != len(rows) - 1:
        return [f"{name}: rows {keys} are not {expected}"], math.inf
    curves = reference["experiments"].get(exp["stem"], {})
    errors = []
    worst = 0.0
    pds = {}
    for (det, snr, pd, trials, threshold, pfa, seed), row in zip(parsed, rows[1:]):
        where = f"{name} {det} {snr:g} dB"
        if trials != exp["pd_trials"] or pfa != exp["pfa"] or seed != exp["seed"]:
            errors.append(f"{where}: trials/pfa/seed {row[3:]} do not match the config")
        if not (0.0 <= pd <= 1.0 and math.isfinite(threshold)):
            errors.append(f"{where}: pd {pd} or threshold {threshold} out of range")
        elif abs(pd * trials - round(pd * trials)) > 1e-6:
            errors.append(f"{where}: pd {pd} is not a count over {trials} trials")
        curve = curves.get(det, {"snr_db": []})
        if snr not in curve["snr_db"]:
            errors.append(f"{where}: no reference curve point")
            worst = math.inf
            continue
        i = curve["snr_db"].index(snr)
        tol = tolerance(curve["pd_mean"][i], curve["pd_sd"][i], trials, reference)
        worst = max(worst, abs(pd - curve["pd_mean"][i]) / tol)
        if abs(pd - curve["pd_mean"][i]) > tol:
            errors.append(f"{where}: pd {pd} is {abs(pd - curve['pd_mean'][i]):.4f} from "
                          f"the reference {curve['pd_mean'][i]:.4f} (tolerance {tol:.4f})")
        pds[(det, snr)] = row[2]
    for snr in exp["snr_grid_db"]:
        if ("GLRGDD_RU", snr) in pds and ("GLRGDD", snr) in pds:
            if pds[("GLRGDD_RU", snr)] != pds[("GLRGDD", snr)]:
                errors.append(f"{name} {snr:g} dB: GLRGDD_RU pd {pds[('GLRGDD_RU', snr)]} "
                              f"!= GLRGDD pd {pds[('GLRGDD', snr)]}")
    return errors, worst


def tolerance(pd_ref: float, sd_ref: float, trials: int, reference: dict) -> float:
    """z standard deviations of (pd - reference mean), floored at binomial noise."""
    binomial_var = max(pd_ref * (1.0 - pd_ref), 1.0 / trials) / trials
    var = max(sd_ref ** 2, binomial_var) * (1.0 + 1.0 / len(reference["seeds"]))
    return reference["z"] * math.sqrt(var)


# -- per-layer metrics from spans -------------------------------------------------

KERNELS = ("classic_pair", "ru_pair", "bose")
KINDS = ("GLRGDD_RU", "AMGDD_RU", "GLRGDD", "AMGDD", "BOSE_GLRT")


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Span name -> calls, total and self time (ns) and the summed counts."""
    selfs = self_times(spans)
    agg: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        a = agg[span["name"]]
        a["calls"] += 1
        a["ns"] += span["end"] - span["start"]
        a["self_ns"] += selfs[span["id"]]
        for key in ("trials", "columns", "nonfinite"):
            a[key] += span.get(key, 0)
    return agg


def per(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_instance_metrics(agg: dict[str, dict], scale: float) -> dict[str, float]:
    """Calls and time per call (at reference speed) of the per-instance layers."""
    m: dict[str, float] = {}
    names = [f"detectors.compute.{kind}" for kind in KINDS]
    for name in names + ["detectors.appendix_identities", "verify.random_instance"]:
        m[f"{name}.calls"] = agg[name]["calls"]
        m[f"{name}.us_per_call"] = per(agg[name]["ns"] * scale / 1e3, agg[name]["calls"])
    return m


def layer_metrics(rep: dict, threads: int) -> dict[str, float]:
    spans = rep["spans"]
    agg = aggregate(spans)
    # The benchmark's own reference loops run inside the timed call; leave them out.
    wall_ns = rep["wall_s"] * 1e9 - agg["bench.reference"]["ns"]
    scale = speed_factor(rep)  # times below are at reference speed; shares are not scaled
    m = per_instance_metrics(agg, scale)
    for kernel in KERNELS:
        a = agg[f"kernels.{kernel}"]
        m[f"kernels.{kernel}.calls"] = a["calls"]
        m[f"kernels.{kernel}.trials"] = a["trials"]
        m[f"kernels.{kernel}.us_per_trial"] = per(a["ns"] * scale / 1e3, a["trials"])
        m[f"kernels.{kernel}.share"] = a["ns"] / (wall_ns * threads)
    # The engine keeps one column of each Bose pass and discards the rest.
    m["kernels.bose.useful_frac"] = per(agg["kernels.bose"]["calls"],
                                        agg["kernels.bose"]["columns"])
    sim = agg["montecarlo.simulate_statistics"]
    m["montecarlo.simulate_statistics.calls"] = sim["calls"]
    m["montecarlo.simulate_statistics.trials"] = sim["trials"]
    m["montecarlo.simulate_statistics.trials_per_call"] = per(sim["trials"], sim["calls"])
    m["montecarlo.simulate_statistics.self_us_per_trial"] = per(sim["self_ns"] * scale / 1e3,
                                                                sim["trials"])
    m["montecarlo.simulate_statistics.self_share"] = sim["self_ns"] / (wall_ns * threads)
    m["montecarlo.simulate_statistics.nonfinite"] = sim["nonfinite"]
    thr = agg["montecarlo.threshold_from_h0"]
    m["montecarlo.threshold_from_h0.calls"] = thr["calls"]
    m["montecarlo.threshold_from_h0.us_per_call"] = per(thr["ns"] * scale / 1e3, thr["calls"])
    m["montecarlo.pd_curves.self_ms"] = agg["montecarlo.pd_curves"]["self_ns"] * scale / 1e6
    for name in ("config.build_scenario", "transform.factor_waveform_subspace"):
        m[f"{name}.calls"] = agg[name]["calls"]
        m[f"{name}.ms"] = per(agg[name]["ns"] * scale / 1e6, agg[name]["calls"])
    m["adaptdet.import_s"] = rep["import_s"] * REFERENCE_NOMINAL_S / rep["setup_reference_s"]
    m["cli.run_experiment.self_ms"] = agg["cli.run_experiment"]["self_ns"] * scale / 1e6
    m["trace.span_coverage"] = coverage(spans, rep["root_span"])
    return m


# -- reporting --------------------------------------------------------------------

def environment(threads: int) -> dict:
    import importlib.util

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "adaptdet").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "not installed"
    return {
        "git_sha": sha or "unavailable (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": "installed" if importlib.util.find_spec("numba") else "not installed",
        "threads": threads,
        "blas_threads": 1,
    }


def print_rep(rep: dict, index: int) -> None:
    status = "ok" if not rep["errors"] and not rep["failed"] else "FAILED"
    print(f"rep {index}{' (traced)' if rep.get('spans') else ''}: {rep['trials']} trials "
          f"in {rep['wall_s']:.3f} s measured, {rep['wall_ref_s']:.3f} s at reference speed "
          f"= {rep['trials_per_s']:.1f} trials/s, setup {setup_at_reference(rep):.3f} s, "
          f"peak RSS {rep['peak_rss_mb']:.1f} MiB, {status}"
          + (f" (largest pd deviation {rep['reference_worst']:.2f} of its tolerance)"
             if "reference_worst" in rep else ""))


def print_series(name: str, values: list[float]) -> None:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    print(f"{name}: median {statistics.median(values):.6g} "
          f"[q1 {q1:.6g}, q3 {q3:.6g}] over {len(values)} samples")


def print_span_table(rep: dict, threads: int) -> None:
    spans = rep["spans"]
    selfs = self_times(spans)
    rows: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = rows[span["name"]]
        row[0] += 1
        row[1] += (span["end"] - span["start"]) / 1e6
        row[2] += selfs[span["id"]] / 1e6
    wall_ms = rep["wall_s"] * 1e3
    print(f"spans of the last traced repetition, as measured (wall {wall_ms:.1f} ms, "
          f"{threads} thread(s); share = self time / (wall x threads)):")
    for name, (calls, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:<36} {calls:>7} calls {total:>11.1f} ms total "
              f"{own:>11.1f} ms self {own / (wall_ms * threads):>7.1%}")
    print(f"spans other than cli.main cover {coverage(spans, rep['root_span']):.2%} of wall_s")
    if rep.get("missing"):
        print(f"not traced (attribute absent): {', '.join(rep['missing'])}")


if __name__ == "__main__":
    sys.exit(main())
