"""One workload process, started by run.py with a JSON job as its argument.

Modes:

* ``warm``: import the package once (fills the bytecode cache), time nothing.
* ``setup``: time ``import adaptdet`` plus building each scenario.
* ``run``: set up as above, then time one call into ``adaptdet.cli.main``
  for the workload; with ``trace`` set, record spans around every layer.
* ``instances``: run the per-instance detector path of ``adaptdet verify``
  over random instances, traced.
* ``speedup``: time one fig2 block of ``simulate_statistics`` at 1 and at
  2 threads (tracing off).
* ``determinism``: run a reduced fig2 ``pd-curve`` at 1 and at 2 threads.

The result is written as JSON to ``job["result"]``.  Only the standard
library is imported before the timed import of the package.
"""

import json
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    result = {}
    t0 = time.perf_counter()
    import adaptdet
    import adaptdet.cli
    t1 = time.perf_counter()
    result["import_s"] = t1 - t0
    result["package_file"] = adaptdet.__file__
    mode = job["mode"]
    if mode != "warm":
        handler = {"setup": _setup, "run": _run, "speedup": _speedup,
                   "instances": _instances, "determinism": _determinism}[mode]
        handler(job, adaptdet, result)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _preset_configs(adaptdet, job) -> list[tuple[str, object]]:
    """(csv stem, ExperimentConfig) for each experiment of the preset."""
    import contextlib
    import io

    name = job["preset"]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        adaptdet.cli.main(["preset", name, "--print-config", "--seed", str(job["seed"])])
    parts, stem, lines = [], name, []
    for line in text.getvalue().splitlines():
        if line.startswith("# "):
            if lines:
                parts.append((stem, "\n".join(lines)))
            stem, lines = line[2:].strip(), []
        else:
            lines.append(line)
    parts.append((stem, "\n".join(lines)))
    return [(stem, adaptdet.config.parse_config(body)) for stem, body in parts]


def _setup(job, adaptdet, result) -> list:
    configs = _preset_configs(adaptdet, job)
    t0 = time.perf_counter()
    scenarios = [adaptdet.config.build_scenario(cfg) for _, cfg in configs]
    result["scenario_s"] = time.perf_counter() - t0
    result["setup_s"] = result["import_s"] + result["scenario_s"]
    result["setup_reference_s"] = reference_seconds()
    result["experiments"] = [
        {"stem": stem, "detectors": [kind.name for kind in cfg.detectors],
         "snr_grid_db": list(cfg.snr_grid_db), "pd_trials": cfg.pd_trials,
         "pfa": cfg.pfa, "seed": cfg.master_seed}
        for stem, cfg in configs
    ]
    result["trials"] = sum(cfg.calib_trials + len(cfg.snr_grid_db) * cfg.pd_trials
                           for _, cfg in configs)
    return scenarios


REFERENCE_LOOPS = 60
REFERENCE_SAMPLES = 5


def reference_seconds() -> float:
    """Median time of a fixed numpy loop shaped like the workloads (small
    complex solves, Hermitian eigenvalues and products, with Python overhead).

    Neighbouring load on this machine slows all code on a core by up to
    1.7x for seconds at a time; timing this loop next to each chunk of work
    measures that slowdown, and run.py divides it out.  The median of a few
    short samples, after a few untimed loops, keeps one interruption or a
    cold cache from setting it.
    """
    import numpy as np

    idx = np.arange(12.0)
    m = (np.add.outer(idx, 2 * idx) % 5 + 1j * (np.add.outer(2 * idx, idx) % 3)
         + 12.0 * np.eye(12))

    def loop(count: int) -> None:
        for _ in range(count):
            h = m @ m.conj().T
            np.linalg.eigvalsh(h)
            np.linalg.solve(h, m)

    loop(REFERENCE_LOOPS // 4)
    samples = []
    for _ in range(REFERENCE_SAMPLES):
        t0 = time.perf_counter()
        loop(REFERENCE_LOOPS)
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[REFERENCE_SAMPLES // 2]


class _Observer:
    """Times chunks of work and counts non-finite statistic rows.

    A chunk is one ``simulate_statistics`` call.  Before each chunk and
    after the last one the reference loop is timed (outside the chunk, and
    in a span of its own when tracing), so every chunk has a reference time
    on either side.  The wrapper is installed in untraced runs too; it adds
    one call per engine call, nothing per trial.
    """

    def __init__(self, adaptdet, tracer=None):
        import numpy as np

        self.tracer = tracer
        self.nonfinite = 0
        self.chunks: list[tuple[int, float]] = []
        self.references: list[float] = []
        montecarlo = adaptdet.montecarlo
        simulate = montecarlo.simulate_statistics

        def observed_simulate(scenario, kinds, trials, *args, **kwargs):
            self.reference()
            t0 = time.perf_counter()
            stats = simulate(scenario, kinds, trials, *args, **kwargs)
            self.chunks.append((trials, time.perf_counter() - t0))
            self.nonfinite += int(np.count_nonzero(~np.isfinite(stats).all(axis=1)))
            return stats

        montecarlo.simulate_statistics = observed_simulate

    def reference(self) -> None:
        span = self.tracer.open("bench.reference") if self.tracer is not None else None
        self.references.append(reference_seconds())
        if span is not None:
            self.tracer.close(span)

    def finish(self) -> None:
        if self.chunks:
            self.reference()


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB.

    Linux carries the parent's pages at the fork into ``ru_maxrss`` across
    exec, so the high-water mark of the current image is read instead.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(job, adaptdet, result) -> None:
    import traceback

    _setup(job, adaptdet, result)
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, adaptdet)
        result["wrapped"], result["missing"] = tracer.wrapped, tracer.missing
    observer = _Observer(adaptdet, tracer)
    root = tracer.open("cli.main") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        result["exit_code"] = adaptdet.cli.main(job["argv"])
    except Exception:
        result["exit_code"] = None
        result["exception"] = traceback.format_exc()
    result["wall_s"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        result["root_span"] = root["id"]
        result["spans"] = tracer.spans
    sys.stdout.flush()
    observer.finish()
    result["nonfinite"] = observer.nonfinite
    result["chunks"] = observer.chunks
    result["references"] = observer.references
    result["peak_rss_mb"] = peak_rss_mb()


def _speedup(job, adaptdet, result) -> None:
    scenarios = _setup(job, adaptdet, result)
    kinds = [adaptdet.DetectorKind[name] for name in result["experiments"][0]["detectors"]]
    timings = {1: [], 2: []}
    reference = reference_seconds()
    for _ in range(job["pairs"]):
        for threads in (1, 2):
            t0 = time.perf_counter()
            adaptdet.montecarlo.simulate_statistics(scenarios[0], kinds, job["trials"],
                                                    job["seed"], threads=threads)
            elapsed = time.perf_counter() - t0
            after = reference_seconds()
            # in units of the reference loop, like every other time
            timings[threads].append(2.0 * elapsed / (reference + after))
            reference = after
    result["timings"] = timings


def _instances(job, adaptdet, result) -> None:
    """Run the per-instance detector path, traced: every valid statistic of
    each random verification instance, and the appendix identities where
    GLRGDD applies, called at the ``verify`` attributes that
    ``adaptdet verify`` calls.  The identity residuals are counted against
    their budget for the report, not checked."""
    import numpy as np

    import tracer as tracing

    verify = adaptdet.verify
    tracer = tracing.Tracer()
    tracing.install(tracer, adaptdet)
    result["references"] = [reference_seconds()]
    root = tracer.open("bench.instances")
    nonfinite, over_budget = 0, []
    for idx, inst in verify.instance_stream(job["seed"], job["instances"]):
        kinds = inst.valid_kinds()
        for kind in kinds:
            nonfinite += not np.isfinite(verify.compute(kind, inst.x, inst.x_l,
                                                        inst.a, inst.c).value)
        if adaptdet.DetectorKind.GLRGDD in kinds:
            residuals = verify.appendix_identities(inst.x, inst.x_l, inst.a, inst.c)
            if not max(residuals.values()) <= adaptdet.linalg.TOL.identity_rtol:
                over_budget.append(idx)
    tracer.close(root)
    result["references"].append(reference_seconds())
    result["spans"] = tracer.spans
    result["nonfinite"] = nonfinite
    result["over_budget"] = over_budget


def _determinism(job, adaptdet, result) -> None:
    codes = []
    for threads, out in zip((1, 2), job["outs"]):
        codes.append(adaptdet.cli.main(["pd-curve", "--config", job["config"],
                                        "--threads", str(threads), "--out", out]))
    result["exit_codes"] = codes


if __name__ == "__main__":
    sys.exit(main())
