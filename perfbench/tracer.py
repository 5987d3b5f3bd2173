"""In-memory span recorder that wraps adaptdet's public functions from outside.

Each wrapper replaces a function at the module attribute its caller looks
up when it calls (``montecarlo.simulate_statistics`` for the calls made
inside ``montecarlo``, ``cli.build_scenario`` for the one made by the CLI,
and so on), so the package itself is not edited.  A span records its name,
start and end (``perf_counter_ns``), the span that caused it and the thread
it ran on, plus the counts seen at that boundary (trials, non-finite rows).

Spans opened on a worker thread of the engine's pool have no parent on that
thread; they are attached to the innermost span open on the thread that
installed the tracer, which is the ``simulate_statistics`` call that started
the pool.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self.wrapped: list[str] = []
        self.missing: list[str] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = {"id": span_id, "name": name, "parent": parent,
                "thread": threading.get_ident(), "start": time.perf_counter_ns()}
        stack.append(span_id)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def call(self, name: str, fn, args, kwargs, on_result=None):
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            self.close(span)

    def wrap(self, module, attr: str, name: str, on_result=None, name_fn=None) -> None:
        """Replace ``module.attr`` by a wrapper that records one span per call."""
        label = f"{module.__name__}.{attr}"
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(label)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name_fn(args, kwargs) if name_fn is not None else name
            return self.call(span_name, original, args, kwargs, on_result)

        setattr(module, attr, wrapper)
        self.wrapped.append(label)


def _kernel_name(args, kwargs) -> str:
    # The engine runs Bose's GLRT as the RU kernel on an empty training set.
    xlb = args[1] if len(args) > 1 else kwargs["xlb"]
    return "kernels.bose" if np.shape(xlb)[-1] == 0 else "kernels.ru_pair"


def _kernel_result(span, args, kwargs, result) -> None:
    xb = args[0] if args else kwargs["xb"]
    span["trials"] = int(np.shape(xb)[0])
    span["columns"] = int(np.shape(result)[1]) if np.ndim(result) == 2 else 1


def _statistics_result(span, args, kwargs, result) -> None:
    stats = np.asarray(result)
    span["trials"] = int(stats.shape[0])
    span["nonfinite"] = int(np.count_nonzero(~np.isfinite(stats).all(axis=1)))


def _compute_name(args, kwargs) -> str:
    kind = args[0] if args else kwargs["kind"]
    return f"detectors.compute.{getattr(kind, 'name', kind)}"


def install(tracer: Tracer, adaptdet) -> None:
    """Wrap every traced layer of an imported ``adaptdet`` package."""
    cli, detectors, kernels = adaptdet.cli, adaptdet.detectors, adaptdet.kernels
    montecarlo, verify = adaptdet.montecarlo, adaptdet.verify

    backend_functions = getattr(kernels, "backend_functions", None)
    if backend_functions is None:
        tracer.missing.append("adaptdet.kernels.backend_functions")
    else:
        @functools.wraps(backend_functions)
        def traced_backend_functions(*args, **kwargs):
            ru_fn, classic_fn = backend_functions(*args, **kwargs)

            def ru(*a, **kw):
                return tracer.call(_kernel_name(a, kw), ru_fn, a, kw, _kernel_result)

            def classic(*a, **kw):
                return tracer.call("kernels.classic_pair", classic_fn, a, kw, _kernel_result)

            return ru, classic

        kernels.backend_functions = traced_backend_functions
        tracer.wrapped.append("adaptdet.kernels.backend_functions")

    tracer.wrap(montecarlo, "simulate_statistics", "montecarlo.simulate_statistics",
                on_result=_statistics_result)
    tracer.wrap(montecarlo, "threshold_from_h0", "montecarlo.threshold_from_h0")
    tracer.wrap(montecarlo, "calibrate_thresholds", "montecarlo.calibrate_thresholds")
    tracer.wrap(montecarlo, "pd_curves", "montecarlo.pd_curves")
    tracer.wrap(montecarlo, "factor_waveform_subspace", "transform.factor_waveform_subspace")
    tracer.wrap(detectors, "factor_waveform_subspace", "transform.factor_waveform_subspace")
    tracer.wrap(verify, "compute", "", name_fn=_compute_name)
    tracer.wrap(verify, "appendix_identities", "detectors.appendix_identities")
    tracer.wrap(verify, "random_instance", "verify.random_instance")
    tracer.wrap(cli, "build_scenario", "config.build_scenario")
    tracer.wrap(cli, "run_experiment", "cli.run_experiment")


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered = _union_length(children.get(span["id"], []), span["start"], span["end"])
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def _union_length(intervals, lo: int, hi: int) -> int:
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def coverage(spans: list[dict], root_id: int) -> float:
    """Share of the root span's interval covered by any other span."""
    root = next(s for s in spans if s["id"] == root_id)
    others = [(s["start"], s["end"]) for s in spans if s["id"] != root_id]
    length = root["end"] - root["start"]
    return _union_length(others, root["start"], root["end"]) / length if length else 0.0
