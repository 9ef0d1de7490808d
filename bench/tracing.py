"""Spans and counts around the public functions of the surveymc modules.

Every public function is wrapped at each module namespace that binds it
(``fit_completion`` is bound in ``cli``, ``solver``, ``baselines`` and
``benchmark``), so a call is recorded whichever module it goes through,
including calls between functions of one module.  ``Family.g`` and
``Family.g_prime`` are wrapped on the class.  Nothing under ``src/`` is
edited: the bindings are swapped in memory and restored on exit.

Spans are kept in memory, appended under a lock because the benchmark
command runs replicates on threads, and written out when the run ends.
A span that starts on a thread with no open span (a replicate worker) takes
as parent the innermost open span of the thread that started the op.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

# io.fmt formats one number and runs once per value written; a span per call
# would cost more than the formatting it measures.
_NOT_TRACED = {"surveymc.io.fmt"}


class Span(NamedTuple):
    sid: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float


def _qualified(fn) -> str:
    return f"{fn.__module__}.{fn.__name__}"


def public_functions() -> dict[Callable, list[tuple[object, str]]]:
    """Each public surveymc function, with every (module, name) binding it."""
    found: dict[Callable, list[tuple[object, str]]] = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "surveymc" or mod_name.startswith("surveymc.")):
            continue
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__.startswith("surveymc")):
                found.setdefault(obj, []).append((mod, name))
    return found


@contextlib.contextmanager
def rebound(bindings: list[tuple[object, str, Callable]]):
    """Set each owner.name to its replacement; restore the originals on exit."""
    saved = []
    try:
        for owner, name, replacement in bindings:
            saved.append((owner, name, vars(owner)[name]))
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def wrap_everywhere(fn: Callable, make_wrapper: Callable[[Callable], Callable]):
    """Context manager rebinding one public function in every namespace."""
    wrapper = make_wrapper(fn)
    return rebound([(mod, name, wrapper) for mod, name in public_functions().get(fn, [])])


# -- counts taken from arguments and results at the span boundaries ------------

def _count_fit(tracer, args, kwargs, result):
    diag = result.diagnostics
    tracer.count("solver.iterations", result.iterations_run)
    tracer.count("solver.backtracks", diag["backtracks"])
    tracer.count("solver.accepted", diag["accepted_steps"])


def _count_svd_elems(tracer, args, kwargs, result):
    rows, cols = (args[0] if args else kwargs["M"]).shape
    tracer.count("linalg.svd_elems", rows * cols)


def _count_cells(tracer, args, kwargs, result):
    tracer.count("response_model.fallback_cells", len(result.fallback_cells))
    tracer.count("response_model.degenerate_cells", len(result.degenerate_cells))


def _count_soft_impute(tracer, args, kwargs, result):
    tracer.count("baselines.soft_impute_iters", result.notes["iterations"])


def _count_replicates(tracer, args, kwargs, result):
    tracer.count("benchmark.threads", kwargs.get("threads", 1))
    tracer.count("benchmark.method_failures", sum(result.n_failures.values()))
    for rep in result.reports:
        tracer.sample("benchmark.replicate_wall", rep.wall_time)


def _count_bytes(fn):
    signature = inspect.signature(fn)

    def hook(tracer, args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        tracer.count("io.bytes_written", sum(os.path.getsize(v) for k, v in bound.items()
                                             if k.endswith("path")))
    return hook


_HOOKS = {
    "solver.fit_completion": _count_fit,
    "linalg.svd_thin": _count_svd_elems,
    "linalg.nuclear_norm": _count_svd_elems,
    "response_model.estimate_response_probs": _count_cells,
    "baselines.soft_impute": _count_soft_impute,
    "benchmark.run_benchmark": _count_replicates,
}


def span_name(fn) -> str:
    """'<module>.<function>', the module being the layer."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory span and count recorder; records only inside `op()`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.samples: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: int | None = None
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Record spans and counts under `op_id` while the block runs."""
        self._op, self._op_stack = op_id, self._stack()
        try:
            yield
        finally:
            self._op = None

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[self._op][key] += n

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[self._op][key].append(value)

    def wrap(self, fn: Callable, name: str, hook=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else None)
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(Span(sid, parent, op, name, start, end))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def installed(self):
        """Context manager wrapping every public function and Family.g/g_prime."""
        from surveymc.families import Family
        bindings = []
        for fn, places in public_functions().items():
            if _qualified(fn) in _NOT_TRACED:
                continue
            name = span_name(fn)
            hook = _HOOKS.get(name)
            if hook is None and name.startswith(("io.save_", "io.write_")):
                hook = _count_bytes(fn)
            wrapper = self.wrap(fn, name, hook)
            bindings += [(mod, attr, wrapper) for mod, attr in places]
        for attr in ("g", "g_prime"):
            bindings.append((Family, attr, self.wrap(vars(Family)[attr], f"families.{attr}")))
        return rebound(bindings)

    def write(self, path) -> None:
        """Write the spans, counts and samples as one gzip-compressed JSON document."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": list(Span._fields), "spans": self.spans,
                       "counts": self.counts, "samples": self.samples}, fh)


# -- per-layer metrics derived from the spans of one op -------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int | None, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    return {s.sid: (s.end - s.start)
            - _covered([(max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid]])
            for s in spans}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def op_metrics(spans: list[Span], counts: Counter, samples: dict[str, list[float]]) -> dict:
    """Per-layer metrics of one op (times in seconds, counts per op)."""
    by_id = {s.sid: s for s in spans}
    own = self_times(spans)
    calls = Counter(s.name for s in spans)
    busy: Counter = Counter()
    for s in spans:
        busy[s.name] += s.end - s.start

    def layer_self(layer):
        return sum(t for sid, t in own.items() if _layer(by_id[sid].name) == layer)

    def entered(prefixes):
        # time in io spans called from outside io (nested io calls counted once)
        return sum(s.end - s.start for s in spans if s.name.startswith(prefixes)
                   and not (s.parent in by_id and _layer(by_id[s.parent].name) == "io"))

    def under(s, name):
        while s.parent in by_id:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    def ratio(num, den):
        return num / den if den else 0.0

    iterations = counts["solver.iterations"]
    walls = samples.get("benchmark.replicate_wall", [])
    replicates_s = busy["benchmark.run_benchmark"]
    fits_in_tune = sum(1 for s in spans if s.name == "solver.fit_completion"
                       and under(s, "solver.tune_tau"))
    return {
        "linalg.svt_s": busy["linalg.svt"],
        "linalg.svt_calls": calls["linalg.svt"],
        "linalg.nuclear_norm_s": busy["linalg.nuclear_norm"],
        "linalg.nuclear_norm_calls": calls["linalg.nuclear_norm"],
        "linalg.svd_thin_s": busy["linalg.svd_thin"],
        "linalg.svd_thin_calls": calls["linalg.svd_thin"],
        "linalg.svd_per_iter": ratio(calls["linalg.svt"] + calls["linalg.nuclear_norm"],
                                     iterations),
        "linalg.svd_elems": counts["linalg.svd_elems"],
        "solver.fit_s": busy["solver.fit_completion"],
        "solver.self_s": layer_self("solver"),
        "solver.fits": calls["solver.fit_completion"],
        "solver.iterations": iterations,
        "solver.backtracks": counts["solver.backtracks"],
        "solver.accepted_ratio": ratio(counts["solver.accepted"], iterations),
        "solver.tune_s": busy["solver.tune_tau"],
        "solver.fits_per_tune": ratio(fits_in_tune, calls["solver.tune_tau"]),
        "families.g_s": busy["families.g"],
        "families.g_prime_s": busy["families.g_prime"],
        "response_model.estimate_s": busy["response_model.estimate_response_probs"],
        "response_model.cells": calls["response_model.fit_logistic"],
        "response_model.fallback_cells": counts["response_model.fallback_cells"],
        "response_model.degenerate_cells": counts["response_model.degenerate_cells"],
        "simulator.simulate_s": busy["simulator.simulate_survey"],
        "simulator.calls": calls["simulator.simulate_survey"],
        "baselines.soft_impute_s": busy["baselines.soft_impute"],
        "baselines.soft_impute_iters": counts["baselines.soft_impute_iters"],
        "baselines.hot_deck_s": busy["baselines.hot_deck"],
        "baselines.collective_unweighted_s": busy["baselines.collective_unweighted"],
        "benchmark.tune_taus_s": busy["benchmark.tune_benchmark_taus"],
        "benchmark.replicates_s": replicates_s,
        "benchmark.replicate_s": statistics.median(walls) if walls else 0.0,
        "benchmark.parallel_eff": ratio(sum(walls), replicates_s * counts["benchmark.threads"]),
        "benchmark.method_failures": counts["benchmark.method_failures"],
        "io.load_s": entered("io.load_"),
        "io.write_s": entered(("io.save_", "io.write_")),
        "io.bytes_written": counts["io.bytes_written"],
        "cli.self_s": layer_self("cli"),
    }


def layer_metrics(tracer: Tracer) -> dict:
    """Median over the traced ops of each per-op metric."""
    by_op: dict[int, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)
    per_op = [op_metrics(spans, tracer.counts[op], tracer.samples[op])
              for op, spans in sorted(by_op.items())]
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
