"""Per-layer timing for the benchmark: an in-memory span recorder plus the
wrappers that time calls into each ``repro`` module from outside it.

Nothing under ``src/`` is edited. :func:`instrument` replaces each public
function at the name its callers look it up under (for example
``repro.experiments.matrix.imcis_from_sample``, which is what
``run_matrix`` calls, not ``repro.imcis.algorithm.imcis_from_sample``) and
returns an undo callable. While :attr:`Tracer.active` is false a wrapper
costs one attribute read and forwards the call untouched.

Every span records ``(id, parent id, name, start, end, thread id)``. Spans
stay in memory and :meth:`Tracer.write` stores them when the run ends. A
span's self time is its duration minus the time covered by its direct
children, which run nested on the same thread. The span name is the
per-layer metric it feeds: ``imcis.search`` becomes ``imcis.search_s``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Collects spans and counters from every thread of the process."""

    def __init__(self) -> None:
        self.active = False
        self.spans: "list[tuple[int, int, str, float, float, int]]" = []
        self.counts: "dict[str, float]" = defaultdict(float)
        #: ``((study, estimator, seed), start, end)`` of every
        #: ``execute_request`` call, to match service jobs with their work.
        self.executions: "list[tuple[tuple, float, float]]" = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Add *amount* to a named counter (thread-safe)."""
        with self._lock:
            self.counts[counter] += amount

    def wrap(self, name, fn, before=None, after=None):
        """Return *fn* timed as span *name*.

        *before(args, kwargs)* runs ahead of the call and its value is
        passed to *after(state, args, kwargs, result)*, which turns the
        call's result into counters. Both run outside the span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, start, end, threading.get_ident())
                )
            if after is not None:
                after(state, args, kwargs, result)
            return result

        return wrapper

    def self_times(self, thread: "int | None" = None) -> "dict[str, float]":
        """Self time per span name, optionally restricted to one thread."""
        child_time: "dict[int, float]" = defaultdict(float)
        for _sid, parent, _name, start, end, _thread in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: "dict[str, float]" = defaultdict(float)
        for sid, _parent, name, start, end, span_thread in self.spans:
            if thread is None or span_thread == thread:
                totals[name] += (end - start) - child_time[sid]
        return totals

    def write(self, path: Path) -> None:
        """Write all spans (one JSON array per line) and the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = {name: index for index, name in enumerate(sorted({s[2] for s in self.spans}))}
        with path.open("w") as handle:
            handle.write(json.dumps({"names": list(names), "counts": dict(self.counts)}) + "\n")
            handle.write("[id, parent, name, start, end, thread]\n")
            for sid, parent, name, start, end, thread in self.spans:
                handle.write(f"[{sid},{parent},{names[name]},{start!r},{end!r},{thread}]\n")


# ----------------------------------------------------------------------
# Counters derived from call arguments and results
# ----------------------------------------------------------------------


def _count_sample(tracer: Tracer):
    def after(_state, _args, _kwargs, sample) -> None:
        tracer.add("smc.traces", sample.n_total)
        tracer.add("smc.steps", sample.n_total * sample.mean_length)

    return after


def _count_ess(tracer: Tracer, unwrap=lambda result: result):
    def after(_state, _args, _kwargs, returned) -> None:
        result = unwrap(returned)
        tracer.add("importance.ess", result.ess or 0.0)
        tracer.add("importance.ess_traces", result.n_samples)

    return after


def _count_ce(tracer: Tracer):
    def after(_state, _args, _kwargs, ce) -> None:
        tracer.add("importance.ce_rounds", ce.rounds)

    return after


def _count_search(tracer: Tracer):
    def after(_state, _args, _kwargs, result) -> None:
        tracer.add("imcis.search_rounds", result.rounds_total)

    return after


def _dirichlet_hooks(tracer: Tracer):
    def before(args, _kwargs):
        stats = args[0].stats
        return stats.samples, stats.rejections

    def after(state, args, _kwargs, _row) -> None:
        stats = args[0].stats
        accepted = stats.samples - state[0]
        rejected = stats.rejections - state[1]
        tracer.add("imcis.dirichlet_accepted", accepted)
        tracer.add("imcis.dirichlet_draws", accepted + rejected)

    return before, after


def _store_hooks(tracer: Tracer):
    def before(_args, kwargs):
        store = kwargs.get("store")
        return None if store is None else (store, store.stats.hits, store.stats.misses)

    def after(state, _args, _kwargs, _result) -> None:
        if state is not None:
            store, hits, misses = state
            tracer.add("store.hits", store.stats.hits - hits)
            tracer.add("store.lookups", store.stats.hits - hits + store.stats.misses - misses)

    return before, after


def _execute_hooks(tracer: Tracer):
    def before(_args, _kwargs):
        return time.perf_counter()

    def after(start, args, kwargs, _result) -> None:
        request = args[0] if args else kwargs["request"]
        key = (request.study, request.estimator, request.seed)
        tracer.executions.append((key, start, time.perf_counter()))

    return before, after


def _count_calls(tracer: Tracer, counter: str):
    def after(_state, _args, _kwargs, _result) -> None:
        tracer.add(counter)

    return after


def instrument(tracer: Tracer):
    """Wrap every traced entry point; returns a callable that undoes it."""
    import repro.experiments.matrix as matrix
    import repro.experiments.runner as runner
    import repro.imcis.algorithm as algorithm
    import repro.importance.cross_entropy as cross_entropy
    import repro.service.jobs as jobs
    from repro.imcis.dirichlet import DirichletRowSampler
    from repro.models.registry import StudyRegistry
    from repro.store.store import ArtifactStore

    simulate = _count_sample(tracer)
    estimate = _count_ess(tracer)
    dirichlet_before, dirichlet_after = _dirichlet_hooks(tracer)
    store_before, store_after = _store_hooks(tracer)
    # (owner, attribute, span name, before, after)
    targets = [
        (matrix, "imcis_from_sample", "imcis.optimize", None, None),
        (algorithm, "random_search", "imcis.search", None, _count_search(tracer)),
        (DirichletRowSampler, "sample", "imcis.dirichlet", dirichlet_before, dirichlet_after),
        (algorithm, "estimate_from_sample", "importance.weights", None, estimate),
        (matrix, "run_importance_sampling", "smc.simulate", None, simulate),
        (matrix, "run_bounded_importance_sampling", "smc.simulate", None, simulate),
        (cross_entropy, "run_importance_sampling", "smc.simulate", None, simulate),
        (matrix, "estimate_from_sample", "importance.weights", None, estimate),
        (cross_entropy, "estimate_from_sample", "importance.weights", None, estimate),
        (matrix, "cross_entropy_estimate", "importance.ce", None, _count_ce(tracer)),
        (matrix, "run_imc_estimate", "importance.imc", None,
         _count_ess(tracer, lambda imc: imc.result)),
        (StudyRegistry, "make_study", "models.prepare", None,
         _count_calls(tracer, "models.prepare_calls")),
        (ArtifactStore, "get", "store.get", None, _count_calls(tracer, "store.gets")),
        (ArtifactStore, "put", "store.put", None, _count_calls(tracer, "store.puts")),
        # The cache-aware fan-out's own work (payload encode/decode) is
        # repetition bookkeeping: it joins run_matrix and map_repetitions
        # in the runner's self time; its store calls are spans of their own.
        (matrix, "map_repetitions_cached", "experiments.runner", store_before, store_after),
        (matrix, "run_matrix", "experiments.runner", None, None),
        (jobs, "run_matrix", "experiments.runner", None, None),
        (runner, "map_repetitions", "experiments.runner", None, None),
        (jobs, "execute_request", "service.execute", *_execute_hooks(tracer)),
    ]
    originals = []
    for owner, attribute, name, before, after in targets:
        original = owner.__dict__[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, tracer.wrap(name, original, before, after))

    def undo() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return undo


def layer_metrics(tracer: Tracer, wall_s: float, thread: int) -> "dict[str, float]":
    """Fold spans and counters into the per-layer metrics.

    *wall_s* is the traced wall time on *thread*, the thread that runs
    the estimation work; ``experiments.unattributed_s`` is the part of it
    no span on that thread accounts for, so the layer self times on that
    thread plus the unattributed time sum to *wall_s*.
    """
    self_all = tracer.self_times()
    self_main = tracer.self_times(thread)
    counts = tracer.counts
    simulate_s = self_all["smc.simulate"]
    draws = counts["imcis.dirichlet_draws"]
    lookups = counts["store.lookups"]
    ess_traces = counts["importance.ess_traces"]
    return {
        "imcis.optimize_s": self_all["imcis.optimize"],
        "imcis.search_s": self_all["imcis.search"],
        "imcis.search_rounds": counts["imcis.search_rounds"],
        "imcis.dirichlet_s": self_all["imcis.dirichlet"],
        "imcis.dirichlet_draws": draws,
        "imcis.dirichlet_accept_ratio": counts["imcis.dirichlet_accepted"] / draws if draws else 0.0,
        "smc.simulate_s": simulate_s,
        "smc.traces": counts["smc.traces"],
        "smc.steps": counts["smc.steps"],
        "smc.steps_per_s": counts["smc.steps"] / simulate_s if simulate_s > 0 else 0.0,
        "importance.weights_s": self_all["importance.weights"],
        "importance.ce_s": self_all["importance.ce"],
        "importance.imc_s": self_all["importance.imc"],
        "importance.ce_rounds": counts["importance.ce_rounds"],
        "importance.ess_per_trace": counts["importance.ess"] / ess_traces if ess_traces else 0.0,
        "models.prepare_s": self_all["models.prepare"],
        "models.prepare_calls": counts["models.prepare_calls"],
        "store.get_s": self_all["store.get"],
        "store.put_s": self_all["store.put"],
        "store.gets": counts["store.gets"],
        "store.puts": counts["store.puts"],
        "store.hit_ratio": counts["store.hits"] / lookups if lookups else 0.0,
        "experiments.runner_s": self_all["experiments.runner"],
        "experiments.unattributed_s": wall_s - sum(self_main.values()),
    }
