"""Span recorder and the wrappers that time ``repro``'s layers from outside.

A traced run (``--trace 1``) calls :func:`install`, which replaces public
methods and module functions of ``repro`` with thin wrappers that record
spans on a :class:`Recorder`; nothing in the package itself changes.  A
layer's *self time* is its span durations minus the part of them that
its child spans cover.  Spans are kept per thread, because the seeding
service executes batches on an executor thread while its event loop
keeps running.

A span nested inside a span of the same name (a public query method
calling another one) is not recorded again, so each layer counts its
outermost calls only.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List


class Recorder:
    """In-memory span totals: inclusive time, self time and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: per-request executor time of service batches, by request JSON
        self.batch_times: Dict[str, List[float]] = defaultdict(list)

    def reset(self) -> None:
        """Forget everything recorded so far (called when timing starts)."""
        with self._lock:
            for table in (self.inclusive, self.self_time, self.counts, self.batch_times):
                table.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if any(frame[0] == name for frame in stack):
            yield
            return
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            with self._lock:
                self.inclusive[name] += duration
                self.self_time[name] += duration - frame[1]

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return wrapper


def _replace(owner, attribute: str, make: Callable[[Callable], Callable]) -> None:
    """Wrap a plain method, classmethod or module function in place.

    A target that no longer exists is skipped, so a refactor of the
    package leaves its layer's metrics at 0 instead of breaking runs.
    """
    original = owner.__dict__.get(attribute)
    if original is None:
        return
    if isinstance(original, classmethod):
        setattr(owner, attribute, classmethod(make(original.__func__)))
    else:
        setattr(owner, attribute, make(original))


def install(recorder: Recorder) -> None:
    """Wrap every traced layer of ``repro`` for the rest of the process."""
    import dataclasses

    from repro import kernels
    from repro.core import estimation, hatp, session
    from repro.diffusion import realization
    from repro.experiments import runner
    from repro.parallel import broker, eval_pool
    from repro.parallel.supervisor import LadderStats
    from repro.sampling import coverage, flat_collection
    from repro.service import state

    span = recorder.wrap

    def spanned(name):
        return lambda function: span(name, function)

    _replace(hatp.HATP, "run", spanned("core.session"))
    _replace(estimation.FrontRearEstimator, "estimates", spanned("core.estimate"))
    _replace(session.AdaptiveSession, "commit_seed", spanned("core.observe"))

    collection = flat_collection.FlatRRCollection

    _replace(collection, "generate", spanned("sampling.generate"))

    def counted_extension(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            recorder.count("sampling.extend_calls")
            with recorder.span("sampling.generate"):
                return function(*args, **kwargs)

        return wrapper

    _replace(collection, "extend_generate", counted_extension)
    for name in (
        "sets_containing", "nodes_appearing", "covering_ids", "covered_mask",
        "coverage", "batch_coverage", "estimate_spreads", "marginal_coverage",
        "estimate_spread", "estimate_marginal_spread", "estimate_fraction",
    ):
        _replace(collection, name, spanned("sampling.query"))
    for name in (
        "__init__", "sync", "add", "remove", "coverage", "marginal_count",
        "estimate_spread", "estimate_marginal_spread",
    ):
        _replace(coverage.CoverageCounter, name, spanned("sampling.counter"))

    wrapped_backends: dict = {}

    def kernel_generate(function):
        @functools.wraps(function)
        def wrapper(view, roots, rng):
            with recorder.span("kernels.generate"):
                batch = function(view, roots, rng)
            recorder.count("kernels.generate_calls")
            recorder.count("kernels.rr_sets", batch.num_sets)
            recorder.count("kernels.rr_members", int(batch.nodes.shape[0]))
            return batch

        return wrapper

    original_get_backend = kernels.get_backend

    def get_backend(*args, **kwargs):
        spec = original_get_backend(*args, **kwargs)
        if spec.name not in wrapped_backends:
            wrapped_backends[spec.name] = dataclasses.replace(
                spec,
                generate_batch=kernel_generate(spec.generate_batch),
                replay_batch=span("kernels.replay", spec.replay_batch),
            )
        return wrapped_backends[spec.name]

    kernels.get_backend = get_backend

    _replace(realization.Realization, "sample", spanned("diffusion.realize"))
    _replace(realization.BaseRealization, "spread", spanned("diffusion.score"))
    _replace(runner, "batch_realization_spreads", spanned("diffusion.score"))

    def timed_chunks(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            chunks = function(*args, **kwargs)
            while True:
                with recorder.span("diffusion.realize"):
                    chunk = next(chunks, None)
                if chunk is None:
                    return
                yield chunk

        return wrapper

    _replace(state, "sample_live_chunks", timed_chunks)
    _replace(state, "replay_live_edges", spanned("diffusion.score"))

    def per_algorithm(function):
        @functools.wraps(function)
        def wrapper(spec, *args, **kwargs):
            with recorder.span(f"experiments.{spec.name.lower()}"):
                return function(spec, *args, **kwargs)

        return wrapper

    _replace(runner, "evaluate_adaptive", per_algorithm)
    _replace(runner, "evaluate_nonadaptive", per_algorithm)

    _replace(broker.SharedGraphBroker, "__init__", spanned("parallel.publish"))

    def dispatched_sessions(function):
        @functools.wraps(function)
        def wrapper(self, factory, instance, tickets, *args, **kwargs):
            with recorder.span("parallel.sessions"):
                records = function(self, factory, instance, tickets, *args, **kwargs)
            recorder.count("parallel.tasks", len(records))
            recorder.count("parallel.worker_busy_s", sum(r.runtime_seconds for r in records))
            return records

        return wrapper

    _replace(eval_pool.EvaluationPool, "run_sessions", dispatched_sessions)

    def dispatched_scoring(function):
        @functools.wraps(function)
        def wrapper(self, seeds, tickets, *args, **kwargs):
            recorder.count("parallel.tasks", len(tickets))
            with recorder.span("parallel.scoring"):
                return function(self, seeds, tickets, *args, **kwargs)

        return wrapper

    _replace(eval_pool.EvaluationPool, "score_selection", dispatched_scoring)

    def ladder(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stats = kwargs.setdefault("stats", LadderStats())
            try:
                return function(*args, **kwargs)
            finally:
                recorder.count("parallel.retries", stats.retries)
                recorder.count("parallel.rebuilds", stats.rebuilds)

        return wrapper

    _replace(eval_pool, "supervised_collect", ladder)

    def timed_batch(function):
        @functools.wraps(function)
        def wrapper(self, requests):
            with recorder.span("service.execute"):
                start = time.perf_counter()
                answers = function(self, requests)
                elapsed = time.perf_counter() - start
            with recorder._lock:
                for request in requests:
                    recorder.batch_times[json.dumps(request, sort_keys=True)].append(elapsed)
            return answers

        return wrapper

    _replace(state.ServiceState, "execute_batch", timed_batch)

    def timed_collection(function):
        @functools.wraps(function)
        def wrapper(self, entry, *args, **kwargs):
            before = entry.generations
            start = time.perf_counter()
            result = function(self, entry, *args, **kwargs)
            if entry.generations != before:
                recorder.count("service.cold_generations")
                recorder.count("service.generate_s", time.perf_counter() - start)
            return result

        return wrapper

    _replace(state.ServiceState, "collection_for", timed_collection)
