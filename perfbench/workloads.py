"""The four benchmark workloads; each runs in its own process.

Usage (normally started by ``run.py``, which also checks process and
shared-memory hygiene afterwards)::

    python3 perfbench/workloads.py --workload hatp-default --seed 1 --seconds 10 --trace 0

Prints one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``.  Every input is derived from ``--seed``.

Each workload repeats whole *rounds* until ``--seconds`` have passed:
one HATP session (``hatp-*``), one ``evaluate_suite`` call
(``paper-suite``) or one 100-query session per client
(``service-closed``).  See ``README.md`` for what each metric means on
each workload.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import replace
from typing import Callable, Dict, List, Sequence

import numpy as np

import checks
import tracing
from reference import live_edge_reach, mc_spread_samples

#: Set-ups per run: at least ``SETUPS`` and until ``SETUP_MIN_S`` seconds
#: of set-up have passed, at most ``SETUPS_MAX``; ``setup_s`` is their median.
SETUPS = 3
SETUP_MIN_S = 2.0
SETUPS_MAX = 15

#: Seed of each workload's graph and instance.  A workload's dataset is
#: fixed, like a real benchmark graph; ``--seed`` drives everything else
#: (realizations, the algorithms' random streams, the query stream).
DATASET_SEED = 2020

WORKLOAD_NAMES = ("hatp-default", "hatp-tuned", "paper-suite", "service-closed")

END_TO_END = {
    "setup_s": "s",
    "session_p50_s": "s",
    "suite_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "qps": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graphs.build_s": "s",
    "core.instance_s": "s",
    "core.decisions": "count",
    "core.rounds": "count",
    "core.budget_hits": "count",
    "core.estimate_self_s": "s",
    "core.loop_self_s": "s",
    "core.observe_s": "s",
    "sampling.generate_s": "s",
    "sampling.query_s": "s",
    "sampling.counter_s": "s",
    "sampling.rr_sets": "count",
    "sampling.rr_members": "count",
    "sampling.rr_sets_per_s": "1/s",
    "sampling.extend_calls": "count",
    "kernels.generate_s": "s",
    "kernels.generate_calls": "count",
    "kernels.members_per_s": "1/s",
    "kernels.replay_s": "s",
    "diffusion.realize_s": "s",
    "diffusion.score_s": "s",
    "experiments.hatp_s": "s",
    "experiments.addatp_s": "s",
    "experiments.hntp_s": "s",
    "experiments.nsg_s": "s",
    "experiments.ndg_s": "s",
    "experiments.ars_s": "s",
    "parallel.publish_s": "s",
    "parallel.dispatch_s": "s",
    "parallel.worker_busy_s": "s",
    "parallel.tasks": "count",
    "parallel.retries": "count",
    "parallel.rebuilds": "count",
    "parallel.utilization": "ratio",
    "service.cache_hit_rate": "ratio",
    "service.hit_p50_ms": "ms",
    "service.wait_p50_ms": "ms",
    "service.batches": "count",
    "service.coalesced_batches": "count",
    "service.batch_size_mean": "count",
    "service.execute_s": "s",
    "service.cold_generations": "count",
    "service.generate_s": "s",
}
PER_LAYER.update({f"traced.{name}": unit for name, unit in END_TO_END.items()})


# --------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------- #


def stream(seed: int, *tags: int) -> np.random.Generator:
    """The generator of one input stream: a pure function of seed and tags."""
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def supported_percentile(values: Sequence[float], q: float = 99.0) -> float:
    """The ``q``-th percentile, or the highest one with ten samples beyond it.

    With fewer than forty samples no tail is supported and the median is
    returned.
    """
    count = len(values)
    if count < 40:
        return float(np.median(values))
    return float(np.percentile(values, min(q, 100.0 * (1.0 - 10.0 / count))))


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def graph_arrays(graph):
    return graph.n, np.asarray(graph.edge_sources), np.asarray(graph.edge_targets)


def monte_carlo(graph, seeds, simulations: int, rng) -> tuple:
    """Reference ``E[I(S)]`` and its standard error."""
    n, sources, targets = graph_arrays(graph)
    samples = mc_spread_samples(
        n, sources, targets, np.asarray(graph.edge_probabilities), seeds, simulations, rng
    )
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(simulations))


def more_setups(totals: Sequence[float]) -> bool:
    """Whether another set-up is due, after set-ups that took ``totals`` seconds."""
    if len(totals) < SETUPS:
        return True
    return len(totals) < SETUPS_MAX and sum(totals) < SETUP_MIN_S


def timed_setups(setup: Callable[[], dict]) -> tuple:
    """Run ``setup`` as :func:`more_setups` says; median seconds, phase medians, last state."""
    totals, phases, state = [], {}, None
    while more_setups(totals):
        start = time.perf_counter()
        state = setup()
        totals.append(time.perf_counter() - start)
        for phase, seconds in state.pop("phases", {}).items():
            phases.setdefault(phase, []).append(seconds)
    return (
        statistics.median(totals),
        {phase: statistics.median(values) for phase, values in phases.items()},
        state,
    )


def layer_metrics(recorder: tracing.Recorder, rounds: int, extra: Dict[str, float]) -> dict:
    """Per-layer metrics from a traced run, per round.

    Span times are self times, except the per-algorithm ``experiments.*``
    and the service's ``execute_s`` / ``generate_s``, which are inclusive.
    """
    own = recorder.self_time
    total = recorder.inclusive
    counts = recorder.counts
    per = 1.0 / max(rounds, 1)

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    sessions_self = own["parallel.sessions"]
    values = {
        "core.estimate_self_s": own["core.estimate"] * per,
        "core.loop_self_s": own["core.session"] * per,
        "core.observe_s": own["core.observe"] * per,
        "sampling.generate_s": own["sampling.generate"] * per,
        "sampling.query_s": own["sampling.query"] * per,
        "sampling.counter_s": own["sampling.counter"] * per,
        "sampling.rr_sets": counts["kernels.rr_sets"] * per,
        "sampling.rr_members": counts["kernels.rr_members"] * per,
        "sampling.rr_sets_per_s": rate(counts["kernels.rr_sets"], total["sampling.generate"]),
        "sampling.extend_calls": counts["sampling.extend_calls"] * per,
        "kernels.generate_s": own["kernels.generate"] * per,
        "kernels.generate_calls": counts["kernels.generate_calls"] * per,
        "kernels.members_per_s": rate(counts["kernels.rr_members"], total["kernels.generate"]),
        "kernels.replay_s": own["kernels.replay"] * per,
        "diffusion.realize_s": own["diffusion.realize"] * per,
        "diffusion.score_s": own["diffusion.score"] * per,
        "parallel.publish_s": own["parallel.publish"] * per,
        "parallel.dispatch_s": (sessions_self + own["parallel.scoring"]) * per,
        "parallel.worker_busy_s": counts["parallel.worker_busy_s"] * per,
        "parallel.tasks": counts["parallel.tasks"] * per,
        "parallel.retries": counts["parallel.retries"] * per,
        "parallel.rebuilds": counts["parallel.rebuilds"] * per,
        "service.execute_s": total["service.execute"] * per,
        "service.cold_generations": counts["service.cold_generations"] * per,
        "service.generate_s": counts["service.generate_s"] * per,
    }
    for name in ("hatp", "addatp", "hntp", "nsg", "ndg", "ars"):
        values[f"experiments.{name}_s"] = total[f"experiments.{name}"] * per
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def output(correct, attempted, failed, e2e: dict, layers) -> dict:
    if layers is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        layers.update({f"traced.{name}": e2e[name] for name in END_TO_END})
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed), "metrics": metrics}


def report_problems(problems: List[str]) -> bool:
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return not problems


# --------------------------------------------------------------------- #
# hatp-default / hatp-tuned
# --------------------------------------------------------------------- #

SESSION_WORKLOADS = {
    # dataset, nodes, HATP keyword arguments, Monte-Carlo simulations
    "hatp-default": ("nethept", 15_200, {}, 4000),
    "hatp-tuned": ("epinions", 132_000, {"backend": "native", "sample_reuse": True}, 150),
}
TARGET_SIZE = 50
WARM_UP_TARGET = 5


def run_sessions(name: str, seed: int, seconds: float, recorder) -> dict:
    from repro.core import HATP, AdaptiveSession, build_spread_calibrated_instance
    from repro.diffusion import Realization
    from repro.graphs import datasets

    dataset, nodes, options, simulations = SESSION_WORKLOADS[name]

    def setup() -> dict:
        start = time.perf_counter()
        graph = datasets.load_proxy(dataset, nodes=nodes, random_state=stream(DATASET_SEED, 0))
        built = time.perf_counter()
        instance = build_spread_calibrated_instance(
            graph, k=TARGET_SIZE, cost_setting="degree", random_state=stream(DATASET_SEED, 1)
        )
        instanced = time.perf_counter()
        warm_up = AdaptiveSession(graph, Realization.sample(graph, stream(seed, 2)), instance.costs)
        HATP(instance.target[:WARM_UP_TARGET], random_state=stream(seed, 3), **options).run(warm_up)
        return {
            "graph": graph,
            "instance": instance,
            "phases": {"graphs.build_s": built - start, "core.instance_s": instanced - built},
        }

    setup_s, phases, state = timed_setups(setup)
    graph, instance = state["graph"], state["instance"]
    if recorder is not None:
        recorder.reset()

    sessions, rounds = [], []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        index = len(sessions)
        round_begin = time.perf_counter()
        realization = Realization.sample(graph, stream(seed, 4, index))
        session = AdaptiveSession(graph, realization, instance.costs)
        algorithm = HATP(instance.target, random_state=stream(seed, 5, index), **options)
        begin = time.perf_counter()
        result = algorithm.run(session)
        end = time.perf_counter()
        sessions.append((end - begin, result, realization))
        rounds.append(end - round_begin)
    rss = peak_rss_mb()

    problems = []
    arrays = graph_arrays(graph)
    first = instance.target[0]
    mc_mean, mc_sem = monte_carlo(graph, [first], simulations, stream(seed, 6))
    for _, result, realization in sessions:
        problems += checks.check_session(
            result, instance.target, instance.costs, arrays, realization.live_mask
        )
        problems += checks.check_first_estimate(result, instance.costs, graph.n, mc_mean, mc_sem)

    times = [seconds_taken for seconds_taken, _, _ in sessions]
    e2e = {
        "setup_s": setup_s,
        "session_p50_s": statistics.median(times),
        "suite_s": statistics.median(rounds),
        "query_p50_ms": 1000.0 * statistics.median(times),
        "query_p99_ms": 1000.0 * supported_percentile(times),
        "qps": 1.0 / statistics.median(rounds),
        "peak_rss_mb": rss,
    }
    layers = None
    if recorder is not None:
        results = [result for _, result, _ in sessions]
        decided = [r for result in results for r in result.iterations if r.rounds > 0]
        layers = layer_metrics(
            recorder,
            len(sessions),
            dict(
                phases,
                **{
                    "core.decisions": len(decided) / len(results),
                    "core.rounds": sum(r.rounds for r in decided) / len(results),
                    "core.budget_hits": sum(r.extra["budget_hits"] for r in results) / len(results),
                },
            ),
        )
    return output(report_problems(problems), len(sessions), 0, e2e, layers)


# --------------------------------------------------------------------- #
# paper-suite
# --------------------------------------------------------------------- #

SUITE_NODES = 2_000
SUITE_TARGET = 15
SUITE_REALIZATIONS = 8
SUITE_JOBS = 2


def run_suite(seed: int, seconds: float, recorder) -> dict:
    from repro.core import build_spread_calibrated_instance
    from repro.experiments.config import PROFIT_ALGORITHMS, SMALL
    from repro.experiments.runner import build_standard_suite, evaluate_suite
    from repro.graphs import datasets

    engine = replace(SMALL.engine, eval_jobs=SUITE_JOBS)

    def setup() -> dict:
        start = time.perf_counter()
        graph = datasets.load_proxy("nethept", nodes=SUITE_NODES, random_state=stream(DATASET_SEED, 0))
        built = time.perf_counter()
        instance = build_spread_calibrated_instance(
            graph, k=SUITE_TARGET, cost_setting="degree", random_state=stream(DATASET_SEED, 1)
        )
        return {
            "graph": graph,
            "instance": instance,
            "specs": build_standard_suite(engine),
            "phases": {
                "graphs.build_s": built - start,
                "core.instance_s": time.perf_counter() - built,
            },
        }

    setup_s, phases, state = timed_setups(setup)
    graph, instance, specs = state["graph"], state["instance"], state["specs"]
    if recorder is not None:
        recorder.reset()

    calls = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        index = len(calls)
        begin = time.perf_counter()
        outcomes = evaluate_suite(
            specs,
            instance,
            SUITE_REALIZATIONS,
            random_state=stream(seed, 4, index),
            eval_jobs=engine.eval_jobs,
        )
        calls.append((time.perf_counter() - begin, outcomes))
    rss = peak_rss_mb()

    n, sources, targets = graph_arrays(graph)
    problems = []
    for index, (_, outcomes) in enumerate(calls):
        # evaluate_suite's i-th realization samples its world from the
        # i-th child spawned off the suite's generator.
        worlds = stream(seed, 4, index).spawn(SUITE_REALIZATIONS)
        baseline = [
            int(live_edge_reach(n, sources, targets, world.random(graph.m) < graph.edge_probabilities, instance.target).sum())
            for world in worlds
        ]
        problems += checks.check_suite(
            outcomes, PROFIT_ALGORITHMS, instance.target_cost(), instance.k, baseline
        )

    times = [seconds_taken for seconds_taken, _ in calls]
    hatp_sessions = [outcomes["HATP"].selection_runtime_seconds for _, outcomes in calls]
    e2e = {
        "setup_s": setup_s,
        "session_p50_s": statistics.median(hatp_sessions),
        "suite_s": statistics.median(times),
        "query_p50_ms": 1000.0 * statistics.median(times),
        "query_p99_ms": 1000.0 * supported_percentile(times),
        "qps": 1.0 / statistics.median(times),
        "peak_rss_mb": rss,
    }
    layers = None
    if recorder is not None:
        busy = recorder.counts["parallel.worker_busy_s"]
        dispatch = recorder.self_time["parallel.sessions"]
        utilization = busy / (SUITE_JOBS * dispatch) if dispatch > 0 else 0.0
        layers = layer_metrics(recorder, len(calls), dict(phases, **{"parallel.utilization": utilization}))
    return output(report_problems(problems), len(calls), 0, e2e, layers)


# --------------------------------------------------------------------- #
# service-closed
# --------------------------------------------------------------------- #

SERVICE_NODES = 15_200
SERVICE_THETA = 20_000
CLIENTS = 2
HOT_POOL = 8
RESIDUAL_STATES = 36
REMOVED_PER_STATE = 30
MC_SIMULATIONS = 100
#: Queries of one client session, by kind; 100 in all.
SESSION_MIX = {
    "hot": 40,
    "spread": 22,
    "marginal": 22,
    "topk": 8,
    "residual": 5,
    "mc": 2,
    "malformed": 1,
}
#: Content-Length values of the malformed requests, alternating by client.
BAD_LENGTHS = ("abc", "-5")
HOT_CHECK_SIMULATIONS = 2000


def hot_pool(seed: int, n: int) -> List[dict]:
    rng = stream(seed, 10)
    return [
        {"op": "spread", "seeds": sorted(int(v) for v in rng.choice(n, size=3, replace=False))}
        for _ in range(HOT_POOL)
    ]


def residual_states(seed: int, n: int) -> List[List[int]]:
    rng = stream(seed, 11)
    return [
        sorted(int(v) for v in rng.choice(n, size=REMOVED_PER_STATE, replace=False))
        for _ in range(RESIDUAL_STATES)
    ]


def client_session(seed: int, client: int, index: int, n: int, hot, states) -> list:
    """One client session: the fixed mix in a seed-dependent order."""
    rng = stream(seed, 12, client, index)

    def nodes(count: int) -> List[int]:
        return sorted(int(v) for v in rng.choice(n, size=count, replace=False))

    queries: list = []
    for _ in range(SESSION_MIX["hot"]):
        queries.append(dict(hot[int(rng.integers(len(hot)))]))
    for _ in range(SESSION_MIX["spread"]):
        queries.append({"op": "spread", "seeds": nodes(int(rng.integers(1, 4)))})
    for _ in range(SESSION_MIX["marginal"]):
        queries.append({"op": "marginal", "node": int(rng.integers(n)), "conditioning": nodes(2)})
    for _ in range(SESSION_MIX["topk"]):
        queries.append({"op": "topk", "k": int(rng.integers(2, 6)), "segment": nodes(40)})
    for _ in range(SESSION_MIX["residual"]):
        removed = states[int(rng.integers(len(states)))]
        node = int(rng.integers(n))
        while node in removed:
            node = int(rng.integers(n))
        queries.append(
            {"op": "marginal", "node": node, "conditioning": nodes(2), "removed": removed}
        )
    for _ in range(SESSION_MIX["mc"]):
        queries.append(
            {"op": "mc_spread", "seeds": nodes(int(rng.integers(1, 4))), "simulations": MC_SIMULATIONS}
        )
    for _ in range(SESSION_MIX["malformed"]):
        queries.append(BAD_LENGTHS[client % len(BAD_LENGTHS)])
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


class Client:
    """Keep-alive HTTP/1.1 client speaking to the service on 127.0.0.1."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._reader = self._writer = None

    async def _connect(self):
        return await asyncio.open_connection("127.0.0.1", self._port)

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple:
        if self._writer is None:
            self._reader, self._writer = await self._connect()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("ascii") + body)
        await self._writer.drain()
        return await read_response(self._reader)

    async def query(self, payload: dict) -> tuple:
        return await self.request("POST", "/query", json.dumps(payload).encode("utf-8"))

    async def malformed(self, length: str) -> bool:
        """A request with a bad Content-Length on its own connection.

        Succeeds when the service answers 400 and still serves afterwards.
        """
        reader, writer = await self._connect()
        try:
            writer.write(
                f"POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {length}\r\n\r\n{{}}".encode()
            )
            await writer.drain()
            status, _ = await asyncio.wait_for(read_response(reader), timeout=5.0)
        except (asyncio.TimeoutError, ConnectionError, asyncio.IncompleteReadError, ValueError):
            return False
        finally:
            writer.close()
        if status != 400:
            return False
        probe = Client(self._port)
        try:
            status, _ = await probe.request("GET", "/healthz")
        finally:
            await probe.close()
        return status == 200

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            await self._writer.wait_closed()
            self._writer = None


async def read_response(reader) -> tuple:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed without a reply")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = (await reader.readline()).rstrip(b"\r\n")
        if not line:
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, json.loads(body) if body else {}


def run_service(seed: int, seconds: float, recorder) -> dict:
    return asyncio.run(_run_service(seed, seconds, recorder))


async def _run_service(seed: int, seconds: float, recorder) -> dict:
    from repro.graphs import datasets
    from repro.service.api import SeedingServer
    from repro.service.state import ServiceState

    replies: list = []  # (request, answer) pairs for the checks
    setup_times, build_times = [], []
    server = client = None
    while more_setups(setup_times):
        if server is not None:
            await client.close()
            await server.close()
        start = time.perf_counter()
        graph = datasets.load_proxy("nethept", nodes=SERVICE_NODES, random_state=stream(DATASET_SEED, 0))
        build_times.append(time.perf_counter() - start)
        state = ServiceState(num_samples=SERVICE_THETA, seed=seed)
        state.register_graph(graph)
        server = SeedingServer(state, host="127.0.0.1", port=0)
        await server.start()
        client = Client(server.port)
        hot = hot_pool(seed, graph.n)
        for query in hot:  # untimed warm-up: full-graph collection, hot answers
            status, answer = await client.query(query)
            if status == 200:
                replies.append((query, answer))
        setup_times.append(time.perf_counter() - start)
    states = residual_states(seed, graph.n)
    before = server.metrics()
    if recorder is not None:
        recorder.reset()

    latencies: List[float] = []
    hits: List[float] = []
    waits: List[float] = []
    session_times: List[float] = []
    attempted = failed = 0
    started = time.perf_counter()

    async def client_session_run(own: Client, index: int, session: int) -> None:
        nonlocal attempted, failed
        queries = client_session(seed, index, session, graph.n, hot, states)
        begin = time.perf_counter()
        for query in queries:
            attempted += 1
            if isinstance(query, str):
                answered = await own.malformed(query)
                failed += not answered
                continue
            sent = time.perf_counter()
            status, answer = await own.query(query)
            elapsed = time.perf_counter() - sent
            if status != 200:
                failed += 1
                print(f"query failed with {status}: {answer}", file=sys.stderr)
                continue
            latencies.append(elapsed)
            replies.append((query, answer))
            if recorder is None:
                continue
            if answer.get("cached"):
                hits.append(elapsed)
            else:
                executed = recorder.batch_times.get(json.dumps(query, sort_keys=True))
                if executed:
                    waits.append(elapsed - executed.pop(0))
        session_times.append(time.perf_counter() - begin)

    # Rounds end together, so both clients load the service until the end.
    clients = [Client(server.port) for _ in range(CLIENTS)]
    round_times: List[float] = []
    rounds = 0
    try:
        while time.perf_counter() - started < seconds:
            begin = time.perf_counter()
            await asyncio.gather(
                *(client_session_run(own, index, rounds) for index, own in enumerate(clients))
            )
            round_times.append(time.perf_counter() - begin)
            rounds += 1
    finally:
        for own in clients:
            await own.close()
    wall = time.perf_counter() - started
    after = server.metrics()
    await client.close()
    await server.close()
    rss = peak_rss_mb()

    hot_reference = {}
    for number, query in enumerate(hot):
        hot_reference[json.dumps(query, sort_keys=True)] = monte_carlo(
            graph, query["seeds"], HOT_CHECK_SIMULATIONS, stream(seed, 13, number)
        )
    problems = checks.check_service(replies, graph.n, SERVICE_THETA, hot_reference)

    e2e = {
        "setup_s": statistics.median(setup_times),
        "session_p50_s": statistics.median(session_times),
        "suite_s": statistics.median(round_times),
        "query_p50_ms": 1000.0 * statistics.median(latencies),
        "query_p99_ms": 1000.0 * supported_percentile(latencies),
        "qps": len(latencies) / wall,
        "peak_rss_mb": rss,
    }
    layers = None
    if recorder is not None:
        cache = {key: after["state"]["answer_cache"][key] - before["state"]["answer_cache"][key] for key in ("hits", "misses")}
        batches = after["batcher"]["batches"] - before["batcher"]["batches"]
        batched = (
            after["batcher"]["mean_batch_size"] * after["batcher"]["batches"]
            - before["batcher"]["mean_batch_size"] * before["batcher"]["batches"]
        )
        extra = {
            "graphs.build_s": statistics.median(build_times),
            "service.cache_hit_rate": cache["hits"] / max(cache["hits"] + cache["misses"], 1),
            "service.hit_p50_ms": 1000.0 * statistics.median(hits) if hits else 0.0,
            "service.wait_p50_ms": 1000.0 * statistics.median(waits) if waits else 0.0,
            "service.batches": batches / rounds,
            "service.coalesced_batches": (
                after["batcher"]["coalesced_batches"] - before["batcher"]["coalesced_batches"]
            ) / rounds,
            "service.batch_size_mean": batched / batches if batches else 0.0,
        }
        layers = layer_metrics(recorder, rounds, extra)
    return output(report_problems(problems), attempted, failed, e2e, layers)


RUNNERS = {
    "hatp-default": lambda seed, seconds, recorder: run_sessions("hatp-default", seed, seconds, recorder),
    "hatp-tuned": lambda seed, seconds, recorder: run_sessions("hatp-tuned", seed, seconds, recorder),
    "paper-suite": run_suite,
    "service-closed": run_service,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    result = RUNNERS[args.workload](args.seed, args.seconds, recorder)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
