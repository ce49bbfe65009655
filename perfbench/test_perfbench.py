"""Tests of the benchmark's reference computations and output checks.

    python3 -m pytest perfbench -q

The references are tested against exact values on the paper's seven-node
Fig. 1 graph, found by enumerating all 2^10 possible worlds; each check
is tested to pass on a real answer and fail on a corrupted one.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

import checks
from reference import live_edge_reach, mc_spread_samples
from repro.graphs import toy

V = toy.TOY_NODE_IDS
SEED_SETS = [sorted(toy.TOY_TARGET_SET), [V["v1"]], [V["v2"], V["v6"]], [V["v4"]]]


def _toy_arrays():
    graph = toy.toy_graph()
    return (
        graph.n,
        np.asarray(graph.edge_sources),
        np.asarray(graph.edge_targets),
        np.asarray(graph.edge_probabilities),
    )


def _naive_reach(n, sources, targets, live, seeds):
    reached, stack = set(seeds), list(seeds)
    while stack:
        node = stack.pop()
        for edge in range(len(sources)):
            if live[edge] and sources[edge] == node and targets[edge] not in reached:
                reached.add(int(targets[edge]))
                stack.append(int(targets[edge]))
    return reached


def _worlds():
    n, sources, targets, probs = _toy_arrays()
    for states in itertools.product((False, True), repeat=len(probs)):
        live = np.asarray(states)
        weight = float(np.prod(np.where(live, probs, 1.0 - probs)))
        yield live, weight


def _exact_spread(seeds):
    n, sources, targets, _ = _toy_arrays()
    return sum(
        weight * len(_naive_reach(n, sources, targets, live, seeds))
        for live, weight in _worlds()
    )


def test_live_edge_reach_matches_enumeration_in_every_world():
    n, sources, targets, _ = _toy_arrays()
    for live, _ in _worlds():
        for seeds in SEED_SETS:
            reached = live_edge_reach(n, sources, targets, live, seeds)
            assert set(np.flatnonzero(reached).tolist()) == _naive_reach(
                n, sources, targets, live, seeds
            )


def test_live_edge_reach_on_the_fig1_world():
    graph = toy.toy_graph()
    live = np.zeros(graph.m, dtype=bool)
    for u, v in toy.TOY_FIG1_LIVE_EDGES:
        edges = np.flatnonzero((graph.edge_sources == V[u]) & (graph.edge_targets == V[v]))
        live[edges] = True
    n, sources, targets, _ = _toy_arrays()
    assert live_edge_reach(n, sources, targets, live, [V["v2"], V["v6"]]).sum() == 6
    assert live_edge_reach(n, sources, targets, live, sorted(toy.TOY_TARGET_SET)).sum() == 7


def test_exact_target_profit_matches_the_paper():
    profit = _exact_spread(sorted(toy.TOY_TARGET_SET)) - 3 * toy.TOY_COST_PER_NODE
    assert profit == pytest.approx(toy.TOY_NONADAPTIVE_PROFIT, abs=0.05)


@pytest.mark.parametrize("seeds", SEED_SETS)
def test_monte_carlo_agrees_with_enumeration(seeds):
    n, sources, targets, probs = _toy_arrays()
    samples = mc_spread_samples(
        n, sources, targets, probs, seeds, 20_000, np.random.default_rng(7)
    )
    error = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - _exact_spread(seeds)) <= 4 * error


# ------------------------------------------------------------------ #
# the output checks reject corrupted answers
# ------------------------------------------------------------------ #


@pytest.fixture(scope="module")
def session_case():
    from repro import HATP, AdaptiveSession, quickstart_instance
    from repro.diffusion import Realization

    instance = quickstart_instance(nodes=300, k=10, random_state=3)
    graph = instance.graph
    realization = Realization.sample(graph, 4)
    result = HATP(instance.target, random_state=5).run(
        AdaptiveSession(graph, realization, instance.costs)
    )
    arrays = (graph.n, np.asarray(graph.edge_sources), np.asarray(graph.edge_targets))
    return instance, result, arrays, realization.live_mask


def _decided(result, action):
    return next(i for i, r in enumerate(result.iterations) if r.action == action)


def _flip(result, action):
    index = _decided(result, action)
    records = list(result.iterations)
    record = records[index]
    records[index] = replace(
        record, front_estimate=record.rear_estimate, rear_estimate=record.front_estimate
    )
    if record.front_estimate == record.rear_estimate:
        pytest.skip("tie between front and rear estimates")
    return replace(result, iterations=records)


def test_session_check_accepts_a_real_session(session_case):
    instance, result, arrays, live = session_case
    assert checks.check_session(result, instance.target, instance.costs, arrays, live) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: replace(r, realized_spread=r.realized_spread + 1),
        lambda r: replace(r, realized_profit=r.realized_profit + 0.5),
        lambda r: replace(r, rr_sets_generated=r.rr_sets_generated + 1),
        lambda r: replace(r, seeds=list(reversed(r.seeds)) + [r.seeds[0]]),
        lambda r: _flip(r, "selected"),
        lambda r: _flip(r, "rejected"),
    ],
    ids=["spread", "profit", "rr-count", "seeds", "selected-rule", "rejected-rule"],
)
def test_session_check_rejects_corruption(session_case, corrupt):
    instance, result, arrays, live = session_case
    bad = corrupt(result)
    assert checks.check_session(bad, instance.target, instance.costs, arrays, live)


def test_first_estimate_check(session_case):
    instance, result, arrays, _ = session_case
    graph = instance.graph
    first = instance.target[0]
    samples = mc_spread_samples(
        graph.n, arrays[1], arrays[2], np.asarray(graph.edge_probabilities), [first],
        4000, np.random.default_rng(8),
    )
    mean, sem = samples.mean(), samples.std(ddof=1) / np.sqrt(samples.size)
    assert checks.check_first_estimate(result, instance.costs, graph.n, mean, sem) == []
    assert checks.check_first_estimate(result, instance.costs, graph.n, 3 * mean + 50, sem)


@pytest.fixture(scope="module")
def suite_case():
    from repro import quickstart_instance
    from repro.experiments.config import PROFIT_ALGORITHMS, SMOKE
    from repro.experiments.runner import build_standard_suite, evaluate_suite

    instance = quickstart_instance(nodes=200, k=8, random_state=1)
    engine = replace(SMOKE.engine, eval_jobs=1)
    outcomes = evaluate_suite(
        build_standard_suite(engine), instance, 3,
        random_state=np.random.default_rng(9), eval_jobs=1,
    )
    graph = instance.graph
    worlds = np.random.default_rng(9).spawn(3)
    baseline = [
        int(live_edge_reach(
            graph.n, graph.edge_sources, graph.edge_targets,
            world.random(graph.m) < graph.edge_probabilities, instance.target,
        ).sum())
        for world in worlds
    ]
    return instance, outcomes, PROFIT_ALGORITHMS, baseline


def test_suite_check_accepts_a_real_suite(suite_case):
    instance, outcomes, names, baseline = suite_case
    assert checks.check_suite(outcomes, names, instance.target_cost(), instance.k, baseline) == []


@pytest.mark.parametrize("row", ["Baseline", "HATP"])
def test_suite_check_rejects_corruption(suite_case, row):
    instance, outcomes, names, baseline = suite_case
    corrupted = dict(outcomes)
    spreads = list(outcomes[row].per_realization_spreads)
    spreads[0] += 1
    corrupted[row] = replace(outcomes[row], per_realization_spreads=spreads)
    assert checks.check_suite(corrupted, names, instance.target_cost(), instance.k, baseline)


def _service_replies():
    hot = {"op": "spread", "seeds": [1, 2]}
    return [
        (hot, {"op": "spread", "seeds": [1, 2], "spread": 10.0, "cached": False}),
        (hot, {"op": "spread", "seeds": [1, 2], "spread": 10.0, "cached": True}),
        ({"op": "marginal", "node": 3, "conditioning": [1], "removed": [5, 6]},
         {"op": "marginal", "marginal_spread": 4.0}),
        ({"op": "topk", "k": 2, "segment": [3, 4, 5]}, {"op": "topk", "seeds": [3, 4]}),
        ({"op": "mc_spread", "seeds": [1, 2], "simulations": 10},
         {"op": "mc_spread", "spread": 2.5}),
    ]


HOT_REFERENCE = {json.dumps({"op": "spread", "seeds": [1, 2]}, sort_keys=True): (10.2, 0.1)}


def test_service_check_accepts_consistent_answers():
    assert checks.check_service(_service_replies(), 100, 20_000, HOT_REFERENCE) == []


@pytest.mark.parametrize(
    "position, field, value",
    [
        (1, "spread", 11.0),  # cached answer differs from the computed one
        (2, "marginal_spread", 99.0),  # above the 98 active nodes
        (3, "seeds", [3, 3]),  # repeated node
        (3, "seeds", [3, 9]),  # outside the segment
        (4, "spread", 1.0),  # below the two seeds
    ],
)
def test_service_check_rejects_corruption(position, field, value):
    replies = _service_replies()
    request, answer = replies[position]
    replies[position] = (request, dict(answer, **{field: value}))
    assert checks.check_service(replies, 100, 20_000, HOT_REFERENCE)


def test_service_check_rejects_a_hot_answer_far_from_monte_carlo():
    far = {json.dumps({"op": "spread", "seeds": [1, 2]}, sort_keys=True): (30.0, 0.1)}
    assert checks.check_service(_service_replies(), 100, 20_000, far)


def test_service_check_rejects_a_removed_topk_node():
    replies = [({"op": "topk", "k": 2, "removed": [4]}, {"op": "topk", "seeds": [3, 4]})]
    assert checks.check_service(replies, 100, 20_000, {})
