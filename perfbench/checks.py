"""Correctness checks of the workloads' outputs.

Every check returns a list of problems (empty when the output is right).
They compare against the benchmark's own reference computations
(:mod:`reference`) or against properties the method must have, never
against stored copies of earlier output.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from reference import live_edge_reach

#: Allowed distance, in standard errors, between a sampled estimate and
#: the reference Monte-Carlo value.  Five keeps a false alarm below one
#: in a million per comparison.
Z_TOLERANCE = 5.0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


def sampling_error(n: int, mc_mean: float, mc_sem: float, theta: float) -> float:
    """Standard error of an RIS spread estimate from ``theta`` RR sets,
    combined with that of the Monte-Carlo reference it is compared to."""
    p = min(max(mc_mean / n, 1.0 / n), 1.0 - 1.0 / n)
    return math.sqrt(n * n * p * (1.0 - p) / theta + mc_sem * mc_sem)


def check_session(
    result,
    target: Sequence[int],
    costs: Mapping[int, float],
    graph_arrays: Tuple[int, np.ndarray, np.ndarray],
    live: np.ndarray,
) -> List[str]:
    """One adaptive session against its own realization."""
    problems = []
    n, sources, targets = graph_arrays
    seeds = [int(v) for v in result.seeds]
    if len(set(seeds)) != len(seeds):
        problems.append(f"repeated seeds {seeds}")
    remaining = iter(target)
    if not all(seed in remaining for seed in seeds):
        problems.append("seeds are not a subsequence of the target in examination order")
    spread = int(live_edge_reach(n, sources, targets, live, seeds).sum())
    if spread != result.realized_spread:
        problems.append(f"realized_spread {result.realized_spread} != reference BFS {spread}")
    expected_profit = spread - sum(costs.get(seed, 0.0) for seed in seeds)
    if not _close(result.realized_profit, expected_profit):
        problems.append(
            f"realized_profit {result.realized_profit} != spread - cost {expected_profit}"
        )
    records = list(result.iterations)
    if [r.node for r in records] != list(target):
        problems.append("iterations do not follow the target's examination order")
    if [r.node for r in records if r.action == "selected"] != seeds:
        problems.append("selected iterations do not match the seeds")
    for record in records:
        if record.action == "selected" and not (
            record.front_estimate >= record.rear_estimate - 1e-9
        ):
            problems.append(f"node {record.node} selected although front < rear")
        if record.action == "rejected" and not (
            record.front_estimate <= record.rear_estimate + 1e-9
        ):
            problems.append(f"node {record.node} rejected although front > rear")
    if sum(r.rr_sets_generated for r in records) != result.rr_sets_generated:
        problems.append("per-iteration RR counts do not add up to rr_sets_generated")
    return problems


def check_first_estimate(
    result, costs: Mapping[int, float], n: int, mc_mean: float, mc_sem: float
) -> List[str]:
    """The first examined node's front estimate against Monte-Carlo ``E[I(u)]``.

    Nothing is active before the first decision, so its front estimate is
    an RIS estimate of ``E[I(u)]`` on the full graph.  The final round drew
    at least ``rr_sets_generated / (2 rounds)`` sets per collection, which
    bounds the estimate's standard error from above.
    """
    first = result.iterations[0]
    if first.action not in ("selected", "rejected") or first.rounds < 1:
        return [f"first examined node {first.node} was not decided ({first.action})"]
    front_spread = first.front_estimate + costs.get(first.node, 0.0)
    theta = first.rr_sets_generated / (2.0 * first.rounds)
    error = sampling_error(n, mc_mean, mc_sem, theta)
    if abs(front_spread - mc_mean) > Z_TOLERANCE * error:
        return [
            f"front estimate {front_spread:.1f} of node {first.node} is more than "
            f"{Z_TOLERANCE} standard errors ({error:.1f}) from Monte Carlo {mc_mean:.1f}"
        ]
    return []


def check_suite(
    outcomes: Mapping[str, object],
    algorithms: Iterable[str],
    target_cost: float,
    target_size: int,
    baseline_spreads: Sequence[int],
) -> List[str]:
    """Rows of one ``evaluate_suite`` call; the Baseline against reference BFS."""
    problems = []
    for name in algorithms:
        row = outcomes.get(name)
        if row is None:
            problems.append(f"suite has no {name} row")
            continue
        series = zip(
            row.per_realization_profits,
            row.per_realization_spreads,
            row.per_realization_costs,
        )
        if not all(_close(p, s - c) for p, s, c in series):
            problems.append(f"{name}: a realization's profit is not spread - cost")
        if not _close(row.mean_profit, row.mean_spread - row.mean_seed_cost):
            problems.append(f"{name}: mean profit is not mean spread - mean cost")
    baseline = outcomes.get("Baseline")
    if baseline is not None:
        if not all(_close(c, target_cost) for c in baseline.per_realization_costs):
            problems.append(f"Baseline cost is not c(T) = {target_cost}")
        if baseline.mean_seeds != target_size:
            problems.append("Baseline does not seed the whole target")
        if [int(s) for s in baseline.per_realization_spreads] != list(baseline_spreads):
            problems.append(
                f"Baseline spreads {baseline.per_realization_spreads} != "
                f"reference BFS {list(baseline_spreads)}"
            )
    return problems


def check_service(
    replies: Sequence[Tuple[Mapping, Mapping]],
    n: int,
    theta: int,
    hot_reference: Mapping[str, Tuple[float, float]],
) -> List[str]:
    """Answers of the seeding service, as ``(request, answer)`` pairs.

    ``hot_reference`` maps a hot query's canonical JSON to the Monte-Carlo
    mean and standard error of its seed set's spread.
    """
    problems = []
    answers: Dict[str, dict] = {}
    for request, answer in replies:
        key = json.dumps(request, sort_keys=True)
        stable = {k: v for k, v in answer.items() if k not in ("cached", "degraded")}
        if answers.setdefault(key, stable) != stable:
            problems.append(f"identical queries got different answers: {key}")
        op = request.get("op")
        removed = {int(v) for v in request.get("removed") or ()}
        active = n - len(removed)
        if op == "marginal":
            value = answer.get("marginal_spread", -1.0)
            if not 0.0 <= value <= active:
                problems.append(f"marginal {value} outside [0, {active}]: {key}")
        elif op == "topk":
            seeds = list(answer.get("seeds", ()))
            if len(seeds) > request["k"] or len(set(seeds)) != len(seeds):
                problems.append(f"topk returned {seeds} for k={request['k']}")
            if removed.intersection(seeds):
                problems.append(f"topk returned removed nodes: {key}")
            segment = request.get("segment")
            if segment is not None and not set(seeds) <= set(segment):
                problems.append(f"topk returned nodes outside the segment: {key}")
        elif op == "mc_spread":
            floor = len(set(request["seeds"]) - removed)
            if answer.get("spread", -1.0) < floor:
                problems.append(f"mc_spread {answer.get('spread')} below {floor} seeds")
        elif op == "spread" and key in hot_reference:
            mean, sem = hot_reference[key]
            error = sampling_error(n, mean, sem, theta)
            if abs(answer.get("spread", -1.0) - mean) > Z_TOLERANCE * error:
                problems.append(
                    f"spread {answer.get('spread')} is more than {Z_TOLERANCE} standard "
                    f"errors ({error:.2f}) from Monte Carlo {mean:.2f}: {key}"
                )
    return problems
