"""Reference computations of the benchmark, independent of ``repro``.

Both functions take a graph as plain edge arrays (sources, targets and,
for Monte-Carlo, probabilities) and never call into the package they
check, so a fault in the package's diffusion code cannot hide itself.

* :func:`live_edge_reach` — breadth-first search over the live edges of
  one possible world: the nodes a seed set activates under it.
* :func:`mc_spread_samples` — forward Independent-Cascade Monte Carlo:
  one activated-node count per simulated cascade, whose mean estimates
  ``E[I(S)]``.  Each edge is flipped once, when its source activates.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def _csr(n: int, sources: np.ndarray, *columns: np.ndarray):
    """Offsets of a source-sorted CSR plus the columns in that order."""
    order = np.argsort(sources, kind="stable")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=offsets[1:])
    return (offsets,) + tuple(np.asarray(column)[order] for column in columns)


def _gather(offsets: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Positions of every CSR entry of ``nodes``, concatenated."""
    starts = offsets[nodes]
    counts = offsets[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    shifts = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(total, dtype=np.int64) + shifts


def _seed_array(n: int, seeds: Iterable[int]) -> np.ndarray:
    seed_array = np.unique(np.asarray(list(seeds), dtype=np.int64))
    if seed_array.size and (seed_array[0] < 0 or seed_array[-1] >= n):
        raise ValueError("seed ids must lie in [0, n)")
    return seed_array


def live_edge_reach(
    n: int,
    sources: np.ndarray,
    targets: np.ndarray,
    live: np.ndarray,
    seeds: Iterable[int],
) -> np.ndarray:
    """Boolean mask of the nodes reachable from ``seeds`` over live edges."""
    sources = np.asarray(sources, dtype=np.int64)
    live = np.asarray(live, dtype=bool)
    offsets, heads = _csr(n, sources[live], np.asarray(targets, dtype=np.int64)[live])
    reached = np.zeros(n, dtype=bool)
    frontier = _seed_array(n, seeds)
    reached[frontier] = True
    while frontier.size:
        candidates = np.unique(heads[_gather(offsets, frontier)])
        frontier = candidates[~reached[candidates]]
        reached[frontier] = True
    return reached


def mc_spread_samples(
    n: int,
    sources: np.ndarray,
    targets: np.ndarray,
    probs: np.ndarray,
    seeds: Iterable[int],
    simulations: int,
    rng: np.random.Generator,
    batch: int = 64,
) -> np.ndarray:
    """Activated-node counts of ``simulations`` independent IC cascades."""
    offsets, heads, weights = _csr(
        n,
        np.asarray(sources, dtype=np.int64),
        np.asarray(targets, dtype=np.int64),
        np.asarray(probs, dtype=np.float64),
    )
    seed_array = _seed_array(n, seeds)
    counts = np.zeros(simulations, dtype=np.int64)
    for first in range(0, simulations, batch):
        rows = min(batch, simulations - first)
        reached = np.zeros(rows * n, dtype=bool)
        keys = (np.arange(rows, dtype=np.int64)[:, None] * n + seed_array[None, :]).ravel()
        reached[keys] = True
        while keys.size:
            sims, nodes = np.divmod(keys, n)
            positions = _gather(offsets, nodes)
            owners = np.repeat(sims, offsets[nodes + 1] - offsets[nodes])
            fired = rng.random(positions.size) < weights[positions]
            keys = np.unique(owners[fired] * n + heads[positions[fired]])
            keys = keys[~reached[keys]]
            reached[keys] = True
        counts[first : first + rows] = reached.reshape(rows, n).sum(axis=1)
    return counts
