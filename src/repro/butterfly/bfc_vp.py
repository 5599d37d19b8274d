"""Butterfly counting and enumeration with vertex priority (BFC-VP [50]).

This is the deterministic substrate the MC-VP baseline (Algorithm 1) runs
per sampled world, and also the backbone butterfly lister used by the
exact solvers.  The vertex-priority scheme guarantees each butterfly is
visited exactly once: a butterfly is discovered only from its
highest-priority vertex, walking two hops through strictly-lower-priority
vertices.

All functions accept an optional *global adjacency* — a list indexed by
global vertex id (left vertices first, then right vertices offset by
``|L|``) whose entries are ``(global neighbour id, edge index)`` pairs —
so the same code serves both the backbone graph and a sampled possible
world.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..graph import UncertainBipartiteGraph, degree_priority
from ..worlds import PossibleWorld
from .model import Butterfly

GlobalAdjacency = List[List[Tuple[int, int]]]


def global_adjacency(graph: UncertainBipartiteGraph) -> GlobalAdjacency:
    """Backbone adjacency over global vertex ids."""
    offset = graph.n_left
    adjacency: GlobalAdjacency = [[] for _ in range(graph.n_vertices)]
    for u, entries in enumerate(graph.adjacency_left):
        for v, edge in entries:
            adjacency[u].append((offset + v, edge))
            adjacency[offset + v].append((u, edge))
    return adjacency


def world_global_adjacency(world: PossibleWorld) -> GlobalAdjacency:
    """World-restricted adjacency over global vertex ids."""
    return _mask_adjacency(world.graph, world.present)


def _mask_adjacency(
    graph: UncertainBipartiteGraph, mask: np.ndarray
) -> GlobalAdjacency:
    offset = graph.n_left
    adjacency: GlobalAdjacency = [[] for _ in range(graph.n_vertices)]
    edge_left = graph.edge_left
    edge_right = graph.edge_right
    for e in np.flatnonzero(mask):
        e = int(e)
        u = int(edge_left[e])
        v = offset + int(edge_right[e])
        adjacency[u].append((v, e))
        adjacency[v].append((u, e))
    return adjacency


def iter_angle_groups(
    adjacency: GlobalAdjacency,
    priority: np.ndarray,
) -> Iterator[Tuple[int, int, List[Tuple[int, int, int]]]]:
    """Yield per-endpoint-pair angle groups, each butterfly source.

    For each start vertex ``x`` (the highest-priority corner) and each
    two-hop endpoint ``z`` reached through strictly-lower-priority
    intermediates, yields ``(x, z, angles)`` where each angle is
    ``(middle, edge_x_middle, edge_middle_z)``.  Every butterfly
    corresponds to exactly one unordered pair of angles within exactly one
    yielded group.  Single-angle groups are yielded too: they form no
    butterfly, but Algorithm 1 still generates (and counts) their angle.
    """
    n = len(adjacency)
    for x in range(n):
        px = priority[x]
        groups: Dict[int, List[Tuple[int, int, int]]] = defaultdict(list)
        for y, edge_xy in adjacency[x]:
            if px <= priority[y]:
                continue
            for z, edge_yz in adjacency[y]:
                if z == x or px <= priority[z]:
                    continue
                groups[z].append((y, edge_xy, edge_yz))
        for z, angles in groups.items():
            yield x, z, angles


def count_butterflies(
    graph: UncertainBipartiteGraph,
    adjacency: Optional[GlobalAdjacency] = None,
    priority: Optional[np.ndarray] = None,
) -> int:
    """Exact butterfly count via BFC-VP.

    Args:
        graph: The (backbone) graph; used for priorities when ``priority``
            is not supplied.
        adjacency: Optional global adjacency (e.g. of a sampled world);
            defaults to the backbone adjacency.
        priority: Optional priority array; defaults to
            :func:`~repro.graph.priority.degree_priority` of ``graph``.
    """
    if adjacency is None:
        adjacency = global_adjacency(graph)
    if priority is None:
        priority = degree_priority(graph)
    total = 0
    for _x, _z, angles in iter_angle_groups(adjacency, priority):
        k = len(angles)
        total += k * (k - 1) // 2
    return total


def enumerate_butterflies(
    graph: UncertainBipartiteGraph,
    adjacency: Optional[GlobalAdjacency] = None,
    priority: Optional[np.ndarray] = None,
) -> Iterator[Butterfly]:
    """Enumerate every butterfly exactly once via BFC-VP.

    Yields canonical :class:`~repro.butterfly.model.Butterfly` objects with
    weights computed from ``graph``'s edge weights.
    """
    if adjacency is None:
        adjacency = global_adjacency(graph)
    if priority is None:
        priority = degree_priority(graph)
    offset = graph.n_left
    weights = graph.weights
    for x, z, angles in iter_angle_groups(adjacency, priority):
        for (m1, e1a, e1b), (m2, e2a, e2b) in combinations(angles, 2):
            yield assemble_butterfly(
                x, z, m1, m2, (e1a, e1b, e2a, e2b), offset, weights
            )


def max_weight_butterflies_enumerated(
    graph: UncertainBipartiteGraph,
    mask: np.ndarray,
    priority: np.ndarray,
) -> Tuple[List[Butterfly], int, int]:
    """Algorithm 1's per-world search (lines 5-17), the MC-VP baseline.

    Generates every angle of the world ``mask`` selects, grouped by
    endpoint pair, materialises every angle pair as a butterfly and keeps
    the maximum-weight set — the cost Section V removes.  Assembling also
    fixes each weight's summation order to the canonical edge order, so
    equal-weight ties compare exactly.  Returns ``(S_MB, n_angles,
    n_butterflies_checked)``.
    """
    offset = graph.n_left
    weights = graph.weights
    n_angles = 0
    n_checked = 0
    w_max = -np.inf
    winners: List[Butterfly] = []
    adjacency = _mask_adjacency(graph, mask)
    for x, z, angles in iter_angle_groups(adjacency, priority):
        n_angles += len(angles)
        for (m1, e1a, e1b), (m2, e2a, e2b) in combinations(angles, 2):
            n_checked += 1
            butterfly = assemble_butterfly(
                x, z, m1, m2, (e1a, e1b, e2a, e2b), offset, weights
            )
            if butterfly.weight > w_max:
                w_max = butterfly.weight
                winners = [butterfly]
            elif butterfly.weight == w_max:
                winners.append(butterfly)
    return winners, n_angles, n_checked


def assemble_butterfly(
    x: int,
    z: int,
    m1: int,
    m2: int,
    edge_quad: Tuple[int, int, int, int],
    offset: int,
    weights: np.ndarray,
) -> Butterfly:
    """Canonicalise one (endpoint pair, two middles) match into a Butterfly."""
    e1a, e1b, e2a, e2b = edge_quad
    if x < offset:
        # Endpoints are left vertices; middles are right vertices.
        mapping = {
            (x, m1 - offset): e1a,
            (z, m1 - offset): e1b,
            (x, m2 - offset): e2a,
            (z, m2 - offset): e2b,
        }
        u1, u2 = sorted((x, z))
        v1, v2 = sorted((m1 - offset, m2 - offset))
    else:
        # Endpoints are right vertices; middles are left vertices.
        mapping = {
            (m1, x - offset): e1a,
            (m1, z - offset): e1b,
            (m2, x - offset): e2a,
            (m2, z - offset): e2b,
        }
        u1, u2 = sorted((m1, m2))
        v1, v2 = sorted((x - offset, z - offset))
    edges = (
        mapping[(u1, v1)],
        mapping[(u1, v2)],
        mapping[(u2, v1)],
        mapping[(u2, v2)],
    )
    weight = float(sum(weights[e] for e in edges))
    return Butterfly(u1, u2, v1, v2, weight, edges)


def brute_force_butterflies(
    graph: UncertainBipartiteGraph,
    world: Optional[PossibleWorld] = None,
) -> List[Butterfly]:
    """Reference enumerator: all butterflies by pairwise neighbourhood
    intersection.  Quadratic in ``|L|`` — test/benchmark oracle only.
    """
    if world is None:
        adjacency = graph.adjacency_left
    else:
        adjacency = world.adjacency_left()
    weights = graph.weights
    neighbour_maps = [dict(entries) for entries in adjacency]
    result: List[Butterfly] = []
    for u1 in range(graph.n_left):
        map1 = neighbour_maps[u1]
        if len(map1) < 2:
            continue
        for u2 in range(u1 + 1, graph.n_left):
            map2 = neighbour_maps[u2]
            common = sorted(set(map1) & set(map2))
            for i, v1 in enumerate(common):
                for v2 in common[i + 1:]:
                    edges = (map1[v1], map1[v2], map2[v1], map2[v2])
                    weight = float(sum(weights[e] for e in edges))
                    result.append(
                        Butterfly(u1, u2, v1, v2, weight, edges)
                    )
    return result
