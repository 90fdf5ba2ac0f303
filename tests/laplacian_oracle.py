"""Reference implementation the stacked drive-resistance solve is tested
against.

:func:`effective_resistance` is the simulator's original scalar
drive-strength measurement, kept beside the tests as an oracle instead
of in the library: one Python-assembled Laplacian and one
``np.linalg.solve`` per (simulator, word); :func:`drive_resistance`
wraps it in the original per-call cache logic.  The library's
:class:`~repro.simulation.engine.DriveBatch` must return the same float
for every request.  (The contention oracle,
:meth:`~repro.simulation.solver.StaticSolver._solve_contention`, stays in
the library: the scalar ``solve`` path still runs it.)
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.simulation.switchgraph import SwitchGraph


def conducting_edges(
    graph: SwitchGraph, codes1: Sequence[int], codes2: Sequence[int]
) -> List[Tuple[int, int, float]]:
    """Conducting edges in the final phase (unknown gates -> off)."""
    edges: List[Tuple[int, int, float]] = list(graph.static_edges)
    for dev in graph.devices:
        gate_value = codes1[dev.gate] if dev.gate_open else codes2[dev.gate]
        on = gate_value == 1 if dev.is_nmos else gate_value == 0
        if on:
            edges.append((dev.drain, dev.source, dev.g_on))
    return edges


def effective_resistance(
    graph: SwitchGraph,
    node_a: int,
    node_b: int,
    codes1: Sequence[int],
    codes2: Sequence[int],
) -> float:
    """Two-point effective resistance over the conducting graph.

    Only *node_b* is held (grounded); every other node floats, so the
    result measures the strength of the path actually charging the
    output, independent of the other rails.
    """
    edges = conducting_edges(graph, codes1, codes2)
    # Restrict to the connected component of node_a.
    adjacency: Dict[int, List[Tuple[int, float]]] = {}
    for a, b, g in edges:
        adjacency.setdefault(a, []).append((b, g))
        adjacency.setdefault(b, []).append((a, g))
    component = {node_a}
    frontier = [node_a]
    while frontier:
        current = frontier.pop()
        for neighbor, _g in adjacency.get(current, ()):
            if neighbor not in component:
                component.add(neighbor)
                frontier.append(neighbor)
    if node_b not in component:
        return float("inf")
    free = sorted(component - {node_b})
    pos = {n: i for i, n in enumerate(free)}
    size = len(free)
    laplacian = np.zeros((size, size))
    for a, b, g in edges:
        if a not in component or a == b:
            continue
        if a in pos:
            laplacian[pos[a], pos[a]] += g
        if b in pos:
            laplacian[pos[b], pos[b]] += g
        if a in pos and b in pos:
            laplacian[pos[a], pos[b]] -= g
            laplacian[pos[b], pos[a]] -= g
    injection = np.zeros(size)
    injection[pos[node_a]] = 1.0
    try:
        voltages = np.linalg.solve(laplacian, injection)
    except np.linalg.LinAlgError:
        return float("inf")
    return float(voltages[pos[node_a]])


def drive_resistance(sim, word, output: int) -> float:
    """The scalar ``output_drive_resistance``: ``inf`` unless the output
    settled at 0 or 1, else the effective resistance to that rail.  Runs
    the simulator's per-call cache logic in its original order (word
    solve, level check, drive-cache hit, ``prefetch_drive`` pop, solve,
    store), so its counters are the reference for the batched path."""
    first, second, _dynamic = sim._split_word(word)
    codes1, codes2 = sim.solve_word(word)
    level = codes2[output]
    if level not in (0, 1):
        return float("inf")
    cache_key = (first, second, output)
    cached = sim._drive_cache.get(cache_key)
    if cached is not None:
        sim.cache_hit_count += 1
        return cached
    resistance = sim._prefetch_drive.pop(cache_key, None)
    if resistance is None:
        rail = sim.graph.power if level == 1 else sim.graph.ground
        resistance = effective_resistance(sim.graph, output, rail, codes1, codes2)
    sim._drive_cache[cache_key] = resistance
    return resistance
