"""The vectorized switch-level kernel, over one topology or many.

:meth:`~repro.simulation.solver.StaticSolver.solve` is the scalar
reference oracle; this module is the one vectorized implementation of
the same fixed point.  :meth:`~repro.simulation.solver.StaticSolver.solve_batch`
runs it over the phases of **one** (cell, defect) switch graph;
:func:`solve_packed` runs phase batches from **many** solvers (defects
of one cell, different cells entirely) in a single call, which removes
the per-defect calls whose fixed NumPy overhead dominates the
arithmetic on small cells at library scale.

Mechanics
---------
Every solver caches a one-slot *topology* (device gates, neighbour
tables, edge endpoints and conductances, fixed nodes, … plus one scrap
node column) whose tables broadcast over all rows of a call.  A pack
pads several cached slots to the widest and stacks them; each row
gathers its own slot's tables.  All rows iterate together with per-row
convergence dropout: device conduction, the Bryant off/on envelopes as
two resolves (min-label propagation for connected components), and
for the contended components one stacked Laplacian solve per resolve
(:func:`~repro.simulation.solver.solve_contention_rows`, taken
``_CONTENTION_ROWS`` rows at a time).  Padding is inert (see
:meth:`_PackedTopo.pack`).

Identity guarantee
------------------
``solve_packed(requests)[i][j]`` equals
``requests[i].solver.solve(requests[i].vectors[j], ...)`` exactly —
codes and retention flag: all logic-level work is integer, per-row
iteration counts match the scalar path, and contention (the only float
arithmetic) is batched in the kernel but float-for-float the scalar
:meth:`~repro.simulation.solver.StaticSolver._solve_contention`, which
stays the oracle and the ``--scalar`` path: the same free-node order,
the same per-cell summation order, and ``np.linalg.solve`` on the same
matrices (a stacked LAPACK ``gesv`` returns what per-matrix calls do).
Each solver memoizes resolve rows in its ``_resolve_cache`` under keys
that :func:`_resolve_keys` alone builds, independent of what a solver
was packed with, so per-cell and packed calls read and warm one cache.
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.simulation.solver import (
    FLOAT,
    MAX_ITERATIONS,
    OFF,
    ON,
    UNKNOWN,
    SolveResult,
    StaticSolver,
    X,
    solve_contention_rows,
)

#: contended rows per stacked contention solve: bounds the solve's
#: working set (its flat index arrays grow with rows x edges)
_CONTENTION_ROWS = 512

#: padding-waste accounting of the packed kernel (registered in
#: repro.lint.catalog): total row×column slots each call allocates, and
#: how many of them are padding (rows shorter than the widest topology).
M_KERNEL_SLOTS = "throughput.kernel_slots"
M_PADDED_SLOTS = "throughput.padded_slots"


class PackedRequest(NamedTuple):
    """One solver's share of a packed kernel call."""

    solver: StaticSolver
    vectors: Sequence[Tuple[int, ...]]
    prevs: Optional[Sequence[Optional[Sequence[int]]]] = None


def _filled(shape: Tuple[int, int], value: int) -> np.ndarray:
    """``np.full(shape, value, int16)`` without its Python-level overhead."""
    out = np.empty(shape, dtype=np.int16)
    out.fill(value)
    return out


class _PackedTopo:
    """Index arrays of one or more switch graphs, one *slot* per graph.

    A one-slot topology (what each solver caches) stores every table
    without a slot axis, so the tables broadcast over all rows of a
    call.  A pack of ``S`` slots stacks padded tables along a leading
    slot axis, and rows gather theirs.  ``N`` node columns (max nodes +
    1 scrap), ``D`` device columns, ``E = D + max_static + 1`` edge slots
    (device channels, then static edges, then one never-active padding
    edge).  ``fixed_nodes`` lists power, ground, then the sources.
    """

    n_nodes: np.ndarray  # (S,) real node count of each slot
    N: int
    D: int
    any_open: bool
    dev_gate: np.ndarray  # ([S,] D) gate node of each device column
    on_if_1: np.ndarray  # ([S,] D) conduction when the gate is 1
    on_if_0: np.ndarray  # ([S,] D) conduction when the gate is 0
    is_open: np.ndarray  # ([S,] D) gate-open device columns
    observable: np.ndarray  # ([S,] N) nets whose retention is read
    fixed_nodes: np.ndarray  # ([S,] 2 + inputs)
    seed_pins: np.ndarray  # ([S,] seeds) pins pre-seeded ...
    seed_srcs: np.ndarray  # ... from these source nodes
    static_active: np.ndarray  # ([S,] max_static) real static edges
    key_dims: List[Tuple[int, int]]  # (devices, inputs) of each slot
    slot_node: np.ndarray  # ([S,] N, max_deg) neighbour of each slot
    slot_edge: np.ndarray  # ([S,] N, max_deg) edge of each slot
    edge_a: np.ndarray  # ([S,] E) first endpoint of each edge ...
    edge_b: np.ndarray  # ([S,] E) ... its second endpoint ...
    edge_g: np.ndarray  # ([S,] E) ... and its conductance

    @property
    def E(self) -> int:
        """Edge columns: devices, static edges, one padding edge."""
        return self.edge_a.shape[-1]

    @classmethod
    def of(cls, solver: StaticSolver) -> "_PackedTopo":
        """The one-slot topology of *solver*."""
        graph = solver.graph
        devices = graph.devices
        pk = cls()
        pk.n_nodes = np.array([graph.n_nodes], dtype=np.intp)
        pk.N, pk.D = graph.n_nodes + 1, len(devices)
        pk.any_open = any(dev.gate_open for dev in devices)
        pk.dev_gate = np.array([dev.gate for dev in devices], dtype=np.intp)
        nmos = np.array([dev.is_nmos for dev in devices], dtype=bool)
        pk.on_if_1 = np.where(nmos, ON, OFF).astype(np.int16)
        pk.on_if_0 = np.where(nmos, OFF, ON).astype(np.int16)
        pk.is_open = np.array([dev.gate_open for dev in devices], dtype=bool)
        pk.observable = np.array(solver._observable + [False], dtype=bool)
        pk.fixed_nodes = np.array(
            [graph.power, graph.ground] + list(graph.source_nodes), dtype=np.intp
        )
        seeds = np.array(solver._seedable_pins, dtype=np.intp).reshape(-1, 2)
        pk.seed_pins, pk.seed_srcs = seeds[:, 0].copy(), seeds[:, 1].copy()
        pk.static_active = np.ones(len(graph.static_edges), dtype=bool)
        pk.key_dims = [(len(devices), len(graph.source_nodes))]

        # Neighbour tables padded to the maximum degree, so label
        # propagation needs only gathers.  Padding slots point the node
        # back at itself through the never-active padding edge.
        endpoints = [(dev.drain, dev.source) for dev in devices]
        endpoints += [(a, b) for a, b, _g in graph.static_edges]
        # Edge tables for the Laplacian solves; the padding edge is a
        # self-edge on the scrap node, which no solve ever reads.  Every
        # solver keeps its one-slot tables for its lifetime, so node and
        # edge indices are stored as int32 (packs widen them).
        scrap = pk.N - 1
        ends = np.array(endpoints + [(scrap, scrap)], dtype=np.int32)
        pk.edge_a, pk.edge_b = ends[:, 0].copy(), ends[:, 1].copy()
        pk.edge_g = np.array(
            [dev.g_on for dev in devices] + [g for _a, _b, g in graph.static_edges] + [0.0]
        )
        incident: List[List[Tuple[int, int]]] = [[] for _ in range(pk.N)]
        for edge, (a, b) in enumerate(endpoints):
            if a != b:  # self-edges never merge anything
                incident[a].append((edge, b))
                incident[b].append((edge, a))
        max_deg, pad = max(map(len, incident)) or 1, len(endpoints)
        table = np.array(
            [s + [(pad, node)] * (max_deg - len(s)) for node, s in enumerate(incident)],
            dtype=np.int32,
        )
        pk.slot_edge = table[:, :, 0].copy()
        pk.slot_node = table[:, :, 1].copy()
        return pk

    @classmethod
    def pack(cls, slots: Sequence["_PackedTopo"]) -> "_PackedTopo":
        """Pad one-slot topologies to a common shape and stack them.

        Padding is inert: padded device columns gate on the ground rail
        (always 0) and map 0 to OFF, padded fixed-node columns alias
        ground, and padded seed slots point at the scrap node.
        """
        if len(slots) == 1:
            return slots[0]
        pk = cls()
        pk.n_nodes = np.concatenate([slot.n_nodes for slot in slots])
        pk.N = int(pk.n_nodes.max()) + 1
        pk.D = max(slot.D for slot in slots)
        pk.any_open = any(slot.any_open for slot in slots)
        pk.key_dims = [slot.key_dims[0] for slot in slots]
        grounds = np.array([slot.fixed_nodes[1] for slot in slots])

        def stacked(name: str, fill, width: Optional[int] = None) -> np.ndarray:
            """The slots' *name* tables, padded with *fill* (a scalar or
            one value per slot) to *width* (default: the widest)."""
            rows = [getattr(slot, name) for slot in slots]
            width = width or max(row.size for row in rows)
            out = np.empty((len(rows), width), dtype=rows[0].dtype)
            out[...] = np.reshape(fill, (-1, 1))
            for s, row in enumerate(rows):
                out[s, : row.size] = row
            return out

        pk.dev_gate = stacked("dev_gate", grounds, pk.D)
        pk.on_if_1 = stacked("on_if_1", OFF, pk.D)
        pk.on_if_0 = stacked("on_if_0", OFF, pk.D)
        pk.is_open = stacked("is_open", False, pk.D)
        pk.observable = stacked("observable", False, pk.N)
        pk.fixed_nodes = stacked("fixed_nodes", grounds)
        pk.seed_pins = stacked("seed_pins", pk.N - 1)
        pk.seed_srcs = stacked("seed_srcs", pk.N - 1)
        pk.static_active = stacked("static_active", False)
        E = pk.D + pk.static_active.shape[1] + 1
        # Edge tables in the packed edge space (see the remap below);
        # padded edges are inert self-edges on the scrap node.
        columns = [
            np.r_[: slot.D, pk.D : pk.D + slot.static_active.size] for slot in slots
        ]
        pk.edge_a = np.full((len(slots), E), pk.N - 1, dtype=np.intp)
        pk.edge_b = pk.edge_a.copy()
        pk.edge_g = np.zeros((len(slots), E))
        for s, (slot, cols) in enumerate(zip(slots, columns)):
            pk.edge_a[s, cols] = slot.edge_a[:-1]
            pk.edge_b[s, cols] = slot.edge_b[:-1]
            pk.edge_g[s, cols] = slot.edge_g[:-1]
        max_deg = max(slot.slot_node.shape[1] for slot in slots)
        pk.slot_node = np.empty((len(slots), pk.N, max_deg), dtype=np.intp)
        pk.slot_node[...] = np.arange(pk.N)[:, None]
        pk.slot_edge = np.full((len(slots), pk.N, max_deg), E - 1, dtype=np.intp)
        for s, slot in enumerate(slots):
            # Remap the slot's edge indices into the packed edge space:
            # devices keep their column, static edge j -> D + j, and the
            # slot's own padding edge -> E - 1.
            d, n_static = slot.D, slot.static_active.size
            n, deg = int(slot.n_nodes[0]), slot.slot_node.shape[1]
            edges = slot.slot_edge[:n]
            pk.slot_node[s, :n, :deg] = slot.slot_node[:n]
            pk.slot_edge[s, :n, :deg] = np.where(
                edges < d, edges, np.where(edges < d + n_static, edges - d + pk.D, E - 1)
            )
        return pk


class _Rows(NamedTuple):
    """The rows of one kernel call and the slot each row runs on.

    ``solvers[s]`` owns slot ``s`` of topology ``pk``.  ``topo_idx`` is
    ``None`` on a one-slot topology: every row shares the tables, which
    broadcast.  Otherwise rows gather their slot's.
    """

    pk: _PackedTopo
    solvers: List[StaticSolver]
    topo_idx: Optional[np.ndarray]

    def sub(self, index: np.ndarray) -> "_Rows":
        """The view of the rows selected by *index*."""
        if self.topo_idx is None:
            return self
        return _Rows(self.pk, self.solvers, self.topo_idx[index])

    def slots(self, batch: int) -> List[int]:
        """The slot of each of the *batch* rows."""
        if self.topo_idx is None:
            return [0] * batch
        return self.topo_idx.tolist()

    def table(self, stacked: np.ndarray) -> np.ndarray:
        """Each row's entry of a per-slot table (broadcastable)."""
        return stacked if self.topo_idx is None else stacked[self.topo_idx]

    def at(self, stacked: np.ndarray) -> tuple:
        """Index of ``[b, columns[b, ...]]`` for every row ``b``, where
        ``columns`` is the row's entry of the per-slot column table
        *stacked*: one per-row gather, or scatter."""
        if self.topo_idx is None:
            return (slice(None), stacked)
        columns = stacked[self.topo_idx]
        rows = np.arange(len(columns)).reshape((-1,) + (1,) * (columns.ndim - 1))
        return (rows, columns)


def cached_topo(solver: StaticSolver) -> _PackedTopo:
    """The solver's one-slot topology, built on first use, then cached."""
    if solver._topo is None:
        solver._topo = _PackedTopo.of(solver)
    return solver._topo


def conduction_rows(view: _Rows, codes: np.ndarray, lagged: np.ndarray) -> np.ndarray:
    """Conduction (``ON``/``OFF``/``UNKNOWN``) of every device column of
    every row, from its gate's code in *codes*; a gate-open device lags
    one pattern behind (trapped charge) and reads its gate in *lagged*."""
    pk = view.pk
    gates = view.at(pk.dev_gate)
    gate_vals = codes[gates]
    if pk.any_open:
        gate_vals = np.where(view.table(pk.is_open), lagged[gates], gate_vals)
    if_not_1 = np.where(gate_vals == 0, view.table(pk.on_if_0), UNKNOWN)
    return np.where(gate_vals == 1, view.table(pk.on_if_1), if_not_1)


def edge_mask(view: _Rows, conducting: np.ndarray) -> np.ndarray:
    """Active edges of every row: the *conducting* device columns, then
    the slot's real static edges; the padding edge is never active."""
    pk = view.pk
    edge_active = np.zeros((conducting.shape[0], pk.E), dtype=bool)
    edge_active[:, : pk.D] = conducting
    edge_active[:, pk.D : -1] = view.table(pk.static_active)
    return edge_active


def _resolve_keys(
    view: _Rows, conducting: np.ndarray, fixed_vals: np.ndarray
) -> List[bytes]:
    """The resolve-memo key of every row.

    A resolve row is a pure function of (conduction mask, source values):
    the key is the uint8 conduction mask over the row's own devices, then
    its uint8 source values — padding columns excluded, so a solver's key
    does not depend on what it was packed with.
    """
    cond, srcs = conducting.tobytes(), fixed_vals[:, 2:].tobytes()
    D, M = conducting.shape[1], fixed_vals.shape[1] - 2
    if view.topo_idx is None:
        return [
            cond[b * D : (b + 1) * D] + srcs[b * M : (b + 1) * M]
            for b in range(len(conducting))
        ]
    dims = view.pk.key_dims
    return [
        cond[b * D : b * D + dims[t][0]] + srcs[b * M : b * M + dims[t][1]]
        for b, t in enumerate(view.topo_idx.tolist())
    ]


def _components(view: _Rows, edge_active: np.ndarray) -> np.ndarray:
    """Connected-component label of every node of every row.

    Min-label propagation over the padded per-node neighbour tables
    (gathers only — no scatter), with pointer-jumping compression.
    Labels run over the flattened rows (row ``b``'s node ``n`` starts at
    ``b * N + n``), so one flat gather serves every row: an inactive
    neighbour slot points the node at itself.  Stability implies every
    active edge joins equal labels, i.e. labels are constant per
    component; the result is each component's smallest node.
    """
    pk = view.pk
    batch, N = edge_active.shape[0], pk.N
    base = np.arange(0, batch * N, N)
    active = edge_active[view.at(pk.slot_edge)]
    neighbours = np.where(active, view.table(pk.slot_node), np.arange(N)[:, None])
    neighbours += base[:, None, None]
    labels = np.arange(batch * N)
    while True:
        new = np.minimum(labels, labels[neighbours].min(axis=2).ravel())
        new = new[new]  # pointer jumping
        if np.array_equal(new, labels):
            return labels.reshape(batch, N) - base[:, None]
        labels = new


def _resolve_rows(
    view: _Rows, conducting: np.ndarray, fixed_vals: np.ndarray
) -> np.ndarray:
    """Vectorized :meth:`StaticSolver._resolve` for one unknown-extreme.

    Components come from :func:`_components`; the contended ones (a rail
    at 1 and one at 0) go, ``_CONTENTION_ROWS`` rows at a time, through
    one stacked Laplacian solve
    (:func:`~repro.simulation.solver.solve_contention_rows`).
    """
    pk = view.pk
    edge_active = edge_mask(view, conducting)
    labels = _components(view, edge_active)

    # A node sees rail value v when its component holds a fixed node at v.
    roots = labels[view.at(pk.fixed_nodes)]
    member = labels[:, :, None] == roots[:, None, :]
    root1 = (member & (fixed_vals == 1)[:, None, :]).any(axis=2)
    root0 = (member & (fixed_vals == 0)[:, None, :]).any(axis=2)
    del member, roots  # the largest temporaries; the solve below allocates
    result = np.where(root1, 1, np.where(root0, 0, FLOAT)).astype(np.int16)
    contended = root1 & root0

    rows = contended.any(axis=1).nonzero()[0]
    if not len(rows):
        return result
    # A fixed node holds its own value, in a contended component too.
    result[view.at(pk.fixed_nodes)] = fixed_vals
    thresholds = np.array([(solver.vil, solver.vih) for solver in view.solvers])
    tables = (pk.fixed_nodes, pk.edge_a, pk.edge_b, pk.edge_g, thresholds)
    for start in range(0, len(rows), _CONTENTION_ROWS):
        chunk = rows[start : start + _CONTENTION_ROWS]
        fixed, *edges, limits = map(view.sub(chunk).table, tables)
        codes = result[chunk]
        solve_contention_rows(
            codes, contended[chunk], labels[chunk], fixed, edges,
            edge_active[chunk], limits,
        )
        result[chunk] = codes
    return result


def _resolve(
    view: _Rows, conducting: np.ndarray, fixed_vals: np.ndarray
) -> np.ndarray:
    """Memoizing wrapper over :func:`_resolve_rows`: rows are served from
    each solver's ``_resolve_cache`` and only the distinct misses go
    through the vectorized computation."""
    pk = view.pk
    batch = conducting.shape[0]
    keys = _resolve_keys(view, conducting, fixed_vals)
    slots = view.slots(batch)
    caches = [solver._resolve_cache for solver in view.solvers]
    n_nodes = pk.n_nodes.tolist()
    result = _filled((batch, pk.N), FLOAT)
    misses: List[int] = []
    if view.topo_idx is None:  # one cache and width for every row
        cache, width = caches[0], n_nodes[0]
        for b, key in enumerate(keys):
            cached = cache.get(key)
            if cached is None:
                misses.append(b)
            else:
                result[b, :width] = cached
    else:
        for b, (key, slot) in enumerate(zip(keys, slots)):
            cached = caches[slot].get(key)
            if cached is None:
                misses.append(b)
            else:
                result[b, : n_nodes[slot]] = cached
    if misses:
        rows = np.array(misses, dtype=np.intp)
        solved = _resolve_rows(view.sub(rows), conducting[rows], fixed_vals[rows])
        result[rows] = solved
        for k, b in enumerate(misses):
            caches[slots[b]][keys[b]] = solved[k, : n_nodes[slots[b]]].copy()
    return result


def _step(
    view: _Rows,
    codes: np.ndarray,
    prev: np.ndarray,
    has_prev: np.ndarray,
    fixed_vals: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One fixpoint step: vectorized :meth:`StaticSolver._step`."""
    pk = view.pk
    conduction = conduction_rows(view, codes, prev)
    if pk.any_open and not has_prev.all():
        # A gate-open device with no history is non-conducting.
        is_open = view.table(pk.is_open)
        conduction = np.where(is_open & ~has_prev[:, None], OFF, conduction)

    res_off = _resolve(view, conduction == ON, fixed_vals)
    unknown_rows = (conduction == UNKNOWN).any(axis=1)
    if unknown_rows.any():
        res_on = res_off.copy()
        sub = unknown_rows.nonzero()[0]
        res_on[sub] = _resolve(view.sub(sub), conduction[sub] != OFF, fixed_vals[sub])
    else:
        res_on = res_off

    retained = np.where((prev == 0) | (prev == 1), prev, X)
    float_off = res_off == FLOAT
    float_on = res_on == FLOAT
    agree = res_off == res_on
    one_float = float_off ^ float_on
    driven = np.where(float_off, res_on, res_off)
    combined = np.where(
        agree,
        np.where(float_off, retained, res_off),
        np.where(one_float, np.where(driven == retained, driven, X), X),
    ).astype(np.int16, copy=False)
    # _retained() is consulted exactly when an envelope came up FLOAT;
    # the flag records whether that happened on an observable net.
    observable = view.table(pk.observable)
    retention = ((float_off | float_on) & observable).any(axis=1)
    return combined, retention


def _solve_rows(
    view: _Rows,
    fixed_vals: np.ndarray,
    prev: np.ndarray,
    has_prev: np.ndarray,
) -> List[SolveResult]:
    """Run every row to its fixed point; one :class:`SolveResult` per row."""
    pk = view.pk
    batch = len(fixed_vals)
    codes = _filled((batch, pk.N), X)
    codes[view.at(pk.fixed_nodes)] = fixed_vals
    if pk.seed_pins.shape[-1]:
        seeds = codes[view.at(pk.seed_srcs)]
        codes[view.at(pk.seed_pins)] = seeds
    # The scrap column absorbed every padded seed slot; pin it back to X
    # so it can never perturb a row's convergence count.
    codes[:, -1] = X

    n_nodes = pk.n_nodes.tolist()
    n_of_row = [n_nodes[t] for t in view.slots(batch)]
    results: List[Optional[SolveResult]] = [None] * batch
    active = np.arange(batch)
    # Arrays of the rows still iterating; a row leaves once it converges.
    rows = (codes, prev, has_prev, fixed_vals)
    for iteration in range(MAX_ITERATIONS + 1):
        new_codes, retention = _step(view, *rows)
        if iteration == MAX_ITERATIONS:
            # Non-convergence (defect-induced feedback): one more step,
            # anything still changing is unknown — mirrors the scalar path.
            merged = np.where(rows[0] == new_codes, rows[0], X)
            for k, g in enumerate(active.tolist()):
                results[g] = SolveResult(merged[k, : n_of_row[g]].tolist(), True)
            break
        converged = (new_codes == rows[0]).all(axis=1)
        rows = (new_codes,) + rows[1:]
        if converged.any():
            done = converged.nonzero()[0]
            for g, row, used in zip(
                active[done].tolist(), new_codes[done].tolist(), retention[done].tolist()
            ):
                results[g] = SolveResult(row[: n_of_row[g]], used)
            keep = ~converged
            if not keep.any():
                break
            view, active = view.sub(keep), active[keep]
            rows = tuple(array[keep] for array in rows)
    return results  # type: ignore[return-value]


def run_kernel(requests: Sequence[PackedRequest]) -> List[List[SolveResult]]:
    """Solve non-empty *requests* in one kernel call, without metering.

    One distinct solver runs on its cached topology as is; several are
    padded into one pack.
    """
    distinct = {id(req.solver): req.solver for req in requests}
    slot_of = {key: slot for slot, key in enumerate(distinct)}
    solvers = list(distinct.values())
    pk = _PackedTopo.pack([cached_topo(solver) for solver in solvers])

    counts = [len(r.vectors) for r in requests]
    batch = sum(counts)
    topo_idx = np.empty(batch, dtype=np.intp)
    fixed_vals = np.zeros((batch, pk.fixed_nodes.shape[-1]), dtype=np.int8)
    fixed_vals[:, 0] = 1  # power rail; ground and padded sources carry 0
    prev = _filled((batch, pk.N), X)
    has_prev = np.zeros(batch, dtype=bool)
    offset = 0
    for req in requests:
        graph = req.solver.graph
        n_in = len(graph.source_nodes)
        vals = np.asarray(req.vectors, dtype=np.int16)
        if vals.ndim != 2 or vals.shape[1] != n_in:
            raise ValueError(
                f"expected {n_in} input values per vector for {graph.cell.name}"
            )
        stop = offset + len(req.vectors)
        topo_idx[offset:stop] = slot_of[id(req.solver)]
        fixed_vals[offset:stop, 2 : 2 + n_in] = vals
        if req.prevs is not None:
            given = [i for i, p in enumerate(req.prevs) if p is not None]
            if given:
                rows = offset + np.array(given, dtype=np.intp)
                prev[rows, : graph.n_nodes] = [req.prevs[i] for i in given]
                has_prev[rows] = True
        offset = stop

    view = _Rows(pk, solvers, topo_idx if len(solvers) > 1 else None)
    flat = _solve_rows(view, fixed_vals, prev, has_prev)
    ends = itertools.accumulate(counts)
    return [flat[end - count : end] for count, end in zip(counts, ends)]


def solve_packed(
    requests: Sequence[PackedRequest],
) -> List[List[SolveResult]]:
    """Solve every request's phases in one padded multi-topology kernel.

    Element ``[i][j]`` equals
    ``requests[i].solver.solve(requests[i].vectors[j], prevs[j])``
    exactly (codes and retention flag).  Solvers may repeat across
    requests; each distinct solver occupies one topology slot.
    """
    requests = [r for r in requests if len(r.vectors)]
    if not requests:
        return []
    out = run_kernel(requests)
    # Padding waste of this call: every row spans the widest topology
    # plus the scrap column, but only its own nodes do real work (the
    # inspect `cache` report reads these to quantify mixed-size-library
    # packing overhead).
    width = max(r.solver.graph.n_nodes for r in requests) + 1
    rows = sum(len(r.vectors) for r in requests)
    used = sum(len(r.vectors) * r.solver.graph.n_nodes for r in requests)
    obs.metrics().inc(M_KERNEL_SLOTS, float(rows * width))
    obs.metrics().inc(M_PADDED_SLOTS, float(rows * width - used))
    return out
