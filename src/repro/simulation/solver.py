"""Static (single-phase) switch-level solver.

Given fixed boundary values (rails and input sources) and a conduction
state per device, the solver computes a logic code for every net:

``1`` / ``0``
    net is connected (through conducting channels / bridges) to boundary
    nodes that agree, or its solved analog voltage clears the logic
    thresholds;
``X`` (code ``-1``)
    contention whose divider lands between the thresholds, an unknown
    propagated from an unresolved gate, or an unstable feedback loop;
``FLOAT`` (code ``-2``, internal)
    no path to any boundary; resolved by charge retention (memory) or X.

Unknown gate values are handled by Bryant-style ternary envelopes: the
network is resolved once with all unknown devices off and once with all on;
nets where the two extremes agree take that value, others become X.

Contended components (paths to both rails, e.g. through an injected short)
are solved exactly as a linear resistive network (Laplacian solve) and
thresholded with the technology's ``vil``/``vih``.

One scalar oracle and one vectorized kernel produce byte-identical
results:

* :meth:`StaticSolver.solve` — the scalar reference oracle, one phase at a
  time (the original Python implementation, kept as the ground truth the
  differential tests sweep against, and the ``--scalar`` path), with
  :meth:`StaticSolver._solve_contention` solving one contended component
  per call;
* :meth:`StaticSolver.solve_batch` — all phases of one (cell, defect) pair
  through the vectorized kernel in :mod:`repro.simulation.packed`, the
  same kernel :func:`~repro.simulation.packed.solve_packed` runs across
  many solvers.  Contention is batched in the kernel too:
  :func:`solve_contention_rows` assembles every contended component of a
  resolve with one ``np.bincount`` (:func:`stack_laplacians`) and solves
  each component size with one stacked ``np.linalg.solve``, float for
  float what ``_solve_contention`` computes.  The drive-resistance solves
  of :class:`~repro.simulation.engine.DriveBatch` use the same assembly.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.simulation.switchgraph import DeviceRec, SwitchGraph

if TYPE_CHECKING:
    from repro.simulation.packed import _PackedTopo

X = -1
FLOAT = -2
MAX_ITERATIONS = 16

ON, OFF, UNKNOWN = 1, 0, -1

# Layer counters of the stacked Laplacian solves (registered in
# repro.lint.catalog): contended components solved (per resolve-memo
# miss), and np.linalg.solve calls of the stacked contention and drive
# solves together.
M_CONTENTION_COMPONENTS = "simulation.contention_components"
M_LAPLACIAN_STACKS = "simulation.laplacian_stacks"


class SolveResult(NamedTuple):
    """Solved per-node codes plus whether charge retention was consulted.

    When ``retention_used`` is False the result is independent of the
    previous pattern (no net floated), which the engine exploits to share
    phase solves across stimuli.
    """

    codes: List[int]
    retention_used: bool


class UnionFind:
    """Array-based union-find with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def device_conduction(
    dev: DeviceRec,
    codes: Sequence[int],
    prev_codes: Optional[Sequence[int]],
) -> int:
    """Conduction state of one device given current net codes.

    A gate-open device lags one pattern behind (trapped charge); with no
    history it is non-conducting.
    """
    if dev.gate_open:
        if prev_codes is None:
            return OFF
        gate_value = prev_codes[dev.gate]
    else:
        gate_value = codes[dev.gate]
    if gate_value == 1:
        return ON if dev.is_nmos else OFF
    if gate_value == 0:
        return OFF if dev.is_nmos else ON
    return UNKNOWN


class StaticSolver:
    """Solves one settled phase of a stimulus on one switch graph."""

    def __init__(self, graph: SwitchGraph):
        self.graph = graph
        self.vil = graph.params.vil
        self.vih = graph.params.vih
        self._retention_used = False
        # Retention only matters on nets whose value is ever *read*: the
        # cell output and every gate net.  Internal series-stack nodes
        # float routinely in healthy CMOS; retaining X there is harmless
        # and must not disable the engine's memoryless fast path.
        observable = [False] * graph.n_nodes
        for output in graph.outputs:
            observable[output] = True
        for dev in graph.devices:
            observable[dev.gate] = True
        self._observable = observable
        # Input pins can be pre-seeded with their source value when nothing
        # but the driver resistor touches them (no defect bridge, pin not on
        # any channel): the relaxation then starts with known first-stage
        # conduction, saving one all-unknown iteration.
        channel_nets = set()
        for dev in graph.devices:
            channel_nets.add(dev.drain)
            channel_nets.add(dev.source)
        bridged = set()
        for net_a, net_b, _r in graph.effect.bridges:
            bridged.add(graph.net_index[net_a])
            bridged.add(graph.net_index[net_b])
        self._seedable_pins = [
            (pin, src)
            for pin, src in zip(graph.pin_nodes, graph.source_nodes)
            if pin not in channel_nets and pin not in bridged
        ]
        # The vectorized kernel's state for this graph: its one-slot
        # topology (built on first use) and its resolve rows, memoized by
        # (conduction mask, source values) — the component structure and
        # boundary outcome, exact contention solve included, are a pure
        # function of that pair, which the fixpoint revisits constantly.
        self._topo: Optional[_PackedTopo] = None
        self._resolve_cache: Dict[bytes, np.ndarray] = {}

    # ------------------------------------------------------------------
    def solve(
        self,
        input_codes: Sequence[int],
        prev_codes: Optional[Sequence[int]] = None,
    ) -> SolveResult:
        """Return a logic code (1/0/X) per node.

        *prev_codes* is the settled state of the previous pattern; it feeds
        charge retention on floating nets and the lagged conduction of
        gate-open devices.
        """
        graph = self.graph
        fixed = graph.fixed_values(input_codes)

        codes: List[int] = [X] * graph.n_nodes
        for node, value in fixed.items():
            codes[node] = value
        for pin, src in self._seedable_pins:
            codes[pin] = fixed[src]

        for _ in range(MAX_ITERATIONS):
            new_codes, retention_used = self._step(codes, prev_codes, fixed)
            if new_codes == codes:
                # Only the converged step's retention flag matters: floats
                # seen while early iterations still carried X gates are
                # transients that the fixpoint has overwritten.
                return SolveResult(codes, retention_used)
            codes = new_codes

        # Non-convergence (possible only with defect-induced feedback):
        # one more step, anything still changing is marked unknown.
        final, _ = self._step(codes, prev_codes, fixed)
        merged = [c if c == f else X for c, f in zip(codes, final)]
        return SolveResult(merged, True)

    # ------------------------------------------------------------------
    def _step(
        self,
        codes: List[int],
        prev_codes: Optional[Sequence[int]],
        fixed: Dict[int, int],
    ) -> Tuple[List[int], bool]:
        graph = self.graph
        conduction = [
            device_conduction(dev, codes, prev_codes) for dev in graph.devices
        ]
        has_unknown = any(c == UNKNOWN for c in conduction)
        res_off = self._resolve(conduction, unknown_as=OFF, fixed=fixed)
        if has_unknown:
            res_on = self._resolve(conduction, unknown_as=ON, fixed=fixed)
        else:
            res_on = res_off

        self._retention_used = False
        combined: List[int] = []
        for node in range(graph.n_nodes):
            a, b = res_off[node], res_on[node]
            if a == b:
                if a == FLOAT:
                    combined.append(self._retained(node, prev_codes))
                else:
                    combined.append(a)
            elif FLOAT in (a, b):
                driven = b if a == FLOAT else a
                retained = self._retained(node, prev_codes)
                combined.append(driven if driven == retained else X)
            else:
                combined.append(X)
        return combined, self._retention_used

    def _retained(self, node: int, prev_codes: Optional[Sequence[int]]) -> int:
        if self._observable[node]:
            self._retention_used = True
        if prev_codes is None:
            return X
        value = prev_codes[node]
        return value if value in (0, 1) else X

    # ------------------------------------------------------------------
    def _resolve(
        self,
        conduction: Sequence[int],
        unknown_as: int,
        fixed: Dict[int, int],
    ) -> List[int]:
        """Resolve all nodes for one extreme of the unknown devices."""
        graph = self.graph
        uf = UnionFind(graph.n_nodes)

        conducting: List[DeviceRec] = []
        for dev, state in zip(graph.devices, conduction):
            effective = unknown_as if state == UNKNOWN else state
            if effective == ON:
                conducting.append(dev)
                uf.union(dev.drain, dev.source)
        for a, b, _g in graph.static_edges:
            uf.union(a, b)

        # Group nodes per component root.
        members: Dict[int, List[int]] = {}
        for node in range(graph.n_nodes):
            members.setdefault(uf.find(node), []).append(node)

        result: List[int] = [FLOAT] * graph.n_nodes
        for nodes in members.values():
            boundary = [(n, fixed[n]) for n in nodes if n in fixed]
            if not boundary:
                continue  # stays FLOAT
            values = {v for _n, v in boundary}
            if len(values) == 1:
                value = values.pop()
                for n in nodes:
                    result[n] = value
            else:
                self._solve_contention(nodes, conducting, fixed, result)
        return result

    # ------------------------------------------------------------------
    def _solve_contention(
        self,
        nodes: List[int],
        conducting: Sequence[DeviceRec],
        fixed: Dict[int, int],
        result: List[int],
    ) -> None:
        """Exact resistive solve of one contended component."""
        graph = self.graph
        node_set = set(nodes)
        free = [n for n in nodes if n not in fixed]
        for n in nodes:
            if n in fixed:
                result[n] = fixed[n]
        if not free:
            return
        pos = {n: i for i, n in enumerate(free)}

        size = len(free)
        laplacian = np.zeros((size, size))
        injection = np.zeros(size)

        def add_edge(a: int, b: int, g: float) -> None:
            if a not in node_set or b not in node_set or a == b:
                return
            a_free, b_free = a in pos, b in pos
            if a_free:
                laplacian[pos[a], pos[a]] += g
            if b_free:
                laplacian[pos[b], pos[b]] += g
            if a_free and b_free:
                laplacian[pos[a], pos[b]] -= g
                laplacian[pos[b], pos[a]] -= g
            elif a_free:
                injection[pos[a]] += g * fixed[b]
            elif b_free:
                injection[pos[b]] += g * fixed[a]

        for dev in conducting:
            add_edge(dev.drain, dev.source, dev.g_on)
        for a, b, g in graph.static_edges:
            add_edge(a, b, g)

        try:
            voltages = np.linalg.solve(laplacian, injection)
        except np.linalg.LinAlgError:  # pragma: no cover - degenerate
            for n in free:
                result[n] = X
            return

        for n in free:
            v = voltages[pos[n]]
            if v >= self.vih:
                result[n] = 1
            elif v <= self.vil:
                result[n] = 0
            else:
                result[n] = X

    # ------------------------------------------------------------------
    def solve_batch(
        self,
        vectors: Sequence[Tuple[int, ...]],
        prevs: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ) -> List[SolveResult]:
        """Solve many phases at once; element *i* equals ``solve(vectors[i],
        prevs[i])`` exactly (codes and retention flag).

        A one-request call into the vectorized kernel of
        :mod:`repro.simulation.packed`, on this solver's own cached
        topology (no padding, no packing counters).
        """
        if not len(vectors):
            return []
        from repro.simulation.packed import PackedRequest, run_kernel

        return run_kernel([PackedRequest(self, vectors, prevs)])[0]


# ----------------------------------------------------------------------
# Stacked Laplacian solves
# ----------------------------------------------------------------------
def stack_laplacians(
    sizes: np.ndarray,
    node_net: np.ndarray,
    pos: np.ndarray,
    volt,
    edge_a: np.ndarray,
    edge_b: np.ndarray,
    g: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the augmented nodal matrices ``[L | i]`` of many resistive
    networks in one flat array.

    Network ``c`` has ``sizes[c]`` free nodes.  Node ``k`` belongs to
    network ``node_net[k]`` (-1: none), either free at position
    ``pos[k]`` or held (``pos[k] == -1``) at voltage ``volt[k]`` (or at
    the one voltage *volt*).  Edge
    ``j`` joins nodes ``edge_a[j]`` and ``edge_b[j]`` of one network with
    conductance ``g[j]``.  Every edge lists four entries, the updates the
    scalar ``add_edge`` of :meth:`StaticSolver._solve_contention` makes:
    the diagonals, then the off-diagonal pair (``-g``) or, for a held
    end, its injection (``g`` times the held voltage).  A held node's row
    is a spare tail and its column is the injection column.
    ``np.bincount`` sums each cell's entries in input order, i.e. edge
    order, so every float equals the scalar ``+=``/``-=`` sequence.

    Networks are laid out by ascending size, so each size is one
    contiguous ``(k, n, n + 1)`` block (see :func:`size_groups`).
    Returns ``(flat, offset of each network, networks by size)``.
    """
    width = sizes + 1
    block = sizes * width
    by_size = sizes.argsort(kind="stable")
    ends = block[by_size].cumsum()
    offset = np.empty_like(block)
    offset[by_size] = ends - block[by_size]
    spare = int(ends[-1])
    free = pos >= 0
    row = np.where(free, offset[node_net] + pos * width[node_net], spare)
    col = np.where(free, pos, sizes[node_net])
    factor = np.where(free, -1.0, volt)
    row_a, row_b, col_a, col_b = row[edge_a], row[edge_b], col[edge_a], col[edge_b]
    index = np.empty((len(g), 4), dtype=np.intp)
    np.add(row_a, col_a, out=index[:, 0])
    np.add(row_a, col_b, out=index[:, 1])
    np.add(row_b, col_b, out=index[:, 2])
    np.add(row_b, col_a, out=index[:, 3])
    weight = np.empty((len(g), 4))
    weight[:, 0] = g
    np.multiply(g, factor[edge_b], out=weight[:, 1])
    weight[:, 2] = g
    np.multiply(g, factor[edge_a], out=weight[:, 3])
    flat = np.bincount(
        index.ravel(), weight.ravel(), minlength=spare + int(width.max())
    )
    return flat, offset, by_size


def size_groups(
    flat: np.ndarray, sizes: np.ndarray, offset: np.ndarray, by_size: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(networks, L, i)`` per distinct non-zero size ``n`` of a
    :func:`stack_laplacians` layout: ``L`` is ``(k, n, n)`` and ``i`` is
    ``(k, n, 1)``, both views into *flat*."""
    ordered = sizes[by_size]
    steps = (ordered[1:] != ordered[:-1]).nonzero()[0] + 1
    bounds = [0, *steps.tolist(), len(ordered)]
    for lo, hi in zip(bounds, bounds[1:]):
        n = int(ordered[lo])
        if n:
            first = int(offset[by_size[lo]])
            m = flat[first : first + (hi - lo) * n * (n + 1)].reshape(-1, n, n + 1)
            yield by_size[lo:hi], m[:, :, :n], m[:, :, n:]


def _pick(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``table[rows, cols]`` of a per-row table, or of one shared row."""
    return table[cols] if table.ndim == 1 else table[rows, cols]


def solve_contention_rows(
    codes: np.ndarray,
    contended: np.ndarray,
    labels: np.ndarray,
    fixed_nodes: np.ndarray,
    edges: Sequence[np.ndarray],
    edge_active: np.ndarray,
    thresholds: np.ndarray,
) -> None:
    """Stacked :meth:`StaticSolver._solve_contention` over many rows.

    *codes* ``(R, N)`` (C-contiguous) already holds every fixed node's
    value; its free *contended* nodes are written in place.  *labels*
    are the kernel's component labels (each component's smallest node).
    ``fixed_nodes``, the ``(a, b, g)`` *edges* (device columns first) and
    ``(vil, vih)`` *thresholds* are per-row tables or one row shared by
    all; ``edge_active`` marks the conducting edges.

    Exactly the scalar solve per component: free nodes numbered in
    ascending node order, the Laplacian and injection assembled in
    ``add_edge`` order (:func:`stack_laplacians`), one ``np.linalg.solve``
    per component size, thresholded at the row's ``vil``/``vih``.  When
    a stack is singular its components are solved one at a time, and
    only the singular ones turn X.
    """
    R, N = codes.shape
    flat_codes = codes.reshape(-1)
    base = np.arange(0, R * N, N)
    root = (labels + base[:, None]).ravel()
    registry = obs.metrics()
    registry.inc(
        M_CONTENTION_COMPONENTS,
        int(np.count_nonzero(contended & (labels == np.arange(N)))),
    )
    free = contended.reshape(-1).copy()
    free[(fixed_nodes + base[:, None]).ravel()] = False
    free_ids = free.nonzero()[0]
    if not len(free_ids):  # every contended node is fixed
        return

    # One network per component with free nodes, in root order; its
    # free nodes ascending (a stable sort of row-major node ids).
    keys = root[free_ids]
    order = keys.argsort(kind="stable")
    nodes, keys = free_ids[order], keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = new.nonzero()[0]
    net_of_node = new.cumsum() - 1
    sizes = np.bincount(net_of_node)
    pos = np.empty(R * N, dtype=np.intp)
    pos.fill(-1)
    pos[nodes] = np.arange(len(nodes)) - starts[net_of_node]
    node_net = np.empty(R * N, dtype=np.intp)
    node_net.fill(-1)
    node_net[keys[starts]] = np.arange(len(starts))
    node_net = node_net[root]

    edge_a, edge_b, edge_g = edges
    er, ee = (edge_active & (edge_a != edge_b)).nonzero()
    fa = _pick(edge_a, er, ee) + er * N
    keep = (node_net[fa] >= 0).nonzero()[0]
    er, ee, fa = er[keep], ee[keep], fa[keep]
    flat, offset, by_size = stack_laplacians(
        sizes, node_net, pos, flat_codes, fa, _pick(edge_b, er, ee) + er * N,
        _pick(edge_g, er, ee),
    )

    volts = np.empty(len(nodes))
    volts.fill(np.nan)  # NaN (singular) thresholds to X
    calls = 0
    for nets, laplacian, injection in size_groups(flat, sizes, offset, by_size):
        calls += 1
        try:
            solved = np.linalg.solve(laplacian, injection)[:, :, 0]
        except np.linalg.LinAlgError:
            solved = np.full(laplacian.shape[:2], np.nan)
            for k in range(len(nets)):
                calls += 1
                try:
                    solved[k] = np.linalg.solve(laplacian[k], injection[k, :, 0])
                except np.linalg.LinAlgError:
                    pass
        volts[starts[nets][:, None] + np.arange(laplacian.shape[1])] = solved
    registry.inc(M_LAPLACIAN_STACKS, calls)

    if len(thresholds) > 1:
        thresholds = thresholds[nodes // N]
    flat_codes[nodes] = np.where(
        volts >= thresholds[:, 1], 1, np.where(volts <= thresholds[:, 0], 0, X)
    )
