"""Counter identity of the one vectorized kernel.

Per-cell generation (``StaticSolver.solve_batch``) and the cross-cell
engine (``solve_packed``) run the same kernel, but only packed calls
account padding: per-cell solving must add nothing to
``throughput.kernel_slots`` / ``throughput.padded_slots``.  The pinned
deltas below are the whole counter footprint of both flows on four
cells; any optimization that changes one of them changes cost
accounting that runs, resumes and telemetry compare.
"""

import pytest

from repro import obs
from repro.camodel import generate_ca_model, run_throughput
from repro.camodel.planstore import fresh_store
from repro.library import SOI28, build_cell
from repro.simulation import PackedRequest, solve_packed
from repro.simulation.packed import M_KERNEL_SLOTS, M_PADDED_SLOTS
from repro.simulation.solver import StaticSolver
from repro.simulation.switchgraph import SwitchGraph

FUNCTIONS = ("INV", "NAND2", "AOI21", "MUX2")

SHARED = {
    "camodel.defects.simulated": 200.0,
    "camodel.defects.skipped": 40.0,
    "camodel.sim.batched_phases": 2646.0,
    "camodel.sim.cache_hits": 35818.0,
    "camodel.sim.solves": 2646.0,
    "simulation.contention_components": 1861.0,
    "simulation.drive_solves": 1290.0,
    "throughput.plan_reuse": 1.0,
}
# Stacked np.linalg.solve calls: one per component size of each
# contended resolve (per-cell calls hold few rows, packed calls many).
PER_CELL = dict(SHARED, **{"simulation.laplacian_stacks": 649.0})
THROUGHPUT = dict(
    SHARED,
    **{
        "simulation.laplacian_stacks": 91.0,
        "throughput.cells": 4.0,
        "throughput.flushes": 3.0,
        "throughput.kernel_slots": 39690.0,
        "throughput.packed_rows": 2646.0,
        "throughput.padded_slots": 6111.0,
    },
)


def _counters(run):
    with obs.scoped(metrics=obs.Metrics()):
        with fresh_store():
            run()
        delta = obs.metrics().counter_delta({})
    return {k: v for k, v in delta.items() if not k.startswith("camodel.seconds.")}


@pytest.fixture(scope="module")
def cells():
    return [build_cell(SOI28, function, 1) for function in FUNCTIONS]


def test_per_cell_generation_counters(cells):
    def run():
        for cell in cells:
            generate_ca_model(cell)

    assert _counters(run) == PER_CELL


def test_throughput_counters(cells):
    assert _counters(lambda: run_throughput(cells)) == THROUGHPUT


def test_only_packed_calls_account_padding(cells):
    solver = StaticSolver(SwitchGraph(cells[1], params=SOI28.electrical))
    vectors = [(0, 0), (0, 1), (1, 0), (1, 1)]
    with obs.scoped(metrics=obs.Metrics()):
        per_cell = solver.solve_batch(vectors)
        assert obs.metrics().counter_delta({}) == {}
        packed = solve_packed([PackedRequest(solver, vectors)])
        delta = obs.metrics().counter_delta({})
    assert packed == [per_cell]
    n = solver.graph.n_nodes
    # One topology: every row spans its nodes plus the scrap column.
    assert delta == {M_KERNEL_SLOTS: 4.0 * (n + 1), M_PADDED_SLOTS: 4.0}
