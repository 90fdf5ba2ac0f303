"""Stacked Laplacian solves against their scalar oracles.

Contention: the kernel's stacked solve
(:func:`repro.simulation.solver.solve_contention_rows`, reached through
``packed._resolve_rows``) must reproduce
:meth:`StaticSolver._resolve` — which runs the scalar
``_solve_contention`` per component — bit for bit, on one-slot
topologies and on mixed-size multi-slot packs, and a singular stack
must fall back to one solve per component so that only the singular
component turns X.

Drive resistance: :class:`repro.simulation.engine.DriveBatch` must
return the scalar ``effective_resistance`` oracle's float for every
request (``inf`` included), and its cache hits and ``prefetch_drive``
pops must land where a loop of one-request calls puts them, also when
the batch settles its open misses before the end.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.library import SOI28, build_cell
from repro.logic.fourval import parse_word
from repro.simulation import CellSimulator, CellTopology, DefectEffect, SwitchGraph
from repro.simulation import engine
from repro.simulation.engine import DriveBatch
from repro.simulation.packed import _PackedTopo, _resolve_rows, _Rows
from repro.simulation.solver import (
    M_CONTENTION_COMPONENTS,
    M_LAPLACIAN_STACKS,
    OFF,
    ON,
    StaticSolver,
    X,
)
from repro.spice.netlist import NMOS, PMOS, CellNetlist, Transistor

from laplacian_oracle import drive_resistance, effective_resistance

PARAMS = SOI28.electrical
NETS = ("VDD", "VSS", "A", "B", "Y", "n1", "n2")
GATES = ("A", "B", "Y", "n1", "n2")


@st.composite
def switch_graphs(draw):
    """A random two-input cell plus a random defect effect: devices
    between any nets (rails included, so contention is common), bridges,
    opens (removed devices) and gate-opens."""
    transistors = []
    for k in range(draw(st.integers(1, 8))):
        ttype = draw(st.sampled_from((NMOS, PMOS)))
        transistors.append(
            Transistor(
                f"M{k}",
                ttype,
                draw(st.sampled_from(NETS)),
                draw(st.sampled_from(GATES)),
                draw(st.sampled_from(NETS)),
                "VSS" if ttype == NMOS else "VDD",
                w=draw(st.sampled_from((1.0, 2.0, 3.0))),
            )
        )
    cell = CellNetlist("RND", ["A", "B"], ["Y"], transistors)
    names = st.sampled_from([t.name for t in transistors])
    nets = st.sampled_from(sorted(cell.nets()))
    bridges = draw(
        st.lists(
            st.tuples(nets, nets, st.sampled_from((50.0, 1e3, 2e4))), max_size=3
        )
    )
    effect = DefectEffect(
        removed=draw(st.frozensets(names, max_size=2)),
        gate_open=draw(st.frozensets(names, max_size=2)),
        bridges=tuple(b for b in bridges if b[0] != b[1]),
    )
    return cell, effect


def _solver(cell, effect):
    return StaticSolver(SwitchGraph(cell, params=PARAMS, effect=effect))


def _scalar_resolve(solver, mask, sources):
    fixed = solver.graph.fixed_values(sources)
    conduction = [ON if on else OFF for on in mask]
    return solver._resolve(conduction, unknown_as=OFF, fixed=fixed)


def _kernel_resolve(solvers, rows):
    """``_resolve_rows`` over *rows* of ``(slot, conduction mask, sources)``."""
    pk = _PackedTopo.pack([_PackedTopo.of(solver) for solver in solvers])
    conducting = np.zeros((len(rows), pk.D), dtype=bool)
    fixed_vals = np.zeros((len(rows), pk.fixed_nodes.shape[-1]), dtype=np.int8)
    fixed_vals[:, 0] = 1
    for b, (_slot, mask, sources) in enumerate(rows):
        conducting[b, : len(mask)] = mask
        fixed_vals[b, 2 : 2 + len(sources)] = sources
    topo_idx = np.array([slot for slot, _m, _s in rows], dtype=np.intp)
    view = _Rows(pk, list(solvers), topo_idx if len(solvers) > 1 else None)
    return _resolve_rows(view, conducting, fixed_vals)


def _random_rows(data, solvers, count):
    rows = []
    for _ in range(count):
        slot = data.draw(st.integers(0, len(solvers) - 1))
        n_dev = len(solvers[slot].graph.devices)
        mask = data.draw(st.lists(st.booleans(), min_size=n_dev, max_size=n_dev))
        sources = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
        rows.append((slot, mask, sources))
    return rows


def _assert_rows_match(solvers, rows, result):
    for b, (slot, mask, sources) in enumerate(rows):
        solver = solvers[slot]
        expected = _scalar_resolve(solver, mask, sources)
        assert result[b, : solver.graph.n_nodes].tolist() == expected


class TestContention:
    @given(switch_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_slot_matches_scalar(self, graph, data):
        solvers = [_solver(*graph)]
        rows = _random_rows(data, solvers, data.draw(st.integers(1, 12)))
        _assert_rows_match(solvers, rows, _kernel_resolve(solvers, rows))

    @given(st.lists(switch_graphs(), min_size=2, max_size=4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_mixed_size_pack_matches_scalar(self, graphs, data):
        solvers = [_solver(*graph) for graph in graphs]
        rows = _random_rows(data, solvers, data.draw(st.integers(1, 16)))
        _assert_rows_match(solvers, rows, _kernel_resolve(solvers, rows))

    def test_components_are_counted_per_solve(self):
        solver = _solver(*_fight())
        rows = [(0, [True, True, True], (0,))] * 3 + [(0, [False] * 3, (0,))]
        with obs.scoped(metrics=obs.Metrics()):
            _kernel_resolve([solver], rows)
            delta = obs.metrics().counter_delta({})
        # Three contended rows, one component each; sizes 2 -> one stack.
        assert delta == {M_CONTENTION_COMPONENTS: 3.0, M_LAPLACIAN_STACKS: 1.0}


def _fight():
    """VDD -> Y through a PMOS, Y -> n1 -> VSS through two wide NMOS: with
    all three on, {Y, n1} is one contended component of two free nodes,
    pulled to 0."""
    cell = CellNetlist(
        "FIGHT",
        ["A"],
        ["Y"],
        [
            Transistor("MP", PMOS, "Y", "A", "VDD", "VDD"),
            Transistor("MN1", NMOS, "Y", "A", "n1", "VSS", w=20.0),
            Transistor("MN2", NMOS, "n1", "A", "VSS", "VSS", w=20.0),
        ],
    )
    return cell, DefectEffect()


def _inverter_fight():
    """An inverter with both devices forced on: {Y} is contended."""
    cell = CellNetlist(
        "INVFIGHT",
        ["A"],
        ["Y"],
        [
            Transistor("MP", PMOS, "Y", "A", "VDD", "VDD"),
            Transistor("MN", NMOS, "Y", "A", "VSS", "VSS"),
        ],
    )
    return cell, DefectEffect()


class TestSingularFallback:
    def test_only_the_singular_component_turns_x(self, monkeypatch):
        solver = _solver(*_fight())
        rows = [(0, [True, True, True], (0,))] * 3
        expected = [_scalar_resolve(solver, mask, src) for _s, mask, src in rows]
        real = np.linalg.solve
        calls = []

        def flaky(a, b):
            calls.append(a.shape)
            if a.ndim == 3 or len(calls) == 2:
                # the stack, then the first per-matrix retry
                raise np.linalg.LinAlgError("singular matrix")
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", flaky)
        result = _kernel_resolve([solver], rows)
        n = solver.graph.n_nodes
        got = [result[b, :n].tolist() for b in range(len(rows))]
        # One stacked call, then one per component.
        assert calls == [(3, 2, 2), (2, 2), (2, 2), (2, 2)]
        y, n1 = solver.graph.net_index["Y"], solver.graph.net_index["n1"]
        assert expected[0][y] == expected[0][n1] == 0
        broken = list(expected[0])
        broken[y] = broken[n1] = X
        assert got == [broken] + expected[1:]

    def test_other_sizes_still_solve(self, monkeypatch):
        solvers = [_solver(*_fight()), _solver(*_inverter_fight())]
        rows = [(0, [True, True, True], (1,)), (1, [True, True], (1,))]
        real = np.linalg.solve

        def flaky(a, b):
            if a.shape[-1] == 2:  # every solve of the two-node component
                raise np.linalg.LinAlgError("singular matrix")
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", flaky)
        result = _kernel_resolve(solvers, rows)
        graph = solvers[0].graph
        first = result[0, : graph.n_nodes].tolist()
        assert first[graph.net_index["Y"]] == first[graph.net_index["n1"]] == X
        single = solvers[1]
        assert result[1, : single.graph.n_nodes].tolist() == _scalar_resolve(
            single, [True, True], (1,)
        )


# ----------------------------------------------------------------------
# Drive resistance
# ----------------------------------------------------------------------
WORDS = ["".join(w) for w in itertools.product("01RF", repeat=2)]


class TestDrive:
    @given(switch_graphs(), st.lists(st.sampled_from(WORDS), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_oracle(self, graph, texts):
        cell, effect = graph
        sims = [
            CellSimulator(cell, PARAMS, effect),
            CellSimulator(cell, PARAMS, DefectEffect()),
        ]
        oracle_sims = [CellSimulator(cell, PARAMS, sim.effect) for sim in sims]
        out = sims[0].graph.output
        batch = DriveBatch()
        requests = []
        for k, text in enumerate(texts):
            word = parse_word(text)
            slot = k % 2
            plan = sims[slot]._split_word(word)
            requests.append((slot, word, batch.add(sims[slot], word, plan)))
        values = batch.solve()
        for slot, word, index in requests:
            expected = drive_resistance(oracle_sims[slot], word, out)
            assert values[index] == expected
            # The one-request path agrees too (served from the cache now).
            assert sims[slot].output_drive_resistance(word) == expected

    def test_rail_outside_the_component_is_infinite(self):
        cell = build_cell(SOI28, "INV", 1)
        pmos = next(t for t in cell.transistors if not t.is_nmos)
        sim = CellSimulator(cell, PARAMS, DefectEffect(removed=frozenset({pmos.name})))
        word = parse_word("F")  # input falls: the output floats, keeps 0
        codes1, codes2 = sim.solve_word(word)
        out = sim.graph.output
        assert codes2[out] == 0  # retained, not driven
        assert effective_resistance(
            sim.graph, out, sim.graph.ground, codes1, codes2
        ) == float("inf")
        assert sim.output_drive_resistance(word) == float("inf")

    def test_unknown_output_is_infinite(self):
        cell, _effect = _inverter_fight()
        word = parse_word("1")
        for resistance in (1e2, 1e3, 1e4, 1e5):
            effect = DefectEffect(bridges=(("Y", "VDD", resistance),))
            sim = CellSimulator(cell, PARAMS, effect)
            if sim.solve_word(word)[1][sim.graph.output] == X:
                break
        else:
            pytest.fail("no bridge resistance leaves the output at X")
        assert sim.output_drive_resistance(word) == float("inf")


def _sibling_pair(topology, effect):
    return [
        CellSimulator(topology.cell, PARAMS, effect, topology=topology)
        for _ in range(2)
    ]


class TestDriveCounterOrder:
    """Signature-equal simulators share one drive cache and one prefetch
    dict; the batch must charge hits and pop prefetched entries exactly
    where one-request calls in the same order do."""

    TEXTS = ["1R", "1R", "R1", "11", "11", "F1", "1F", "R1", "F1"]

    def _run(self, batched):
        cell = build_cell(SOI28, "NAND2", 2)
        nmos = next(t for t in cell.transistors if t.is_nmos)
        effect = DefectEffect(removed=frozenset({nmos.name}))
        topology = CellTopology(cell, params=PARAMS)
        sims = _sibling_pair(topology, effect)
        state = topology.phase_state(effect)
        out = sims[0].graph.output
        first, second, _ = sims[0]._split_word(parse_word("F1"))
        state.prefetch_drive[(first, second, out)] = 42.0
        state.prefetch_drive[((9,), (9,), out)] = 7.0  # never requested
        words = [parse_word(text) for text in self.TEXTS]
        if batched:
            batch = DriveBatch()
            index = [
                batch.add(sims[k % 2], word, sims[k % 2]._split_word(word))
                for k, word in enumerate(words)
            ]
            values = batch.solve()
            values = [values[i] for i in index]
        else:
            values = [
                drive_resistance(sims[k % 2], word, out)
                for k, word in enumerate(words)
            ]
        return (
            values,
            [sim.counters() for sim in sims],
            list(state.drive.items()),
            dict(state.prefetch_drive),
        )

    def test_batch_equals_scalar_calls(self):
        batched = self._run(True)
        assert batched == self._run(False)
        values, counters, _drive, prefetch = batched
        assert 42.0 in values  # the prefetched entry was used and popped
        assert list(prefetch.values()) == [7.0]
        assert counters[0]["cache_hits"] > 0 and counters[1]["cache_hits"] > 0

    @pytest.mark.parametrize("rows", [1, 2])
    def test_settling_early_changes_nothing(self, monkeypatch, rows):
        """A batch solves its open misses once ``_DRIVE_ROWS`` are open;
        the requests after that see the filled drive cache instead of an
        open owner, with the same values, hits and pops."""
        expected = self._run(False)
        chunks = []
        solve = engine._drive_laplacians

        def spy(misses):
            chunks.append(len(misses))
            return solve(misses)

        monkeypatch.setattr(engine, "_DRIVE_ROWS", rows)
        monkeypatch.setattr(engine, "_drive_laplacians", spy)
        assert self._run(True) == expected
        assert len(chunks) > 1 and max(chunks) <= rows
