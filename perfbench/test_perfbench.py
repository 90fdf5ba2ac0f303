"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They check the benchmark, not the program: that ``BENCHMARK.json`` and
the metric tables agree, that the pinned digests are reproduced by the
scalar simulator (so the reference does not come only from the code
under test), that the tracer puts every patched call site back, and that
traced counts repeat exactly for one seed.
"""

from __future__ import annotations

import json
import random

import pytest

from perfbench import env, oracle, report
from perfbench.run import trace
from perfbench.tracer import Tracer
from perfbench.workloads import (
    HYBRID_GROUPS,
    WORKLOADS,
    HybridC40,
    LibraryPacked,
    layer_patches,
)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for key, table in (("end_to_end", report.END_TO_END), ("per_layer", report.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == [(name, entry[0], entry[1]) for name, entry in table.items()]


@pytest.mark.parametrize("tech", sorted(oracle.LIBRARIES))
def test_pins_match_the_scalar_oracle(tech):
    """A seeded sample of library pins against ``batched=False``
    generation and the default per-cell path."""
    from repro.camodel import generate_ca_model

    pins = oracle.load_pins()[tech]
    cells = random.Random(2021).sample(list(oracle.build_library(tech).cells), 4)
    for cell in cells:
        scalar = generate_ca_model(cell, batched=False)
        assert oracle.table_digest(scalar) == pins[cell.name]["table"], cell.name
        assert oracle.table_digest(generate_ca_model(cell)) == pins[cell.name]["table"]


def test_tracer_restores_every_call_site():
    tracer = Tracer()
    patches = layer_patches(tracer)
    originals = [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr, _ in patches
    ]
    with pytest.raises(RuntimeError):
        with tracer.patched(patches):
            assert all(
                getattr(owner, attr) is not original
                for (owner, attr, _), original in zip(patches, originals)
                if not isinstance(owner, type)
            )
            raise RuntimeError("body fails")
    for (owner, attr, _), original in zip(patches, originals):
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner}.{attr} not restored"


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("outer"):
            pass
    layers = tracer.layers()
    assert layers["outer"]["calls"] == 1
    assert layers["inner"]["calls"] == 1
    whole = layers["outer"]["total_s"]
    parts = layers["outer"]["self_s"] + layers["inner"]["self_s"]
    assert parts == pytest.approx(whole, abs=1e-9)


def _counts(metrics):
    return {name: metrics[name] for name, spec in report.PER_LAYER.items() if spec[0] == "count"}


def test_traced_counts_repeat_for_one_seed_packed():
    from repro.spice.writer import write_library

    workload = LibraryPacked()
    cells = list(oracle.build_library("c40").cells)
    random.Random(7).shuffle(cells)
    state = {"text": write_library(cells[:10]), "pins": oracle.load_pins()["c40"]}
    first = trace(workload, state, 7, "test-packed")
    second = trace(workload, state, 7, "test-packed")
    assert not [name for r in first[0] + second[0] for name in r.failed]
    assert _counts(first[1]) == _counts(second[1])
    assert first[1]["simulation.laplacian_solves"] > 0
    assert first[1]["simulation.drive_calls"] > 0


def test_traced_counts_repeat_for_one_seed_hybrid():
    workload = HybridC40()
    workload.prepare()
    state = workload.setup(seed=3)
    first = trace(workload, state, 3, "test-hybrid")
    second = trace(workload, state, 3, "test-hybrid")
    assert not [name for r in first[0] + second[0] for name in r.failed]
    assert _counts(first[1]) == _counts(second[1])
    assert first[1]["learning.fit_calls"] == len(HYBRID_GROUPS)
    assert first[1]["flow.sim_cells"] == len(state["simulated"])


def test_hybrid_draws_fit_each_group_once():
    """Whatever the seed, a draw holds every ML-routed cell once and one
    simulation-route cell per group, after that group's last ML cell."""
    workload = HybridC40()
    workload.prepare()
    state = workload.setup(seed=0)
    ml = {c.name for group in state["pool"].values() for c in group}
    for seed in range(300):
        cells = workload.draw(state, random.Random(seed))
        names = [c.name for c in cells]
        assert set(names) >= ml and len(names) == len(ml) + len(state["simulated"])
        for key, candidates in state["simulated"].items():
            extra = [i for i, c in enumerate(cells) if c in candidates]
            assert len(extra) == 1
            assert all(
                i < extra[0] for i, c in enumerate(cells) if c.group_key == key and c.name in ml
            )
