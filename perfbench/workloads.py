"""The three workloads: inputs, one timed round, and its correctness check.

Why these three (the rationale ``BENCHMARK.json`` has room for only in
one line each):

* ``library_packed`` -- the conventional flow at library scale: the
  bench C40 library (88 cells, 10,080 defects, delay detection on) is
  parsed from SPICE text and characterized by ``camodel.run_throughput``
  in this process, single-threaded.  Simulation is almost all of the
  work and learning none of it, so this is the bypass workload for any
  fitting change.
* ``library_service`` -- the same simulation layers used differently:
  the bench soi28 library (108 cells) through ``generate_library(run_dir,
  workers=2)``.  Each cell runs the per-cell batched kernel in a worker
  process, and the run exercises leases, the ledger, CAS commits and
  telemetry shards, which no other workload touches.
* ``hybrid_c40`` -- ``flow.HybridFlow`` trained on the soi28 bench
  models characterizes seeded draws of C40 bench cells, one
  ``generate(cell, reference=...)`` call at a time (a closed loop with
  one client).  Forest fitting at real group sizes dominates; about one
  cell in seven takes the simulation route, so this is the bypass workload
  for simulation changes.

Every round starts from fresh in-process state: a fresh plan store, a
fresh ``HybridFlow``, a fresh run directory.
"""

from __future__ import annotations

import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from perfbench import oracle
from perfbench.env import WORK
from perfbench.report import LAYER_SHARES
from perfbench.tracer import SOLVE_CALLERS, Tracer


@dataclass
class Round:
    """What one timed round did, checked against the pins."""

    wall_s: float
    attempted: int
    #: cells that failed, were quarantined, or whose output mismatched
    failed: List[str]
    #: per-cell latencies [s]
    latencies: List[float]
    #: detection-table accuracy of each ML-routed cell
    accuracies: List[float] = field(default_factory=list)
    #: per-layer numbers read from the program (counters, telemetry)
    layers: Dict[str, float] = field(default_factory=dict)


def _counters() -> Dict[str, float]:
    from repro import obs

    return obs.metrics().checkpoint()


def _delta(before: Dict[str, float]) -> Dict[str, float]:
    from repro import obs

    return obs.metrics().counter_delta(before)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counter_layers(delta: Dict[str, float]) -> Dict[str, float]:
    """Waste ratios read from the program's own generation counters."""
    from repro.camodel import stats
    from repro.learning import engine
    from repro.simulation import packed

    hits = delta.get(stats.M_CACHE_HITS, 0.0)
    skipped = delta.get(stats.M_SKIPPED, 0.0)
    return {
        "simulation.padded_slot_frac": _ratio(
            delta.get(packed.M_PADDED_SLOTS, 0.0),
            delta.get(packed.M_KERNEL_SLOTS, 0.0),
        ),
        "camodel.cache_hit_frac": _ratio(hits, hits + delta.get(stats.M_SOLVES, 0.0)),
        "camodel.defects_skipped_frac": _ratio(
            skipped, skipped + delta.get(stats.M_SIMULATED, 0.0)
        ),
        "learning.frontier_nodes": delta.get(engine.M_FRONTIER_NODES, 0.0),
        "learning.predict_lanes": delta.get(engine.M_PACKED_LANES, 0.0),
    }


def peak_rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# ----------------------------------------------------------------------
# Outside-in patches for the in-process layers
# ----------------------------------------------------------------------

def _fit_bookkeeping(tracer: Tracer) -> Callable[[tuple, dict], None]:
    import numpy as np

    def before(args, kwargs) -> None:
        clf, X, y = args[0], np.asarray(args[1]), np.asarray(args[2])
        # Outside the fit span: the unique-row count is the benchmark's
        # work, not the layer's.
        with tracer.span("bench.fit_unique"):
            unique = len(np.unique(np.column_stack([X, y]), axis=0))
        tracer.add("learning.fit_rows", len(y))
        tracer.add("learning.fit_unique_rows", unique)
        tracer.add("learning.trees", clf.n_estimators)

    return before


def layer_patches(tracer: Tracer) -> list:
    """Every call site the traced in-process workloads go through."""
    import numpy.linalg

    from repro.camatrix import matrix as camatrix_matrix
    from repro.camatrix import pipeline
    from repro.camodel import generate, planstore, throughput
    from repro.flow import cost, hybrid
    from repro.flow.structure import StructuralIndex
    from repro.learning.forest import RandomForestClassifier
    from repro.simulation import engine
    from repro.simulation.engine import CellSimulator
    from repro.simulation.solver import StaticSolver

    def rows(args, kwargs, result) -> None:
        tracer.add("camatrix.matrix_rows", result.n_rows)

    def named(name, **hooks):
        return lambda fn: tracer.wrap(fn, name, **hooks)

    return [
        (planstore.PlanStore, "stimulus_plan", named("camodel.plan")),
        (planstore.PlanStore, "topology", named("camodel.plan")),
        (throughput, "default_universe", named("defects.universe")),
        (generate, "default_universe", named("defects.universe")),
        (camatrix_matrix, "default_universe", named("defects.universe")),
        (cost, "default_universe", named("defects.universe")),
        (
            throughput,
            "solve_words_across",
            lambda fn: tracer.wrap_nth(fn, ["simulation.golden", "simulation.sweep"]),
        ),
        (engine, "solve_packed", named("simulation.kernel")),
        (StaticSolver, "solve_batch", named("simulation.kernel")),
        (numpy.linalg, "solve", lambda fn: tracer.wrap_by_caller(fn, SOLVE_CALLERS)),
        (CellSimulator, "output_drive_resistance", named("simulation.drive")),
        (CellSimulator, "solve_word", named("simulation.word")),
        (engine, "split_word", named("simulation.split")),
        (planstore, "split_word", named("simulation.split")),
        (generate, "split_word", named("simulation.split")),
        (hybrid, "rename_transistors", named("camatrix.rename")),
        (camatrix_matrix, "rename_transistors", named("camatrix.rename")),
        (hybrid, "build_matrix", named("camatrix.matrix", after=rows)),
        (pipeline, "build_matrix", named("camatrix.matrix", after=rows)),
        (hybrid, "generate_ca_model", named("camodel.generate")),
        (StructuralIndex, "match", named("flow.match")),
        (
            RandomForestClassifier,
            "fit",
            named("learning.fit", before=_fit_bookkeeping(tracer)),
        ),
        (RandomForestClassifier, "predict", named("learning.predict")),
        (RandomForestClassifier, "predict_proba", named("learning.predict")),
    ]


# ----------------------------------------------------------------------
# library_packed
# ----------------------------------------------------------------------

class Workload:
    name = ""
    #: whether the work runs in child processes (peak RSS includes them,
    #: per-layer numbers come from the run directory's telemetry)
    children = False

    def prepare(self) -> None:
        """Cold-path work done once per source tree, outside set-up."""

    def check_inputs(self, state) -> List[str]:
        """Inputs that do not match their pins."""
        return []


class LibraryPacked(Workload):
    name = "library_packed"

    def setup(self, seed: int):
        from repro.spice.writer import write_library

        cells = list(oracle.build_library("c40").cells)
        random.Random(seed).shuffle(cells)
        return {"text": write_library(cells), "pins": oracle.load_pins()["c40"]}

    def run(self, state, rng: random.Random, tracer: Optional[Tracer]) -> Round:
        from repro.camodel import LibraryGenerationError, run_throughput
        from repro.camodel.planstore import fresh_store
        from repro.spice.parser import parse_library

        tracer = tracer or Tracer()
        before = _counters()
        started = time.perf_counter()
        with fresh_store():
            with tracer.span("spice.parse"):
                cells = parse_library(state["text"], technology="c40")
            with tracer.span("camodel.run_throughput"):
                try:
                    models = run_throughput(cells)
                except LibraryGenerationError as exc:
                    models = exc.completed
        wall = time.perf_counter() - started
        layers = _counter_layers(_delta(before))
        failed = sorted(set(c.name for c in cells) - set(models))
        failed += oracle.mismatches(models, state["pins"])
        return Round(
            wall_s=wall,
            attempted=len(cells),
            failed=failed,
            latencies=[m.generation_seconds for m in models.values()],
            layers=layers,
        )


# ----------------------------------------------------------------------
# library_service
# ----------------------------------------------------------------------

class LibraryService(Workload):
    name = "library_service"
    children = True
    workers = 2

    def setup(self, seed: int):
        cells = list(oracle.build_library("soi28").cells)
        random.Random(seed).shuffle(cells)
        return {"cells": cells, "pins": oracle.load_pins()["soi28"]}

    def run(self, state, rng: random.Random, tracer: Optional[Tracer]) -> Round:
        from repro.camodel import generate_library
        from repro.obs.store import RunTelemetry

        tracer = tracer or Tracer()
        run_dir = WORK / "runs" / f"{self.name}-{time.time_ns()}"
        cells = state["cells"]
        try:
            started_epoch = time.time()
            started = time.perf_counter()
            with tracer.span("camodel.generate_library"):
                models = generate_library(cells, run_dir=run_dir, workers=self.workers)
            wall = time.perf_counter() - started
            with tracer.span("bench.telemetry"):
                telemetry = RunTelemetry.load(run_dir)
            layers = service_layers(telemetry, started_epoch, wall, self.workers)
            layers["obs.shards_written"] = float(len(list((run_dir / "obs").glob("*.json"))))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        failed = sorted(set(c.name for c in cells) - set(models))
        failed += oracle.mismatches(models, state["pins"])
        done = telemetry.counters_by_cell()
        return Round(
            wall_s=wall,
            attempted=len(cells),
            failed=failed,
            latencies=[
                float(telemetry.ledger.cells[name]["seconds"]) for name in sorted(done)
            ],
            layers=layers,
        )


def span_self_times(shards: List[List[dict]]) -> Dict[str, Dict[str, float]]:
    """Calls, total and self seconds per name of telemetry spans.

    Span ids are unique within one shard only (a long-lived worker
    restarts them per attempt), so children are matched per shard.
    """
    out: Dict[str, Dict[str, float]] = {}
    for spans in shards:
        covered: Dict[str, float] = {}
        for span in spans:
            parent = span.get("parent_id")
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + float(span["duration"])
        for span in spans:
            entry = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = float(span["duration"])
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - covered.get(span["span_id"], 0.0)
    return out


def service_layers(telemetry, started_epoch: float, wall: float, workers: int) -> Dict[str, float]:
    """Per-layer numbers of a service run, from its run directory."""
    from repro.resilience import runner
    from repro.service import lease, worker

    counters: Dict[str, float] = {}
    for cell_counters in telemetry.counters_by_cell().values():
        for key, value in cell_counters.items():
            counters[key] = counters.get(key, 0.0) + value
    spans = span_self_times([a.get("spans", []) for a in telemetry.attempts])
    process = telemetry.worker_counters()
    session = telemetry.session_counters()
    ok = [a for a in telemetry.attempts if a["outcome"] == "ok"]
    busy = sum(float(a["seconds"]) for a in telemetry.attempts)
    first = min(
        (float(a["started"]) + float(a["seconds"]) for a in ok), default=started_epoch
    )

    def span(name: str, key: str) -> float:
        return float(spans.get(name, {}).get(key, 0.0))

    # Layer shares of the worker spans, over the summed attempt seconds.
    shares = {f"layer.{key}_share": 0.0 for key in LAYER_SHARES}
    shares["layer.golden_pass_share"] = span("generate.golden", "self_s") / busy
    shares["layer.kernel_share"] = span("solver.batch", "self_s") / busy
    shares["layer.other_share"] = 1.0 - sum(shares.values())

    layers = _counter_layers(counters)
    layers.update(shares)
    layers.update(
        {
            "simulation.golden_s": span("generate.golden", "total_s"),
            "simulation.sweep_s": span("generate.defects", "total_s"),
            "simulation.kernel_calls": span("solver.batch", "calls"),
            "simulation.kernel_self_s": span("solver.batch", "self_s"),
            "camodel.assembly_s": span("camodel.generate", "self_s"),
            "service.worker_busy_frac": busy / (workers * wall),
            "service.first_commit_s": first - started_epoch,
            "service.lease_claims": process.get(lease.M_CLAIMS, 0.0),
            "service.lease_conflicts": process.get(lease.M_CONFLICTS, 0.0),
            "service.heartbeats": process.get(lease.M_HEARTBEATS, 0.0),
            "service.commit_races": process.get(worker.M_COMMIT_RACES, 0.0),
            "resilience.retries": session.get(runner.M_RETRIES, 0.0)
            + process.get(runner.M_RETRIES, 0.0),
        }
    )
    return layers


# ----------------------------------------------------------------------
# hybrid_c40
# ----------------------------------------------------------------------

#: Training groups (inputs, transistors) a draw takes cells from.  Their
#: fits (62k and 6k training rows) fit a round of about seven seconds;
#: the whole library (24 fits, ~250 s) does not.  Their predict-only
#: latencies form two clusters, 3 fast cells under 7 slower ones, with
#: the fits and simulations above; the latency median then falls inside
#: the slower cluster, not in the gap between two clusters, where it
#: would jump with every small shift of rank.
HYBRID_GROUPS = ((3, 8), (2, 6))
#: cells of those groups with no structural match in the soi28 training
#: set: the simulation route.  A round draws one per group that has any
#: (two cells of 14).  Two from one group could not be pinned: the first
#: one's feedback can give the second a structural match.
HYBRID_SIMULATED = tuple(
    f"C40_{fn}X1{variant}"
    for fn in ("NAND2B", "NOR2B", "NAND3B", "NOR3B")
    for variant in ("", "_HS")
)


class HybridC40(Workload):
    name = "hybrid_c40"

    def prepare(self) -> None:
        for tech in oracle.LIBRARIES:
            oracle.cached_models(tech)

    def setup(self, seed: int):
        return {**self.inputs(), "pins": oracle.load_pins()}

    def inputs(self):
        """Everything a round needs except the pins (which ``pin.py``
        takes from these inputs)."""
        from repro.camodel import load_models
        from repro.learning import build_samples
        from repro.library.technology import get as get_technology

        train_path = oracle.cached_models("soi28")
        ref_path = oracle.cached_models("c40")
        train = oracle.build_library("soi28")
        target = oracle.build_library("c40")
        train_models = {m.cell_name: m for m in load_models(train_path)}
        references = {m.cell_name: m for m in load_models(ref_path)}
        samples = build_samples(
            [(cell, train_models[cell.name]) for cell in train],
            get_technology("soi28").electrical,
        )
        pool = {key: [] for key in HYBRID_GROUPS}
        simulated = {}
        for cell in target:
            if cell.name in HYBRID_SIMULATED:
                simulated.setdefault(cell.group_key, []).append(cell)
            elif cell.group_key in pool:
                pool[cell.group_key].append(cell)
        return {
            "samples": samples,
            "references": references,
            "train_models": train_models,
            "pool": pool,
            "simulated": simulated,
            "params": get_technology("c40").electrical,
        }

    @staticmethod
    def draw(state, rng: random.Random) -> list:
        """Seeded cells for one round: every ML-routed cell of the groups in
        shuffled order, plus one drawn simulation-route cell per group that
        has them, inserted after the last ML cell of its group.  Its
        feedback then invalidates a classifier nobody uses again, so every
        round fits each group exactly once and the seed changes which
        cell pays each fit, not how much fitting there is.  Drawing every
        ML cell keeps the latency median on the same population."""
        cells = [cell for key in HYBRID_GROUPS for cell in state["pool"][key]]
        rng.shuffle(cells)
        for key, candidates in sorted(state["simulated"].items()):
            last = max(i for i, c in enumerate(cells) if c.group_key == key)
            cells.insert(rng.randint(last + 1, len(cells)), rng.choice(candidates))
        return cells

    def run(self, state, rng: random.Random, tracer: Optional[Tracer]) -> Round:
        from repro.camodel.planstore import fresh_store
        from repro.flow import HybridFlow

        tracer = tracer or Tracer()
        cells = self.draw(state, rng)
        before = _counters()
        latencies = []
        decisions = []
        started = time.perf_counter()
        with fresh_store():
            flow = HybridFlow(state["samples"], params=state["params"])
            for cell in cells:
                t0 = time.perf_counter()
                with tracer.span("flow.generate"):
                    decision = flow.generate(cell, reference=state["references"][cell.name])
                latencies.append(time.perf_counter() - t0)
                decisions.append(decision)
        wall = time.perf_counter() - started
        layers = _counter_layers(_delta(before))
        ml = [d for d in decisions if d.route == "ml"]
        layers["flow.ml_cells"] = float(len(ml))
        layers["flow.sim_cells"] = float(len(decisions) - len(ml))
        pins = state["pins"]["hybrid_c40"]
        failed = [
            d.cell_name
            for d in decisions
            if pins.get(d.cell_name, {}).get("route") != d.route
            or pins[d.cell_name]["table"] != oracle.table_digest(d.model)
        ]
        return Round(
            wall_s=wall,
            attempted=len(cells),
            failed=failed,
            latencies=latencies,
            accuracies=[d.accuracy for d in ml if d.accuracy is not None],
            layers=layers,
        )

    def check_inputs(self, state) -> List[str]:
        """Training and reference models against the library pins."""
        pins = state["pins"]
        return oracle.mismatches(state["train_models"], pins["soi28"]) + oracle.mismatches(
            state["references"], pins["c40"]
        )


WORKLOADS = {w.name: w for w in (LibraryPacked(), LibraryService(), HybridC40())}
