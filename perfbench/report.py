"""Metric definitions and how each is derived from a run's rounds.

``END_TO_END`` and ``PER_LAYER`` are the metrics ``BENCHMARK.json``
lists (a test keeps the two in step).  Each per-layer entry records the
end-to-end metric and workload it is expected to move, so a performance
change can say beforehand which numbers should move and which should
not.  Seconds are inclusive time in the named calls unless the name
says ``self``; ``simulation.word_s`` is self time too, because
``split_word`` also runs inside ``solve_word``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Sequence, Tuple

#: name -> (unit, better, definition)
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "cells_per_min": (
        "1/min", "higher",
        "cells characterized per minute of round wall time at the workload's input size",
    ),
    "cell_p50_s": (
        "s", "lower",
        "median per-cell latency of each round, averaged over the run's rounds: "
        "HybridFlow.generate calls (hybrid_c40), the engine's per-cell start-to-model "
        "span (library_packed), worker seconds per cell from the ledger (library_service)",
    ),
    "setup_s": (
        "s", "lower",
        "median of the run's set-ups (before the first round and after each round): "
        "build or parse inputs, load training and reference "
        "models (the warm cache path)",
    ),
    "peak_rss_mb": (
        "MB", "lower",
        "peak resident memory; for library_service the maximum over the benchmark "
        "process and its workers",
    ),
}

PACKED_MOVES = "cells_per_min on library_packed and library_service; ~0 on hybrid_c40"
PLAN_MOVES = "cells_per_min on library_packed (a small share); setup_s elsewhere"
PREDICT_MOVES = "cell_p50_s on hybrid_c40"
FIT_MOVES = "cells_per_min and peak_rss_mb on hybrid_c40; nothing on the library workloads"
SERVICE_MOVES = "cells_per_min on library_service"

#: name -> (unit, better, what it measures, which end-to-end metric it should move)
PER_LAYER: Dict[str, Tuple[str, str, str, str]] = {
    "spice.parse_s": ("s", "lower", "parse_library", PLAN_MOVES),
    "camodel.plan_s": ("s", "lower", "PlanStore.stimulus_plan and .topology", PLAN_MOVES),
    "defects.universe_s": ("s", "lower", "default_universe", PLAN_MOVES),
    "simulation.golden_s": (
        "s", "lower", "first solve_words_across of run_throughput (golden pass); "
        "generate.golden spans on library_service", PACKED_MOVES,
    ),
    "simulation.sweep_s": (
        "s", "lower", "second solve_words_across of run_throughput (defect sweep); "
        "generate.defects spans on library_service", PACKED_MOVES,
    ),
    "simulation.kernel_calls": (
        "count", "lower", "solve_packed and per-cell StaticSolver.solve_batch calls",
        PACKED_MOVES,
    ),
    "simulation.kernel_self_s": (
        "s", "lower", "self time of the kernel; contention assembly still sits inside it",
        PACKED_MOVES,
    ),
    "simulation.laplacian_solves": (
        "count", "lower", "numpy.linalg.solve calls from repro.simulation.solver (contention)",
        PACKED_MOVES,
    ),
    "simulation.laplacian_s": ("s", "lower", "time in those solves", PACKED_MOVES),
    "simulation.drive_calls": (
        "count", "lower", "CellSimulator.output_drive_resistance calls", PACKED_MOVES,
    ),
    "simulation.drive_s": ("s", "lower", "time in output_drive_resistance", PACKED_MOVES),
    "simulation.drive_laplacian_solves": (
        "count", "lower",
        "numpy.linalg.solve calls from repro.simulation.engine (drive resistance)",
        PACKED_MOVES,
    ),
    "simulation.word_calls": (
        "count", "lower", "CellSimulator.solve_word plus split_word calls", PACKED_MOVES,
    ),
    "simulation.word_s": (
        "s", "lower", "self time of solve_word and split_word", PACKED_MOVES,
    ),
    "simulation.padded_slot_frac": (
        "ratio", "lower", "throughput.padded_slots / throughput.kernel_slots", PACKED_MOVES,
    ),
    "camodel.cache_hit_frac": (
        "ratio", "higher", "camodel.sim.cache_hits / (solves + cache_hits)", PACKED_MOVES,
    ),
    "camodel.defects_skipped_frac": (
        "ratio", "higher", "camodel.defects.skipped / (simulated + skipped)", PACKED_MOVES,
    ),
    "camodel.assembly_s": (
        "s", "lower",
        "self time of run_throughput, or of generate_ca_model on the per-cell paths",
        PACKED_MOVES,
    ),
    "camatrix.rename_s": ("s", "lower", "rename_transistors", PREDICT_MOVES),
    "camatrix.matrix_s": ("s", "lower", "build_matrix", PREDICT_MOVES),
    "camatrix.matrix_rows": ("count", "lower", "rows of the CA matrices built", PREDICT_MOVES),
    "learning.predict_calls": (
        "count", "lower", "RandomForestClassifier.predict / predict_proba calls", PREDICT_MOVES,
    ),
    "learning.predict_s": ("s", "lower", "time in those calls", PREDICT_MOVES),
    "learning.predict_lanes": (
        "count", "lower", "learning.packed_lanes counter", PREDICT_MOVES,
    ),
    "flow.match_s": ("s", "lower", "StructuralIndex.match", PREDICT_MOVES),
    "flow.ml_cells": ("count", "higher", "cells routed to ML", PREDICT_MOVES),
    "flow.sim_cells": ("count", "lower", "cells routed to simulation", PREDICT_MOVES),
    "flow.ml_mean_accuracy": (
        "ratio", "higher",
        "mean detection-table accuracy of ML-routed cells against their reference "
        "models (hybrid_c40; 0 where no cell is predicted)",
        "nothing: every predicted model is pinned, so a change already fails the oracle",
    ),
    "learning.fit_calls": ("count", "lower", "RandomForestClassifier.fit calls", FIT_MOVES),
    "learning.fit_s": ("s", "lower", "time in fit", FIT_MOVES),
    "learning.fit_rows": ("count", "lower", "rows passed to fit", FIT_MOVES),
    "learning.trees": ("count", "lower", "trees fitted", FIT_MOVES),
    "learning.frontier_nodes": (
        "count", "lower", "learning.frontier_nodes counter", FIT_MOVES,
    ),
    "learning.fit_unique_frac": (
        "ratio", "higher",
        "unique (X, y) rows / rows passed to fit, counted outside the fit span", FIT_MOVES,
    ),
    "service.worker_busy_frac": (
        "ratio", "higher", "sum of per-cell attempt seconds / (workers x wall time)",
        SERVICE_MOVES,
    ),
    "service.first_commit_s": (
        "s", "lower", "job start to the end of the first successful attempt", SERVICE_MOVES,
    ),
    "service.lease_claims": ("count", "lower", "lease.claims", SERVICE_MOVES),
    "service.lease_conflicts": ("count", "lower", "lease.conflicts", SERVICE_MOVES),
    "service.heartbeats": ("count", "lower", "lease.heartbeats", SERVICE_MOVES),
    "service.commit_races": ("count", "lower", "service.commit_races", SERVICE_MOVES),
    "resilience.retries": ("count", "lower", "resilience.retries", SERVICE_MOVES),
    "obs.shards_written": (
        "count", "lower", "telemetry shards in the run directory", SERVICE_MOVES,
    ),
    "obs.trace_overhead_frac": (
        "ratio", "lower", "(traced round wall - untraced round wall) / untraced round wall",
        "nothing: it prices the benchmark's own tracing",
    ),
}

#: ROADMAP's nine layers: share key -> span names whose self time it sums
LAYER_SHARES: Dict[str, Sequence[str]] = {
    "parse_plan": ("spice.parse", "camodel.plan", "defects.universe"),
    "golden_pass": ("simulation.golden",),
    "kernel": ("simulation.kernel",),
    "contention": ("simulation.laplacian",),
    "drive_resistance": ("simulation.drive", "simulation.drive_laplacian"),
    "word_assembly": ("simulation.word", "simulation.split"),
    "camatrix": ("camatrix.rename", "camatrix.matrix"),
    "forest_fit": ("learning.fit",),
    "packed_predict": ("learning.predict",),
}
for _key in list(LAYER_SHARES) + ["other"]:
    PER_LAYER[f"layer.{_key}_share"] = (
        "ratio",
        "lower",
        f"self time of the {_key.replace('_', ' ')} layer / traced round wall time "
        "(library_service: / summed worker attempt seconds)"
        if _key != "other"
        else "time not in the nine layers (sweep planning, assembly, flow "
        "bookkeeping, service overhead, untraced code)",
        "names the layer a performance change moved",
    )


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(rounds, setups: Sequence[float], peak_rss_mb: float) -> Dict[str, float]:
    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    wall = sum(r.wall_s for r in rounds)
    return {
        "cells_per_min": (attempted - failed) / wall * 60.0,
        # The host runs in fast and slow phases lasting seconds, and a
        # round's short latencies mostly share one phase: the median of
        # all latencies follows whichever phase most rounds fell in,
        # while the mean of the rounds' medians weighs each round once.
        "cell_p50_s": statistics.fmean(_median(r.latencies) for r in rounds),
        "setup_s": _median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def ml_mean_accuracy(rounds) -> float:
    """Mean table accuracy of the rounds' ML-routed cells; 0 if none."""
    accuracies = [a for r in rounds for a in r.accuracies]
    return sum(accuracies) / len(accuracies) if accuracies else 0.0


def per_layer(round_, spans: Mapping[str, Mapping[str, float]], counts, overhead: float):
    """Every per-layer metric of one traced round; 0 where a layer is idle."""

    def get(name: str, key: str) -> float:
        return float(spans.get(name, {}).get(key, 0.0))

    fit_rows = counts.get("learning.fit_rows", 0.0)
    out = {name: 0.0 for name in PER_LAYER}
    out.update(
        {
            "spice.parse_s": get("spice.parse", "total_s"),
            "camodel.plan_s": get("camodel.plan", "total_s"),
            "defects.universe_s": get("defects.universe", "total_s"),
            "simulation.golden_s": get("simulation.golden", "total_s"),
            "simulation.sweep_s": get("simulation.sweep", "total_s"),
            "simulation.kernel_calls": get("simulation.kernel", "calls"),
            "simulation.kernel_self_s": get("simulation.kernel", "self_s"),
            "simulation.laplacian_solves": get("simulation.laplacian", "calls"),
            "simulation.laplacian_s": get("simulation.laplacian", "total_s"),
            "simulation.drive_calls": get("simulation.drive", "calls"),
            "simulation.drive_s": get("simulation.drive", "total_s"),
            "simulation.drive_laplacian_solves": get("simulation.drive_laplacian", "calls"),
            "simulation.word_calls": get("simulation.word", "calls")
            + get("simulation.split", "calls"),
            "simulation.word_s": get("simulation.word", "self_s")
            + get("simulation.split", "self_s"),
            "camodel.assembly_s": get("camodel.run_throughput", "self_s")
            + get("camodel.generate", "self_s"),
            "camatrix.rename_s": get("camatrix.rename", "total_s"),
            "camatrix.matrix_s": get("camatrix.matrix", "total_s"),
            "camatrix.matrix_rows": counts.get("camatrix.matrix_rows", 0.0),
            "learning.predict_calls": get("learning.predict", "calls"),
            "learning.predict_s": get("learning.predict", "total_s"),
            "flow.match_s": get("flow.match", "total_s"),
            "learning.fit_calls": get("learning.fit", "calls"),
            "learning.fit_s": get("learning.fit", "total_s"),
            "learning.fit_rows": fit_rows,
            "learning.trees": counts.get("learning.trees", 0.0),
            "learning.fit_unique_frac": (
                counts.get("learning.fit_unique_rows", 0.0) / fit_rows if fit_rows else 0.0
            ),
            "flow.ml_mean_accuracy": ml_mean_accuracy([round_]),
            "obs.trace_overhead_frac": overhead,
        }
    )
    out.update(layer_shares(round_.wall_s, spans))
    # numbers the program reported itself (library_service: its telemetry)
    unknown = set(round_.layers) - set(PER_LAYER)
    if unknown:
        raise ValueError(f"layers not in PER_LAYER: {sorted(unknown)}")
    out.update(round_.layers)
    return out


def layer_shares(wall_s: float, spans: Mapping[str, Mapping[str, float]]) -> Dict[str, float]:
    """Self-time shares of ROADMAP's nine layers in one traced round,
    over its wall time less the benchmark's own ``bench.*`` spans."""
    base = wall_s - sum(
        float(entry.get("total_s", 0.0)) for name, entry in spans.items()
        if name.startswith("bench.")
    )
    shares = {
        f"layer.{key}_share": sum(float(spans.get(n, {}).get("self_s", 0.0)) for n in names)
        / base
        for key, names in LAYER_SHARES.items()
    }
    shares["layer.other_share"] = 1.0 - sum(shares.values())
    return shares


def render(title: str, metrics: Mapping[str, float], table: Mapping[str, tuple]) -> List[str]:
    lines = [title]
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        lines.append(f"  {name:<{width}}  {value:>14.6g} {table[name][0]}")
    return lines
