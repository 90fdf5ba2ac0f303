"""Regenerate ``perfbench/pins.json``, the benchmark's pinned outputs.

    python3 perfbench/pin.py

Pins are taken once, from a commit whose outputs are trusted; a later
change that alters any output byte makes the benchmark fail until it is
justified and the pins are retaken.  ``test_perfbench.py`` cross-checks
a seeded sample of the library pins against the scalar simulator.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import env  # noqa: E402,F401  (isolation before numpy)
from perfbench import oracle  # noqa: E402
from perfbench.workloads import HYBRID_GROUPS, HYBRID_SIMULATED, HybridC40  # noqa: E402


def library_pins(models) -> dict:
    return {
        name: {"table": oracle.table_digest(m)}
        for name, m in sorted(models.items())
    }


def hybrid_pins(state) -> dict:
    """Route and output digest of every cell a draw can contain, each
    characterized the way a round sees it: its group's classifier fitted
    on the soi28 training samples alone."""
    from repro.flow import HybridFlow

    pins = {}
    # ML-routed cells leave the flow's state alone (no feedback), so they
    # share one flow; each simulated cell gets a fresh one.
    shared = HybridFlow(state["samples"], params=state["params"])
    cells = [c for key in HYBRID_GROUPS for c in state["pool"][key]]
    cells += [c for group in state["simulated"].values() for c in group]
    for cell in cells:
        flow = (
            HybridFlow(state["samples"], params=state["params"])
            if cell.name in HYBRID_SIMULATED
            else shared
        )
        decision = flow.generate(cell, reference=state["references"][cell.name])
        expected = "simulate" if cell.name in HYBRID_SIMULATED else "ml"
        if decision.route != expected:
            raise SystemExit(f"{cell.name}: route {decision.route}, expected {expected}")
        pins[cell.name] = {
            "route": decision.route,
            "table": oracle.table_digest(decision.model),
        }
    return pins


def main() -> None:
    pins = {}
    for tech in oracle.LIBRARIES:
        models = oracle.generate_models(oracle.build_library(tech).cells)
        pins[tech] = library_pins(models)
    workload = HybridC40()
    workload.prepare()
    state = workload.inputs()
    for tech, models in (("soi28", state["train_models"]), ("c40", state["references"])):
        if oracle.mismatches(models, pins[tech]):
            raise SystemExit(f"cached {tech} models differ from a fresh generation")
    pins["hybrid_c40"] = hybrid_pins(state)
    for name, pin in pins["hybrid_c40"].items():
        if pin["route"] == "simulate" and pin["table"] != pins["c40"][name]["table"]:
            raise SystemExit(f"{name}: hybrid simulation differs from the library model")
    oracle.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {oracle.PINS}: " + ", ".join(f"{k}={len(v)}" for k, v in pins.items()))


if __name__ == "__main__":
    main()
