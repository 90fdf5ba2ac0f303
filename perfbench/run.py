"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload library_packed --seed 1 --seconds 42 --trace 0

``--trace 0`` measures the end-to-end metrics: untraced rounds of the
workload, while the next round is expected to end within ``--seconds``
of round time.  Set-ups run before the first round and after each
round, outside the rounds' timing; ``setup_s`` is their median.
``--trace 1`` runs one untraced and one traced round of the same seeded
input and prints the per-layer metrics, the layer-share report and the
tracing overhead.  Each round's outputs are
checked against ``perfbench/pins.json``; a mismatch makes ``correct``
false and the exit code 1.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import env  # noqa: E402  (isolation before numpy)

if not (env.SRC / "repro" / "__init__.py").exists():
    sys.exit(f"perfbench: no program sources at {env.SRC.name}/repro")

from perfbench import report  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, layer_patches, peak_rss_mb  # noqa: E402

#: set-ups before the first round: at least SETUP_REPEATS, and for at
#: least SETUP_SECONDS (a cheap set-up repeats often enough for a steady
#: median); after each round: at least one, and for at least SETUP_SECONDS.
#: The host's speed shifts in phases of a second or more, so set-ups
#: spread over the whole run keep one phase from deciding setup_s.
SETUP_REPEATS = 3
SETUP_SECONDS = 0.25


def _setup(workload, seed: int, times: list, repeats: int, seconds: float):
    """Set *workload* up *repeats* times and for *seconds*, appending each
    set-up's time to *times*; return the last state."""
    spent = 0.0
    for count in itertools.count(1):
        state = None  # let the previous state go before building the next
        started = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - started)
        spent += times[-1]
        if count >= repeats and spent >= seconds:
            return state


def measure(workload, seed: int, seconds: float):
    """Untraced rounds until the next would end after *seconds* of rounds,
    each on a fresh set-up; returns the last state, the rounds and every
    set-up time."""
    setups = []
    state = _setup(workload, seed, setups, SETUP_REPEATS, SETUP_SECONDS)
    rng = random.Random(seed)
    rounds = []
    while True:
        rounds.append(workload.run(state, rng, None))
        state = None
        state = _setup(workload, seed, setups, 1, SETUP_SECONDS)
        if sum(r.wall_s for r in rounds) + rounds[-1].wall_s > seconds:
            return state, rounds, setups


def trace(workload, state, seed: int, name: str):
    untraced = workload.run(state, random.Random(seed), None)
    tracer = Tracer()
    patches = [] if workload.children else layer_patches(tracer)
    with tracer.patched(patches):
        traced = workload.run(state, random.Random(seed), tracer)
    tracer.save(env.WORK / "traces" / f"{name}-s{seed}.npz")
    overhead = traced.wall_s / untraced.wall_s - 1.0
    spans = tracer.layers()
    metrics = report.per_layer(traced, spans, tracer.counts, overhead)
    return [untraced, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    facts = env.environment()
    print("# env " + json.dumps(facts, sort_keys=True))
    workload.prepare()  # the cold path (model generation) is not set-up time
    if args.trace:
        state = workload.setup(args.seed)
        rounds, metrics = trace(workload, state, args.seed, args.workload)
        lines = report.render(
            f"{args.workload} per-layer (traced round)", metrics, report.PER_LAYER
        )
    else:
        state, rounds, setups = measure(workload, args.seed, args.seconds)
        metrics = report.end_to_end(
            rounds, setups, peak_rss_mb(children=workload.children)
        )
        lines = report.render(
            f"{args.workload} end-to-end ({len(rounds)} rounds)", metrics, report.END_TO_END
        )
    if not args.trace and any(r.accuracies for r in rounds):
        lines.append(f"  ml_mean_accuracy: {report.ml_mean_accuracy(rounds):.6g} ratio "
                     "(ML-routed cells; every predicted model is also pinned)")
    failed = [name for r in rounds for name in r.failed]
    attempted = sum(r.attempted for r in rounds)
    latencies = sum(len(r.latencies) for r in rounds)
    lines.append(f"  cell latency samples: {latencies}")
    lines.append(f"  failed_frac: {len(failed) / attempted:.6g} ratio ({len(failed)}/{attempted})")
    if failed:
        lines.append("  FAILED (failed, quarantined or not matching perfbench/pins.json): "
                     + ", ".join(failed[:20]))
    # Training and reference models are inputs, not cells of a round:
    # a mismatch makes the run incorrect but is not a failed cell.
    bad_inputs = sorted(set(workload.check_inputs(state)))
    if bad_inputs:
        lines.append(f"  INPUT MISMATCHES ({len(bad_inputs)} training/reference models not "
                     "matching perfbench/pins.json): " + ", ".join(bad_inputs[:20]))
    print("\n".join(lines))

    correct = not failed and not bad_inputs
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": (report.PER_LAYER if args.trace else
                                            report.END_TO_END)[name][0]}
            for name, value in metrics.items()
        },
    }
    out = env.WORK / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"env": facts, "args": vars(args), **result,
                               "input_mismatches": bad_inputs}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
