"""Process isolation for benchmark runs.  Import before numpy.

* BLAS/OpenMP pools are pinned to one thread per process (workers
  inherit the environment), so the only parallelism a run has is the
  one the workload asks for.
* Everything a run writes goes under ``WORK`` inside the checkout:
  ``REPRO_CACHE_DIR`` points the experiment cache away from the
  repository's ``.cache/`` and ``TMPDIR`` keeps temporary files local.
* ``src/`` is put on ``sys.path``; the program is used from source.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: per-checkout scratch: model cache, run directories, traces, results
WORK = ROOT / ".bench_work"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

for _var in _THREAD_VARS:
    os.environ[_var] = "1"
(WORK / "tmp").mkdir(parents=True, exist_ok=True)
os.environ["REPRO_CACHE_DIR"] = str(WORK / "repro-cache")
os.environ["TMPDIR"] = str(WORK / "tmp")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    """Machine and toolchain facts recorded with every result."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads_per_process": 1,
    }
