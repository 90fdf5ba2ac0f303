"""One atomic writer: concurrent writers of one file never tear it.

Every run-directory file (artifacts, ledger, leases, telemetry shards,
phase-cache entries) goes through :func:`repro.atomicio.write_atomic`.
Its temp file is unique per call, so two threads of one process can
rewrite the same target at once: the lease heartbeat does exactly that,
from the worker's heartbeat thread and from ``still_held()`` on its main
thread.
"""

import json
import sys
import threading

import pytest

from repro import obs
from repro.atomicio import write_atomic
from repro.service.lease import LeaseStore

BEATS = 1500


def _race(*targets):
    """Run *targets* on one thread each, released together; their errors.

    A short switch interval makes the threads interleave inside each
    write instead of taking turns between whole writes.
    """
    errors = []
    barrier = threading.Barrier(len(targets))

    def run(target):
        barrier.wait()
        try:
            target()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_two_threads_heartbeat_one_lease(tmp_path):
    store = LeaseStore(tmp_path, registry=obs.Metrics())
    lease = store.claim("NAND2", owner="worker-1", attempt=0)
    assert lease is not None
    beats = []

    def beat():
        for _ in range(BEATS):
            beats.append(store.heartbeat(lease))

    assert _race(beat, beat) == []
    assert len(beats) == 2 * BEATS
    assert all(beats), f"{beats.count(False)} beats reported a live lease lost"
    assert [p.name for p in store.lease_dir.iterdir()] == ["NAND2.json"]
    assert store.read("NAND2")["owner"] == "worker-1"


def test_concurrent_writers_leave_a_whole_file(tmp_path):
    target = tmp_path / "state.json"
    texts = [json.dumps({"writer": i, "pad": "x" * 4096}) for i in range(4)]

    def writer(text):
        return lambda: [write_atomic(target, text) for _ in range(300)]

    assert _race(*(writer(text) for text in texts)) == []
    assert target.read_text() in texts
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path):
    target = tmp_path / "state.json"
    target.write_text("old")
    with pytest.raises(TypeError):
        write_atomic(target, object())  # type: ignore[arg-type]
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
