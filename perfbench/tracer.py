"""Outside-in tracer: spans around calls into the program's layers.

The program has no spans at most layer boundaries yet, so the benchmark
records them from outside: :meth:`Tracer.patched` replaces each public
function a caller looks up (a module attribute or a class attribute) by
a wrapper that records one span per call, and puts every original back
on exit, even when the body raises.

Spans live in memory as four parallel arrays (name, parent, start, end),
which keeps the roughly one million spans of a traced library pass at
24 bytes each; :meth:`Tracer.save` writes them out when the run ends.
A layer's self time is its spans' duration minus the part covered by
their child spans.  Spans nest strictly (one thread), so the covered
part is the sum of the children's durations.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: numpy.linalg.solve callers, by module, and the span each is charged to
SOLVE_CALLERS = {
    "repro.simulation.solver": "simulation.laplacian",
    "repro.simulation.engine": "simulation.drive_laplacian",
}


class Tracer:
    """In-memory span recorder with call-site patching."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        #: counts the wrappers take from arguments and results
        self.counts: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def _id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _open(self, ident: int) -> int:
        index = len(self._start)
        self._name.append(ident)
        self._parent.append(self._stack[-1])
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(index)

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0.0) + value

    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[[tuple, dict, object], None]] = None,
        before: Optional[Callable[[tuple, dict], None]] = None,
    ) -> Callable:
        """*fn* with one span per call.

        *before* runs outside the span (for bookkeeping that must not be
        charged to the layer); *after* sees the arguments and result.
        """
        ident = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = open_(ident)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_nth(self, fn: Callable, names: Sequence[str]) -> Callable:
        """*fn* whose k-th call under one parent span is named ``names[k]``
        (the last name repeats), e.g. the golden then the sweep pass."""
        idents = [self._id(name) for name in names]
        seen: Dict[int, int] = {}
        open_, close, stack = self._open, self._close, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            k = seen.get(parent, 0)
            seen[parent] = k + 1
            index = open_(idents[min(k, len(idents) - 1)])
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_by_caller(self, fn: Callable, callers: Dict[str, str]) -> Callable:
        """*fn* charged to the span ``callers[module of the caller]``;
        calls from any other module pass through untraced."""
        idents = {module: self._id(name) for module, name in callers.items()}
        open_, close, getframe = self._open, self._close, sys._getframe

        def traced(*args, **kwargs):
            ident = idents.get(getframe(1).f_globals.get("__name__"))
            if ident is None:
                return fn(*args, **kwargs)
            index = open_(ident)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    @contextmanager
    def patched(
        self, patches: Sequence[Tuple[object, str, Callable[[Callable], Callable]]]
    ) -> Iterator[None]:
        """Install ``(owner, attribute, make_wrapper)`` patches; restore
        every original on exit, in reverse order."""
        installed: List[Tuple[object, str, object]] = []
        try:
            for owner, attr, make in patches:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                setattr(owner, attr, make(original))
                installed.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` (outermost, so a layer calling itself
        counts once), ``total_s`` (outermost spans) and ``self_s``."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        duration = a["end"] - a["start"]
        nested = parent >= 0
        covered = np.zeros(len(duration))
        np.add.at(covered, parent[nested], duration[nested])
        self_time = duration - covered
        outer = np.ones(len(name), dtype=bool)
        outer[nested] = name[parent[nested]] != name[nested]
        n = len(self.names)
        calls = np.bincount(name[outer], minlength=n)
        total = np.bincount(name[outer], weights=duration[outer], minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        return {
            label: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i, label in enumerate(self.names)
        }

    def save(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
        return path
