"""Outside-in span tracing: wrap a layer's public entry points, keep spans in memory.

Nothing under ``src/`` knows it is traced. :meth:`Tracer.wrap` replaces a
module or class attribute with a timing wrapper (and :meth:`uninstall`
puts the original back), so a traced run and an untraced run execute
the same program code. A span is ``(name, start, end, parent, trace)``:
the parent is the innermost span open in this process when the call
began, and the trace id is whatever the workload set (a pass or a
round). Spans are appended to in-memory lists and written out once.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter_ns


def first_arg_len(args, result) -> int:
    """Work units of a batch call: the length of its first argument."""
    return len(args[0])


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.traces: list[int] = []
        #: Work units per span index (rows fitted, steps replayed, ...).
        self.span_units: dict[int, int] = {}
        self.trace_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(_now())
        self.ends.append(0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.traces.append(self.trace_id)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.ends[index] = _now()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, units=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``units(args, result)`` may return a work count credited to
        ``name``. Coroutine functions get an awaiting wrapper whose span
        has no parent: other tasks run while it is suspended.
        """
        original = self.original(owner, attr)
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                start = _now()
                result = await original(*args, **kwargs)
                index = self.record(name, start, _now())
                if units is not None:
                    self.span_units[index] = units(args, result)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = self._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(index)
                if units is not None:
                    self.span_units[index] = units(args, result)
                return result

        self.patch(owner, attr, wrapper)

    @staticmethod
    def original(owner, attr: str):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, self.original(owner, attr)))
        setattr(owner, attr, replacement)

    def record(self, name: str, start: int, end: int) -> int:
        """A span timed by the caller (no parent); returns its index."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(-1)
        self.traces.append(self.trace_id)
        return len(self.names) - 1

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- persistence ----------------------------------------------------

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "names": self.names,
                    "starts": self.starts,
                    "ends": self.ends,
                    "parents": self.parents,
                    "traces": self.traces,
                    "units": list(self.span_units.items()),
                }
            )
        )

    @classmethod
    def load(cls, path: Path) -> "Tracer":
        data = json.loads(path.read_text())
        tracer = cls()
        tracer.names = data["names"]
        tracer.starts = data["starts"]
        tracer.ends = data["ends"]
        tracer.parents = data["parents"]
        tracer.traces = data["traces"]
        tracer.span_units = {int(i): u for i, u in data["units"]}
        return tracer

    # -- analysis -------------------------------------------------------

    def summary(self, layer_of, keep=None) -> dict[str, dict]:
        """Per layer: span count, busy seconds and self seconds.

        ``layer_of(name)`` maps a span name to its layer. Busy time sums
        the spans whose parent is not in the same layer (so nested calls
        are not counted twice); self time subtracts every direct child's
        duration. ``keep(index)`` filters spans (children are only
        subtracted when kept too).
        """
        kept = [i for i in range(len(self.names)) if keep is None or keep(i)]
        child_ns: defaultdict[int, int] = defaultdict(int)
        for i in kept:
            parent = self.parents[i]
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i in kept:
            layer = layer_of(self.names[i])
            row = out.setdefault(layer, {"count": 0, "busy_s": 0.0, "self_s": 0.0})
            duration = self.ends[i] - self.starts[i]
            row["count"] += 1
            parent = self.parents[i]
            if parent < 0 or layer_of(self.names[parent]) != layer:
                row["busy_s"] += duration / 1e9
            row["self_s"] += (duration - child_ns[i]) / 1e9
        return out

    def indices(self, name: str, keep=None) -> list[int]:
        return [
            i for i, n in enumerate(self.names) if n == name and (keep is None or keep(i))
        ]

    def durations_s(self, name: str, keep=None) -> list[float]:
        return [(self.ends[i] - self.starts[i]) / 1e9 for i in self.indices(name, keep)]

    def total_s(self, name: str, keep=None) -> float:
        return sum(self.durations_s(name, keep))

    def count(self, name: str, keep=None) -> int:
        return len(self.indices(name, keep))

    def units(self, name: str, keep=None) -> int:
        return sum(self.span_units.get(i, 0) for i in self.indices(name, keep))

