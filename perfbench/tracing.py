"""Span recorder for the traced benchmark run.

A traced run wraps calls into each layer's public functions (see :mod:`layers`)
and records one span per wrapped call: its name, start, end, parent span and the
operation (shard, panel or tuning run) it belongs to.  Counts are recorded at the
same boundaries.  Spans stay in memory, in flat typed arrays so that the
hundreds of thousands of noise-hash spans of a paper-scale campaign stay small,
and are written as JSON lines when the run ends.

A span nested directly inside a span of the same name (a recursive call, or one
public method calling another that is wrapped under the same name) is not
recorded separately, so a layer's busy time never counts the same interval twice.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["SpanRecorder", "Patcher"]


class SpanRecorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ops: list[str] = ["-"]
        self._op_ids: dict[str, int] = {"-": 0}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.current_op = 0
        self.counts: dict[str, float] = defaultdict(float)

    # ---------------------------------------------------------------- recording

    def name_id(self, name: str) -> int:
        """Intern ``name`` and return its id."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def set_op(self, label: str) -> None:
        """Make ``label`` the operation that following spans belong to."""
        oid = self._op_ids.get(label)
        if oid is None:
            oid = self._op_ids[label] = len(self.ops)
            self.ops.append(label)
        self.current_op = oid

    def active(self, nid: int) -> bool:
        """True while a span named ``nid`` is open."""
        return self._depth[nid] > 0

    def wrap(self, name: str, fn: Callable[..., Any],
             after: Callable[[Any, tuple, dict], None] | None = None
             ) -> Callable[..., Any]:
        """``fn`` wrapped to record a span named ``name`` per call.

        ``after(result, args, kwargs)`` records counts once the call returned.
        """
        nid = self.name_id(name)
        depth = self._depth
        stack = self._stack
        names, starts, ends = self._name, self._start, self._end
        parents, ops = self._parent, self._op
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if depth[nid]:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] = 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[nid] = 0
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ----------------------------------------------------------------- analysis

    def __len__(self) -> int:
        return len(self._name)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        names = np.frombuffer(self._name, dtype=np.int32) if len(self) else np.empty(0, np.int32)
        start = np.frombuffer(self._start, dtype=np.float64) if len(self) else np.empty(0)
        end = np.frombuffer(self._end, dtype=np.float64) if len(self) else np.empty(0)
        return names, start, end

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the time its child spans cover.

        The program is single-threaded while traced, so children of one span never
        overlap and the part they cover is the sum of their durations.
        """
        _, start, end = self._arrays()
        duration = end - start
        parent = np.frombuffer(self._parent, dtype=np.int32) if len(self) else np.empty(0, np.int32)
        children = np.zeros(len(self))
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], duration[has_parent])
        return duration - children

    def totals(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "busy_s", "self_s"}}`` over every recorded span."""
        names, start, end = self._arrays()
        duration = end - start
        self_time = self.self_times()
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        busy = np.bincount(names, weights=duration, minlength=n)
        own = np.bincount(names, weights=self_time, minlength=n)
        return {name: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def write_jsonl(self, path: Path) -> Path:
        """Write one JSON object per span, then one per counter, to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names, start, end = (a.tolist() for a in self._arrays())
        parent = self._parent
        op = self._op
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as out:
            label = [json.dumps(n) for n in self.names]
            ops = [json.dumps(o) for o in self.ops]
            for i in range(len(self)):
                out.write(f'{{"span":{i},"name":{label[names[i]]},'
                          f'"start":{start[i]!r},"end":{end[i]!r},'
                          f'"parent":{parent[i]},"op":{ops[op[i]]}}}\n')
            for name, value in sorted(self.counts.items()):
                out.write(json.dumps({"count": name, "value": value}) + "\n")
        tmp.replace(path)
        return path


class Patcher:
    """Installs wrappers at the attributes callers look up, and removes them again."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Callable[..., Any]], Any]) -> None:
        """Replace ``owner.attr`` by ``make(original_function)``.

        ``owner`` is a module or the class that defines ``attr``; a
        ``staticmethod`` stays one.
        """
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement: Any = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every original attribute back, in reverse order."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


def defining_class(cls: type, attr: str) -> type:
    """The class in ``cls``'s MRO whose ``__dict__`` holds ``attr``."""
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")
