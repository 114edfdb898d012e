"""In-memory span recorder that times the program's layers from outside.

Spans are recorded by wrapping public callables of ``repro`` (functions,
methods and one chunk iterator) for the length of a traced run; nothing
inside ``src/`` is modified on disk, and :meth:`Tracer.uninstall`
restores every original.  Each span stores its name, start, end and the
index of the span that was open when it started (its parent), in flat
``array`` columns so a replay's million-odd spans cost a few tens of MB.

A span's *self time* is its duration minus the durations of its direct
children.  Wrappers nest strictly (a child starts after and ends before
its parent), so the self times of all spans under a root add up to the
root's duration; the benchmark checks this against the wall time it
measures around each root.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

_clock = time.perf_counter
_END = object()


class Tracer:
    """Records nested spans and per-span unit counters in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.units: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, fn: Callable, name: str, units: Callable | None = None) -> Callable:
        """``fn`` wrapped to record one ``name`` span per call.

        ``units(args, kwargs, result)``, when given, returns a work count
        added to ``self.units[name]`` (for example histories forecast).
        """
        name_id = self.name_id(name)
        ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, unit_totals = self._stack, self.units

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            ids.append(name_id)
            starts.append(_clock())
            ends.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = _clock()
                stack.pop()
            if units is not None:
                unit_totals[name] = unit_totals.get(name, 0) + units(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def timed_iterator(self, iterator_fn: Callable, name: str, units: Callable) -> Callable:
        """``iterator_fn`` wrapped so each ``next()`` of its result is a span."""
        step = self.timed(
            next, name, units=lambda args, kwargs, item: 0 if item is _END else units(item)
        )

        def wrapper(*args: Any, **kwargs: Any) -> Iterator:
            iterator = iter(iterator_fn(*args, **kwargs))
            while (item := step(iterator, _END)) is not _END:
                yield item

        return wrapper

    # ------------------------------------------------------------------ #
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` (keeps descriptor kind)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls: type, attr: str, name: str, units: Callable | None = None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self.patch(cls, attr, classmethod(self.timed(raw.__func__, name, units)))
        elif isinstance(raw, staticmethod):
            self.patch(cls, attr, staticmethod(self.timed(raw.__func__, name, units)))
        else:
            self.patch(cls, attr, self.timed(raw, name, units))

    def wrap_function(
        self, module: str, attr: str, name: str, units: Callable | None = None
    ) -> None:
        """Wrap a module-level function in every ``repro`` module that imported it."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.timed(original, name, units)
        for module_name, loaded in list(sys.modules.items()):
            if module_name.split(".")[0] == "repro" and getattr(loaded, attr, None) is original:
                self.patch(loaded, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and ``units``."""
        ids = np.frombuffer(self.name_ids, dtype=np.int32).astype(np.int64)
        duration = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        parents = np.frombuffer(self.parents, dtype=np.int32).astype(np.int64)
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=duration[has_parent], minlength=ids.size
        )
        self_time = duration - child_time
        count = len(self.names)
        calls = np.bincount(ids, minlength=count)
        totals = np.bincount(ids, weights=duration, minlength=count)
        selfs = np.bincount(ids, weights=self_time, minlength=count)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(totals[i]),
                "self_s": float(selfs[i]),
                "units": self.units.get(name, 0),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        """Write every span (name id, start, end, parent) and the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )
