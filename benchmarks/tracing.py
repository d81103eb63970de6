"""In-memory span tracing of intentcf's public functions.

The tracer replaces public module attributes (and the class methods named
below) with wrappers that record one span per call: name, start, end and
the index of the enclosing span. Modules that imported a function by name
hold their own reference to it, so every intentcf module namespace (and
module-level dict, such as a table of activations) that holds the original
object is patched too. ``uninstall`` puts every original back, so the same
process can run untraced and traced rounds.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Trace calls to ``owner.attr``. ``name`` is a span name or a function
        of the call's (args, kwargs); ``on_result`` sees each return value."""
        original = getattr(owner, attr)
        name_of = name if callable(name) else None
        tracer = self

        def wrapper(*args, **kwargs):
            record = tracer._open(name_of(args, kwargs) if name_of else name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer._close(record)
            if on_result is not None:
                on_result(out)
            return out

        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._undo.append(lambda: setattr(owner, attr, original))
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "intentcf" or mod_name.startswith("intentcf."):
                self._replace(vars(module), original, wrapper)

    def _replace(self, namespace: dict, original, wrapper) -> None:
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
                self._undo.append(lambda ns=namespace, k=key: ns.__setitem__(k, original))
            elif isinstance(value, dict) and not key.startswith("__"):
                for k2, v2 in list(value.items()):
                    if v2 is original:
                        value[k2] = wrapper
                        self._undo.append(lambda d=value, k=k2: d.__setitem__(k, original))

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def summary(self) -> tuple[dict[str, float], dict[str, int], dict[str, list[float]]]:
        """Per span name: total self time (duration minus the time covered
        by child spans), call count and the list of inclusive durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
            durations[name].append(end - start)
        return self_time, calls, durations

    def write(self, path, **meta) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
