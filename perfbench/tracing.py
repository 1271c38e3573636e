"""Span tracing from outside the program.

The benchmark never edits flowtarget. To see inside a run it replaces, for
the duration of a traced pass only, the names that the layer modules look up
at call time (``flowtarget.policies.chain_prefix_argmin``,
``flowtarget.oracle.linprog``, ...) with wrappers that record one span per
call. Spans are kept in memory as ``[name, start, end, parent, attrs]`` and
written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Any, Callable, Optional

Hook = Optional[Callable[[tuple, dict, Any], Optional[dict]]]


class Tracer:
    """Records nested spans of wrapped calls (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, hook: Hook = None) -> Callable:
        """``fn`` recording a span named ``name`` per call; ``hook(args,
        kwargs, result)`` may return attributes to store with the span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                rec[4] = hook(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets: list[tuple[Any, str, str, Hook]]):
        """Patch each ``(owner, key, span name, hook)`` while the block runs.

        ``owner`` is a module (attribute ``key``) or a dict (item ``key``);
        the originals are restored on exit, also when the block raises.
        """
        saved = []
        try:
            for owner, key, name, hook in targets:
                if isinstance(owner, dict):
                    original = owner[key]
                    owner[key] = self.wrap(name, original, hook)
                else:
                    original = getattr(owner, key)
                    setattr(owner, key, self.wrap(name, original, hook))
                saved.append((owner, key, original))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def records(self):
        """``(name, duration, self time, attrs)`` per span; self time is the
        duration minus the time covered by the span's children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, _, attrs) in enumerate(self.spans):
            yield name, end - start, end - start - child_time[idx], attrs

    def dump(self, path: str) -> None:
        """Write one JSON array ``[name, start, end, parent, attrs]`` per line."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
