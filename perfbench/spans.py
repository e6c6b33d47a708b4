"""Span recording from the benchmark's side of each layer boundary.

The traced run wraps public functions of the program (module attributes
and class methods) with :meth:`Tracer.wrap`; nothing inside ``src/`` is
edited and ``repro.obs`` stays disabled.  Each wrapped call pushes a frame
on one stack (the program is single-threaded), so a span knows its parent
and its *self* time: its duration minus the time its wrapped children
took.  Calls of hot leaf functions (detector history lookups) are only
aggregated; every other call is kept as a span record
``(id, name, start, end, self, parent id, rid)`` in memory and written out when
the run ends.  :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, float, int, Any]] = []
        #: name -> [calls, total_s, self_s] for every wrapped call.
        self.totals: Dict[str, List[float]] = {}
        self._stack: List[List[Any]] = []  # [start, child_s, id, parent]
        self._ids = iter(range(1, 1 << 62))
        self._patched: List[Tuple[Any, str, Any]] = []
        self._origin = _clock()
        #: Seconds spent in outermost wrapped calls.
        self.top_s = 0.0

    # ------------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        keep: bool = True,
        rid: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a timed wrapper.

        ``keep=False`` aggregates calls without keeping span records.
        ``rid(*args)`` names the request a span belongs to; ``after(result,
        *args)`` sees each result (for work counters).  A coroutine
        function is timed from call to completion of the awaited body,
        which is only sound for bodies that never suspend (``read``).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stack = self._stack
        spans = self.spans
        ids = self._ids
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        def enter() -> List[Any]:
            frame = [_clock(), 0.0, next(ids), stack[-1][2] if stack else 0]
            stack.append(frame)
            return frame

        def leave(frame: List[Any], args) -> None:
            end = _clock()
            stack.pop()
            duration = end - frame[0]
            own = duration - frame[1]
            if stack:
                stack[-1][1] += duration
            else:
                tracer.top_s += duration
            totals[0] += 1
            totals[1] += duration
            totals[2] += own
            if keep:
                spans.append(
                    (
                        frame[2],
                        name,
                        frame[0],
                        end,
                        own,
                        frame[3],
                        rid(*args) if rid is not None else None,
                    )
                )

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    leave(frame, args)
                if after is not None:
                    after(result, *args)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    leave(frame, args)
                if after is not None:
                    after(result, *args)
                return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def record(self, name: str, start: float, end: float, rid: Any) -> None:
        """Keep a span that no wrapped call brackets (a queue wait)."""
        self.spans.append((next(self._ids), name, start, end, end - start, 0, rid))

    def hook(self, owner: Any, attr: str, before: Callable[..., None]) -> None:
        """Call ``before(*args)`` ahead of ``owner.attr``, untimed."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def hooked(*args, **kwargs):
            before(*args)
            return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, hooked)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_ms(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1] * 1e3

    def self_ms(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2] * 1e3

    def durations(self, name: str) -> List[float]:
        """Kept spans of ``name`` in call order, as (start, seconds)."""
        return [(s[2], s[3] - s[2]) for s in self.spans if s[1] == name]

    def layer_self_ms(self) -> Dict[str, float]:
        """Self time per span name, from the aggregated frames."""
        return {name: t[2] * 1e3 for name, t in sorted(self.totals.items())}

    def dump(self, path: str) -> None:
        """Write kept spans (times relative to tracer start) as JSON lines."""
        with open(path, "w") as fh:
            for span_id, name, start, end, own, parent, rid in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start - self._origin,
                            "end": end - self._origin,
                            "self": own,
                            "parent": parent,
                            "rid": rid,
                        }
                    )
                    + "\n"
                )
