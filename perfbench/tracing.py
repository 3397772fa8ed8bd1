"""Spans around the benchmark's own calls into ruinpaths, kept in memory.

A span is (name, start, end, parent, request): `name` is
"<layer>.<what>", where the layer is one of the package's modules or
"harness" for the benchmark's own request loop; `parent` is the index of the
enclosing span or None.  Spans are written out only when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

REQUEST_SPAN = "harness.request"


def direct_call(name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """The untraced call: the span name is ignored."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.request: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.request))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.request)

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, request in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )

    def summary(self) -> dict[str, Any]:
        """Total time and call count per span name, and self time per layer
        inside request spans (a span's duration minus its children's)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        by_name: dict[str, list[float]] = {}
        layer_self: dict[str, float] = {}
        request_time = 0.0
        # Parents are appended before their children, so one pass suffices.
        in_request = [False] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            totals = by_name.setdefault(name, [0.0, 0])
            totals[0] += duration
            totals[1] += 1
            in_request[i] = name == REQUEST_SPAN or (
                parent is not None and in_request[parent]
            )
            if name == REQUEST_SPAN:
                request_time += duration
            if in_request[i]:
                layer = name.split(".", 1)[0]
                layer_self[layer] = layer_self.get(layer, 0.0) + duration - child_time[i]
        return {"spans": by_name, "layer_self": layer_self, "request_time": request_time}
