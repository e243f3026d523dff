"""In-memory span recorder for the ledger's traced runs.

The benchmark times each serving layer from the outside: it replaces a
layer's entry point (a class attribute or module function, looked up
where the caller looks it up) with a wrapper that opens a span on call
and closes it on return.  Spans nest through a stack, so a layer's
*self time* is its span's duration minus the time its direct children
cover.  Self times and call counts are accumulated as spans close; raw
spans ``(id, name, start_ns, end_ns, parent, burst)`` are kept up to a
cap and written out as JSON when the run ends.

Nothing here touches the program under test beyond swapping the
attributes named in :meth:`Tracer.wrap`, and :meth:`Tracer.uninstall`
puts every original back.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Iterable, Optional

__all__ = ["Tracer"]

_now = time.perf_counter_ns
#: raw spans kept for the span log; the per-layer ledger covers them all
MAX_SPANS = 50_000


class _Layer:
    """Accumulated numbers for one span name."""

    __slots__ = ("self_ns", "total_ns", "calls", "items", "durations_ns")

    def __init__(self, keep_durations: bool) -> None:
        self.self_ns = 0
        self.total_ns = 0
        self.calls = 0
        #: summed length of the counted argument (queries per call)
        self.items = 0
        #: every span duration, for the layers whose quantiles are reported
        self.durations_ns: Optional[list[int]] = [] if keep_durations else None


class Tracer:
    """Span stack, per-name self-time ledger and capped raw span log."""

    def __init__(self, keep_durations: Iterable[str] = ()) -> None:
        self.keep_durations = frozenset(keep_durations)
        self.layers: dict[str, _Layer] = {}
        #: raw spans (id, name, start_ns, end_ns, parent id or -1, burst id)
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.dropped_spans = 0
        #: burst id stamped on spans; the traffic source sets it
        self.burst = -1
        self._opened = 0
        # open spans: [name, start_ns, child_ns, id, parent id]
        self._stack: list[list[Any]] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        stack.append([name, _now(), 0, self._opened, parent])
        self._opened += 1

    def end(self, items: int = 0) -> None:
        end = _now()
        name, start, child_ns, span_id, parent = self._stack.pop()
        duration = end - start
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = _Layer(name in self.keep_durations)
        layer.self_ns += duration - child_ns
        layer.total_ns += duration
        layer.calls += 1
        layer.items += items
        if layer.durations_ns is not None:
            layer.durations_ns.append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent, self.burst))
        else:
            self.dropped_spans += 1

    def inside(self, name: str) -> bool:
        """True while the innermost open span is called ``name``."""
        return bool(self._stack) and self._stack[-1][0] == name

    # -- wrapping entry points --------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, count_arg: Optional[int] = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``count_arg`` is the position of the argument whose ``len()`` is
        added to the layer's item count (queries per call).  A call made
        while a span of the same name is innermost is not recorded
        again, so entry points that call each other (``freeze`` and
        ``FrozenMatcher.from_matcher``) count once.  Wraps nothing when
        ``owner`` defines no such attribute: the run still completes and
        that layer's numbers read zero.
        """
        raw = vars(owner).get(attr)
        if raw is None:
            return
        is_classmethod = isinstance(raw, classmethod)
        function: Callable[..., Any] = raw.__func__ if is_classmethod else raw
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.inside(name):
                return function(*args, **kwargs)
            tracer.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end(len(args[count_arg]) if count_arg is not None else 0)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put back every attribute :meth:`wrap` replaced."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- output --------------------------------------------------------------

    def layer(self, name: str) -> _Layer:
        """The numbers for ``name`` (all zero when it never ran)."""
        return self.layers.get(name) or _Layer(True)

    def self_ns_total(self) -> int:
        return sum(layer.self_ns for layer in self.layers.values())

    def write(self, path: str, extra: dict[str, Any]) -> None:
        """Write the raw spans and the per-layer ledger as one JSON file."""
        doc: dict[str, Any] = dict(extra)
        doc["fields"] = ["id", "name", "start_ns", "end_ns", "parent", "burst"]
        doc["spans"] = self.spans
        doc["dropped_spans"] = self.dropped_spans
        doc["layers"] = {
            name: {
                "self_ns": layer.self_ns,
                "total_ns": layer.total_ns,
                "calls": layer.calls,
                "items": layer.items,
            }
            for name, layer in sorted(self.layers.items())
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
