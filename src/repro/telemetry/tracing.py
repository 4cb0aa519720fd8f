"""Span-based tracing: monotonic timing with parent/child nesting.

Metrics say *how much*; traces say *where the time went*. A
:class:`trace_span` wraps any region in a monotonic-clock span, spans
nest (a span opened inside another records its parent and depth), and
finished spans land in a bounded in-memory ring buffer — the newest
``capacity`` spans are kept, older ones fall off, so a long-lived
serving process cannot leak memory through its own instrumentation.

The same gate as the metrics registry applies: with telemetry disabled
and no explicit buffer, ``with trace_span("x"):`` costs two attribute
checks and records nothing. ``trace_span`` is a plain class (not a
``@contextmanager`` generator) precisely to keep that disabled path
free of generator-frame overhead.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.exceptions import ConfigurationError
from repro.telemetry.registry import get_registry

__all__ = [
    "SpanRecord",
    "SpanBuffer",
    "trace_span",
    "get_span_buffer",
    "set_span_capacity",
]

#: Default ring-buffer capacity (finished spans retained).
DEFAULT_SPAN_CAPACITY = 4096


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    Attributes:
        name: Span name.
        start_s: Monotonic-clock start time (comparable only within
            the process that recorded it).
        duration_s: Wall-clock duration.
        parent: Name of the enclosing span, or ``None`` at the root.
        depth: Nesting depth (0 at the root).
        error: ``"ExcType"`` when the region exited by exception.
    """

    name: str
    start_s: float
    duration_s: float
    parent: Optional[str] = None
    depth: int = 0
    error: Optional[str] = None


class SpanBuffer:
    """A bounded ring of finished spans plus the live nesting stack.

    The ring keeps the newest ``capacity`` finished spans; the nesting
    stack is thread-local, so spans opened on different threads nest
    independently while landing in the same ring.

    Args:
        capacity: Finished spans retained (older spans fall off).
    """

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"span capacity must be >= 1, got {capacity}"
            )
        self._ring: Deque[SpanRecord] = deque(maxlen=capacity)
        self._local = threading.local()

    @property
    def capacity(self) -> int:
        """Maximum finished spans retained."""
        return self._ring.maxlen or 0

    def __len__(self) -> int:
        return len(self._ring)

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def spans(self) -> List[SpanRecord]:
        """The retained finished spans, oldest first (a copy)."""
        return list(self._ring)

    def clear(self) -> None:
        """Drop every retained span (live spans are unaffected)."""
        self._ring.clear()

    def record(self, record: SpanRecord) -> None:
        """Append one finished span (oldest falls off when full)."""
        self._ring.append(record)


class trace_span:
    """Context manager timing one region as a span.

    Example::

        with trace_span("serve_fleet"):
            with trace_span("epoch"):
                ...

    Args:
        name: Span name.
        buffer: Where finished spans land; ``None`` uses the process
            buffer when the telemetry gate is open, and records
            nothing when it is closed.
    """

    __slots__ = ("name", "_explicit", "_active", "_t0", "_parent", "_depth")

    def __init__(
        self, name: str, buffer: Optional[SpanBuffer] = None
    ) -> None:
        self.name = name
        self._explicit = buffer
        self._active: Optional[SpanBuffer] = None

    def __enter__(self) -> "trace_span":
        buffer = self._explicit
        if buffer is None:
            if get_registry() is None:
                return self  # gate closed: record nothing
            buffer = get_span_buffer()
        self._active = buffer
        stack = buffer._stack()
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        stack.append(self.name)
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        buffer = self._active
        if buffer is None:
            return
        self._active = None  # re-resolve on reuse (the gate may move)
        duration = time.monotonic() - self._t0
        stack = buffer._stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        buffer.record(
            SpanRecord(
                name=self.name,
                start_s=self._t0,
                duration_s=duration,
                parent=self._parent,
                depth=self._depth,
                error=exc_type.__name__ if exc_type is not None else None,
            )
        )


_process_buffer = SpanBuffer()
_buffer_lock = threading.Lock()


def get_span_buffer() -> SpanBuffer:
    """The process-wide span ring buffer."""
    return _process_buffer


def set_span_capacity(capacity: int) -> SpanBuffer:
    """Replace the process buffer with a fresh one of ``capacity``.

    Returns the new (empty) buffer; previously retained spans are
    dropped with the old one.
    """
    global _process_buffer
    with _buffer_lock:
        _process_buffer = SpanBuffer(capacity)
        return _process_buffer
