"""Grow-on-demand keyed scratch buffers for batched hot paths.

The fleet-batched round repeatedly needs large transient arrays (the
packed segmentation signal, column-stacked filter blocks) whose sizes
vary round to round. Allocating them
fresh each round churns the allocator at exactly the call rate batching
is meant to amortise; :class:`FleetBatchBuffer` hands out views over
per-key backing arrays that only ever grow.

It lives in the runtime layer so the kernel layers
(:mod:`repro.core.batched`, :mod:`repro.signal.batched`) can accept
scratch without importing the serving layer; :mod:`repro.serving`
re-exports it.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

__all__ = ["FleetBatchBuffer"]


class FleetBatchBuffer:
    """Grow-on-demand keyed scratch arrays for fleet-batched rounds.

    Views are only valid until the same key is requested again —
    callers copy anything they need to keep, which the serving round
    does anyway (filtered output is committed into session buffers,
    packed signals are consumed within the kernel call).
    """

    def __init__(self) -> None:
        self._store: Dict[str, np.ndarray] = {}

    def request(
        self,
        key: str,
        shape: Union[int, Tuple[int, ...]],
        dtype: type = np.float64,
    ) -> np.ndarray:
        """A view of ``shape`` over the (possibly grown) buffer ``key``.

        Contents are uninitialised — callers overwrite before reading.
        """
        if isinstance(shape, int):
            shape = (shape,)
        total = 1
        for dim in shape:
            total *= int(dim)
        buf = self._store.get(key)
        if buf is None or buf.size < total or buf.dtype != np.dtype(dtype):
            buf = np.empty(total, dtype=dtype)
            self._store[key] = buf
        return buf[:total].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently retained across all keys."""
        return sum(buf.nbytes for buf in self._store.values())

    def clear(self) -> None:
        """Release every retained buffer."""
        self._store.clear()
