"""Helpers the tracked benchmark suites share.

* :func:`credit_signature` — the bitwise-comparable form of one
  session's credits that every crediting oracle compares.
* :func:`serve_session` — drive one session at the 0.5 s upload
  cadence and keep its step credits.
* :func:`paired_overhead` — the overhead gate's reading: two session
  variants serve the same trace side by side in interleaved pairs, and
  the overhead is the median pair ratio.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro.core.streaming import StreamingPTrack

SAMPLE_RATE_HZ = 100.0
HEADLINE_CADENCE = 50  # samples per append: the 0.5 s upload interval


def credit_signature(steps, strides) -> Tuple[tuple, tuple]:
    """A bitwise-comparable signature of one session's credits."""
    return (
        tuple((s.index, s.time, s.gait_type.name) for s in steps),
        tuple((s.time, s.length_m) for s in strides),
    )


def serve_session(
    data: np.ndarray, **session_kwargs: Any
) -> Tuple[List[Any], StreamingPTrack]:
    """Drive one session at the headline cadence; return its step
    credits and the flushed session."""
    sess = StreamingPTrack(SAMPLE_RATE_HZ, **session_kwargs)
    steps: List[Any] = []
    for i in range(0, data.shape[0], HEADLINE_CADENCE):
        new_steps, _ = sess.append(data[i : i + HEADLINE_CADENCE])
        steps.extend(new_steps)
    new_steps, _ = sess.flush()
    steps.extend(new_steps)
    return steps, sess


def _time_pair(
    data: np.ndarray, arms: Mapping[str, Callable[[], StreamingPTrack]]
) -> Dict[str, float]:
    """Serve ``data`` through one session per arm in lockstep, timing
    each session's appends and flush separately; the arm listed first
    takes each upload first."""
    sessions = {arm: make() for arm, make in arms.items()}
    elapsed = dict.fromkeys(arms, 0.0)
    # Start from a collected heap, so a full collection of earlier
    # pairs' garbage never lands inside this one.
    gc.collect()
    for i in range(0, data.shape[0], HEADLINE_CADENCE):
        batch = data[i : i + HEADLINE_CADENCE]
        for arm, sess in sessions.items():
            t0 = time.perf_counter()
            sess.append(batch)
            elapsed[arm] += time.perf_counter() - t0
    for arm, sess in sessions.items():
        t0 = time.perf_counter()
        sess.flush()
        elapsed[arm] += time.perf_counter() - t0
    return elapsed


def paired_overhead(
    data: np.ndarray,
    base: Tuple[str, Callable[[], StreamingPTrack]],
    other: Tuple[str, Callable[[], StreamingPTrack]],
    repeats: int,
) -> Dict[str, float]:
    """The overhead of session factory ``other`` over ``base``.

    Gates read the median of interleaved pair ratios: both arms of a
    pair serve the trace side by side, one upload at a time, so
    host-speed drift on a shared machine hits both alike, and the
    median rides out a stalled pair. The arm that takes each upload
    first alternates between pairs. Returns the median times as
    ``<name>_s`` per arm and the median, min and max overhead.
    """
    times: Dict[str, List[float]] = {base[0]: [], other[0]: []}
    for pair in range(repeats):
        arms = [base, other] if pair % 2 == 0 else [other, base]
        for arm, elapsed in _time_pair(data, dict(arms)).items():
            times[arm].append(elapsed)
    ratios = [o / b for b, o in zip(times[base[0]], times[other[0]])]
    return {
        **{f"{arm}_s": float(np.median(t)) for arm, t in times.items()},
        "overhead_frac": float(np.median(ratios)) - 1.0,
        "overhead_min": min(ratios) - 1.0,
        "overhead_max": max(ratios) - 1.0,
    }
