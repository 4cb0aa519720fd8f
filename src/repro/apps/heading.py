"""Heading estimation from wrist accelerations.

SIII-B2 of the paper recovers the anterior *axis* from the horizontal
acceleration cloud but leaves its 180-degree sign ambiguity open ("the
shape of accelerations projected to the horizontal plane already
indicates the moving direction"). This module completes the story for
the dead-reckoning application:

* the anterior axis per cycle comes from the same total-least-squares
  fit the step counter uses;
* the sign is resolved by *walking continuity*: people do not reverse
  direction between consecutive gait cycles, so each cycle picks the
  sign closest to the previous heading, and the first cycle picks the
  sign that makes the forward-velocity asymmetry positive (push-off
  skews the anterior acceleration distribution toward the direction of
  travel).

The result is a per-sample heading track usable directly by
:class:`repro.apps.deadreckoning.DeadReckoner` in place of a
compass/gyro fusion source.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PTrackConfig
from repro.exceptions import SignalError
from repro.sensing.imu import IMUTrace
from repro.signal.filters import butter_lowpass
from repro.signal.projection import anterior_direction, project_horizontal
from repro.signal.segmentation import segment_gait_cycles
from repro.types import CycleClassification, GaitType

__all__ = ["HeadingEstimator", "estimate_headings"]


def _wrap(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return float(np.arctan2(np.sin(angle), np.cos(angle)))


def _angular_distance(a: float, b: float) -> float:
    """Absolute circular distance between two angles."""
    return abs(_wrap(a - b))


class HeadingEstimator:
    """Per-cycle heading from horizontal accelerations.

    Args:
        config: PTrack configuration (shared filter/segmentation
            settings so headings align with the counter's cycles).
        initial_heading_rad: Optional prior for the first cycle; when
            absent, the skewness disambiguation decides alone.
    """

    def __init__(
        self,
        config: Optional[PTrackConfig] = None,
        initial_heading_rad: Optional[float] = None,
    ) -> None:
        self._config = config if config is not None else PTrackConfig()
        self._initial = initial_heading_rad

    def estimate(
        self,
        trace: IMUTrace,
        classifications: Optional[Sequence[CycleClassification]] = None,
    ) -> np.ndarray:
        """Per-sample heading track for a trace.

        Args:
            trace: The observed wrist trace.
            classifications: Optional cycle decisions from the step
                counter; when given, only confirmed pedestrian cycles
                contribute headings (interference cycles would point
                anywhere). Without them, every candidate cycle is used.

        Returns:
            Array of shape (n_samples,): the estimated heading in
            radians, piecewise per cycle and held between cycles.
        """
        cfg = self._config
        filtered = butter_lowpass(
            trace.linear_acceleration, cfg.lowpass_cutoff_hz, trace.sample_rate_hz
        )
        horizontal = filtered[:, :2]

        ranges: List[Tuple[int, int]]
        if classifications is not None:
            ranges = [
                (c.start_index, c.end_index)
                for c in classifications
                if c.gait_type is not GaitType.INTERFERENCE
            ]
        else:
            cycles = segment_gait_cycles(
                filtered[:, 2],
                trace.sample_rate_hz,
                cfg.min_step_rate_hz,
                cfg.max_step_rate_hz,
                cfg.min_peak_prominence,
            )
            ranges = [(seg.start, seg.end) for seg in cycles]

        # Per-cycle axes and skews for confident cycles.
        cycles: List[Tuple[int, int, np.ndarray, float]] = []
        for start, end in ranges:
            window = horizontal[start:end]
            if not self._is_confident(window):
                # Turn-transition cycles mix two orientations into a
                # near-isotropic cloud whose fitted axis is arbitrary;
                # emitting it would poison the sign chain.
                continue
            try:
                axis = anterior_direction(window)
            except SignalError:
                continue
            projected = project_horizontal(window, axis)
            centred = projected - projected.mean()
            scale = centred.std()
            skew = float(np.mean((centred / scale) ** 3)) if scale > 1e-9 else 0.0
            cycles.append((start, end, axis, skew))

        # Group cycles into runs of continuous *line* orientation
        # (orientation is mod pi: the sign is exactly what is unknown).
        runs: List[List[Tuple[int, int, np.ndarray, float]]] = []
        for cycle in cycles:
            if runs and self._same_line(runs[-1][-1][2], cycle[2]):
                runs[-1].append(cycle)
            else:
                runs.append([cycle])
        # Orphan transition cycles (a single cycle straddling a turn
        # fits an in-between axis) must not seed sign decisions: merge
        # them into the following run when one exists.
        merged: List[List[Tuple[int, int, np.ndarray, float]]] = []
        for run in runs:
            if merged and len(merged[-1]) == 1 and len(run) > 1:
                merged[-1] = merged[-1] + run
            else:
                merged.append(run)
        runs = merged

        # Decide each run's sign from its aggregated skew: averaging
        # over the run's cycles makes the weak per-cycle cue reliable
        # (single-cycle skews mis-sign ~15% of the time for gentle
        # walkers; run means essentially never do). Continuity with the
        # previous run only breaks genuine ties.
        headings = np.full(trace.n_samples, np.nan)
        previous = self._initial
        for run in runs:
            # The run's reference orientation is the principal axis of
            # the orientation tensor over its cycles — robust to one
            # transition cycle with an in-between axis.
            tensor = sum(np.outer(c[2], c[2]) for c in run)
            eigvals, eigvecs = np.linalg.eigh(tensor)
            reference = eigvecs[:, -1]
            aligned_skews = []
            for _, _, axis, skew in run:
                if not self._same_line(axis, reference):
                    # Merged turn-transition cycles keep their heading
                    # output but contribute no sign evidence: their
                    # axis is off the run's line and their (often
                    # violent) skew would poison the aggregate.
                    continue
                sign = 1.0 if float(axis @ reference) >= 0 else -1.0
                aligned_skews.append(sign * skew)
            mean_skew = float(np.mean(aligned_skews)) if aligned_skews else 0.0
            heading = float(np.arctan2(reference[1], reference[0]))
            flipped = _wrap(heading + np.pi)
            # Fuse the two sign cues additively rather than gating:
            # * skew — the anterior acceleration's long tail points
            #   *backward* (the forward-biased swing brakes sharply at
            #   the front), so negative aligned skew favours the
            #   reference direction; weight 5 makes a clear skew
            #   (|mean| ~ 0.15) dominate, while a faint one (~0.01)
            #   still arbitrates when continuity is blind;
            # * continuity — cos(candidate - previous heading), which
            #   is decisive on straight runs and exactly zero at the
            #   90-degree turns where it carries no information.
            skew_weight = 5.0
            score_keep = -mean_skew * skew_weight
            score_flip = mean_skew * skew_weight
            if previous is not None:
                score_keep += float(np.cos(heading - previous))
                score_flip += float(np.cos(flipped - previous))
            chosen = heading if score_keep >= score_flip else flipped
            for start, end, axis, _ in run:
                # Each cycle keeps its own axis orientation (runs drift
                # slightly), projected onto the hemisphere the run's
                # sign decision selected.
                axis_heading = float(np.arctan2(axis[1], axis[0]))
                if _angular_distance(axis_heading, chosen) > np.pi / 2:
                    axis_heading = _wrap(axis_heading + np.pi)
                headings[start:end] = axis_heading
            previous = chosen

        return self._fill(headings, previous)

    @staticmethod
    def _same_line(a: np.ndarray, b: np.ndarray, tol_rad: float = np.pi / 6) -> bool:
        """Whether two axes describe the same line within ``tol_rad``."""
        cos_angle = abs(float(a @ b)) / (
            float(np.linalg.norm(a)) * float(np.linalg.norm(b))
        )
        return cos_angle >= np.cos(tol_rad)

    @staticmethod
    def _is_confident(window: np.ndarray, min_anisotropy: float = 20.0) -> bool:
        """Whether the horizontal cloud has one dominant direction."""
        if window.shape[0] < 3:
            return False
        centred = window - window.mean(axis=0)
        eigvals = np.linalg.eigvalsh(centred.T @ centred)
        if eigvals[-1] <= 0:
            return False
        return eigvals[-1] >= min_anisotropy * max(eigvals[0], 1e-12)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _fill(headings: np.ndarray, last: Optional[float]) -> np.ndarray:
        """Hold headings across gaps (fill NaNs forward, then back)."""
        n = headings.size
        out = headings.copy()
        current = np.nan
        for i in range(n):
            if np.isnan(out[i]):
                out[i] = current
            else:
                current = out[i]
        # Leading gap: backfill from the first estimate (or prior).
        if np.isnan(out[0]):
            first = next((v for v in out if not np.isnan(v)), None)
            if first is None:
                first = last if last is not None else 0.0
            out[np.isnan(out)] = first
        return out


def estimate_headings(
    trace: IMUTrace,
    classifications: Optional[Sequence[CycleClassification]] = None,
    config: Optional[PTrackConfig] = None,
    initial_heading_rad: Optional[float] = None,
) -> np.ndarray:
    """Convenience wrapper around :class:`HeadingEstimator`."""
    return HeadingEstimator(config, initial_heading_rad).estimate(
        trace, classifications
    )
