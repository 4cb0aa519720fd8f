"""Durable fleet checkpoints: atomic persistence for shard state.

A rolling-restartable fleet needs somewhere to put the state that must
outlive a worker process. :class:`CheckpointStore` is that somewhere: a
directory of atomically written, pickled :data:`CHECKPOINT_SCHEMA`
blobs of ``kind="checkpoint"`` — each one a shard's pool snapshot
(``ptrack-session-v1``), how many steps and strides each session had
settled, and the stream offset to resume from. The credits themselves
stay with the fleet driver, which owns them; a checkpoint's size
depends on its sessions and their buffers, not on how long they have
streamed.

The store is deliberately paranoid on the read side. A checkpoint is
only useful if restoring it is *safer* than re-ingesting, so a torn or
corrupted file (partial write, truncation, bit rot — exercised by the
:class:`repro.faults.TornCheckpoint` injector) is never an exception:
the file is quarantined with a ``.corrupt`` suffix, the ``torn_loads``
counter (and ``serving_checkpoint_torn_total`` telemetry) records it,
and ``load`` returns ``None`` so the fleet driver falls back to
re-ingesting from the original trace — the same quarantine-as-miss
contract the :class:`repro.runtime.TraceCache` disk layer keeps. Only a
*well-formed* blob of the wrong schema version raises
:class:`~repro.exceptions.ConfigurationError`: that is a deployment
mistake (resuming across incompatible builds) the operator must see,
not silently re-serve.

:func:`make_checkpoint` / :func:`split_checkpoint` build and split the
payloads; splitting is what lets the rebalancer halve a live shard
without losing a credit — each half carries its sessions' pool state
and their credit counts, and the driver splits its credit lists at the
same cut.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.streaming import ensure_snapshot_kind
from repro.exceptions import ConfigurationError
from repro.telemetry.registry import MetricsRegistry, get_registry

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "make_checkpoint",
    "split_checkpoint",
    "split_pool_snapshot",
]

#: Version tag of the checkpoint envelope. v1 checkpoints (tagged with
#: the session schema) carried every credit settled so far; v2 carries
#: per-session credit counts. A checkpoint never outlives the
#: ``serve_fleet`` call that wrote it, so an older one is refused, not
#: migrated.
CHECKPOINT_SCHEMA = "ptrack-checkpoint-v2"


def make_checkpoint(
    pool_snapshot: Dict[str, Any],
    next_offset: int,
    step_counts: Sequence[int],
    stride_counts: Sequence[int],
    epoch: int,
) -> Dict[str, Any]:
    """Assemble one shard's resumable state into a checkpoint blob.

    Args:
        pool_snapshot: The shard pool's ``kind="pool"`` snapshot.
        next_offset: Absolute sample offset the next epoch starts at.
        step_counts: Steps each session had settled (shard order); the
            caller keeps the step events and, on restore, drops any
            past these counts.
        stride_counts: Strides each session had settled.
        epoch: Number of epochs already completed.
    """
    return {
        "schema": CHECKPOINT_SCHEMA,
        "kind": "checkpoint",
        "next_offset": int(next_offset),
        "epoch": int(epoch),
        "pool": pool_snapshot,
        "step_counts": [int(n) for n in step_counts],
        "stride_counts": [int(n) for n in stride_counts],
    }


def split_pool_snapshot(
    pool_snapshot: Dict[str, Any], mid: int
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split a pool snapshot into two, at position ``mid`` in id order.

    Sessions keep their original ids (``SessionPool.restore`` accepts
    any id set and the id allocator travels with both halves), so a
    shard map that addresses sessions by id stays valid across the
    split. The failure ledger is partitioned by membership.
    """
    ensure_snapshot_kind(pool_snapshot, "pool")
    ordered = sorted(pool_snapshot["sessions"].items())
    if not 0 < mid < len(ordered):
        raise ConfigurationError(
            f"cannot split a {len(ordered)}-session pool snapshot at "
            f"position {mid}; both halves must be non-empty"
        )
    halves = []
    for part in (ordered[:mid], ordered[mid:]):
        ids = {sid for sid, _ in part}
        half = dict(pool_snapshot)
        half["sessions"] = dict(part)
        half["errors"] = {
            sid: err
            for sid, err in pool_snapshot["errors"].items()
            if sid in ids
        }
        halves.append(half)
    return halves[0], halves[1]


def split_checkpoint(
    payload: Dict[str, Any], mid: int
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split a shard checkpoint into two resumable halves at ``mid``.

    The pool snapshot and the credit counts partition at ``mid``, and
    both halves keep the epoch counter and the resume offset. With the
    caller's credit lists split at the same cut, serving the two halves
    forward yields exactly the credits the unsplit shard would have
    produced — the migration-without-credit-loss invariant the
    durable-fleet tests assert.
    """
    ensure_snapshot_kind(payload, "checkpoint", CHECKPOINT_SCHEMA)
    left_pool, right_pool = split_pool_snapshot(payload["pool"], mid)
    left = dict(payload)
    right = dict(payload)
    left["pool"], right["pool"] = left_pool, right_pool
    for key in ("step_counts", "stride_counts"):
        left[key], right[key] = payload[key][:mid], payload[key][mid:]
    return left, right


class CheckpointStore:
    """Atomic on-disk persistence for fleet checkpoints.

    Writes are crash-consistent (serialize to a temp file in the same
    directory, then ``os.replace``), so a checkpoint file is always
    either the previous complete version or the new complete version —
    never a half-written hybrid. Reads treat *any* undecodable file as
    a torn checkpoint: quarantine it under ``<name>.ckpt.corrupt``,
    count it, and report ``None`` so the caller re-ingests instead of
    crashing or — worse — resuming from garbage.

    Args:
        directory: Where checkpoints live; created if missing.
        blob_faults: Optional fault injectors whose ``apply_blob``
            surface corrupts the serialized bytes at write time (the
            :class:`repro.faults.TornCheckpoint` test hook; identity
            for real deployments).
        seed: Base seed for the blob-fault RNG derivation.
        telemetry: Metrics registry for the store's counters
            (``serving_checkpoint_{saves,loads,torn}_total``). ``None``
            falls back to the process gate; with the gate closed the
            store runs uninstrumented.
    """

    def __init__(
        self,
        directory: os.PathLike,
        blob_faults: Optional[Sequence] = None,
        seed: int = 0,
        telemetry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._blob_faults = list(blob_faults) if blob_faults else []
        self._seed = seed
        self._saves = 0
        self._loads = 0
        self._torn = 0
        self._telemetry = (
            telemetry if telemetry is not None else get_registry()
        )
        if self._telemetry is not None:
            reg = self._telemetry
            self._m_saves = reg.counter("serving_checkpoint_saves_total")
            self._m_loads = reg.counter("serving_checkpoint_loads_total")
            self._m_torn = reg.counter("serving_checkpoint_torn_total")

    @property
    def directory(self) -> Path:
        """The store's directory."""
        return self._dir

    @property
    def stats(self) -> Dict[str, int]:
        """Lifetime counters: saves, loads, torn (quarantined) loads."""
        return {
            "saves": self._saves,
            "loads": self._loads,
            "torn_loads": self._torn,
        }

    def _path(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise ConfigurationError(
                f"invalid checkpoint name {name!r}; names are flat "
                "identifiers (no path separators)"
            )
        return self._dir / f"{name}.ckpt"

    def save(self, name: str, payload: Dict[str, Any]) -> Path:
        """Persist one checkpoint atomically; return its path."""
        ensure_snapshot_kind(payload, "checkpoint", CHECKPOINT_SCHEMA)
        path = self._path(name)
        # Pickle straight into the temp file: a fleet shard's payload
        # runs to megabytes, and building it as ``bytes`` first doubles
        # the write's peak memory. Blob faults need the bytes in hand.
        blob: Optional[bytes] = None
        if self._blob_faults:
            from repro.faults.injectors import derive_blob_rng

            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            for injector in self._blob_faults:
                blob = injector.apply_blob(
                    blob, derive_blob_rng(self._seed, name, self._saves)
                )
        fd, tmp = tempfile.mkstemp(
            dir=self._dir, prefix=f".{name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                if blob is None:
                    pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                else:
                    fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._saves += 1
        if self._telemetry is not None:
            self._m_saves.inc()
        return path

    def load(self, name: str) -> Optional[Dict[str, Any]]:
        """Read one checkpoint; ``None`` when absent or torn.

        A file that cannot be read back into a checkpoint blob — torn
        write, truncation, corruption — is quarantined (renamed with a
        ``.corrupt`` suffix) and reported as missing, steering the
        fleet driver onto the re-ingest fallback. A *decodable* blob of
        the wrong schema version instead raises
        :class:`ConfigurationError`: silently re-serving work because
        of a version skew would mask a deployment mistake.
        """
        path = self._path(name)
        if not path.exists():
            return None
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if not isinstance(payload, dict) or "schema" not in payload:
                raise pickle.UnpicklingError("not a checkpoint blob")
        except ConfigurationError:
            raise
        except Exception:
            self._quarantine(path)
            return None
        ensure_snapshot_kind(payload, "checkpoint", CHECKPOINT_SCHEMA)
        self._loads += 1
        if self._telemetry is not None:
            self._m_loads.inc()
        return payload

    def delete(self, name: str) -> None:
        """Remove one checkpoint (end of a shard's life); missing is ok."""
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            pass

    def names(self) -> List[str]:
        """Names of the checkpoints currently on disk (sorted)."""
        return sorted(p.name[: -len(".ckpt")] for p in self._dir.glob("*.ckpt"))

    def _quarantine(self, path: Path) -> None:
        """Move a torn checkpoint aside and count it."""
        self._torn += 1
        if self._telemetry is not None:
            self._m_torn.inc()
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            # Quarantine is best effort: a vanished or unmovable file
            # still reads as a miss, which is the safe outcome.
            pass
