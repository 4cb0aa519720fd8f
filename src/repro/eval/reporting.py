"""Plain-text tabular reporting for experiment drivers.

Every benchmark prints a paper-vs-measured table through these helpers
so the regenerated rows are directly comparable to the figures, and
:func:`fleet_health_table` renders a telemetry snapshot (see
:mod:`repro.telemetry`) as the same kind of aligned table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Union

__all__ = ["Table", "format_table", "fleet_health_table"]

Cell = Union[str, int, float]


def _render(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 1000 else f"{cell:.1f}"
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    title: str = "",
) -> str:
    """Format rows into an aligned monospace table.

    Args:
        headers: Column headers.
        rows: Row cells; each row must match the header width.
        title: Optional title line printed above the table.

    Returns:
        The formatted table as one string.
    """
    rendered = [[_render(c) for c in row] for row in rows]
    for i, row in enumerate(rendered):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {len(headers)}"
            )
    widths = [
        max(len(str(headers[j])), *(len(r[j]) for r in rendered)) if rendered else len(str(headers[j]))
        for j in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[j]) for j, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(row[j].ljust(widths[j]) for j in range(len(headers))))
    return "\n".join(lines)


@dataclass
class Table:
    """Accumulating table builder used by experiment drivers.

    Attributes:
        title: Table title.
        headers: Column headers.
    """

    title: str
    headers: Sequence[str]
    _rows: List[List[Cell]] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> "Table":
        """Append one row (chainable)."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self._rows.append(list(cells))
        return self

    @property
    def rows(self) -> List[List[Cell]]:
        """The accumulated rows."""
        return [list(r) for r in self._rows]

    def render(self) -> str:
        """Format the accumulated table."""
        return format_table(self.headers, self._rows, self.title)

    def show(self) -> None:
        """Print the table (benchmarks call this)."""
        print()
        print(self.render())


def _snapshot_quantile(hist: Dict[str, Any], q: float) -> float:
    """Approximate quantile from a snapshot histogram's bucket counts.

    Linear interpolation inside the bucket holding the q-th
    observation; the open +Inf bucket reports its lower edge (the last
    finite boundary), which understates but never invents latency.
    """
    buckets = list(hist.get("buckets") or ())
    counts = list(hist.get("counts") or ())
    total = int(hist.get("count", 0))
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0.0
    for i, c in enumerate(counts):
        if seen + c >= rank and c > 0:
            lo = buckets[i - 1] if i > 0 else 0.0
            if i >= len(buckets):  # the open +Inf bucket
                return float(buckets[-1]) if buckets else lo
            frac = (rank - seen) / c
            return float(lo + (buckets[i] - lo) * frac)
        seen += c
    return float(buckets[-1]) if buckets else 0.0


def fleet_health_table(
    snapshot: Dict[str, Any], title: str = "fleet health"
) -> Table:
    """Render a telemetry snapshot as an aligned health table.

    One row per metric, sorted by name within kind (counters, then
    gauges, then histograms). Histogram rows report the observation
    count as the value and approximate p50/p95 plus the mean in the
    detail column.

    Both pools publish the shared ``serving_pool_*`` series; the
    batched pool (which every ``serve_fleet`` shard runs) adds the
    ``serving_batch_round_occupancy`` histogram of due sessions per
    fleet round. Snapshots from different drivers therefore carry
    different series mixes, so a merged or hand-assembled snapshot
    may list a histogram name whose series data is absent (``None``)
    or partial (no bucket layout). Such rows render as ``absent`` /
    count-only instead of raising.

    Args:
        snapshot: A :meth:`repro.telemetry.MetricsRegistry.snapshot`
            dict (or a merge of several).
        title: Table title.

    Returns:
        A :class:`Table` ready to ``render()`` or ``show()``.
    """
    table = Table(title=title, headers=["metric", "kind", "value", "detail"])
    for name in sorted(snapshot.get("counters", {})):
        table.add_row(name, "counter", snapshot["counters"][name], "")
    for name in sorted(snapshot.get("gauges", {})):
        table.add_row(name, "gauge", snapshot["gauges"][name], "")
    for name in sorted(snapshot.get("histograms") or {}):
        hist = snapshot["histograms"][name]
        if hist is None:
            table.add_row(name, "histogram", 0, "absent")
            continue
        count = int(hist.get("count", 0))
        if not count:
            detail = "no observations"
        elif not hist.get("buckets"):
            # Series shipped without a bucket layout: the count and
            # mean are still well defined, the quantiles are not.
            detail = f"mean={hist.get('sum', 0.0) / count:.6f}"
        else:
            detail = (
                f"p50={_snapshot_quantile(hist, 0.5):.6f} "
                f"p95={_snapshot_quantile(hist, 0.95):.6f} "
                f"mean={hist.get('sum', 0.0) / count:.6f}"
            )
        table.add_row(name, "histogram", count, detail)
    return table
