"""Allocation guard for the pool round.

A pool round carries its bookkeeping in a fixed number of flat lists:
an idle session costs an ``append`` no container, and a round allocates
only a few objects per credited cycle (the candidate the streak keeps,
its resolution, the step and stride records) beyond the credits it
returns. Every container the round left behind per session or per
cycle fed the garbage collector young collections that promoted the
round's transients into full ones.

Each check counts net tracked containers with ``gc.get_count()[0]``
(allocations minus deallocations of collector-tracked objects) across
one call, with the collector disabled for the call only.
"""

import gc

import pytest

from repro.serving import NO_CREDITS, SessionPool, synthesize_workload

RATE = 100.0
#: Net containers an append may add whatever the fleet size: the
#: result list, the round's own lists and slack for CPython internals.
APPEND_CONSTANT = 24
#: Net containers a round may add per credited cycle beyond the
#: credits it returns (the candidate, its peaks, its resolution).
PER_CYCLE = 3
ROUND_CONSTANT = 64


def _net_containers(call):
    """``call()``'s result and the net tracked containers it created."""
    gc.collect()
    # Keep the young count off zero: a deallocation at count zero is
    # not subtracted, which would hide allocations behind older frees.
    padding = [[] for _ in range(256)]
    gc.disable()
    try:
        before = gc.get_count()[0]
        result = call()
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    del padding
    return result, grown


def _pool(n_sessions):
    walks = synthesize_workload(n_sessions, 12.0, seed=7)
    pool = SessionPool(RATE)
    sids = pool.add_sessions([w.profile for w in walks])
    return pool, sids, [w.samples for w in walks]


def _returned_containers(results):
    """Tracked objects a pool call hands back: the result list, and
    per crediting session its pair, two lists and every record."""
    count = 1
    for credits in results:
        if credits is not NO_CREDITS:
            count += 3 + len(credits[0]) + len(credits[1])
    return count


@pytest.mark.parametrize("n_sessions", [16, 256])
def test_idle_append_is_constant_in_fleet_size(n_sessions):
    pool, sids, traces = _pool(n_sessions)
    # The first hop boundary is 125 samples in: these appends cross none.
    pool.append(sids, [t[:10] for t in traces])
    batches = [t[10:20] for t in traces]
    assert all(pool.session(s).peek_boundary() is None for s in sids)
    results, grown = _net_containers(lambda: pool.append(sids, batches))
    assert all(r is NO_CREDITS for r in results)
    assert grown <= APPEND_CONSTANT, (
        f"an idle append over {n_sessions} sessions grew {grown} containers"
    )


def test_round_allocates_per_credited_cycle_only():
    pool, sids, traces = _pool(64)
    batch = 50
    offsets = iter(range(0, 1200, batch))

    def batches():
        offset = next(offsets)
        return [t[offset : offset + batch] for t in traces]

    # Warm up through a crediting round, so session scratch (the stride
    # fractions, the pool's buffers) already exists.
    while not any(steps for steps, _ in pool.append(sids, batches())):
        pass
    # Every append until the next crediting one runs at most one round.
    credited = 0
    while credited == 0:
        ingest = batches()
        results, grown = _net_containers(lambda: pool.append(sids, ingest))
        cycles = {
            (k, ev.cycle_id)
            for k, (steps, _) in enumerate(results)
            for ev in steps
        }
        budget = (
            _returned_containers(results)
            + PER_CYCLE * len(cycles)
            + ROUND_CONSTANT
        )
        assert grown <= budget, (
            f"an append crediting {len(cycles)} cycles grew {grown} "
            f"containers (budget {budget})"
        )
        credited = len(cycles)
    assert credited >= len(sids) // 2  # the round credited the fleet
