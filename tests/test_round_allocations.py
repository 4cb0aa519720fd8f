"""Allocation guard for the round.

A round carries its bookkeeping in a fixed number of flat lists: an
idle session costs an ``append`` no container, and a round allocates
only a few objects per credited cycle (the candidate the streak keeps,
its resolution, the step and stride records) beyond the credits it
returns. Every container the round left behind per session or per
cycle fed the garbage collector young collections that promoted the
round's transients into full ones. Pools and a solo
:class:`~repro.core.streaming.StreamingPTrack` (a round of one) are
held to the same bounds.

Each check counts the collector-tracked containers one call creates
that are still alive when it returns, with the collector disabled for
the call only. Transient objects do not count, whether CPython frees
them or keeps them on its free lists for reuse.
"""

import gc

import pytest

from repro.core.streaming import StreamingPTrack
from repro.serving import NO_CREDITS, SessionPool, synthesize_workload

RATE = 100.0
#: Containers an idle append may leave alive whatever the fleet size:
#: the result list (a solo append's pair of lists) and slack for
#: CPython internals.
APPEND_CONSTANT = 8
#: Containers a crediting round may leave alive per credited cycle
#: beyond the credits it returns (a cycle the streak still holds), and
#: per round.
PER_CYCLE = 1
ROUND_CONSTANT = 12


def _net_containers(call):
    """``call()``'s result and the tracked containers it created that
    are still alive."""
    # A young collection empties generation 0 (its survivors move on)
    # and, unlike a full one, leaves CPython's free lists warm.
    gc.collect(1)
    gc.disable()
    try:
        result = call()
        grown = len(gc.get_objects(0))
    finally:
        gc.enable()
    return result, grown


def _pool(n_sessions):
    walks = synthesize_workload(n_sessions, 12.0, seed=7)
    pool = SessionPool(RATE)
    sids = pool.add_sessions([w.profile for w in walks])
    return pool, sids, [w.samples for w in walks]


def _solo():
    """One solo session and its walk, as a one-session driver: the
    ``append`` feeds ``batches[0]`` and returns the credits in a list,
    like a pool's."""
    walk = synthesize_workload(1, 12.0, seed=7)[0]
    session = StreamingPTrack(RATE, profile=walk.profile)
    return session, (lambda batches: [session.append(batches[0])]), [walk.samples]


def _returned_containers(results):
    """Tracked objects a driver call hands back: the result list, and
    per crediting session its pair, two lists and every record."""
    count = 1
    for credits in results:
        if credits is not NO_CREDITS:
            count += 3 + len(credits[0]) + len(credits[1])
    return count


@pytest.mark.parametrize("n_sessions", [16, 256, pytest.param(None, id="solo")])
def test_idle_append_is_constant_in_fleet_size(n_sessions):
    if n_sessions is None:
        session, _append, (trace,) = _solo()
        session.append(trace[:10])
        batch = trace[10:20]
        assert session.peek_boundary() is None
        result, grown = _net_containers(lambda: session.append(batch))
        # A solo append returns two fresh lists, even empty ones.
        assert result == ([], [])
        assert grown <= APPEND_CONSTANT, (
            f"an idle solo append grew {grown} containers"
        )
        return
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
    credited = _check_crediting_append(
        lambda batches: pool.append(sids, batches), traces
    )
    assert credited >= len(sids) // 2  # the round credited the fleet


def test_solo_round_allocates_per_credited_cycle_only():
    _session, append, traces = _solo()
    credited = _check_crediting_append(append, traces)
    assert credited >= 1


def _check_crediting_append(append, traces):
    """Append 50-sample batches until one credits after a warm-up
    crediting append; hold that append to the per-cycle budget and
    return how many cycles it credited."""
    batch = 50
    offsets = iter(range(0, 1200, batch))

    def batches():
        offset = next(offsets)
        return [t[offset : offset + batch] for t in traces]

    # Warm up through a crediting round, so session scratch (the stride
    # fractions, the pool's buffers) already exists.
    while not any(steps for steps, _ in append(batches())):
        pass
    # Every append until the next crediting one runs at most one round.
    credited = 0
    while credited == 0:
        ingest = batches()
        results, grown = _net_containers(lambda: append(ingest))
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
    return credited
