"""Golden credits: an absolute anchor for every serving driver.

The serving equivalence oracles are relative — serial == pooled ==
batched == fleet — so a change that moves every driver the same way
passes all of them. This corpus pins the credits themselves: a fixed
set of seeded inputs, each served under the strict policy and under a
degraded-mode :class:`~repro.faults.FaultPolicy` with injected faults,
is reduced to a digest and compared with ``golden_credits.json``.

Inputs:

* ``walks`` — three seeded :func:`~repro.serving.synthesize_workload`
  sessions (100 Hz);
* ``slow_cadence`` — the pinned slow-cadence user (``cadence_hz =
  1.046875``, walk seed 292; see ``test_slow_cadence_regression.py``);
* ``low_rate`` — the pinned 35 s walk resampled to 26.4765625 Hz (see
  ``test_low_rate_resample_regression.py``);
* ``stepping`` — a 30 s walk with the arm held rigid (100 Hz), whose
  every credit goes through the Fig. 4 stepping tests and streak,
  which no walking cycle reaches.

The faulted variant clips every trace at ±10 m/s² (flattened peaks,
kept as data by the policy's 78 m/s² rail) and cuts NaN bursts and
outages into it; the walks' outages are long enough to force gap
resets. The rigid arm never reaches the clip, so its faulted variant
exercises the NaN repairs only.

Every driver must hit the same stored digest: a serial
:class:`~repro.core.streaming.StreamingPTrack` per session (a round of
one), one :class:`~repro.serving.BatchedSessionPool` (append rounds
plus its batched flush), a durable in-process
:func:`~repro.serving.serve_fleet`, and the per-cycle scalar drain of
``tests/scalar_drain.py``, which pins the round's padded-stack kernels
to scalar measurement and one stride solve per cycle end to end.

The digest hashes the exact integer fields of every credit (sample
index, cycle id, gait type, step and stride counts) and the stride and
bounce floats rounded to 9 significant digits, so a last-ulp scipy
difference between Python/NumPy builds does not trip it but a change
to any counting or stride decision does.

The stored file is a recorded fact about the pipeline, not a
tolerance: regenerate it (``python tests/test_golden_credits.py
--write``) only for a deliberate change to the paper's decisions, and
say so in the change log.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.streaming import StreamingPTrack
from repro.faults import FaultPolicy, NaNBurst, Outage, Saturation, inject_faults
from repro.serving import BatchedSessionPool, serve_fleet, synthesize_workload
from repro.signal.resample import resample_trace
from repro.simulation.profiles import SimulatedUser
from repro.simulation.walker import simulate_walk
from repro.types import GaitType
from scalar_drain import ScalarDrain

GOLDEN_PATH = Path(__file__).with_name("golden_credits.json")
BATCH = 50

SLOW_CADENCE_USER = dict(
    arm_length_m=0.5,
    leg_length_m=1.0,
    cadence_hz=1.046875,
    stride_m=0.75,
    arm_swing_amplitude_rad=0.4375,
    arm_swing_forward_bias_rad=0.125,
    arm_phase_lag=0.06640625,
)
LOW_RATE_HZ = 26.4765625

FAULTS = (
    Saturation(limit=10.0),
    NaNBurst(rate_per_min=6.0),
    Outage(rate_per_min=2.0, min_gap_s=0.1, max_gap_s=1.5),
)
FAULT_SEED = 5


def _inputs():
    """``{name: (rate_hz, traces, profiles)}`` of the clean inputs."""
    walks = synthesize_workload(3, 20.0, seed=7)
    slow = SimulatedUser(**SLOW_CADENCE_USER)
    slow_trace, _ = simulate_walk(slow, 25.0, rng=np.random.default_rng(292))
    low = SimulatedUser()
    low_trace, _ = simulate_walk(low, 35.0, rng=np.random.default_rng(2024))
    low_trace = resample_trace(low_trace, LOW_RATE_HZ)
    stepper = SimulatedUser()
    step_trace, _ = simulate_walk(
        stepper, 30.0, rng=np.random.default_rng(101), arm_mode="rigid"
    )
    return {
        "walks": (
            100.0,
            [w.samples for w in walks],
            [w.profile for w in walks],
        ),
        "slow_cadence": (
            100.0,
            [np.ascontiguousarray(slow_trace.linear_acceleration)],
            [slow.profile],
        ),
        "low_rate": (
            LOW_RATE_HZ,
            [np.ascontiguousarray(low_trace.linear_acceleration)],
            [low.profile],
        ),
        "stepping": (
            100.0,
            [np.ascontiguousarray(step_trace.linear_acceleration)],
            [stepper.profile],
        ),
    }


def _cases():
    """``{case: (rate_hz, traces, profiles, fault_policy)}``."""
    cases = {}
    for name, (rate, traces, profiles) in _inputs().items():
        cases[f"{name}/strict"] = (rate, traces, profiles, None)
        faulted = [
            inject_faults(t, FAULTS, FAULT_SEED, index=i, sample_rate_hz=rate)
            for i, t in enumerate(traces)
        ]
        cases[f"{name}/faulted"] = (rate, faulted, profiles, FaultPolicy())
    return cases


def _digest(credits):
    """SHA-256 of per-session ``(steps, strides)`` credit lists."""
    lines = []
    for s, (steps, strides) in enumerate(credits):
        lines.append(f"session {s} steps={len(steps)} strides={len(strides)}")
        for e in steps:
            lines.append(f"e {e.index} {e.cycle_id} {e.gait_type.name}")
        for st in strides:
            bounce = "-" if st.bounce_m is None else format(st.bounce_m, ".9g")
            lines.append(
                f"s {st.cycle_id} {st.gait_type.name} "
                f"{format(st.length_m, '.9g')} {bounce}"
            )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _serve_serial(rate, traces, profiles, policy):
    credits = []
    for trace, profile in zip(traces, profiles):
        session = StreamingPTrack(rate, profile=profile, fault_policy=policy)
        steps, strides = [], []
        for at in range(0, trace.shape[0], BATCH):
            s, st = session.append(trace[at : at + BATCH])
            steps += s
            strides += st
        s, st = session.flush()
        credits.append((steps + s, strides + st))
    return credits


def _serve_scalar_drain(rate, traces, profiles, policy):
    credits = []
    for trace, profile in zip(traces, profiles):
        drain = ScalarDrain(
            StreamingPTrack(rate, profile=profile, fault_policy=policy)
        )
        steps, strides = [], []
        for at in range(0, trace.shape[0], BATCH):
            s, st = drain.append(trace[at : at + BATCH])
            steps += s
            strides += st
        s, st = drain.flush()
        credits.append((steps + s, strides + st))
    return credits


def _serve_batched(rate, traces, profiles, policy):
    pool = BatchedSessionPool(rate, fault_policy=policy)
    sids = pool.add_sessions(profiles)
    credits = [([], []) for _ in sids]
    longest = max(t.shape[0] for t in traces)
    for at in range(0, longest, BATCH):
        live = [k for k, t in enumerate(traces) if at < t.shape[0]]
        results = pool.append(
            [sids[k] for k in live], [traces[k][at : at + BATCH] for k in live]
        )
        for k, (s, st) in zip(live, results):
            credits[k][0].extend(s)
            credits[k][1].extend(st)
    for k, (s, st) in enumerate(pool.flush(sids)):
        credits[k][0].extend(s)
        credits[k][1].extend(st)
    assert not pool.failed_sessions
    return credits


def _serve_durable_fleet(rate, traces, profiles, policy, checkpoint_dir):
    report = serve_fleet(
        traces,
        rate,
        profiles=profiles,
        batch_samples=BATCH,
        workers=1,
        fault_policy=policy,
        checkpoint_every_s=5.0,
        checkpoint_dir=checkpoint_dir,
    )
    assert report.status == "ok"
    return [(list(s.steps), list(s.strides)) for s in report.sessions]


def _record():
    """The golden record of the current tree (serial driver)."""
    record = {}
    for case, spec in _cases().items():
        credits = _serve_serial(*spec)
        record[case] = {
            "steps": sum(len(steps) for steps, _ in credits),
            "digest": _digest(credits),
        }
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def cases():
    return _cases()


CASE_NAMES = [
    f"{name}/{policy}"
    for name in ("walks", "slow_cadence", "low_rate", "stepping")
    for policy in ("strict", "faulted")
]


def test_corpus_covers_every_case(golden, cases):
    assert sorted(golden) == sorted(cases) == sorted(CASE_NAMES)


def test_faulted_cases_exercise_degraded_ingest(cases):
    # The faulted inputs must actually carry gaps and clipped peaks,
    # or the degraded half of the corpus pins nothing the strict half
    # does not.
    for name in ("walks", "slow_cadence", "low_rate", "stepping"):
        _rate, traces, _profiles, _policy = cases[f"{name}/faulted"]
        assert all(np.isnan(t).any() for t in traces)
        if name != "stepping":
            assert any((np.abs(t) == 10.0).any() for t in traces)


@pytest.mark.parametrize("policy", ["strict", "faulted"])
def test_stepping_cases_credit_stepping_cycles(cases, policy):
    # The stepping anchor pins the Fig. 4 stepping branch only if its
    # credits actually come from it.
    steps, strides = _serve_serial(*cases[f"stepping/{policy}"])[0]
    assert len(steps) > 20 and strides
    assert {e.gait_type for e in steps} == {GaitType.STEPPING}


@pytest.mark.parametrize("case", CASE_NAMES)
def test_serial_matches_golden(golden, cases, case):
    credits = _serve_serial(*cases[case])
    assert sum(len(s) for s, _ in credits) == golden[case]["steps"]
    assert _digest(credits) == golden[case]["digest"]


@pytest.mark.parametrize("case", CASE_NAMES)
def test_batched_pool_matches_golden(golden, cases, case):
    credits = _serve_batched(*cases[case])
    assert sum(len(s) for s, _ in credits) == golden[case]["steps"]
    assert _digest(credits) == golden[case]["digest"]


@pytest.mark.parametrize("case", CASE_NAMES)
def test_durable_fleet_matches_golden(golden, cases, case, tmp_path):
    credits = _serve_durable_fleet(*cases[case], tmp_path)
    assert sum(len(s) for s, _ in credits) == golden[case]["steps"]
    assert _digest(credits) == golden[case]["digest"]


@pytest.mark.parametrize("case", CASE_NAMES)
def test_scalar_drain_matches_golden(golden, cases, case):
    credits = _serve_scalar_drain(*cases[case])
    assert sum(len(s) for s, _ in credits) == golden[case]["steps"]
    assert _digest(credits) == golden[case]["digest"]


if __name__ == "__main__":
    record = json.dumps(_record(), indent=2, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        GOLDEN_PATH.write_text(record)
    sys.stdout.write(record)
