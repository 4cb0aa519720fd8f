"""Slotted credit types: StepEvent and StrideEstimate stay small, frozen
and picklable, so checkpoints and worker results carry them intact."""

import copy
import dataclasses
import pickle

import pytest

from repro.serving import serve_fleet, synthesize_workload
from repro.types import GaitType, StepEvent, StrideEstimate

CREDITS = [
    StepEvent(time=1.25, index=125, gait_type=GaitType.WALKING, cycle_id=3),
    StrideEstimate(
        time=1.25,
        length_m=0.71,
        bounce_m=0.043,
        cycle_id=3,
        gait_type=GaitType.WALKING,
    ),
    StrideEstimate(
        time=2.5,
        length_m=0.52,
        bounce_m=None,
        cycle_id=4,
        gait_type=GaitType.STEPPING,
    ),
]


@pytest.mark.parametrize("credit", CREDITS, ids=repr)
def test_credit_has_no_instance_dict(credit):
    assert not hasattr(credit, "__dict__")


@pytest.mark.parametrize("credit", CREDITS, ids=repr)
def test_credit_is_frozen(credit):
    with pytest.raises(dataclasses.FrozenInstanceError):
        credit.time = 0.0
    with pytest.raises((dataclasses.FrozenInstanceError, AttributeError)):
        credit.extra = 1


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("credit", CREDITS, ids=repr)
def test_credit_pickle_roundtrip(credit, protocol):
    loaded = pickle.loads(pickle.dumps(credit, protocol=protocol))
    assert type(loaded) is type(credit)
    assert loaded == credit
    assert hash(loaded) == hash(credit)
    assert loaded.gait_type is credit.gait_type
    assert not hasattr(loaded, "__dict__")


@pytest.mark.parametrize("credit", CREDITS, ids=repr)
def test_credit_copy_and_deepcopy(credit):
    for dup in (copy.copy(credit), copy.deepcopy(credit)):
        assert dup == credit
        assert not hasattr(dup, "__dict__")
    assert dataclasses.replace(credit, cycle_id=9).cycle_id == 9


def test_credits_survive_the_worker_process_boundary():
    # workers=2 ships every shard's credits home through pickle.
    workloads = synthesize_workload(4, 15.0, seed=21)
    traces = [w.samples for w in workloads]
    profiles = [w.profile for w in workloads]
    solo = serve_fleet(traces, 100.0, profiles=profiles, workers=1)
    pooled = serve_fleet(
        traces, 100.0, profiles=profiles, workers=2, sessions_per_shard=2
    )
    assert pooled.total_steps > 0
    for a, b in zip(solo.sessions, pooled.sessions):
        assert a.steps == b.steps
        assert a.strides == b.strides
        for credit in b.steps + b.strides:
            assert not hasattr(credit, "__dict__")
