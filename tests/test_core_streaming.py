"""Unit/integration tests for repro.core.streaming."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import PTrack
from repro.core.streaming import StreamingPTrack
from repro.exceptions import ConfigurationError, SignalError
from repro.simulation.walker import simulate_walk
from repro.types import GaitType


class TestConstruction:
    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            StreamingPTrack(0.0)

    def test_rejects_short_settle(self):
        with pytest.raises(ConfigurationError):
            StreamingPTrack(100.0, settle_s=0.5)

    def test_rejects_small_buffer(self):
        with pytest.raises(ConfigurationError):
            StreamingPTrack(100.0, settle_s=2.5, max_buffer_s=5.0)

    def test_latency_property(self):
        assert StreamingPTrack(100.0, settle_s=3.0).latency_s == 3.0


class TestStreamingEquivalence:
    @pytest.mark.parametrize("batch", [64, 256, 1024])
    def test_steps_match_batch_pipeline(self, user, batch):
        trace, truth = simulate_walk(user, 40.0, rng=np.random.default_rng(batch))
        expected = PTrack(profile=user.profile).track(trace)

        streamer = StreamingPTrack(100.0, profile=user.profile)
        data = trace.linear_acceleration
        for i in range(0, data.shape[0], batch):
            streamer.append(data[i : i + batch])
        streamer.flush()
        assert abs(streamer.step_count - expected.step_count) <= 2
        assert streamer.distance_m == pytest.approx(expected.distance_m, rel=0.08)

    def test_stepping_gait_matches_batch_pipeline(self, user, stepping_trace):
        # A rigid arm credits through the Fig. 4 stepping tests and their
        # confirmation streak, which no walking cycle reaches.
        trace, _ = stepping_trace
        expected = PTrack(profile=user.profile).track(trace)
        streamer = StreamingPTrack(100.0, profile=user.profile)
        data = trace.linear_acceleration
        steps = []
        for i in range(0, data.shape[0], 50):
            steps.extend(streamer.append(data[i : i + 50])[0])
        steps.extend(streamer.flush()[0])
        assert expected.step_count > 0
        assert abs(streamer.step_count - expected.step_count) <= 2
        assert {e.gait_type for e in steps} == {GaitType.STEPPING}
        assert streamer.distance_m == pytest.approx(expected.distance_m, rel=0.08)

    def test_interference_stays_silent(self, eating_trace):
        streamer = StreamingPTrack(100.0)
        data = eating_trace.linear_acceleration
        for i in range(0, data.shape[0], 200):
            streamer.append(data[i : i + 200])
        streamer.flush()
        assert streamer.step_count <= 2

    def test_events_monotone_and_unique(self, user):
        trace, _ = simulate_walk(user, 30.0, rng=np.random.default_rng(3))
        streamer = StreamingPTrack(100.0, profile=user.profile)
        events = []
        for i in range(0, trace.n_samples, 150):
            steps, _ = streamer.append(trace.linear_acceleration[i : i + 150])
            events.extend(steps)
        steps, _ = streamer.flush()
        events.extend(steps)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert len(times) == len(set(times))

    def test_strides_lockstep_with_steps(self, user):
        trace, _ = simulate_walk(user, 30.0, rng=np.random.default_rng(4))
        streamer = StreamingPTrack(100.0, profile=user.profile)
        n_steps = n_strides = 0
        for i in range(0, trace.n_samples, 90):
            steps, strides = streamer.append(trace.linear_acceleration[i : i + 90])
            n_steps += len(steps)
            n_strides += len(strides)
        steps, strides = streamer.flush()
        n_steps += len(steps)
        n_strides += len(strides)
        assert n_strides <= n_steps
        assert n_strides >= 0.8 * n_steps


class TestStreamingBehaviour:
    def test_no_profile_no_strides(self, user):
        trace, _ = simulate_walk(user, 20.0, rng=np.random.default_rng(5))
        streamer = StreamingPTrack(100.0)
        _, strides = streamer.append(trace.linear_acceleration)
        _, tail = streamer.flush()
        assert strides == [] and tail == []
        assert streamer.distance_m == 0.0

    def test_settle_window_delays_crediting(self, user):
        trace, _ = simulate_walk(user, 10.0, rng=np.random.default_rng(6))
        streamer = StreamingPTrack(100.0, settle_s=5.0, max_buffer_s=30.0)
        steps, _ = streamer.append(trace.linear_acceleration[:600])  # 6 s
        # Only the first ~1 s can be settled with a 5 s horizon.
        assert len(steps) <= 4

    def test_empty_append(self):
        streamer = StreamingPTrack(100.0)
        assert streamer.append(np.empty((0, 3))) == ([], [])

    def test_rejects_bad_shape(self):
        streamer = StreamingPTrack(100.0)
        with pytest.raises(SignalError):
            streamer.append(np.zeros((10, 2)))

    def test_rejects_nan(self):
        streamer = StreamingPTrack(100.0)
        bad = np.zeros((10, 3))
        bad[0, 0] = np.nan
        with pytest.raises(SignalError):
            streamer.append(bad)

    def test_long_stream_bounded_memory(self, user):
        streamer = StreamingPTrack(100.0, max_buffer_s=12.0)
        trace, truth = simulate_walk(user, 60.0, rng=np.random.default_rng(7))
        for i in range(0, trace.n_samples, 100):
            streamer.append(trace.linear_acceleration[i : i + 100])
        assert streamer._size <= 12.0 * 100
        streamer.flush()
        assert streamer.step_count == pytest.approx(truth.step_count, abs=4)

    def test_long_stream_capacity_stays_bounded(self, user):
        # The rolling buffer must amortise growth: streaming minutes of
        # data through small batches may double the capacity array a few
        # times but never lets it track the total history length.
        streamer = StreamingPTrack(100.0, max_buffer_s=15.0)
        trace, _ = simulate_walk(user, 120.0, rng=np.random.default_rng(11))
        for i in range(0, trace.n_samples, 50):
            streamer.append(trace.linear_acceleration[i : i + 50])
        assert streamer._data.shape[0] <= 4 * streamer._max_buffer
        assert streamer._size <= streamer._max_buffer

    def test_rejects_non_float64(self):
        # Anything but float64 would force a silent conversion copy on
        # every append; the contract is to fail loudly instead.
        streamer = StreamingPTrack(100.0)
        with pytest.raises(SignalError, match="float64"):
            streamer.append(np.zeros((10, 3), dtype=np.float32))

    def test_rejects_non_array(self):
        streamer = StreamingPTrack(100.0)
        with pytest.raises(SignalError, match="asarray"):
            streamer.append([[0.0, 0.0, 9.8]])

    def test_reset_replays_identically_without_reallocating(self, user):
        trace, _ = simulate_walk(user, 20.0, rng=np.random.default_rng(21))
        streamer = StreamingPTrack(100.0, profile=user.profile)
        data = trace.linear_acceleration
        for i in range(0, data.shape[0], 70):
            streamer.append(data[i : i + 70])
        streamer.flush()
        first_steps = streamer.step_count
        first_dist = streamer.distance_m
        buf, filt = streamer._data, streamer._filt

        streamer.reset()
        assert streamer.step_count == 0 and streamer.distance_m == 0.0
        assert streamer.op_stats.samples_in == 0
        assert streamer._data is buf and streamer._filt is filt
        for i in range(0, data.shape[0], 70):
            streamer.append(data[i : i + 70])
        streamer.flush()
        assert streamer.step_count == first_steps
        assert streamer.distance_m == first_dist

    def test_long_stream_matches_batch_results(self, user):
        # Trims and in-place tail copies must not perturb the counted
        # steps or credited distance relative to the batch pipeline.
        trace, truth = simulate_walk(user, 120.0, rng=np.random.default_rng(12))
        expected = PTrack(profile=user.profile).track(trace)

        streamer = StreamingPTrack(100.0, profile=user.profile, max_buffer_s=15.0)
        for i in range(0, trace.n_samples, 128):
            streamer.append(trace.linear_acceleration[i : i + 128])
        streamer.flush()
        assert abs(streamer.step_count - expected.step_count) <= 4
        assert streamer.step_count == pytest.approx(truth.step_count, abs=6)
        assert streamer.distance_m == pytest.approx(expected.distance_m, rel=0.08)


def _stream(streamer, data, chunks):
    """Drive ``data`` through ``streamer`` in the given chunk sizes."""
    steps, strides = [], []
    pos = 0
    for size in chunks:
        st, sr = streamer.append(data[pos : pos + size])
        steps.extend(st)
        strides.extend(sr)
        pos += size
    if pos < data.shape[0]:
        st, sr = streamer.append(data[pos:])
        steps.extend(st)
        strides.extend(sr)
    st, sr = streamer.flush()
    steps.extend(st)
    strides.extend(sr)
    return steps, strides


class TestChunkInvariance:
    """Credited output is a pure function of the sample stream.

    The incremental core only does work at absolute hop boundaries, so
    how the stream is sliced into append calls — sample by sample,
    uneven bursts, or one giant chunk — must not change a single
    credited step or stride.
    """

    @pytest.fixture(scope="class")
    def stream_case(self, user):
        trace, _ = simulate_walk(user, 20.0, rng=np.random.default_rng(31))
        data = np.ascontiguousarray(trace.linear_acceleration)

        def run(chunks):
            streamer = StreamingPTrack(100.0, profile=user.profile)
            steps, strides = _stream(streamer, data, chunks)
            return (
                [(e.index, e.time) for e in steps],
                [(e.time, e.length_m) for e in strides],
            )

        reference = run([data.shape[0]])  # one giant chunk
        assert len(reference[0]) > 20
        return data, run, reference

    def test_single_sample_appends(self, stream_case):
        data, run, reference = stream_case
        assert run([1] * data.shape[0]) == reference

    @pytest.mark.parametrize("batch", [7, 33, 100, 256, 1999])
    def test_fixed_batches(self, stream_case, batch):
        data, run, reference = stream_case
        n = data.shape[0]
        assert run([batch] * (n // batch)) == reference

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=500), max_size=60))
    def test_arbitrary_chunkings(self, stream_case, chunks):
        data, run, reference = stream_case
        assert run(chunks) == reference


class TestBoundedPerAppendWork:
    """Regression guard for the amortised-O(1) append claim."""

    def test_work_counters_linear_in_input(self, user):
        trace, _ = simulate_walk(user, 60.0, rng=np.random.default_rng(41))
        data = trace.linear_acceleration
        streamer = StreamingPTrack(100.0, profile=user.profile)
        for i in range(0, data.shape[0], 50):
            streamer.append(data[i : i + 50])
        ops = streamer.op_stats
        assert ops.samples_in == data.shape[0]
        # Filtering touches each sample once plus bounded block context.
        assert ops.samples_filtered <= 4 * ops.samples_in
        # Segmentation rescans a bounded retained window per pass.
        assert ops.segmentation_samples <= 8 * ops.samples_in
        # Every staged cycle is classified exactly once.
        assert ops.offset_evaluations <= ops.cycles_staged
        assert ops.stepping_tests <= ops.cycles_staged

    def test_work_independent_of_append_cadence(self, user):
        # The defining O(1) property: slicing the same stream into 8x
        # more append calls must not change how much signal work is
        # done (the pre-PR driver's work scaled with the drain count).
        trace, _ = simulate_walk(user, 40.0, rng=np.random.default_rng(42))
        data = trace.linear_acceleration
        ops = {}
        for batch in (25, 200):
            streamer = StreamingPTrack(100.0, profile=user.profile)
            for i in range(0, data.shape[0], batch):
                streamer.append(data[i : i + batch])
            ops[batch] = streamer.op_stats
        assert ops[25].samples_filtered == ops[200].samples_filtered
        assert ops[25].segmentation_samples == ops[200].segmentation_samples
        assert ops[25].cycles_staged == ops[200].cycles_staged
        assert ops[25].appends == 8 * ops[200].appends

    def test_op_stats_snapshot_is_a_copy(self):
        streamer = StreamingPTrack(100.0)
        snap = streamer.op_stats
        streamer.append(np.zeros((300, 3)))
        assert snap.samples_in == 0
        assert streamer.op_stats.samples_in == 300
        assert set(snap.as_dict()) == {
            "samples_in", "appends", "passes", "samples_filtered",
            "segmentation_samples", "cycles_staged",
            "offset_evaluations", "stepping_tests",
            "samples_repaired", "samples_rejected", "gaps_reset",
        }
