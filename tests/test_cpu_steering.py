"""Tests for the dual-speed ALU dispatch steering (Section IV-C2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.steering import DualSpeedSteering
from repro.cpu.trace import Trace
from repro.cpu.uops import UopType

A = UopType.IALU
F = UopType.FADD
L = UopType.LOAD


def make_steering(ops, src1=None, src2=None, **kw):
    trace = Trace.from_lists(ops, src1=src1, src2=src2)
    return DualSpeedSteering(trace, **kw)


class TestConsumerWindow:
    def test_back_to_back_consumer_steers_fast(self):
        s = make_steering([A, A], src1=[0, 1])
        assert s.prefer_fast(0) is True

    def test_consumer_at_distance_two_steers_fast(self):
        s = make_steering([A, A, A], src1=[0, 0, 2])
        assert s.prefer_fast(0) is True

    def test_distant_consumer_not_steered(self):
        # Default cap: consumers 3+ away are insensitive to one cycle.
        s = make_steering([A, A, A, A], src1=[0, 0, 0, 3])
        assert s.prefer_fast(0) is False

    def test_no_consumer_not_steered(self):
        s = make_steering([A, A, A], src1=[0, 0, 0])
        assert s.prefer_fast(0) is False

    def test_second_source_also_counts(self):
        s = make_steering([A, A], src2=[0, 1])
        assert s.prefer_fast(0) is True

    def test_non_alu_ops_never_steered(self):
        s = make_steering([F, F], src1=[0, 1])
        assert s.prefer_fast(0) is False

    def test_load_not_steered_even_with_consumer(self):
        s = make_steering([L, A], src1=[0, 1])
        assert s.prefer_fast(0) is False

    def test_end_of_trace_window_clipped(self):
        s = make_steering([A])
        assert s.prefer_fast(0) is False


class TestConfiguration:
    def test_disabled_never_steers(self):
        s = make_steering([A, A], src1=[0, 1], enabled=False)
        assert s.prefer_fast(0) is False
        assert s.examined == 0

    def test_window_capped_by_consumer_distance(self):
        s = make_steering([A, A, A, A, A], src1=[0, 0, 0, 0, 4], window=8)
        assert s.window == 2
        assert s.prefer_fast(0) is False

    def test_custom_distance_cap(self):
        s = make_steering(
            [A, A, A, A], src1=[0, 0, 0, 3], window=4, max_consumer_distance=3
        )
        assert s.prefer_fast(0) is True

    def test_invalid_window(self):
        import pytest

        with pytest.raises(ValueError):
            make_steering([A], window=0)


class TestStatistics:
    def test_preference_rate(self):
        s = make_steering([A, A, A, A], src1=[0, 1, 0, 0])
        results = [s.prefer_fast(i) for i in range(4)]
        assert results == [True, False, False, False]
        assert s.preference_rate == 0.25

    def test_empty_rate(self):
        s = make_steering([A])
        assert s.preference_rate == 0.0

    def test_majority_goes_slow_on_sparse_deps(self):
        """The scheme's power objective: most ops stay on TFET ALUs."""
        import numpy as np

        from repro.workloads import cpu_app, generate_trace

        trace = generate_trace(cpu_app("barnes"), 5000, seed=0)
        s = DualSpeedSteering(trace, window=4)
        preferred = sum(s.prefer_fast(i) for i in range(len(trace)))
        examined = s.examined
        assert examined > 0
        assert preferred / examined < 0.5
        del np


@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.sampled_from(list(UopType)),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=1,
        max_size=24,
    ),
    window=st.integers(min_value=1, max_value=4),
)
def test_steer_columns_match_per_dispatch_decisions(entries, window):
    """The fast path's per-trace column and prefix counts equal
    ``prefer_fast`` called on every entry in program order."""
    from repro.cpu.soa import steer_columns

    ops = [op for op, _, _ in entries]
    # Distances may not reach before entry 0.
    src1 = [min(d, i) for i, (_, d, _) in enumerate(entries)]
    src2 = [min(d, i) for i, (_, _, d) in enumerate(entries)]
    trace = Trace.from_lists(ops, src1=src1, src2=src2)
    steering = DualSpeedSteering(trace, window=window)
    columns = steer_columns(trace, steering.window)
    for idx in range(len(ops)):
        assert columns.counts[:, idx].tolist() == [
            steering.examined, steering.preferred
        ]
        assert columns.prefer_fast[idx] == steering.prefer_fast(idx)
    assert columns.counts[:, len(ops)].tolist() == [
        steering.examined, steering.preferred
    ]
