"""Tests for the reassembly queue, including property-based checks."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.reassembly import ReassemblyQueue

from tests.conftest import examples


def collect(queue):
    delivered = []
    return delivered, lambda s, e, m: delivered.append((s, e, m))


def test_in_order_delivery_is_immediate():
    queue = ReassemblyQueue(rcv_nxt=0)
    delivered, sink = collect(queue)
    assert queue.offer(0, 100, "a", sink) == 100
    assert delivered == [(0, 100, "a")]
    assert queue.rcv_nxt == 100
    assert queue.buffered_bytes == 0


def test_out_of_order_is_held_then_released():
    queue = ReassemblyQueue(rcv_nxt=0)
    delivered, sink = collect(queue)
    queue.offer(100, 200, "b", sink)
    assert delivered == []
    assert queue.buffered_bytes == 100
    queue.offer(0, 100, "a", sink)
    assert delivered == [(0, 100, "a"), (100, 200, "b")]
    assert queue.rcv_nxt == 200


def test_duplicate_below_cumulative_point_ignored():
    queue = ReassemblyQueue(rcv_nxt=100)
    delivered, sink = collect(queue)
    assert queue.offer(0, 50, None, sink) == 0
    assert queue.duplicate_bytes == 50
    assert delivered == []


def test_partial_overlap_with_cumulative_point_trimmed():
    queue = ReassemblyQueue(rcv_nxt=50)
    delivered, sink = collect(queue)
    assert queue.offer(0, 100, "x", sink) == 50
    assert delivered == [(50, 100, "x")]


def test_duplicate_of_buffered_range_ignored():
    queue = ReassemblyQueue(rcv_nxt=0)
    delivered, sink = collect(queue)
    queue.offer(100, 200, None, sink)
    assert queue.offer(100, 200, None, sink) == 0
    assert queue.duplicate_bytes == 100
    assert queue.buffered_bytes == 100


def test_overlap_with_buffered_range_splits():
    queue = ReassemblyQueue(rcv_nxt=0)
    delivered, sink = collect(queue)
    queue.offer(100, 200, None, sink)
    assert queue.offer(50, 250, None, sink) == 100  # 50-100 and 200-250
    assert queue.buffered_bytes == 200
    assert queue.pending_ranges == [(50, 100), (100, 200), (200, 250)]


def test_empty_range_rejected():
    queue = ReassemblyQueue()
    assert queue.offer(10, 10) == 0
    assert queue.offer(10, 5) == 0


def test_sack_blocks_merge_adjacent_ranges():
    queue = ReassemblyQueue(rcv_nxt=0)
    queue.offer(100, 200)
    queue.offer(200, 300)
    queue.offer(500, 600)
    blocks = queue.sack_blocks()
    assert blocks == ((500, 600), (100, 300))


def test_sack_blocks_limit():
    queue = ReassemblyQueue(rcv_nxt=0)
    for start in (100, 300, 500, 700, 900):
        queue.offer(start, start + 50)
    assert len(queue.sack_blocks(limit=3)) == 3
    # Highest ranges are reported first (most recently useful).
    assert queue.sack_blocks(limit=1) == ((900, 950),)


def test_hole_filling_delivers_everything_in_order():
    queue = ReassemblyQueue(rcv_nxt=0)
    delivered, sink = collect(queue)
    for start in (300, 100, 200):
        queue.offer(start, start + 100, start, sink)
    assert delivered == []
    queue.offer(0, 100, 0, sink)
    assert [d[0] for d in delivered] == [0, 100, 200, 300]
    assert queue.rcv_nxt == 400


@settings(max_examples=examples(200))
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 8)),
                min_size=1, max_size=40))
def test_property_matches_byte_set_model(chunks):
    """The queue must deliver exactly the contiguous prefix of bytes
    received, each byte exactly once, in order."""
    queue = ReassemblyQueue(rcv_nxt=0)
    delivered = []
    queue_bytes = set()
    for start, length in chunks:
        end = start + length
        queue.offer(start, end,
                    on_in_order=lambda s, e, m: delivered.append((s, e)))
        queue_bytes |= set(range(start, end))
        # Model: cumulative point advances over the received byte set.
        expected_rcv_nxt = 0
        while expected_rcv_nxt in queue_bytes:
            expected_rcv_nxt += 1
        assert queue.rcv_nxt == expected_rcv_nxt
        # Buffered bytes = received bytes above the cumulative point.
        assert queue.buffered_bytes == sum(
            1 for byte in queue_bytes if byte >= expected_rcv_nxt)
    # Delivered ranges are disjoint, ordered, and cover [0, rcv_nxt).
    covered = []
    for start, end in delivered:
        assert start < end
        if covered:
            assert start >= covered[-1][1]
        covered.append((start, end))
    total = sum(end - start for start, end in covered)
    assert total == queue.rcv_nxt


@settings(max_examples=examples(100))
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 10)),
                min_size=1, max_size=30))
def test_property_sack_blocks_describe_buffered_ranges(chunks):
    queue = ReassemblyQueue(rcv_nxt=0)
    received = set()
    for start, length in chunks:
        queue.offer(start, start + length)
        received |= set(range(start, start + length))
    blocks = queue.sack_blocks(limit=10 ** 6)
    block_bytes = set()
    for start, end in blocks:
        assert start < end
        assert start >= queue.rcv_nxt
        block_bytes |= set(range(start, end))
    expected = {byte for byte in received if byte >= queue.rcv_nxt}
    assert block_bytes == expected
