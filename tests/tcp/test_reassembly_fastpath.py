"""Behavioural tests for ``ReassemblyQueue``, fast path included.

``ReassemblyQueue.offer`` short-circuits the common case (segment lands
exactly at ``rcv_nxt`` with nothing buffered).  The first half drives a
fast-path queue and a slow-path reference through identical random
offer sequences and requires identical deliveries and bookkeeping.
The reference is the same class with the fast path disarmed: a
sentinel range parked far above the sequence space keeps ``_starts``
non-empty, so every offer takes the general insert-then-advance route.

The second half checks the queue against ``ByteModel``, a brute-force
receiver that tracks every byte individually: each byte is delivered
exactly once, in order, with the metadata of the offer that first
supplied it, and occupancy, duplicate accounting and SACK blocks match
after every offer.  Its test names predate the deletion of the numpy
twin ("array queue" / "scalar"); they are kept so the suite's test ids
stay comparable across PRs.
"""

import random

import pytest

from repro.tcp.reassembly import ReassemblyQueue

SENTINEL = 10 ** 12


def make_slow_queue():
    queue = ReassemblyQueue()
    queue.offer(SENTINEL, SENTINEL + 1)
    return queue


def drive(queue, offers, sentinel=0):
    delivered = []
    accepted = []
    for start, end, meta in offers:
        accepted.append(queue.offer(
            start, end, meta,
            on_in_order=lambda s, e, m: delivered.append((s, e, m))))
    return {
        "delivered": delivered,
        "accepted": accepted,
        "rcv_nxt": queue.rcv_nxt,
        "duplicate_bytes": queue.duplicate_bytes,
        "buffered": queue.buffered_bytes - sentinel,
        "ranges": [r for r in queue.pending_ranges if r[0] < SENTINEL],
    }


def assert_equivalent(offers):
    fast = drive(ReassemblyQueue(), offers)
    slow = drive(make_slow_queue(), offers, sentinel=1)
    assert fast == slow


def test_in_order_stream_hits_fast_path():
    offers = [(i * 1448, (i + 1) * 1448, i) for i in range(50)]
    fast = drive(ReassemblyQueue(), offers)
    assert fast["rcv_nxt"] == 50 * 1448
    assert fast["buffered"] == 0
    assert fast["duplicate_bytes"] == 0
    assert fast["delivered"] == [(s, e, m) for s, e, m in offers]
    assert_equivalent(offers)


def test_fast_path_disabled_while_holes_outstanding():
    # A hole forces buffering; later in-order fills must still drain
    # the buffered ranges through the general path.
    offers = [(0, 100, "a"), (200, 300, "c"), (100, 200, "b"),
              (300, 400, "d")]
    fast = drive(ReassemblyQueue(), offers)
    assert fast["delivered"] == [(0, 100, "a"), (100, 200, "b"),
                                 (200, 300, "c"), (300, 400, "d")]
    assert fast["rcv_nxt"] == 400
    assert_equivalent(offers)


def test_duplicate_and_overlap_accounting_matches():
    offers = [(0, 100, 1), (0, 100, 2), (50, 150, 3), (100, 300, 4),
              (250, 350, 5)]
    assert_equivalent(offers)


def _random_offers(seed, count=300, mss=1000):
    """Random mix of in-order delivery, reordering, duplication and
    partial overlap."""
    rng = random.Random(seed)
    offers = []
    cursor = 0
    for index in range(count):
        roll = rng.random()
        if roll < 0.55:
            start = cursor
            cursor += mss
        elif roll < 0.75:  # reorder ahead, leaving a hole
            start = cursor + rng.randrange(1, 5) * mss
        elif roll < 0.9:  # retransmit something old
            start = max(0, cursor - rng.randrange(1, 6) * mss)
        else:  # misaligned overlap
            start = max(0, cursor - rng.randrange(1, 3) * mss
                        + rng.randrange(-mss // 2, mss // 2))
        length = mss if rng.random() < 0.8 else rng.randrange(1, 2 * mss)
        offers.append((start, start + length, index))
    return offers


@pytest.mark.parametrize("seed", [1, 7, 42, 2013])
def test_randomized_offer_sequences_are_equivalent(seed):
    """The fast path must be unobservable on random streams."""
    assert_equivalent(_random_offers(seed))


def test_buffered_bytes_counter_matches_stored_ranges():
    rng = random.Random(99)
    queue = ReassemblyQueue()
    for _ in range(200):
        start = rng.randrange(0, 50_000)
        queue.offer(start, start + rng.randrange(1, 3000))
        stored = sum(end - start
                     for start, end in queue.pending_ranges)
        assert queue.buffered_bytes == stored


# ----------------------------------------------------------------------
# ReassemblyQueue vs a brute-force per-byte receiver
# ----------------------------------------------------------------------

class ByteModel:
    """Receiver that remembers every out-of-order byte and its owner."""

    def __init__(self):
        self.rcv_nxt = 0
        self.owner = {}  # buffered byte -> meta of the offer that won it
        self.duplicate_bytes = 0
        self.delivered = []  # (byte, meta), in delivery order

    def offer(self, start, end, meta):
        fresh = [byte for byte in range(start, end)
                 if byte >= self.rcv_nxt and byte not in self.owner]
        self.duplicate_bytes += (end - start) - len(fresh)
        for byte in fresh:
            self.owner[byte] = meta
        while self.rcv_nxt in self.owner:
            self.delivered.append((self.rcv_nxt,
                                   self.owner.pop(self.rcv_nxt)))
            self.rcv_nxt += 1
        return len(fresh)

    def sack_blocks(self, limit=3):
        """Maximal runs of buffered bytes, highest first."""
        runs = []
        for byte in sorted(self.owner):
            if runs and runs[-1][1] == byte:
                runs[-1][1] = byte + 1
            else:
                runs.append([byte, byte + 1])
        return tuple((start, end) for start, end in runs[::-1][:limit])


def check_against_byte_model(offers):
    queue, model = ReassemblyQueue(), ByteModel()
    delivered = []  # (byte, meta) expanded from the queue's callbacks

    def on_in_order(start, end, meta):
        assert start < end
        delivered.extend((byte, meta) for byte in range(start, end))

    for start, end, meta in offers:
        accepted = queue.offer(start, end, meta, on_in_order=on_in_order)
        assert accepted == model.offer(start, end, meta)
        assert queue.rcv_nxt == model.rcv_nxt
        assert queue.buffered_bytes == len(model.owner)
        assert queue.duplicate_bytes == model.duplicate_bytes
        blocks = queue.sack_blocks()
        assert len(blocks) <= 3
        assert blocks == model.sack_blocks()
        stored = [byte for range_start, range_end in queue.pending_ranges
                  for byte in range(range_start, range_end)]
        assert stored == sorted(model.owner)
        assert len(delivered) == queue.rcv_nxt
    # Exactly once, in order, with the first supplier's metadata.
    assert [byte for byte, _ in delivered] == list(range(queue.rcv_nxt))
    assert delivered == model.delivered


@pytest.mark.parametrize("seed", [1, 7, 42, 2013, 777])
def test_array_queue_matches_scalar_on_random_streams(seed):
    # A tenth of the segment size keeps the per-byte model cheap.
    check_against_byte_model(_random_offers(seed, mss=100))


def test_array_queue_matches_scalar_on_corner_cases():
    cases = [
        # pure in-order burst
        [(i * 100, (i + 1) * 100, i) for i in range(30)],
        # hole filled by the exact missing piece, long buffered run
        [(100 * i, 100 * (i + 1), i) for i in range(1, 20)]
        + [(0, 100, "plug")],
        # duplicates and partial overlaps around the head
        [(0, 100, 1), (0, 100, 2), (50, 150, 3), (100, 300, 4),
         (250, 350, 5), (0, 400, 6)],
        # single-byte segments (FIN-style) and adjacency
        [(0, 1, "f0"), (2, 3, "hole"), (1, 2, "plug"), (3, 4, "f1")],
        # four separated holes: only the three highest blocks are SACKed
        [(100, 200, "a"), (300, 400, "b"), (500, 600, "c"),
         (700, 800, "d"), (150, 750, "span")],
    ]
    for offers in cases:
        check_against_byte_model(offers)


def test_array_queue_survives_reentrant_offer():
    """A delivery callback re-enters ``offer`` (the receive buffer does
    this when an in-order delivery unblocks the application) while the
    queue is mid-drain: nothing is duplicated or dropped."""
    queue = ReassemblyQueue()
    delivered = []

    def on_in_order(start, end, meta):
        delivered.append((start, end, meta))
        if meta == "trigger":
            queue.offer(300, 400, "nested", on_in_order=on_in_order)

    queue.offer(100, 200, "buffered", on_in_order=on_in_order)
    queue.offer(200, 300, "trigger", on_in_order=on_in_order)
    queue.offer(0, 100, "head", on_in_order=on_in_order)
    assert delivered == [(0, 100, "head"), (100, 200, "buffered"),
                         (200, 300, "trigger"), (300, 400, "nested")]
    assert queue.rcv_nxt == 400
    assert queue.buffered_bytes == 0
    assert queue.pending_ranges == []


def test_sack_blocks_and_ranges_return_python_ints():
    queue = ReassemblyQueue()
    queue.offer(100, 200)
    queue.offer(300, 400)
    for start, end in list(queue.sack_blocks()) + list(queue.pending_ranges):
        assert type(start) is int and type(end) is int
