"""Behavioural tests for the sender scoreboard (``repro.sim.arena``).

``SendScoreboard`` walks a deque from the head and stops early; the
reference here is ``BruteForceBoard``, a list of dicts where every
operation is a full scan of the RFC 6675 definition.  A randomized
driver feeds both the endpoint's full operation vocabulary and checks,
after every step, the returned aggregates, the surviving ranges, and
that the bytes an operation reports as freed are exactly the bytes that
left FLIGHT.

Several test names predate the deletion of the numpy twin (they say
"array" / "legacy" / "compaction"); they are kept so the suite's test
ids stay comparable across PRs.
"""

import random

import pytest

from repro.sim.arena import FLIGHT, LOST, SACKED, SendScoreboard

FIELDS = ("seq", "end_seq", "seq_space", "payload_len", "fin", "dsn",
          "sent_at", "retransmits", "state", "rexmit_epoch")


def snapshot(board):
    return [tuple(getattr(sent, name) for name in FIELDS)
            for sent in board.values()]


def flight_bytes(board):
    return sum(sent.seq_space for sent in board.values()
               if sent.state == FLIGHT)


class FakeSim:
    arena_peak = 0


class BruteForceBoard:
    """The scoreboard contract as full scans over a list of dicts."""

    def __init__(self):
        self.rows = []

    def snapshot(self):
        return [tuple(row[name] for name in FIELDS) for row in self.rows]

    def append(self, seq, seq_space, payload_len, fin, dsn, sent_at):
        self.rows.append(dict(
            seq=seq, end_seq=seq + seq_space, seq_space=seq_space,
            payload_len=payload_len, fin=fin, dsn=dsn, sent_at=sent_at,
            retransmits=0, state=FLIGHT, rexmit_epoch=-1))

    def sack(self, start, end):
        hit = [row for row in self.rows if row["state"] == FLIGHT
               and start <= row["seq"] and row["end_seq"] <= end]
        for row in hit:
            row["state"] = SACKED
        return sum(row["seq_space"] for row in hit)

    def mark_losses(self, threshold, epoch):
        hit = [row for row in self.rows if row["state"] == FLIGHT
               and row["end_seq"] <= threshold
               and row["rexmit_epoch"] != epoch]
        for row in hit:
            row["state"] = LOST
        return len(hit), sum(row["seq_space"] for row in hit)

    def advance_una(self, ack):
        retired = [row for row in self.rows if row["end_seq"] <= ack]
        self.rows = [row for row in self.rows if row["end_seq"] > ack]
        fresh = [row for row in retired if row["retransmits"] == 0]
        return (sum(row["seq_space"] for row in retired),
                fresh[-1]["sent_at"] if fresh else None,
                sum(row["seq_space"] for row in retired
                    if row["state"] == FLIGHT),
                sum(1 for row in retired if row["state"] == LOST))

    def front_unsacked(self):
        return next((row for row in self.rows
                     if row["state"] != SACKED), None)

    def find_lost(self, epoch):
        return next((row for row in self.rows if row["state"] == LOST
                     and row["rexmit_epoch"] != epoch), None)

    def mark_all_lost(self):
        freed = sum(row["seq_space"] for row in self.rows
                    if row["state"] == FLIGHT)
        for row in self.rows:
            row["state"] = LOST
        return freed, len(self.rows)

    def mark_retransmitted(self, seq, epoch):
        row = next(row for row in self.rows if row["seq"] == seq)
        row["state"] = FLIGHT
        row["retransmits"] += 1
        row["rexmit_epoch"] = epoch


def drive(seed, operations=400):
    """Run one random op sequence through the scoreboard and the
    brute-force model, asserting agreement after every step."""
    rng = random.Random(seed)
    board, model = SendScoreboard(), BruteForceBoard()
    next_seq = 1
    una = 1
    epoch = 0
    now = 0.0
    for _ in range(operations):
        now += rng.random() * 0.01
        roll = rng.random()
        before = flight_bytes(board)
        if roll < 0.45 or not board:
            space = rng.choice([1448, 1448, 512, 1])
            fin = space == 1 and rng.random() < 0.5
            dsn = next_seq + 10_000 if rng.random() < 0.8 else None
            sent = board.append(next_seq, space, 0 if fin else space,
                                fin=fin, dsn=dsn, sent_at=now)
            model.append(next_seq, space, 0 if fin else space, fin, dsn,
                         now)
            assert (sent.seq, sent.end_seq) == (next_seq,
                                                next_seq + space)
            next_seq += space
        elif roll < 0.62:
            start = rng.randrange(una, next_seq + 1)
            end = rng.randrange(start, next_seq + 1449)
            freed = board.sack(start, end)
            assert freed == model.sack(start, end)
            assert freed == before - flight_bytes(board)
        elif roll < 0.72:
            threshold = rng.randrange(una, next_seq + 1449)
            count, freed = board.mark_losses(threshold, epoch)
            assert (count, freed) == model.mark_losses(threshold, epoch)
            assert freed == before - flight_bytes(board)
        elif roll < 0.87:
            ack = rng.randrange(una, next_seq + 1)
            result = board.advance_una(ack)
            assert result == model.advance_una(ack)
            assert result[2] == before - flight_bytes(board)
            assert all(sent.end_seq > ack for sent in board.values())
            una = max(una, ack)
        elif roll < 0.93:
            front = board.front_unsacked()
            expected = model.front_unsacked()
            assert (None if front is None else front.seq) == \
                (None if expected is None else expected["seq"])
            if front is not None and front.state == LOST:
                front.mark_retransmitted(epoch)
                model.mark_retransmitted(front.seq, epoch)
        elif roll < 0.97:
            lost = board.find_lost(epoch)
            expected = model.find_lost(epoch)
            assert (None if lost is None else lost.seq) == \
                (None if expected is None else expected["seq"])
            if lost is not None:
                assert lost.rexmit_epoch != epoch
                lost.mark_retransmitted(epoch)
                model.mark_retransmitted(lost.seq, epoch)
        else:
            freed, total = board.mark_all_lost()
            assert (freed, total) == model.mark_all_lost()
            assert freed == before and flight_bytes(board) == 0
            epoch += 1
        assert snapshot(board) == model.snapshot()
        assert len(board) == len(model.rows)
        assert bool(board) is bool(model.rows)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2013, 31337])
def test_array_scoreboard_matches_legacy(seed):
    """The scoreboard agrees with the brute-force model on a random
    stream of every operation the endpoint issues."""
    drive(seed)


def test_growth_past_initial_capacity():
    """A deep window (1000 ranges, the 32 MB cellular regime) keeps
    every field of every range."""
    board, model = SendScoreboard(), BruteForceBoard()
    for index in range(1000):
        board.append(1 + index * 1448, 1448, 1448, fin=False,
                     dsn=50_000 + index, sent_at=0.001 * index)
        model.append(1 + index * 1448, 1448, 1448, False,
                     50_000 + index, 0.001 * index)
    assert len(board) == 1000
    assert snapshot(board) == model.snapshot()


def test_compaction_recycles_retired_slots():
    """A long steady-state window (append at tail, ack at head) holds
    only the live ranges: retired ones are dropped, not accumulated."""

    sim = FakeSim()
    board = SendScoreboard(sim)
    seq = 1
    for round_index in range(40):
        for _ in range(100):
            board.append(seq, 1448, 1448, fin=False, dsn=None,
                         sent_at=0.0)
            seq += 1448
        board.advance_una(seq - 10 * 1448)  # keep 10 in flight
    assert len(board) == 10
    assert sim.arena_peak == 110, \
        "a 10-segment window plus one 100-append round"
    assert [sent.seq for sent in board.values()] == \
        [seq - (10 - i) * 1448 for i in range(10)]


def test_views_are_live_after_mutation():
    """Records handed out by ``values()`` / ``append`` are the live
    ones -- the endpoint-internals tests capture them before mutating
    via SACK."""
    board = SendScoreboard()
    board.append(1, 1000, 1000, fin=False, dsn=None, sent_at=0.5)
    board.append(1001, 1000, 1000, fin=False, dsn=None, sent_at=0.6)
    first, second = board.values()
    assert (first.state, second.state) == (FLIGHT, FLIGHT)
    board.sack(1001, 2001)
    assert (first.state, second.state) == (FLIGHT, SACKED)
    board.mark_losses(3001, epoch=0)
    assert first.state == LOST
    first.mark_retransmitted(epoch=0)
    assert first.retransmits == 1 and first.rexmit_epoch == 0


def test_arena_peak_reaches_the_simulator():
    sim = FakeSim()
    board = SendScoreboard(sim)
    for index in range(5):
        board.append(1 + index * 100, 100, 100, fin=False, dsn=None,
                     sent_at=0.0)
    board.advance_una(501)
    board.append(501, 100, 100, fin=False, dsn=None, sent_at=0.0)
    assert sim.arena_peak == 5


def test_rtt_sample_comes_from_last_fresh_segment():
    """Karn: the RTT sample is the transmit time of the *last* retired
    never-retransmitted range; retransmitted ranges are skipped."""
    board = SendScoreboard()
    board.append(1, 100, 100, fin=False, dsn=None, sent_at=1.0)
    second = board.append(101, 100, 100, fin=False, dsn=None,
                          sent_at=2.0)
    board.append(201, 100, 100, fin=False, dsn=None, sent_at=3.0)
    second.mark_retransmitted(epoch=0)
    _, rtt_sent_at, _, _ = board.advance_una(201)
    assert rtt_sent_at == 1.0
    _, rtt_sent_at, _, _ = board.advance_una(301)
    assert rtt_sent_at == 3.0


def test_find_lost_skips_ranges_resent_in_current_epoch():
    """A LOST range retransmitted in this recovery epoch is not offered
    again until a new epoch (the next RTO) begins."""
    board = SendScoreboard()
    for index in range(3):
        board.append(1 + index * 100, 100, 100, fin=False, dsn=None,
                     sent_at=0.0)
    assert board.mark_all_lost() == (300, 3)
    first = board.find_lost(epoch=1)
    assert first.seq == 1
    first.mark_retransmitted(epoch=1)
    assert board.find_lost(epoch=1).seq == 101
    # The resend itself is lost: a fresh RTO opens epoch 2 and the
    # range is eligible again.
    assert board.mark_all_lost() == (100, 3)
    assert board.find_lost(epoch=2).seq == 1
    # Loss inference skips it too while its resend epoch is current.
    first.mark_retransmitted(epoch=2)
    assert board.mark_losses(threshold=101, epoch=2) == (0, 0)
    assert board.mark_losses(threshold=101, epoch=3) == (1, 100)


def test_arena_len_tracks_live_region():
    board = SendScoreboard()
    assert len(board) == 0 and not board
    board.append(1, 100, 100, False, None, 0.0)
    board.append(101, 100, 100, False, None, 0.0)
    assert len(board) == 2 and board
    board.advance_una(101)
    assert len(board) == 1
    board.advance_una(150)  # mid-range ACK retires nothing
    assert len(board) == 1
    board.advance_una(201)
    assert len(board) == 0 and not board
