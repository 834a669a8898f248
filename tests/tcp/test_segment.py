"""Tests for segment value objects."""

from repro.core.options import DssMapping, MptcpOptions
from repro.tcp.segment import Flags, Segment


def test_payload_consumes_sequence_space():
    segment = Segment(src_port=1, dst_port=2, seq=100, payload_len=500)
    assert segment.seq_space == 500
    assert segment.end_seq == 600


def test_syn_and_fin_consume_one_each():
    syn = Segment(src_port=1, dst_port=2, seq=0, flags=Flags(syn=True))
    assert syn.seq_space == 1
    assert syn.end_seq == 1
    fin = Segment(src_port=1, dst_port=2, seq=10, flags=Flags(fin=True))
    assert fin.seq_space == 1
    data_fin = Segment(src_port=1, dst_port=2, seq=10, payload_len=100,
                       flags=Flags(fin=True, ack=True))
    assert data_fin.seq_space == 101


def test_pure_ack_detection():
    pure = Segment(src_port=1, dst_port=2, flags=Flags(ack=True))
    assert pure.is_pure_ack
    with_data = Segment(src_port=1, dst_port=2, flags=Flags(ack=True),
                        payload_len=1)
    assert not with_data.is_pure_ack
    synack = Segment(src_port=1, dst_port=2,
                     flags=Flags(syn=True, ack=True))
    assert not synack.is_pure_ack
    fin = Segment(src_port=1, dst_port=2, flags=Flags(fin=True, ack=True))
    assert not fin.is_pure_ack


def test_flags_render_readably():
    assert str(Flags(syn=True, ack=True)) == "syn|ack"
    assert str(Flags()) == "none"


def test_segments_are_immutable_values():
    segment = Segment(src_port=1, dst_port=2)
    try:
        segment.seq = 5
        raised = False
    except AttributeError:
        raised = True
    assert raised


def test_segments_are_equal_by_value_and_hashable():
    options = MptcpOptions(dss=DssMapping(dsn=7, ssn=1, length=10),
                           data_ack=3)
    by_position = Segment(1, 2, 5, 9, Flags(ack=True), 10, 4096, (),
                          options)
    by_keyword = Segment(src_port=1, dst_port=2, seq=5, ack=9,
                         flags=Flags(ack=True), payload_len=10,
                         window=4096, options=MptcpOptions(
                             dss=DssMapping(7, 1, 10), data_ack=3))
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert len({by_position, by_keyword}) == 1
    moved = by_position._replace(seq=6)
    assert moved != by_position
    assert (moved.seq, moved.payload_len, moved.options) == (6, 10, options)


def test_segment_defaults():
    assert Segment(1, 2) == Segment(1, 2, 0, 0, Flags(), 0, 65535, (), None)


def test_header_length_table():
    """Base 20, SACK 2 + 8 per block, MPTCP options by their own
    ``wire_length``, the sum rounded up to a 4-byte boundary."""
    one, three = ((100, 200),), ((1, 2), (3, 4), (5, 6))
    data_ack = MptcpOptions(data_ack=5)
    mapped = MptcpOptions(dss=DssMapping(0, 1, 10), data_ack=5)
    capable = MptcpOptions(mp_capable=True, token=1, add_addr=("a",))
    for sack_blocks, options, expected in (
            ((), None, 20),
            (one, None, 32),          # 30, padded
            (three, None, 48),        # 46, padded
            ((), data_ack, 28),
            ((), mapped, 40),
            ((), capable, 40),
            (one, data_ack, 40),      # 38, padded
            (three, mapped, 68)):     # 66, padded
        segment = Segment(1, 2, sack_blocks=sack_blocks, options=options)
        assert segment.header_length == expected
