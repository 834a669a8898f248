"""Tests for MPTCP option value objects."""

import pytest

from repro.core.options import DssMapping, MptcpOptions


def test_dss_mapping_translation():
    mapping = DssMapping(dsn=1000, ssn=1, length=500)
    assert mapping.dsn_for(1) == 1000
    assert mapping.dsn_for(251) == 1250
    assert mapping.dsn_for(501) == 1500  # end boundary allowed


def test_dss_mapping_rejects_out_of_range():
    mapping = DssMapping(dsn=1000, ssn=100, length=50)
    with pytest.raises(ValueError):
        mapping.dsn_for(99)
    with pytest.raises(ValueError):
        mapping.dsn_for(151)


def test_dss_mapping_ends():
    mapping = DssMapping(dsn=10, ssn=20, length=5)
    assert mapping.dsn_end == 15
    assert mapping.ssn_end == 25


def test_options_are_immutable():
    options = MptcpOptions(mp_capable=True, token=7)
    with pytest.raises(AttributeError):
        options.token = 8


def test_options_repr_mentions_contents():
    options = MptcpOptions(mp_join=True, token=3,
                           dss=DssMapping(0, 1, 10), data_ack=5)
    text = repr(options)
    assert "MP_JOIN" in text
    assert "DSS" in text
    assert "DATA_ACK=5" in text
    assert "MP_CAPABLE" not in text


def test_dss_mapping_one_past_end_is_the_range_end():
    """Receivers translate half-open [start, end) delivered runs; the
    ``end`` of a run covering the whole mapping is exactly one past the
    last mapped byte and must still translate (to ``dsn_end``)."""
    mapping = DssMapping(dsn=1000, ssn=1, length=500)
    assert mapping.dsn_for(mapping.ssn_end) == mapping.dsn_end
    with pytest.raises(ValueError):
        mapping.dsn_for(mapping.ssn_end + 1)


def test_mp_fail_wire_length():
    # MP_FAIL is 12 bytes on the wire (RFC 6824 Section 3.6).
    assert MptcpOptions(mp_fail=True).wire_length() == 12
    assert MptcpOptions(mp_fail=True, data_ack=5).wire_length() == 20


def test_options_are_equal_by_value_and_hashable():
    a = MptcpOptions(dss=DssMapping(10, 20, 5), data_ack=7,
                     dead_addrs=("client.wifi",))
    b = MptcpOptions(data_ack=7, dead_addrs=("client.wifi",),
                     dss=DssMapping(dsn=10, ssn=20, length=5))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != a._replace(data_ack=8)
    assert a._replace(dss=None).wire_length() == 8 + 12
    assert MptcpOptions() == MptcpOptions(
        False, False, False, None, (), (), None, None, None, False)


def test_dss_mapping_is_an_immutable_value():
    mapping = DssMapping(10, 20, 5)
    assert mapping == DssMapping(dsn=10, ssn=20, length=5)
    assert hash(mapping) == hash(DssMapping(10, 20, 5))
    with pytest.raises(AttributeError):
        mapping.ssn = 21
    assert mapping._replace(ssn=21) == DssMapping(10, 21, 5)
