"""The streaming analyzer against the batch oracle.

``batch_analyze_flow`` is the record-list analyzer ``repro.trace`` used
to ship next to the streaming one.  It lives here now, as the reference
the single remaining implementation (``_FlowStream``, fed live by
``PacketCapture`` or replayed by ``analyze_flow``) is compared against:
field for field, ``rtt_samples`` included, on hypothesis-generated
packet streams and on one real MP-4 download.
"""

from hypothesis import given, settings, strategies as st

from repro.core.connection import path_name_of
from repro.experiments import runner
from repro.experiments.config import FlowSpec
from repro.experiments.runner import Measurement
from repro.netsim.packet import Packet
from repro.tcp.segment import Flags, Segment
from repro.trace.analyzer import FlowAnalysis, analyze_flow, flows_in
from repro.trace.capture import PacketCapture

from tests.conftest import capture_of, examples

KB = 1024


# ----------------------------------------------------------------------
# The batch oracle
# ----------------------------------------------------------------------

def batch_analyze_flow(records, local_addr, local_port=None):
    """tcptrace's loss / RTT definitions over a whole record list."""
    sent_starts = set()
    rexmitted_seqs = set()
    #: Unmatched first transmissions awaiting a covering ACK:
    #: seq -> (end_seq, send_time).
    pending = {}
    analysis = None
    samples_by_seq = {}

    for record in records:
        outgoing = record.direction == "send" and record.src == local_addr \
            and (local_port is None or record.src_port == local_port)
        incoming = record.direction == "recv" and record.dst == local_addr \
            and (local_port is None or record.dst_port == local_port)
        if outgoing:
            if analysis is None:
                analysis = FlowAnalysis(
                    local=(record.src, record.src_port),
                    remote=(record.dst, record.dst_port))
            if analysis.first_packet_time is None:
                analysis.first_packet_time = record.time
            analysis.last_packet_time = record.time
            if record.syn and not record.ack_flag:
                analysis.syn_time = record.time
            if record.payload_len > 0:
                analysis.data_packets_sent += 1
                if record.seq in sent_starts:
                    analysis.retransmitted_packets += 1
                    rexmitted_seqs.add(record.seq)
                    pending.pop(record.seq, None)
                    samples_by_seq.pop(record.seq, None)
                else:
                    sent_starts.add(record.seq)
                    analysis.payload_bytes += record.payload_len
                    pending[record.seq] = (record.end_seq, record.time)
        elif incoming:
            if analysis is None:
                continue
            analysis.last_packet_time = record.time
            if (record.syn and record.ack_flag
                    and analysis.syn_time is not None
                    and analysis.handshake_rtt is None):
                analysis.handshake_rtt = record.time - analysis.syn_time
            if record.ack_flag and pending:
                covered = [seq for seq, (end_seq, _) in pending.items()
                           if record.ack >= end_seq]
                for seq in covered:
                    _, send_time = pending.pop(seq)
                    samples_by_seq[seq] = record.time - send_time

    if analysis is None:
        return FlowAnalysis(local=(local_addr, local_port or 0),
                            remote=("", 0))
    # Karn's rule as tcptrace applies it: discard samples for sequence
    # ranges that were (ever) retransmitted.
    analysis.rtt_samples = [sample for seq, sample in
                            sorted(samples_by_seq.items())
                            if seq not in rexmitted_seqs]
    return analysis


def batch_sender_analyses(capture, local_prefix=""):
    """Every flow the capturing host sent data on, batch-analyzed."""
    analyses = {}
    for key, records in flows_in(capture).items():
        senders = sorted({record.src for record in records
                          if record.direction == "send"
                          and record.payload_len > 0
                          and record.src.startswith(local_prefix)})
        if senders:
            analyses[key] = batch_analyze_flow(records, senders[0])
    return analyses


def assert_matches_oracle(capture, local_prefix=""):
    """Live stream == replayed records == batch oracle, per flow."""
    expected = batch_sender_analyses(capture, local_prefix)
    streamed = capture.flow_analyses(local_prefix)
    assert list(streamed) == list(expected)
    assert streamed == expected
    flows = flows_in(capture)
    for key, analysis in expected.items():
        assert analyze_flow(flows[key], *analysis.local) == analysis
    return expected


# ----------------------------------------------------------------------
# Streamed == batch on generated packet streams
# ----------------------------------------------------------------------

HOST = "server.eth0"
PEER = "client.wifi"
PEER_PORTS = (40000, 40001)   # two subflows on one interface


@st.composite
def packet_streams(draw):
    """A time-ordered ``(time, direction, packet)`` stream as a TCP
    sender's host would see it on two flows: handshakes opened from
    either side, new data at snd_nxt (optionally closing with FIN),
    retransmissions of earlier segments, and inbound ACKs that may be
    duplicated, reordered, ahead of the data or piggybacked on data."""
    stream = []
    time = 0.0
    snd_nxt = {port: 0 for port in PEER_PORTS}
    sent = {port: [] for port in PEER_PORTS}   # (seq, payload, fin)
    for _ in range(draw(st.integers(0, 60))):
        time += draw(st.integers(0, 40)) * 1e-3
        port = draw(st.sampled_from(PEER_PORTS))
        action = draw(st.sampled_from(
            ("syn-in", "syn-out", "data", "data", "rexmit", "ack",
             "ack", "ack")))
        out = dict(src_port=80, dst_port=port)
        back = dict(src_port=port, dst_port=80)
        if action == "syn-in":
            # Passive open: the peer's SYN leads, our SYN-ACK answers.
            stream.append((time, "recv", Packet(PEER, HOST, Segment(
                flags=Flags(syn=True), **back))))
            time += 1e-3
            stream.append((time, "send", Packet(HOST, PEER, Segment(
                ack=1, flags=Flags(syn=True, ack=True), **out))))
            snd_nxt[port] = max(snd_nxt[port], 1)
        elif action == "syn-out":
            stream.append((time, "send", Packet(HOST, PEER, Segment(
                flags=Flags(syn=True), **out))))
            snd_nxt[port] = max(snd_nxt[port], 1)
            if draw(st.booleans()):
                time += draw(st.integers(1, 40)) * 1e-3
                stream.append((time, "recv", Packet(PEER, HOST, Segment(
                    ack=1, flags=Flags(syn=True, ack=True), **back))))
        elif action == "data":
            payload = draw(st.integers(1, 1448))
            fin = draw(st.integers(0, 9)) == 0
            seq = snd_nxt[port]
            sent[port].append((seq, payload, fin))
            snd_nxt[port] = seq + payload + int(fin)
            stream.append((time, "send", Packet(HOST, PEER, Segment(
                seq=seq, ack=1, payload_len=payload,
                flags=Flags(ack=True, fin=fin), **out))))
        elif action == "rexmit" and sent[port]:
            seq, payload, fin = draw(st.sampled_from(sent[port]))
            stream.append((time, "send", Packet(HOST, PEER, Segment(
                seq=seq, ack=1, payload_len=payload,
                flags=Flags(ack=True, fin=fin), **out))))
        elif action == "ack":
            # Mostly on a segment boundary (start, end of payload, end
            # of FIN), where covering vs not covering is decided.
            edges = [0, 1] + [edge for seq, payload, fin in sent[port]
                              for edge in (seq, seq + payload,
                                           seq + payload + int(fin))]
            number = draw(st.one_of(st.sampled_from(edges),
                                    st.integers(0, snd_nxt[port] + 1)))
            payload = draw(st.sampled_from((0, 0, 0, 200)))
            stream.append((time, "recv", Packet(PEER, HOST, Segment(
                seq=1, ack=number, payload_len=payload,
                flags=Flags(ack=True), **back))))
    return stream


@settings(max_examples=examples(200))
@given(packet_streams())
def test_stream_matches_batch_oracle_on_generated_streams(stream):
    assert_matches_oracle(capture_of(stream, keep_records=True))


# ----------------------------------------------------------------------
# Streamed == batch on a real download
# ----------------------------------------------------------------------

def test_streamed_metrics_match_batch_analysis(monkeypatch):
    """One MP-4 cell (two subflows per client interface): the per-path
    analyses a measurement streams are the batch oracle's, and keeping
    the records moves nothing."""
    spec = FlowSpec.mptcp(carrier="att", controller="coupled", paths=4)
    streamed = Measurement(spec, 256 * KB, seed=11).run()

    captures = []

    def keeping_records(host, **kwargs):
        captures.append(PacketCapture(host, keep_records=True, **kwargs))
        return captures[-1]

    monkeypatch.setattr(runner, "PacketCapture", keeping_records)
    recorded = Measurement(spec, 256 * KB, seed=11).run()
    assert streamed.completed and recorded.completed
    assert streamed.download_time == recorded.download_time
    assert streamed.metrics == recorded.metrics

    server_capture, _ = captures
    per_flow = assert_matches_oracle(server_capture, "server.")
    assert len(per_flow) == 4
    by_path = {}
    for (first, second), analysis in per_flow.items():
        client = first if first[0].startswith("client.") else second
        by_path.setdefault(path_name_of(client[0]), []).append(analysis)
    assert by_path.keys() == streamed.metrics.per_path.keys()
    for path, flows in by_path.items():
        merged = streamed.metrics.per_path[path]
        assert len(flows) == 2
        assert merged.data_packets_sent == \
            sum(flow.data_packets_sent for flow in flows)
        assert merged.retransmitted_packets == \
            sum(flow.retransmitted_packets for flow in flows)
        assert merged.payload_bytes == \
            sum(flow.payload_bytes for flow in flows)
        assert merged.rtt_samples == \
            [sample for flow in flows for sample in flow.rtt_samples]
