"""Wire protocol for campaign execution.

The coordinator/worker executor (:mod:`repro.experiments.distributed`)
spans processes *and machines*, so everything on the wire is plain
JSON: a 4-byte big-endian length prefix followed by one UTF-8 JSON
object.  No pickling — a worker built from a different checkout must
fail the version handshake, never deserialize garbage.

Two codecs live here next to the framing:

* :func:`descriptor_to_dict` / :func:`descriptor_from_dict` — a
  :class:`~repro.experiments.runner.RunDescriptor` as JSON; every
  field of a descriptor is plain data.
* :func:`result_wrapper` / :func:`result_from_wrapper` — a completed
  :class:`~repro.experiments.runner.RunResult` as
  ``{key, format_version, result}``, the same envelope the run cache
  stores, with ``result`` the full-fidelity
  :func:`~repro.experiments.storage.result_to_dict`.  The two byte
  formats differ in the sample lists: the wire carries them as plain
  JSON floats, while a cache object packs them as base64 doubles
  (:mod:`repro.cache.store`).  Both round-trip every float exactly.

The handshake pins both :data:`PROTOCOL_VERSION` (message shapes) and
the storage ``FORMAT_VERSION`` (result/cache semantics): a worker and
coordinator disagreeing on either could violate the byte-identity
guarantee, so they refuse to pair instead.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Optional, Tuple

from repro.experiments import storage as _storage
from repro.experiments.config import FlowSpec
from repro.experiments.runner import RunDescriptor, RunResult
from repro.experiments.storage import result_from_dict, result_to_dict
from repro.wireless.profiles import TimeOfDay

#: Bump when message shapes change; mismatched peers refuse to pair.
PROTOCOL_VERSION = 1

#: Framing: one message is HEADER(length) + length bytes of JSON.
_HEADER = struct.Struct("!I")

#: A defensive ceiling, far above any real chunk of results (a full
#: fidelity 16 MB-transfer result is a few MB of JSON): a corrupt or
#: hostile length prefix must not trigger a giant allocation.
MAX_MESSAGE_BYTES = 512 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A malformed frame, bad handshake, or mid-message disconnect."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def send_message(sock, payload: dict) -> None:
    """Send one length-prefixed JSON message (a single ``sendall``)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exact(sock, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or ``None`` on a clean EOF at a
    message boundary (``count`` unread bytes in)."""
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(min(count - got, 1 << 20))
        if not chunk:
            if got:
                raise ProtocolError("connection closed mid-message")
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_message(sock) -> Optional[dict]:
    """Receive one message; ``None`` on clean EOF between messages."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the "
                            f"{MAX_MESSAGE_BYTES}-byte ceiling")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-message")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as error:   # RecursionError: nesting too deep
        raise ProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(f"expected a JSON object, got "
                            f"{type(payload).__name__}")
    return payload


def parse_address(text: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; bare ``":port"`` binds all
    interfaces, a missing port or one outside 0–65535 is an error."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"expected HOST:PORT with a port in 0-65535, "
                         f"got {text!r}")
    return (host or "0.0.0.0", int(port))


# ----------------------------------------------------------------------
# Descriptor codec
# ----------------------------------------------------------------------

def descriptor_to_dict(descriptor: RunDescriptor) -> dict:
    """One campaign cell as JSON-safe plain data."""
    return {
        "index": descriptor.index,
        "spec": dataclasses.asdict(descriptor.spec),
        "size": descriptor.size,
        "seed": descriptor.seed,
        "period": descriptor.period.value,
        "timeout": descriptor.timeout,
        "trace": descriptor.trace,
        "trace_dir": descriptor.trace_dir,
        "metrics": descriptor.metrics,
    }


def descriptor_from_dict(data: dict) -> RunDescriptor:
    """Rebuild a descriptor on the worker side of the wire."""
    return RunDescriptor(
        index=data["index"],
        spec=FlowSpec(**data["spec"]),
        size=data["size"],
        seed=data["seed"],
        period=TimeOfDay(data["period"]),
        timeout=data.get("timeout"),
        trace=data.get("trace", "off"),
        trace_dir=data.get("trace_dir"),
        metrics=data.get("metrics", "off"),
    )


# ----------------------------------------------------------------------
# Result codec (the cache's envelope, unpacked sample lists)
# ----------------------------------------------------------------------

def result_wrapper(key: str, result: RunResult) -> dict:
    """A completed run as a wire object: the run cache's envelope, with
    sample lists as plain JSON floats (the cache packs them)."""
    return {
        "key": key,
        "format_version": _storage.FORMAT_VERSION,
        "result": result_to_dict(result, max_samples=None),
    }


def result_from_wrapper(wrapper: dict) -> RunResult:
    """Decode a published object; full fidelity, byte-exact rows."""
    if wrapper.get("format_version") != _storage.FORMAT_VERSION:
        raise ProtocolError(
            f"result published under format version "
            f"{wrapper.get('format_version')!r}, expected "
            f"{_storage.FORMAT_VERSION}")
    return result_from_dict(wrapper["result"])
