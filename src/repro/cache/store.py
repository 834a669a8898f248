"""The cross-campaign run cache: a content-addressed result store.

The paper's measurement matrix is re-run from scratch by every
figure/table campaign even though many cells are bit-identical across
campaigns — ``fig2``, ``fig3`` and ``tab2`` all execute the *same*
"baseline" campaign, and every run is a pure function of its
:class:`~repro.experiments.runner.RunDescriptor` (the determinism
guarantee the parallel executor is built on).  :class:`RunCache`
exploits that purity: completed runs are stored on disk keyed by
``(FlowSpec.identity, size, seed, period, FORMAT_VERSION)``, shared
across campaigns and invocations, so ``repro all`` computes each
unique cell exactly once and later campaigns warm-start.

Layout (all under one cache directory)::

    meta.json           {"schema": 2, "format_version": N}
    index.jsonl         one entry digest per line (O(1) membership)
    objects/ab/<sha256>.json   the stored result, content-addressed

An object is ``{"key", "format_version", "result"}`` where ``result``
is :func:`~repro.experiments.storage.result_to_dict` at full fidelity
with every float sample list (``metrics.ofo_delays`` and each
``per_path[*].rtt_samples``) *packed*: base64 of the little-endian
IEEE-754 doubles.  Packing is bit-exact (a float round-trips by its
bits, not its ``repr``) and leaves a warm hit one file read plus a
JSON decode that no longer parses float text.  Schema 2 introduced
the packing; a store of any other schema is wiped on open.

Design points:

* **Content addressing.**  The entry name is the SHA-256 of the cell's
  :func:`~repro.experiments.runner.descriptor_key` *plus* the storage
  ``FORMAT_VERSION``, sharded over 256 two-hex-digit subdirectories.
  Because the version is part of the address, a format bump can never
  serve a stale row even if the metadata stamp were tampered with.
* **Atomic writes.**  Objects are written to a temp file and
  ``os.replace``d into place — the same discipline as
  :func:`repro.experiments.storage.save_results` — so readers (and
  concurrent campaigns) never observe a torn entry.
* **O(1) membership.**  ``index.jsonl`` is an append-only digest list
  loaded into a set at open.  Losing an index line (crash between the
  object replace and the index append) is safe: the entry merely reads
  as a miss and is re-put idempotently.
* **Explicit invalidation.**  ``meta.json`` stamps the format version;
  opening a cache written under a different version wipes it (objects
  and index) before any lookup, so a bump is a *full* miss.
* **Corruption tolerance.**  A truncated or corrupted object is
  skipped with a :class:`RuntimeWarning` and recomputed — mirroring
  ``load_results``' truncated-line handling — never a crash.

Results are stored at full fidelity (``max_samples=None``): a cache
hit must hand back *exactly* what a fresh run would compute, or the
serial-equals-cached determinism guarantee breaks.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
import warnings
from array import array
from pathlib import Path
from typing import List, Optional, Union

from repro.experiments import storage as _storage
from repro.experiments.runner import RunResult, descriptor_key
from repro.experiments.storage import result_from_dict, result_to_dict

#: Bump when the on-disk cache layout itself changes shape.
CACHE_SCHEMA = 2

_BIG_ENDIAN = sys.byteorder == "big"


def cache_digest(key: str, format_version: int) -> str:
    """Content address of one cell: descriptor key + format version."""
    return hashlib.sha256(
        f"{key}|v{format_version}".encode("utf-8")).hexdigest()


def _pack(samples: List[float]) -> str:
    """Base64 of ``samples`` as little-endian IEEE-754 doubles."""
    packed = array("d", samples)
    if _BIG_ENDIAN:
        packed.byteswap()
    return binascii.b2a_base64(packed.tobytes(), newline=False).decode(
        "ascii")


def _unpack(text: str) -> List[float]:
    """Inverse of :func:`_pack`; ``ValueError`` on a mangled field.

    Only canonical base64 (what :func:`_pack` writes) is accepted:
    the lenient C decoder skips stray characters, so the text must
    re-encode to itself.
    """
    raw = binascii.a2b_base64(text)
    if binascii.b2a_base64(raw, newline=False).decode("ascii") != text:
        raise ValueError("packed sample list is not canonical base64")
    if len(raw) % 8:
        raise ValueError("packed sample list is not whole doubles")
    packed = array("d")
    packed.frombytes(raw)
    if _BIG_ENDIAN:
        packed.byteswap()
    return packed.tolist()


def _map_samples(data: dict, codec) -> dict:
    """Apply ``codec`` in place to every sample list of a result dict."""
    metrics = data["metrics"]
    metrics["ofo_delays"] = codec(metrics["ofo_delays"])
    for analysis in metrics["per_path"].values():
        analysis["rtt_samples"] = codec(analysis["rtt_samples"])
    return data


class RunCache:
    """Sharded, content-addressed on-disk store of completed runs.

    ``format_version`` defaults to the *current*
    :data:`repro.experiments.storage.FORMAT_VERSION`; passing an
    explicit value exists for tests that exercise invalidation.
    """

    def __init__(self, root: Union[str, Path],
                 format_version: Optional[int] = None) -> None:
        self.root = Path(root)
        self.format_version = (_storage.FORMAT_VERSION
                               if format_version is None
                               else format_version)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.invalidated = False
        self.root.mkdir(parents=True, exist_ok=True)
        self._objects = self.root / "objects"
        self._objects_dir = str(self._objects)
        self._index_path = self.root / "index.jsonl"
        self._check_version()
        self._index = self._load_index()
        # Open eagerly, like the journal: an unwritable cache directory
        # must fail before simulation work is spent on it.
        self._index_handle = open(self._index_path, "a")

    # ------------------------------------------------------------------
    # Open-time bookkeeping
    # ------------------------------------------------------------------

    def _check_version(self) -> None:
        """Wipe the store if it was written under another version."""
        meta_path = self.root / "meta.json"
        meta = None
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, json.JSONDecodeError):
                meta = None  # unreadable stamp: treat as stale
        if meta is not None and meta.get("schema") == CACHE_SCHEMA \
                and meta.get("format_version") == self.format_version:
            return
        if meta is not None or self._index_path.exists() \
                or self._objects.exists():
            # Stale entries could never be *served* (the version is in
            # the digest), but leaving them would grow the store
            # without bound across bumps — so invalidation is explicit.
            shutil.rmtree(self._objects, ignore_errors=True)
            try:
                os.unlink(self._index_path)
            except OSError:
                pass
            self.invalidated = meta is not None
        self._write_json(meta_path, {"schema": CACHE_SCHEMA,
                                     "format_version": self.format_version})

    def _load_index(self) -> set:
        index = set()
        try:
            with open(self._index_path, "r") as handle:
                for line in handle:
                    digest = line.strip()
                    if len(digest) == 64:
                        index.add(digest)
                    # else: a torn trailing line from a killed writer;
                    # the object reads as a miss and is re-put.
        except OSError:
            pass
        return index

    def _write_json(self, path: Path, payload: dict) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                        prefix=f".{path.name}.",
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, separators=(",", ":"))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def _object_path(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}.json"

    def key_of(self, result: RunResult) -> str:
        return descriptor_key(result.spec, result.size,
                              result.seed, result.period)

    def get(self, key: str) -> Optional[RunResult]:
        """The stored result for one descriptor key, or ``None``.

        Never raises on a bad entry: corruption demotes the entry to a
        miss (with a warning) and the campaign recomputes the cell.
        """
        digest = cache_digest(key, self.format_version)
        if digest not in self._index:
            self.misses += 1
            return None
        path = os.path.join(self._objects_dir, digest[:2],
                            digest + ".json")
        try:
            with open(path, "rb") as handle:
                wrapper = json.loads(handle.read())
            if wrapper.get("key") != key or \
                    wrapper.get("format_version") != self.format_version:
                raise ValueError("entry does not match its address")
            result = result_from_dict(
                _map_samples(wrapper["result"], _unpack))
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            warnings.warn(f"run cache {self.root}: skipping corrupt "
                          f"entry {digest[:12]} (will recompute)",
                          RuntimeWarning)
            self._index.discard(digest)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, result: RunResult) -> bool:
        """Store one completed run (idempotent per key).

        The object lands atomically *before* its index line, so a
        crash between the two leaves a re-puttable miss, never a
        dangling index entry pointing at nothing durable.
        """
        key = self.key_of(result)
        digest = cache_digest(key, self.format_version)
        if digest in self._index:
            return False
        if self._index_handle is None:
            raise ValueError(f"run cache {self.root} is closed")
        path = self._object_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._write_json(path, {
            "key": key,
            "format_version": self.format_version,
            "result": _map_samples(
                result_to_dict(result, max_samples=None), _pack),
        })
        self._index_handle.write(digest + "\n")
        self._index_handle.flush()
        self._index.add(digest)
        self.puts += 1
        return True

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def gc(self, dry_run: bool = False,
           older_than_s: Optional[float] = None) -> dict:
        """Prune orphaned temp files, unreferenced objects and stale
        entries; heal the index.

        Three classes of garbage accumulate in a long-lived store:

        * ``.*.tmp`` files — a worker SIGKILLed between ``mkstemp``
          and ``os.replace`` leaves its temp file behind forever.
        * unreferenced objects — an object whose digest never made it
          into ``index.jsonl`` (killed between the object replace and
          the index append); it reads as a miss, so it is dead weight.
        * stale entries (only with ``older_than_s``) — entries whose
          object file was last written more than that many seconds
          ago, pruned *from the index too*.

        Index lines pointing at missing object files are dropped by
        rewriting the index atomically.  ``dry_run`` reports without
        touching anything.  Returns a stats dict.
        """
        stats = {"tmp_files": 0, "unreferenced_objects": 0,
                 "stale_entries": 0, "dangling_index_lines": 0,
                 "bytes_reclaimed": 0, "entries_kept": 0,
                 "dry_run": dry_run}
        now = time.time()
        keep = set(self._index)
        doomed: List[Path] = []
        roots = [self.root, self._objects]
        if self._objects.exists():
            roots.extend(path for path in sorted(self._objects.iterdir())
                         if path.is_dir())
        for directory in roots:
            try:
                children = sorted(directory.iterdir())
            except OSError:
                continue
            for path in children:
                if not path.is_file():
                    continue
                name = path.name
                if name.startswith(".") and name.endswith(".tmp"):
                    stats["tmp_files"] += 1
                    doomed.append(path)
                elif directory.parent == self._objects \
                        and name.endswith(".json"):
                    digest = name[:-5]
                    if digest not in self._index:
                        stats["unreferenced_objects"] += 1
                        doomed.append(path)
                    elif older_than_s is not None:
                        try:
                            mtime = path.stat().st_mtime
                        except OSError:
                            continue
                        if now - mtime > older_than_s:
                            stats["stale_entries"] += 1
                            keep.discard(digest)
                            doomed.append(path)
        dangling = {digest for digest in keep
                    if not self._object_path(digest).exists()}
        stats["dangling_index_lines"] = len(dangling)
        keep -= dangling
        for path in doomed:
            try:
                stats["bytes_reclaimed"] += path.stat().st_size
            except OSError:
                pass
        stats["entries_kept"] = len(keep)
        if dry_run:
            return stats
        for path in doomed:
            try:
                path.unlink()
            except OSError:
                pass
        if keep != self._index or stats["dangling_index_lines"]:
            # Rewrite the index atomically, then re-open the append
            # handle on the new file so later puts land after it.
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=".index.jsonl.", suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                for digest in sorted(keep):
                    handle.write(digest + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self._index_path)
            if self._index_handle is not None:
                self._index_handle.close()
                self._index_handle = open(self._index_path, "a")
            self._index = set(keep)
        return stats

    # ------------------------------------------------------------------
    # Stats / lifecycle
    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def stats(self) -> dict:
        return {"entries": len(self._index), "hits": self.hits,
                "misses": self.misses, "puts": self.puts,
                "hit_rate": round(self.hit_rate, 4)}

    def close(self) -> None:
        if self._index_handle is not None:
            self._index_handle.close()
            self._index_handle = None

    def __enter__(self) -> "RunCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
