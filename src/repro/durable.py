"""Crash-safe record framing: CRC-32 + length headers for disk state.

Atomic rename already protects the cache/checkpoint files against a
kill *between* write and rename — but not against torn writes (power
loss mid-``write``, a filesystem that reorders the data and the
rename), bit rot, or a concurrent writer scribbling over the file.
Before this module, a torn ``<fingerprint>.json`` either failed JSON
parsing (silent cache miss) or — worse — parsed as a *valid prefix*
payload and served a wrong answer.

Every durable artifact therefore carries an integrity frame:

whole files (cache results, checkpoints)
    a one-line ASCII header ``#repro-crc32 v1 <length> <crc32>\\n``
    followed by the payload bytes.  :func:`read_framed` verifies both
    the length and the CRC before anything parses the payload.

JSONL records (result logs)
    each line becomes ``<payload> #crc32:<hex8>\\n`` — the checksum
    trails the record so a torn append is missing (or corrupts) its
    own suffix and the line fails verification instead of loading as
    a shorter-but-valid JSON document.  :class:`ResultLog` is the
    fsynced append-only log built on it, shared by the benchmark
    runner and ``hqs-serve``.

Both framings are backward compatible: files/lines without the marker
are treated as *legacy* (pre-framing) content so existing cache
directories and logs keep working; they are re-framed the next time
they are written.

Corrupt files are **quarantined**, not deleted and not silently
skipped: :func:`quarantine` renames ``f`` to ``f.corrupt`` (keeping
the evidence for a post-mortem) and the caller counts it in its stats.

Fault injection: the write paths consult :mod:`repro.faults` through
the ``fault_site`` argument, so a chaos plan can tear or fail exactly
the Nth write of a given artifact kind.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, Optional, Tuple

from . import faults

#: Whole-file frame header marker (version bumps on layout changes).
FILE_MAGIC = b"#repro-crc32 v1 "

#: JSONL trailing-checksum marker.
LINE_MARKER = " #crc32:"

#: Suffix a corrupt file is renamed to by :func:`quarantine`.
QUARANTINE_SUFFIX = ".corrupt"


class CorruptRecordError(ValueError):
    """A framed file/line failed its length or CRC check."""


def _crc(data: bytes) -> str:
    return format(zlib.crc32(data) & 0xFFFFFFFF, "08x")


# ----------------------------------------------------------------------
# whole-file framing
# ----------------------------------------------------------------------

def frame_file(payload: bytes) -> bytes:
    """Prepend the length+CRC header line to ``payload``."""
    header = FILE_MAGIC + f"{len(payload)} {_crc(payload)}\n".encode("ascii")
    return header + payload


def unframe_file(blob: bytes) -> bytes:
    """Verify and strip a whole-file frame.

    Legacy (unframed) blobs are returned as-is; framed blobs whose
    length or CRC disagree raise :class:`CorruptRecordError`.
    """
    if not blob.startswith(FILE_MAGIC):
        return blob  # legacy pre-framing file
    newline = blob.find(b"\n", len(FILE_MAGIC))
    if newline < 0:
        raise CorruptRecordError("framed file is truncated inside its header")
    header = blob[len(FILE_MAGIC):newline]
    payload = blob[newline + 1:]
    try:
        length_text, crc_text = header.decode("ascii").split()
        length = int(length_text)
    except (UnicodeDecodeError, ValueError) as exc:
        raise CorruptRecordError(f"unparsable frame header {header!r}") from exc
    if len(payload) != length:
        raise CorruptRecordError(
            f"torn write: frame promises {length} payload bytes, "
            f"file has {len(payload)}"
        )
    if _crc(payload) != crc_text:
        raise CorruptRecordError(
            f"checksum mismatch: header {crc_text}, payload {_crc(payload)}"
        )
    return payload


def write_framed(
    path: str,
    payload: bytes,
    fsync: bool = True,
    fault_site: Optional[str] = None,
) -> None:
    """Atomically write ``payload`` under a CRC frame.

    ``fault_site`` names the :mod:`repro.faults` injection site of this
    write; a scheduled ``ioerror`` raises :class:`OSError`, a ``torn``
    fault leaves the *destination* file holding a prefix of the framed
    record (the worst case the frame exists to catch) while reporting
    success to the caller.
    """
    fault = faults.fire(fault_site) if fault_site else None
    framed = frame_file(payload)
    if fault is not None and fault.kind == "ioerror":
        raise OSError(f"injected ioerror at {fault_site} ({fault.spec()})")
    if fault is not None and fault.kind == "torn":
        keep = max(1, int(len(framed) * fault.args.get("keep", 0.5)))
        with open(path, "wb") as handle:
            handle.write(framed[:keep])
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(framed)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def read_framed(path: str) -> bytes:
    """Read and verify a framed file (legacy unframed files pass through).

    Raises :class:`OSError` if unreadable, :class:`CorruptRecordError`
    if the frame check fails.
    """
    with open(path, "rb") as handle:
        return unframe_file(handle.read())


# ----------------------------------------------------------------------
# JSONL line framing
# ----------------------------------------------------------------------

def frame_line(payload: str) -> str:
    """One log line with its trailing checksum (newline included)."""
    if "\n" in payload:
        raise ValueError("log records must be single-line")
    return payload + LINE_MARKER + _crc(payload.encode("utf-8")) + "\n"


def unframe_line(line: str) -> Tuple[str, str]:
    """Split one log line into ``(payload, verdict)``.

    ``verdict`` is ``"ok"`` (checksum verified), ``"legacy"`` (no
    checksum marker — a pre-framing record, accepted), or
    ``"corrupt"`` (marker present but the checksum disagrees, or the
    marker itself was torn off mid-write).
    """
    line = line.rstrip("\n")
    at = line.rfind(LINE_MARKER)
    if at < 0:
        return line, "legacy"
    payload, suffix = line[:at], line[at + len(LINE_MARKER):]
    if len(suffix) != 8 or _crc(payload.encode("utf-8")) != suffix:
        return payload, "corrupt"
    return payload, "ok"


# ----------------------------------------------------------------------
# JSONL result log
# ----------------------------------------------------------------------

class ResultLog:
    """Append-only JSONL store of run records, keyed by (instance, solver).

    Designed for crash-resume: records are flushed line-by-line as they
    complete, each line carries a trailing CRC-32 (see
    :func:`frame_line`) so a torn append is *detected* rather than
    loaded as a shorter-but-valid record, and re-running with
    ``resume=True`` skips pairs that already have a verified record.
    Legacy lines without a checksum still load.  :meth:`load` counts
    what it had to discard in :attr:`corrupt_lines` — zero on a healthy
    log — so lost records are observable instead of silently re-run.

    Torn tails are *isolated*: a record is only appended after the
    writer makes sure the file currently ends in a newline (checking
    the tail byte when it opens an existing file, tracking its own
    writes afterwards).  A torn append therefore corrupts exactly one
    record — its own — instead of gluing itself to the next good one.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = None
        self._tail_dirty = False
        #: Lines discarded by the last :meth:`load` (checksum mismatch,
        #: torn tail, unparsable JSON, missing key fields).
        self.corrupt_lines = 0

    def load(self) -> Dict[Tuple[str, str], Dict[str, object]]:
        done: Dict[Tuple[str, str], Dict[str, object]] = {}
        self.corrupt_lines = 0
        if not os.path.exists(self.path):
            return done
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                payload, verdict = unframe_line(line)
                if verdict == "corrupt":
                    self.corrupt_lines += 1
                    continue  # detected torn/corrupt record: re-run the pair
                try:
                    entry = json.loads(payload)
                    key = (str(entry["instance"]), str(entry["solver"]))
                    entry["status"]  # noqa: B018 - validate required field
                except (ValueError, KeyError, TypeError):
                    self.corrupt_lines += 1
                    continue  # truncated/corrupt legacy line: re-run that pair
                done[key] = entry
        return done

    def append(self, entry: Dict[str, object]) -> None:
        """Durably append one checksummed record: write, flush *and* fsync.

        ``--resume`` treats the log as the ground truth of which pairs
        already ran; a record that was reported but lost to the page
        cache in a hard kill would be silently re-run (and a reader of
        the live log could act on a result that then vanishes).  The
        fsync makes append-then-crash leave exactly the acknowledged
        records behind, never a replayed or half-written one — and the
        per-line CRC makes the half-written case detectable when the
        crash wins anyway.  The write is a :mod:`repro.faults` site
        (``log.append``): a ``torn`` fault flushes only a prefix of the
        line, an ``ioerror`` fault raises :class:`OSError`.
        """
        if self._handle is None:
            self._open()
        line = frame_line(json.dumps(entry, sort_keys=True))
        fault = faults.fire("log.append")
        if fault is not None and fault.kind == "ioerror":
            raise OSError(f"injected ioerror at log.append ({fault.spec()})")
        if fault is not None and fault.kind == "torn":
            line = line[: max(1, int(len(line) * fault.args.get("keep", 0.5)))]
        if self._tail_dirty:
            # Fence off the torn tail so this record starts its own line.
            self._handle.write("\n")
        self._handle.write(line)
        self._tail_dirty = not line.endswith("\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _open(self) -> None:
        """Open for append, noting whether the existing tail is torn."""
        self._tail_dirty = False
        try:
            with open(self.path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                self._tail_dirty = probe.read(1) != b"\n"
        except (OSError, ValueError):  # missing or empty file
            pass
        # Every line written through this handle is CRC-framed and
        # fsynced by append().
        self._handle = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# quarantine
# ----------------------------------------------------------------------

def quarantine(path: str) -> Optional[str]:
    """Move a corrupt file out of the way (``path`` -> ``path.corrupt``).

    Keeps the bytes for diagnosis instead of deleting them, and keeps
    the hot path clean instead of re-tripping on the same file.  An
    existing quarantine of the same name is overwritten (the newest
    corruption wins).  Returns the quarantine path, or ``None`` if the
    rename itself failed (the caller then just skips the file).
    """
    target = path + QUARANTINE_SUFFIX
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target
