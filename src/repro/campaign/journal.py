"""Chunk-granular JSONL checkpoint journal.

One campaign run appends JSON records, one per line, to a journal
file::

    {"record": "campaign", "version": 1, "fingerprint": ..., ...}
    {"record": "planned", "chunk": 0, "affinity": ..., "indices": [...]}
    ...
    {"record": "leased", "chunk": 3, "attempt": 1}
    {"record": "completed", "chunk": 3, "digest": ..., "payload": ...,
     "seconds": ...}
    {"record": "failed", "chunk": 5, "attempt": 1, "error": "..."}
    {"record": "resumed", "completed": [0, 3]}

``payload`` is the base64-encoded pickle of the chunk's row list --
the exact objects the merge step needs -- and ``digest`` its SHA-256,
so a resume replays completed chunks to the byte-identical final
artifact without re-executing them.  ``leased`` lines mark chunks
handed to a worker; a chunk leased but never completed is simply
re-run on resume.

The file is append-only and flushed per record.  A process killed
mid-write can leave one truncated trailing line; the loader tolerates
(and the next append overwrites nothing -- the partial line is ignored
and superseded by the re-executed chunk's record).  Everything before
the truncation point is intact, which is all resume needs.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.planner import Chunk
from repro.errors import ConfigurationError

__all__ = ["CampaignJournal", "load_journal"]

#: Journal format version (independent of the plan fingerprint version).
JOURNAL_VERSION = 1


def payload_digest(payload: bytes) -> str:
    """SHA-256 hex digest of a pickled chunk payload."""
    return hashlib.sha256(payload).hexdigest()


def _field(record, name: str, kind: type, where: str):
    """``record[name]``, which must be a ``kind`` (``bool`` is not an
    ``int`` here), else a :class:`ConfigurationError` naming the field."""
    value = record.get(name)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigurationError(
            f"{where}: field {name!r} must be {kind.__name__}, got {value!r}"
        )
    return value


def load_journal(
    path: str,
) -> Tuple[Optional[Dict[str, object]], Dict[int, Tuple[str, bytes]]]:
    """Parse a journal file.

    Returns ``(header, completed)`` where ``completed`` maps chunk id
    to ``(digest, payload_bytes)`` of its latest ``completed`` record.
    A missing or empty file yields ``(None, {})``.  A truncated final
    line (killed process) is ignored.  Corruption anywhere else -- a
    line that is not a JSON object, a ``completed`` record with a
    missing or mistyped field, a header of another format version --
    raises a :class:`~repro.errors.ConfigurationError` naming the field
    and the line.  Two ``completed`` records for one chunk with
    different digests raise -- that would mean a nondeterministic
    evaluator, which voids every guarantee resume relies on.
    """
    if not os.path.exists(path):
        return None, {}
    header: Optional[Dict[str, object]] = None
    completed: Dict[int, Tuple[str, bytes]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if lineno >= len(lines) - 2:  # truncated tail from a kill
                continue
            raise ConfigurationError(
                f"corrupt campaign journal {path!r} at line {lineno + 1}"
            )
        where = f"campaign journal {path!r} line {lineno + 1}"
        if not isinstance(record, dict):
            raise ConfigurationError(f"{where}: record is not a JSON object")
        kind = record.get("record")
        if kind == "campaign":
            if header is None:
                if record.get("version") != JOURNAL_VERSION:
                    raise ConfigurationError(
                        f"{where}: field 'version' is "
                        f"{record.get('version')!r}, this reader supports "
                        f"journal version {JOURNAL_VERSION}"
                    )
                header = record
            elif record.get("fingerprint") != header.get("fingerprint"):
                raise ConfigurationError(
                    f"campaign journal {path!r} mixes two different "
                    f"campaigns (fingerprint changed at line {lineno + 1})"
                )
        elif kind == "completed":
            chunk_id = _field(record, "chunk", int, where)
            digest = _field(record, "digest", str, where)
            try:
                payload = base64.b64decode(
                    _field(record, "payload", str, where), validate=True
                )
            except binascii.Error as error:
                raise ConfigurationError(
                    f"{where}: field 'payload' is not base64 ({error})"
                ) from None
            if payload_digest(payload) != digest:
                raise ConfigurationError(
                    f"campaign journal {path!r}: chunk {chunk_id} payload "
                    f"does not match its recorded digest (line {lineno + 1})"
                )
            previous = completed.get(chunk_id)
            if previous is not None and previous[0] != digest:
                raise ConfigurationError(
                    f"campaign journal {path!r}: chunk {chunk_id} completed "
                    f"twice with different digests ({previous[0][:12]} vs "
                    f"{digest[:12]}) -- nondeterministic evaluator"
                )
            completed[chunk_id] = (digest, payload)
    return header, completed


class CampaignJournal:
    """Append-only writer (plus resume loader) for one campaign run."""

    def __init__(self, path: str):
        self.path = path
        self._handle = None

    # ------------------------------------------------------------------
    def open(
        self, fingerprint: str, chunks: Sequence[Chunk]
    ) -> Dict[int, Tuple[str, bytes]]:
        """Start or resume the journal.

        A fresh (or empty) file gets the campaign header and the
        ``planned`` records; an existing one is validated against
        ``fingerprint`` -- a mismatch raises with both digests, because
        resuming a checkpoint against a different grid would merge
        unrelated results -- and its completed chunks are returned for
        the runner to skip.
        """
        header, completed = load_journal(self.path)
        if header is not None:
            recorded = header.get("fingerprint")
            if recorded != fingerprint:
                raise ConfigurationError(
                    f"campaign journal {self.path!r} was recorded for a "
                    f"different grid: journal fingerprint "
                    f"{str(recorded)[:16]}... vs requested "
                    f"{fingerprint[:16]}...  Pass a fresh journal path (or "
                    f"the matching grid) -- resuming across grids would "
                    f"merge unrelated results."
                )
            known = {int(c) for c in range(len(chunks))}
            stale = sorted(set(completed) - known)
            if stale:
                raise ConfigurationError(
                    f"campaign journal {self.path!r} holds completed chunks "
                    f"{stale} beyond the requested plan of {len(chunks)} "
                    f"chunks"
                )
            self._append(
                {"record": "resumed", "completed": sorted(completed)}
            )
            return completed
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._append(
            {
                "record": "campaign",
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
                "chunks": len(chunks),
                "points": sum(len(chunk.indices) for chunk in chunks),
            }
        )
        for chunk in chunks:
            self._append(
                {
                    "record": "planned",
                    "chunk": chunk.chunk_id,
                    "affinity": chunk.affinity,
                    "indices": list(chunk.indices),
                }
            )
        return {}

    # ------------------------------------------------------------------
    def lease(self, chunk_id: int, attempt: int) -> None:
        self._append(
            {"record": "leased", "chunk": chunk_id, "attempt": attempt}
        )

    def complete(self, chunk_id: int, payload: bytes, *, seconds: float) -> None:
        self._append(
            {
                "record": "completed",
                "chunk": chunk_id,
                "digest": payload_digest(payload),
                "payload": base64.b64encode(payload).decode("ascii"),
                "seconds": seconds,
            }
        )

    def fail(self, chunk_id: int, attempt: int, error: str) -> None:
        self._append(
            {
                "record": "failed",
                "chunk": chunk_id,
                "attempt": attempt,
                "error": error,
            }
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    def _append(self, record: Dict[str, object]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())
