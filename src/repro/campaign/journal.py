"""Chunk-granular JSONL checkpoint journal, and the one encoding of
chunk rows: canonical JSON
(``json.dumps(rows, sort_keys=True, separators=(",", ":"),
allow_nan=False)``), used on every path from the pool worker through
the merge to the journal and back (:func:`encode_rows`,
:func:`decode_rows`, :func:`rows_digest`).

One campaign run appends JSON records, one per line, to a journal
file::

    {"record": "campaign", "version": 2, "fingerprint": ..., ...}
    {"record": "planned", "chunk": 0, "affinity": ..., "indices": [...]}
    ...
    {"record": "leased", "chunk": 3, "attempt": 1}
    {"record": "completed", "chunk": 3, "digest": ..., "rows": [...],
     "seconds": ...}
    {"record": "failed", "chunk": 5, "attempt": 1, "error": "..."}
    {"record": "resumed", "completed": [0, 3]}

``digest`` is the SHA-256 of the canonical JSON of ``rows``, so a
resume replays completed chunks to the byte-identical final artifact
without re-executing them.  A chunk leased but never completed is
simply re-run on resume.

The file is append-only and flushed per record; a record counts once
its terminating newline is on disk.  A process killed mid-write can
leave one unterminated trailing line: the loader ignores it and
:meth:`CampaignJournal.open` cuts it off before appending, so a
journal survives any number of kills.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.campaign.planner import Chunk
from repro.errors import CampaignError, ConfigurationError

__all__ = [
    "CampaignJournal",
    "CompletedChunk",
    "decode_rows",
    "encode_rows",
    "load_journal",
    "rows_digest",
]

#: Journal format version (independent of the plan fingerprint version).
JOURNAL_VERSION = 2


def _canonical(value) -> str:
    """The canonical JSON text of ``value``."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _same(left, right) -> bool:
    """Type-exact structural equality: ``==`` would let a tuple, a
    numpy scalar or an ``IntEnum`` pass for the list, float or int that
    JSON decodes it to."""
    if type(left) is not type(right):
        return False
    if type(left) is dict:
        return left.keys() == right.keys() and all(
            _same(value, right[key]) for key, value in left.items()
        )
    if type(left) is list:
        return len(left) == len(right) and all(map(_same, left, right))
    return left == right


def encode_rows(rows: Sequence[object], chunk_id: int) -> str:
    """The canonical JSON text of one chunk's ``rows``.

    Raises :class:`~repro.errors.CampaignError` naming the chunk and
    the row index for a row that does not decode to an exactly equal
    value: a tuple, a non-string key, a numpy scalar, NaN or inf.
    """
    encoded = []
    for index, row in enumerate(rows):
        try:
            text = _canonical(row)
        except (TypeError, ValueError) as error:  # not JSON, or NaN/inf
            text, reason = None, str(error)
        else:
            reason = "it decodes to a different value or type"
        if text is None or not _same(row, json.loads(text)):
            raise CampaignError(
                f"chunk {chunk_id} row {index} does not round-trip through "
                f"canonical JSON ({reason}); rows must be dicts with string "
                f"keys, lists, str, int, finite float, bool or None: "
                f"{row!r:.200}"
            )
        encoded.append(text)
    return "[" + ",".join(encoded) + "]"


def decode_rows(text: str) -> List[object]:
    """The rows of an :func:`encode_rows` text."""
    return json.loads(text)


def rows_digest(text: str) -> str:
    """SHA-256 hex digest of a chunk's canonical JSON rows."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CompletedChunk(NamedTuple):
    """The latest ``completed`` record of one chunk."""

    digest: str
    rows: List[object]
    line: int


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
) -> Tuple[Optional[Dict[str, object]], Dict[int, CompletedChunk]]:
    """Parse a journal file.

    Returns ``(header, completed)`` where ``completed`` maps chunk id
    to the :class:`CompletedChunk` of its latest ``completed`` record.
    A missing or empty file yields ``(None, {})``.  An unterminated
    final line (killed process) is ignored.  Corruption anywhere else
    -- a line that is not a JSON object, a ``campaign`` or
    ``completed`` record with a missing or mistyped field, a header of
    another format version, ``rows`` that do not match their
    ``digest`` -- raises a :class:`~repro.errors.ConfigurationError`
    naming the field and the line.  Two ``completed`` records for one
    chunk with different digests raise -- that would mean a
    nondeterministic evaluator, which voids every guarantee resume
    relies on.
    """
    if not os.path.exists(path):
        return None, {}
    header: Optional[Dict[str, object]] = None
    completed: Dict[int, CompletedChunk] = {}
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")[:-1]  # drop the unterminated tail
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
        except ValueError:  # not UTF-8, or not JSON
            raise ConfigurationError(
                f"corrupt campaign journal {path!r} at line {lineno}"
            ) from None
        where = f"campaign journal {path!r} line {lineno}"
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
                _field(record, "fingerprint", str, where)
                header = record
            elif record.get("fingerprint") != header["fingerprint"]:
                raise ConfigurationError(
                    f"campaign journal {path!r} mixes two different "
                    f"campaigns (fingerprint changed at line {lineno})"
                )
        elif kind == "completed":
            chunk_id = _field(record, "chunk", int, where)
            digest = _field(record, "digest", str, where)
            rows = _field(record, "rows", list, where)
            try:
                text = _canonical(rows)
            except ValueError as error:
                raise ConfigurationError(
                    f"{where}: field 'rows' is not canonical JSON ({error})"
                ) from None
            if rows_digest(text) != digest:
                raise ConfigurationError(
                    f"{where}: field 'rows' of chunk {chunk_id} does not "
                    f"match its recorded digest"
                )
            previous = completed.get(chunk_id)
            if previous is not None and previous.digest != digest:
                raise ConfigurationError(
                    f"{where}: chunk {chunk_id} completed twice with "
                    f"different digests ({previous.digest[:12]} at line "
                    f"{previous.line} vs {digest[:12]}) -- nondeterministic "
                    f"evaluator"
                )
            completed[chunk_id] = CompletedChunk(digest, rows, lineno)
    return header, completed


class CampaignJournal:
    """Append-only writer (plus resume loader) for one campaign run."""

    def __init__(self, path: str):
        self.path = path
        self._handle = None

    # ------------------------------------------------------------------
    def open(
        self, fingerprint: str, chunks: Sequence[Chunk]
    ) -> Dict[int, CompletedChunk]:
        """Start or resume the journal.

        A fresh (or empty) file gets the campaign header and the
        ``planned`` records; an existing one is validated against
        ``fingerprint`` -- a mismatch raises with both digests, because
        resuming a checkpoint against a different grid would merge
        unrelated results -- and against the plan (every completed
        chunk must exist and hold one row per point), and its completed
        chunks are returned for the runner to skip.  An unterminated
        tail left by a kill is cut off before the first append.
        """
        header, completed = load_journal(self.path)
        if header is not None:
            recorded = header["fingerprint"]
            if recorded != fingerprint:
                raise ConfigurationError(
                    f"campaign journal {self.path!r} was recorded for a "
                    f"different grid: field 'fingerprint' is "
                    f"{recorded[:16]}..., the requested grid's is "
                    f"{fingerprint[:16]}...  Pass a fresh journal path (or "
                    f"the matching grid) -- resuming across grids would "
                    f"merge unrelated results."
                )
            for chunk_id, entry in sorted(completed.items()):
                if not 0 <= chunk_id < len(chunks):
                    raise ConfigurationError(
                        f"campaign journal {self.path!r} line {entry.line}: "
                        f"field 'chunk' is {chunk_id}, beyond the requested "
                        f"plan of {len(chunks)} chunks"
                    )
                expected = len(chunks[chunk_id].indices)
                if len(entry.rows) != expected:
                    raise ConfigurationError(
                        f"campaign journal {self.path!r} line {entry.line}: "
                        f"field 'rows' of chunk {chunk_id} holds "
                        f"{len(entry.rows)} rows, the plan has {expected} "
                        f"points"
                    )
        if os.path.exists(self.path):
            with open(self.path, "rb+") as handle:
                handle.truncate(handle.read().rfind(b"\n") + 1)
        if header is not None:
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

    def complete(self, chunk_id: int, rows_text: str, *, seconds: float) -> None:
        """Record a chunk's rows, given as :func:`encode_rows` text."""
        self._append(
            {
                "record": "completed",
                "chunk": chunk_id,
                "digest": rows_digest(rows_text),
                "rows": decode_rows(rows_text),
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
