"""Trace sinks: where the Observer's structured records go.

Every record is one flat dict: ``{"t": <simulated seconds>, "event":
<name>, ...fields}``, built by :class:`~repro.obs.observer.Observer`
only when it holds a sink.  Tracing off is no sink at all (``None``),
not a sink that discards.  Records flow into a :class:`TraceSink`:

* :class:`MemorySink` — in-process list, for tests and notebooks.
* :class:`JSONLSink` — one JSON object per line to a file, the
  interchange format of ``--trace-out``; :func:`read_jsonl` loads it.
"""

from __future__ import annotations

import json
from typing import IO, Optional, Union


def _json_default(value: object) -> str:
    return str(value)


class TraceSink:
    """Interface: a destination for trace records."""

    def emit(self, record: dict) -> None:
        """Consume one trace record."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources.  Idempotent."""


class MemorySink(TraceSink):
    """Collects records in a list (optionally bounded)."""

    def __init__(self, limit: Optional[int] = None) -> None:
        self.events: list[dict] = []
        self.dropped = 0
        self._limit = limit

    def emit(self, record: dict) -> None:
        if self._limit is not None and len(self.events) >= self._limit:
            self.dropped += 1
            return
        self.events.append(record)

    def of_kind(self, event: str) -> list[dict]:
        """All collected records with the given event name."""
        return [record for record in self.events if record.get("event") == event]


class JSONLSink(TraceSink):
    """Writes one compact JSON object per record to a file."""

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            self._handle: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False
        self.records_written = 0

    def emit(self, record: dict) -> None:
        self._handle.write(
            json.dumps(record, separators=(",", ":"), default=_json_default) + "\n"
        )
        self.records_written += 1

    def flush(self) -> None:
        """Flush the underlying file."""
        self._handle.flush()

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()


def read_jsonl(path: str) -> list[dict]:
    """Load a JSONL trace file back into a list of records."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
