"""A small labeled-series metrics registry.

Two instrument types, in the Prometheus tradition but dependency-free:

* :class:`Counter` — a monotonically increasing total, pushed on the
  path that does the counted work;
* :class:`Gauge` — a point-in-time value, set from a component's own
  attribute at the moment it is published.

Series are keyed by ``(name, labels)``; instruments are get-or-created
through the :class:`MetricsRegistry` and then held directly by the
instrumented code, so a hot-path increment is one attribute add with no
registry lookup.  The registry can snapshot everything to a plain dict
(for ``SeaweedSystem.metrics_snapshot()``) and export one JSON object
per series to a JSONL file, replaced whole so a reader never sees half
of it.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterator, TypeVar, Union

LabelItems = tuple[tuple[str, str], ...]


class Counter:
    """A monotone counter.  ``inc`` is the only mutator."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that is set, never accumulated."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = value


Instrument = Union[Counter, Gauge]
_I = TypeVar("_I", Counter, Gauge)


def _label_items(labels: dict[str, object]) -> LabelItems:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def series_name(name: str, labels: LabelItems) -> str:
    """Flat display name for one series: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create registry of labeled metric series."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, LabelItems], Instrument] = {}

    def _instrument(self, kind: type[_I], name: str, labels: dict[str, object]) -> _I:
        key = (name, _label_items(labels))
        instrument = self._series.get(key)
        if instrument is None:
            instrument = self._series[key] = kind()
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {instrument.kind}, not a {kind.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter series ``name{labels}`` (created on first use)."""
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge series ``name{labels}`` (created on first use)."""
        return self._instrument(Gauge, name, labels)

    def __len__(self) -> int:
        return len(self._series)

    def series(self) -> Iterator[tuple[str, LabelItems, Instrument]]:
        """Iterate ``(name, labels, instrument)`` over all series."""
        for (name, labels), instrument in sorted(self._series.items()):
            yield name, labels, instrument

    def snapshot(self) -> dict:
        """All series as ``{"counters": {...}, "gauges": {...}}``, each
        mapping flat series names to values."""
        snap: dict[str, dict] = {"counters": {}, "gauges": {}}
        for name, labels, instrument in self.series():
            snap[instrument.kind + "s"][series_name(name, labels)] = instrument.value
        return snap

    def write_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """Write one JSON object per series to ``destination``.

        ``destination`` may be a path or an open text file.  A path is
        written to a sibling temporary file that then replaces it, so a
        concurrent reader sees the old file or the new one, never a
        part; if the write fails the old file is left as it was.
        Returns the number of series written.
        """
        if isinstance(destination, str):
            temporary = f"{destination}.{os.getpid()}.tmp"
            handle = open(temporary, "w", encoding="utf-8")
            try:
                with handle:
                    written = self.write_jsonl(handle)
                os.replace(temporary, destination)
            except BaseException:
                os.unlink(temporary)
                raise
            return written
        written = 0
        for name, labels, instrument in self.series():
            record = {
                "type": instrument.kind,
                "name": name,
                "labels": dict(labels),
                "value": instrument.value,
            }
            destination.write(json.dumps(record, separators=(",", ":")) + "\n")
            written += 1
        return written
