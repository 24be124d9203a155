"""The client-facing SQL front-end of a live host.

Speaks a line-delimited JSON protocol over TCP.  A client sends one
request object per line; for queries the service streams events back as
the in-network aggregation converges:

``{"op": "ping"}``
    ``{"event": "pong", "ready": <bool>, "nodes": <joined count>}``

``{"op": "query", "sql": ..., "timeout": 30, "poll": 0.25,
   "target": 1.0, "lifetime": 172800}``
    * ``{"event": "accepted", "query_id": "<hex>", "node": "<hex>"}``
    * ``{"event": "partial", "rows": N, "completeness": c,
        "predicted": p, "values": [...], "elapsed": t}`` — streamed as
      results aggregate.  ``completeness`` is the observed fraction of
      the predictor's expected total, clamped to be monotonically
      non-decreasing over the stream; ``predicted`` is the predictor's
      *a-priori* completeness-vs-delay curve evaluated at the same
      elapsed time (null until the predictor arrives).
    * ``{"event": "final", ...}`` — same shape, emitted once when the
      observed completeness reaches ``target`` or ``timeout`` (protocol
      seconds) elapses.  The query is then cancelled cluster-wide
      (epidemic tombstones): nobody reads rows past the final event, so
      a finished stream must not leave periodic repair traffic behind
      for the rest of the query lifetime.

``{"op": "cancel", "query_id": "<hex>"}``
    ``{"event": "cancelled", "query_id": "<hex>"}``

Errors are reported as ``{"event": "error", "error": ...}`` and leave
the connection open for further requests.  A numeric query field that
is not a finite number in range (``target`` in (0, 1], the others
positive) is such an error.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
from typing import TYPE_CHECKING, Any, Optional

from repro.core.query import DEFAULT_LIFETIME, QueryStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.node import SeaweedNode
    from repro.serve.host import NodeHost

log = logging.getLogger("repro.serve.service")

#: How long a query request waits for a local node to finish joining.
READY_TIMEOUT = 30.0

#: Observed completeness at which a query is considered answered.
DEFAULT_TARGET = 0.999

DEFAULT_TIMEOUT = 60.0
DEFAULT_POLL = 0.25
MAX_REQUEST_BYTES = 1 << 20


def _number(request: dict, name: str, default: float, upper: float = math.inf) -> float:
    """``request[name]`` (``default`` if absent) as a float in ``(0, upper]``.

    Raises ValueError for anything else: a non-number (a bool included),
    NaN, an infinity, or a value out of range.
    """
    value = request.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    number = float(value)
    if not (math.isfinite(number) and 0.0 < number <= upper):
        raise ValueError(f"{name} out of range: {value!r}")
    return number


def _status_payload(
    status: QueryStatus, completeness: float, predicted: Optional[float],
    elapsed: float,
) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "rows": status.rows_processed,
        "completeness": round(completeness, 6),
        "predicted": None if predicted is None else round(predicted, 6),
        "elapsed": round(elapsed, 3),
        "values": None,
        "groups": None,
    }
    result = status.result
    if result is not None:
        if result.states:
            payload["values"] = result.values()
        if result.groups:
            payload["groups"] = {
                "|".join(str(part) for part in key): values
                for key, values in result.group_values().items()
            }
        if result.rows and not result.states:
            payload["projected_rows"] = len(result.rows)
    return payload


class QueryService:
    """Streams completeness-annotated query results to TCP clients."""

    def __init__(
        self, host: "NodeHost", listen_host: str, listen_port: int
    ) -> None:
        self.host = host
        self.listen_host = listen_host
        self.listen_port = listen_port
        self._server: Optional[asyncio.AbstractServer] = None
        self.queries_served = 0

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.listen_host,
            self.listen_port,
            limit=MAX_REQUEST_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        self.listen_host, self.listen_port = sockname[0], sockname[1]
        return self.listen_host, self.listen_port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as error:
                    await self._emit(writer, {"event": "error",
                                              "error": str(error)})
                    continue
                await self._handle_request(request, writer)
        except (ConnectionError, asyncio.LimitOverrunError, OSError):
            pass  # client went away mid-stream
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        op = request.get("op", "query" if "sql" in request else None)
        if op == "ping":
            joined = sum(
                1 for node in self.host.nodes.values() if node.pastry.joined
            )
            await self._emit(
                writer, {"event": "pong", "ready": joined > 0, "nodes": joined}
            )
        elif op == "query":
            await self._run_query(request, writer)
        elif op == "cancel":
            await self._cancel(request, writer)
        else:
            await self._emit(
                writer,
                {"event": "error", "error": f"unknown op {op!r}"},
            )

    async def _emit(self, writer: asyncio.StreamWriter, event: dict) -> None:
        writer.write(json.dumps(event, separators=(",", ":")).encode() + b"\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    async def _pick_node(self) -> Optional["SeaweedNode"]:
        """A joined local node, waiting briefly during cluster warm-up."""
        deadline = asyncio.get_event_loop().time() + READY_TIMEOUT
        while True:
            node = self.host.any_online_node()
            if node is not None:
                return node
            if asyncio.get_event_loop().time() >= deadline:
                return None
            await asyncio.sleep(0.1)

    async def _run_query(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            await self._emit(writer, {"event": "error",
                                      "error": "missing sql"})
            return
        try:
            timeout = _number(request, "timeout", DEFAULT_TIMEOUT)
            poll = max(0.02, _number(request, "poll", DEFAULT_POLL))
            target = _number(request, "target", DEFAULT_TARGET, upper=1.0)
            lifetime = _number(request, "lifetime", DEFAULT_LIFETIME)
        except ValueError as error:
            await self._emit(writer, {"event": "error", "error": str(error)})
            return
        # Validate the SQL up front: dissemination parses lazily inside
        # scheduled handlers, which would turn a typo into a silent
        # zero-row timeout instead of an error the client can act on.
        try:
            from repro.db.sql import parse as parse_sql

            parse_sql(sql)
        except Exception as error:  # noqa: BLE001 - report, don't crash
            await self._emit(writer, {"event": "error",
                                      "error": f"bad sql: {error}"})
            return
        node = await self._pick_node()
        if node is None:
            await self._emit(writer, {"event": "error",
                                      "error": "no node online"})
            return
        scheduler = node.scheduler
        injected_at = scheduler.now
        try:
            descriptor = node.inject_query(sql, lifetime=lifetime)
        except Exception as error:  # noqa: BLE001 - surface parse errors
            await self._emit(writer, {"event": "error", "error": str(error)})
            return
        self.queries_served += 1
        query_id = descriptor.query_id
        await self._emit(writer, {
            "event": "accepted",
            "query_id": format(query_id, "032x"),
            "node": node.pastry.name,
        })
        # Stream partials until the observed completeness hits the target
        # or the (protocol-time) deadline passes.  The streamed
        # completeness never decreases: late predictor refinements can
        # shrink the instantaneous estimate, but a client has already
        # *seen* the rows behind the previous figure.
        high_water = 0.0
        last_rows = -1
        try:
            while True:
                await asyncio.sleep(poll)
                elapsed = scheduler.now - injected_at
                status = node.query_statuses.get(query_id)
                if status is None:  # cancelled under us
                    break
                predictor = status.predictor
                high_water = max(high_water, status.observed_completeness())
                predicted = (
                    predictor.completeness_at(elapsed)
                    if predictor is not None else None
                )
                done = (
                    (predictor is not None and high_water >= target)
                    or elapsed >= timeout
                )
                if done:
                    final = {"event": "final",
                             "query_id": format(query_id, "032x")}
                    final.update(
                        _status_payload(status, high_water, predicted, elapsed)
                    )
                    await self._emit(writer, final)
                    return
                if status.rows_processed != last_rows:
                    last_rows = status.rows_processed
                    partial = {"event": "partial",
                               "query_id": format(query_id, "032x")}
                    partial.update(
                        _status_payload(status, high_water, predicted, elapsed)
                    )
                    await self._emit(writer, partial)
            await self._emit(writer, {
                "event": "error",
                "error": "query cancelled",
                "query_id": format(query_id, "032x"),
            })
        finally:
            # The stream is the query's only consumer.  Once it ends —
            # final emitted, timed out, or the client went away — cancel
            # so the tombstone stops every node's periodic re-submission
            # of this query; otherwise each served query adds repair
            # traffic for its whole (default 48 h) lifetime and a
            # long-lived host degrades linearly in queries served.
            if node.query_statuses.get(query_id) is not None:
                node.cancel_query(query_id)

    async def _cancel(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        try:
            query_id = int(request.get("query_id", ""), 16)
        except (TypeError, ValueError):
            await self._emit(writer, {"event": "error",
                                      "error": "bad query_id"})
            return
        node = self.host.any_online_node()
        if node is not None:
            node.cancel_query(query_id)
        await self._emit(writer, {
            "event": "cancelled",
            "query_id": format(query_id, "032x"),
        })
