"""Request-scoped structured logging: one JSON object per log record.

:class:`JsonLogFormatter` renders stdlib ``logging`` records as compact
JSON lines and — the point of this module — injects the ambient
distributed-trace identity from :mod:`repro.telemetry.context`: records
emitted while a request is being served carry that request's
``trace_id``, ``span_id``, and server-assigned ``request_id``, so a
daemon's log stream joins against its trace/metric streams on the same
keys (``grep`` a trace id across all three).

Nothing here changes what is logged or when; it is a formatter, wired
in by ``--log-json`` on the service/foresight CLIs (or by hand)::

    handler.setFormatter(JsonLogFormatter())

Output schema (keys absent rather than null when unknown)::

    {"ts": 1723190400.123, "level": "INFO", "logger": "repro.service",
     "message": "...", "trace_id": "...", "span_id": "...",
     "request_id": "17", "exc": "Traceback (most recent call last): ..."}
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any

from repro.telemetry import context as trace_context

__all__ = ["JsonLogFormatter", "configure_logging"]


class JsonLogFormatter(logging.Formatter):
    """Format records as JSON lines stamped with the active trace context."""

    def format(self, record: logging.LogRecord) -> str:
        out: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        ctx = trace_context.current()
        if ctx is not None:
            out["trace_id"] = ctx.trace_id
            out["span_id"] = ctx.span_id
        request_id = trace_context.current_request_id()
        if request_id is not None:
            out["request_id"] = request_id
        if record.exc_info:
            out["exc"] = self.formatException(record.exc_info)
        elif record.exc_text:
            out["exc"] = record.exc_text
        # default=repr: a log call with a non-serializable extra must
        # degrade, never raise inside the logging machinery.
        return json.dumps(out, default=repr, separators=(",", ":"))


def configure_logging(
    verbosity: int = 0, quiet: bool = False, json_logs: bool = False
) -> None:
    """Wire the ``repro`` logger hierarchy to stderr (the CLIs' setup).

    ``quiet`` shows warnings only; default shows INFO; ``-v`` adds DEBUG
    (including per-job PAT scheduler transitions).  ``json_logs`` swaps
    in :class:`JsonLogFormatter`: one JSON object per record, stamped
    with the active trace/request ids.
    """
    level = logging.WARNING if quiet else (
        logging.DEBUG if verbosity > 0 else logging.INFO
    )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(JsonLogFormatter() if json_logs else logging.Formatter(
        "%(levelname)s %(name)s: %(message)s"
    ))
    root = logging.getLogger("repro")
    root.handlers[:] = [handler]
    root.setLevel(level)
