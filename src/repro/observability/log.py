"""Structured logging: stdlib ``logging`` with a JSON line formatter.

One logger hierarchy for the whole package, rooted at ``repro``.
Modules obtain a logger with :func:`get_logger` and emit *events* —
a stable ``event`` name plus typed key/value fields — through
:func:`log_event`, so a consumer tailing the stream can filter and
aggregate without parsing prose:

.. code-block:: json

    {"ts": 12.345678, "level": "WARNING", "logger": "repro.observability.live",
     "event": "watchdog.alert", "rule": "zeb-overflow-rate",
     "value": 0.31, "threshold": 0.05}

By default the ``repro`` logger carries only a ``logging.NullHandler``
(the stdlib's advice for libraries): records propagate to the stdlib
root, so a library user's own logging setup applies, and a process that
configured none prints nothing.  Without it, WARNING events such as
``watchdog.alert`` would reach ``logging.lastResort`` and print their
bare event name on stderr.  Records below the root's level cost one
disabled-level check each.  Call :func:`configure_json_logging` (the
``monitor`` CLI's ``--json-logs`` does) to attach a JSON-lines handler.

``ts`` is seconds since the formatter was created (monotonic relative
time, stable across clock adjustments); pass ``absolute_time=True`` for
epoch seconds instead.
"""

from __future__ import annotations

import io
import json
import logging
import time
from typing import Any

__all__ = [
    "JsonFormatter",
    "get_logger",
    "log_event",
    "configure_json_logging",
]

ROOT_LOGGER_NAME = "repro"

logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())

# LogRecord attributes that are plumbing, not payload; everything else
# attached to a record (via ``extra=``) is treated as an event field.
_RESERVED = frozenset(
    logging.LogRecord(
        name="", level=0, pathname="", lineno=0,
        msg="", args=(), exc_info=None,
    ).__dict__
) | {"message", "asctime", "taskName"}


class JsonFormatter(logging.Formatter):
    """Formats every record as one JSON object per line.

    Fields: ``ts`` (seconds), ``level``, ``logger``, ``event`` (the
    record message), then any extra attributes the caller attached.
    Values that are not JSON-serializable are stringified rather than
    raised on — a log line must never take the process down.
    """

    def __init__(self, absolute_time: bool = False) -> None:
        super().__init__()
        self.absolute_time = absolute_time
        self._epoch = 0.0 if absolute_time else time.time()

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created - self._epoch, 6),
            "level": record.levelname,
            "logger": record.name,
            "event": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key in _RESERVED or key.startswith("_"):
                continue
            payload[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            payload["exception"] = self.formatException(record.exc_info)
        try:
            return json.dumps(payload, default=str, sort_keys=False)
        except (TypeError, ValueError):
            return json.dumps(
                {k: str(v) for k, v in payload.items()}, sort_keys=False
            )


def get_logger(name: str | None = None) -> logging.Logger:
    """A logger under the ``repro`` hierarchy.

    ``get_logger("repro.gpu.parallel")`` and
    ``get_logger("gpu.parallel")`` return the same logger; no argument
    returns the package root.
    """
    if not name or name == ROOT_LOGGER_NAME:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if not name.startswith(ROOT_LOGGER_NAME + "."):
        name = f"{ROOT_LOGGER_NAME}.{name}"
    return logging.getLogger(name)


def log_event(
    logger: logging.Logger,
    event: str,
    level: int = logging.INFO,
    **fields: Any,
) -> None:
    """Emit one structured event (a no-op when the level is disabled).

    Field names that collide with ``LogRecord`` plumbing attributes
    (``message``, ``name``, ``args``, ...) are prefixed with ``field_``
    instead of raising — callers pass domain dicts like
    ``Alert.as_dict()`` verbatim.
    """
    if logger.isEnabledFor(level):
        extra = {
            (f"field_{key}" if key in _RESERVED else key): value
            for key, value in fields.items()
        }
        logger.log(level, event, extra=extra)


def configure_json_logging(
    stream: io.TextIOBase | None = None,
    level: int = logging.INFO,
    absolute_time: bool = False,
) -> logging.Handler:
    """Attach a JSON-lines handler to the ``repro`` logger tree.

    Returns the handler so callers (and tests) can detach it with
    ``logging.getLogger("repro").removeHandler(handler)``.  Calling it
    again replaces any handler this function installed earlier rather
    than stacking duplicates.
    """
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for existing in list(root.handlers):
        if getattr(existing, "_repro_json_handler", False):
            root.removeHandler(existing)
    handler = logging.StreamHandler(stream) if stream is not None \
        else logging.StreamHandler()
    handler.setFormatter(JsonFormatter(absolute_time=absolute_time))
    handler._repro_json_handler = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(level)
    # The stdlib root stays in charge of anything outside ``repro.*``;
    # stop propagation so events are not printed twice when the host
    # application configured its own root handler.
    root.propagate = False
    return handler
