"""Report aggregation and JSON serialization.

A report document wraps a list of check results in a fixed-shape JSON
object with deterministic key order.  With stable=True (or the
SOURCE_DATE_EPOCH convention) the volatile fields are pinned so that two
runs with the same configuration and seed produce identical bytes.
"""

import json
import os
import time

from . import __version__
from .config import ConfigError, read_int
from .expressions import MAX_PATH, quoted


def _timestamp(stable: bool) -> str:
    """SOURCE_DATE_EPOCH if set, else 0 if stable, else now; an epoch not
    an integer from 0 to 253402300799 (end of year 9999) is a ConfigError."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        t = read_int(epoch) if epoch is not None else 0 if stable else \
            int(time.time())
    except ValueError:
        t = -1
    if not 0 <= t <= 253402300799:
        raise ConfigError("SOURCE_DATE_EPOCH must be an integer from 0 to "
                          "253402300799, got %s" % quoted(epoch))
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def build_report(reports, seed: int, stable: bool = False) -> dict:
    """Assemble the report document; check order is (id, params) sorted."""
    checks = sorted((r.as_dict() for r in reports), key=lambda d: (
        d["id"], json.dumps(d["params"], sort_keys=True)))
    if stable:
        for check in checks:
            check["elapsed_ms"] = 0
    return {
        "version": __version__,
        "timestamp": _timestamp(stable),
        "seed": seed,
        "checks": checks,
    }


def render_report(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def check_out_path(path):
    """ConfigError unless path is a writable file or can be made in a
    writable directory; it makes and truncates nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(
            path if os.path.exists(path) else parent, os.W_OK):
        raise ConfigError("cannot write report %s: not a writable file"
                          % quoted(path, str, MAX_PATH))


def emit_report(reports, path, seed: int, stable: bool = False) -> dict:
    doc = build_report(reports, seed, stable)
    text = render_report(doc)
    if path == "-":
        import sys
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ConfigError("cannot write report %s: %s"
                              % (quoted(path, str, MAX_PATH), e.strerror))
    return doc


def report_schema() -> dict:
    """JSON schema for report documents (draft-07 subset)."""
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "type": "object",
        "required": ["version", "timestamp", "seed", "checks"],
        "additionalProperties": False,
        "properties": {
            "version": {"type": "string"},
            "timestamp": {
                "type": "string",
                "pattern": r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$",
            },
            "seed": {"type": "integer"},
            "checks": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["id", "params", "status", "cases",
                                 "elapsed_ms"],
                    "additionalProperties": False,
                    "properties": {
                        "id": {"type": "string"},
                        "params": {"type": "object"},
                        "status": {"enum": ["pass", "fail", "error"]},
                        "cases": {"type": "integer", "minimum": 0},
                        "elapsed_ms": {"type": "integer", "minimum": 0},
                        "counterexample": {"type": "object"},
                        "data": {"type": "object"},
                    },
                },
            },
        },
    }
