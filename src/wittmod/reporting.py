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

# key order is part of the contract: documents are compared byte-wise
_CHECK_KEYS = ("id", "params", "status", "cases", "elapsed_ms",
               "counterexample", "data")


def _timestamp(stable: bool) -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        t = int(epoch)
    elif stable:
        t = 0
    else:
        t = int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def _check_dict(report, stable: bool) -> dict:
    raw = report.as_dict()
    if stable:
        raw = dict(raw, elapsed_ms=0)
    return {k: raw[k] for k in _CHECK_KEYS if k in raw}


def _sort_key(d: dict):
    return (d["id"], json.dumps(d.get("params", {}), sort_keys=True))


def build_report(reports, seed: int, stable: bool = False) -> dict:
    """Assemble the report document; check order is (id, params) sorted."""
    checks = sorted((_check_dict(r, stable) for r in reports), key=_sort_key)
    return {
        "version": __version__,
        "timestamp": _timestamp(stable),
        "seed": seed,
        "checks": checks,
    }


def render_report(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


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
            from .config import ConfigError
            raise ConfigError("cannot write report %s: %s" % (path, e))
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
