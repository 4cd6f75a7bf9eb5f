"""Versioned envelopes around the ``to_dict`` forms of results.

A cell payload (:func:`result_to_payload`) is plain JSON by construction
— :meth:`RunResult.to_dict` builds ``dict``/``list``/``str``/``int``/
``float``/``bool``/``None`` values directly — and is encoded only where
bytes are written: :meth:`ResultCache.put` and ``process`` pool
pickling. ``tests/test_payload_plain.py`` pins it type for type against
its own JSON round trip. The scale-out, serving and
cache-ablation envelopes run once per document and still normalize
through a JSON round trip.
"""

from __future__ import annotations

import json
from typing import Dict

from ..platforms.result import RunResult
from .cache import json_default

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "result_to_payload",
    "result_from_payload",
    "SCALEOUT_SCHEMA_VERSION",
    "scaleout_to_payload",
    "scaleout_from_payload",
    "SERVING_SCHEMA_VERSION",
    "serving_to_payload",
    "serving_from_payload",
    "CACHE_ABLATION_SCHEMA_VERSION",
    "cache_sweep_to_payload",
    "cache_sweep_from_payload",
]

RESULT_SCHEMA_VERSION = 1
SCALEOUT_SCHEMA_VERSION = 1
SERVING_SCHEMA_VERSION = 1
CACHE_ABLATION_SCHEMA_VERSION = 1


def result_to_payload(result: RunResult) -> Dict:
    """Envelope with schema tag around plain JSON values (no copy made)."""
    return {"schema": RESULT_SCHEMA_VERSION, "result": result.to_dict()}


def result_from_payload(payload: Dict) -> RunResult:
    schema = payload.get("schema")
    if schema != RESULT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported result schema {schema!r} "
            f"(expected {RESULT_SCHEMA_VERSION})"
        )
    return RunResult.from_dict(payload["result"])


def scaleout_to_payload(result) -> Dict:
    """Envelope around :meth:`ScaleOutResult.to_dict`; plain JSON types."""
    doc = {
        "schema": SCALEOUT_SCHEMA_VERSION,
        "kind": "scaleout",
        "scaleout": result.to_dict(),
    }
    return json.loads(json.dumps(doc, default=json_default))


def scaleout_from_payload(payload: Dict):
    from ..platforms.scaleout import ScaleOutResult

    schema = payload.get("schema")
    if schema != SCALEOUT_SCHEMA_VERSION or "scaleout" not in payload:
        raise ValueError(
            f"unsupported scale-out payload (schema {schema!r}, "
            f"expected {SCALEOUT_SCHEMA_VERSION})"
        )
    return ScaleOutResult.from_dict(payload["scaleout"])


def serving_to_payload(result) -> Dict:
    """Envelope around :meth:`ServingResult.to_dict`; plain JSON types."""
    doc = {
        "schema": SERVING_SCHEMA_VERSION,
        "kind": "serving",
        "serving": result.to_dict(),
    }
    return json.loads(json.dumps(doc, default=json_default))


def serving_from_payload(payload: Dict):
    from ..serving.simulator import ServingResult

    schema = payload.get("schema")
    if schema != SERVING_SCHEMA_VERSION or "serving" not in payload:
        raise ValueError(
            f"unsupported serving payload (schema {schema!r}, "
            f"expected {SERVING_SCHEMA_VERSION})"
        )
    return ServingResult.from_dict(payload["serving"])


def cache_sweep_to_payload(sweep) -> Dict:
    """Envelope around :meth:`CacheSweep.to_dict`; plain JSON types."""
    doc = {
        "schema": CACHE_ABLATION_SCHEMA_VERSION,
        "kind": "cache_ablation",
        "cache_ablation": sweep.to_dict(),
    }
    return json.loads(json.dumps(doc, default=json_default))


def cache_sweep_from_payload(payload: Dict):
    from ..cache.sweep import CacheSweep

    schema = payload.get("schema")
    if schema != CACHE_ABLATION_SCHEMA_VERSION or "cache_ablation" not in payload:
        raise ValueError(
            f"unsupported cache-ablation payload (schema {schema!r}, "
            f"expected {CACHE_ABLATION_SCHEMA_VERSION})"
        )
    return CacheSweep.from_dict(payload["cache_ablation"])
