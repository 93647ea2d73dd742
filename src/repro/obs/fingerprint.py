"""Byte-deterministic fingerprint digests over observability state.

The scenario smoke matrix (:mod:`repro.scenarios.smoke`) pins every
library scenario to a committed *trace-hash fingerprint*: a SHA-256
digest over the run's seed-stable outputs, rendered through the same
canonical encodings the :mod:`repro.obs.export` exporters use (sorted
keys, fixed separators, no clocks). Because the exporters are already
byte-deterministic — CI ``cmp``s two same-seed exports — a digest over
their bytes is a free regression pin: any behavioural drift in the
token plane shows up as a fingerprint mismatch, with the full metrics
payload available for diffing.

Only pure functions of the seed may flow into a fingerprint:
``ScenarioRun.summary`` carries no wall-clock rate (ops/sec,
events/sec, RSS), and nothing that does may be added to a digest.
"""

from __future__ import annotations

import hashlib
import json

from repro.obs.export import metrics_jsonl
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "canonical_json_bytes",
    "digest_bytes",
    "digest_payload",
    "digest_metrics",
]

#: Digest strings are prefixed with the algorithm so a future change of
#: hash cannot silently compare digests across algorithms.
_ALGORITHM = "sha256"


def canonical_json_bytes(payload: object) -> bytes:
    """``payload`` as canonical JSON bytes (sorted keys, fixed
    separators, UTF-8) — the exporters' encoding, reusable for any
    JSON-serialisable structure."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def digest_bytes(data: bytes) -> str:
    """``"sha256:<hex>"`` over raw bytes."""
    return "%s:%s" % (_ALGORITHM, hashlib.sha256(data).hexdigest())


def digest_payload(payload: object) -> str:
    """Digest of a JSON-serialisable payload via its canonical bytes."""
    return digest_bytes(canonical_json_bytes(payload))


def digest_metrics(registry: MetricsRegistry) -> str:
    """Digest of a metrics registry via its JSONL export bytes.

    Exactly the bytes :func:`repro.obs.export.write_metrics_jsonl`
    would write, so a fingerprint mismatch can be diagnosed by
    exporting both runs' metrics and diffing the files.
    """
    return digest_bytes(metrics_jsonl(registry).encode("utf-8"))
