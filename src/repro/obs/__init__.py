"""`repro.obs` — deterministic observability for the simulated system.

Production systems ship with three observability legs: metrics (what
is happening in aggregate), traces (what happened to *this* request),
and exporters that get both into tools. This package is those legs for
the simulated deployment, stdlib-only and deterministic:

* a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  fixed-bucket log-scale histograms (p50/p90/p99/max), keyed by name +
  label tuples and snapshottable at any simulated time;
* token-lifecycle tracing — inject, per-balancer hops, reroutes,
  retire/drop — into a bounded ring buffer with deterministic sampling
  (:mod:`repro.obs.trace`, :mod:`repro.obs.recorder`);
* exporters to metrics JSONL and the Chrome ``trace_event`` format,
  loadable in Perfetto / ``chrome://tracing``
  (:mod:`repro.obs.export`).

Instrumentation is off by default: every hook site in the simulator
and the runtime reads the module-level
:data:`~repro.obs.recorder.ACTIVE` recorder, which is a
:class:`~repro.obs.recorder.NullRecorder` until :func:`install`-ed —
the null-object fast path.

All timestamps are simulated time; the package reads no clock and no
randomness, so traces and metric snapshots are byte-identical across
runs with the same seed.
"""

from repro.obs.export import (
    chrome_trace_payload,
    metrics_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.fingerprint import (
    canonical_json_bytes,
    digest_bytes,
    digest_metrics,
    digest_payload,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
# NOTE: ``recorder.ACTIVE`` is deliberately not re-exported: a
# ``from repro.obs import ACTIVE`` would freeze the binding at import
# time and miss later installs. Read it as ``recorder.ACTIVE`` through
# the module, the way the hook sites do.
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    TokenLike,
    install,
    recording,
    uninstall,
)
from repro.obs.trace import TraceBuffer, TraceEvent

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "Recorder",
    "TokenLike",
    "NULL_RECORDER",
    "install",
    "uninstall",
    "recording",
    "TraceBuffer",
    "TraceEvent",
    "canonical_json_bytes",
    "digest_bytes",
    "digest_metrics",
    "digest_payload",
    "chrome_trace_payload",
    "metrics_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics_jsonl",
]
