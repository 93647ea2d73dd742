"""Pass 6 — concurrency: static race rules + schedule-perturbation sanitizer.

Static half (:mod:`.rules`): AST access maps over the runtime packages
flag check-then-act across continuations (RSC601), non-atomic compound
updates to shared counter state (RSC602), module-global mutation outside
designated swap points (RSC603), escaping mutable aliases (RSC604), and
epoch-guard coverage gaps (RSC605) — the debt the single-threaded event
loop currently hides, due before the threads backend (ROADMAP).

Dynamic half (:mod:`.sanitize`): re-runs the scenario library
(:mod:`repro.scenarios`) under adversarial same-timestamp reordering and reports invariant
breaks (RSC610) and schedule-given nondeterminism (RSC611).

The two halves meet in the triage contract (:mod:`.contract`):
``# repro: thread-safe`` annotations are verified rather than trusted,
and baseline-suppressed static findings lose their suppression when the
sanitizer fails in the same invocation.
"""

from repro.staticcheck.concurrency.contract import (
    DEFAULT_BASELINE_NAME,
    THREAD_SAFE_MARKER,
    ThreadSafeAnnotations,
    apply_baseline,
    default_baseline_path,
    finding_key,
    format_baseline,
    load_baseline,
    promote_baseline_suppressed,
)
from repro.staticcheck.concurrency.rules import (
    DEFAULT_CONCURRENCY_PACKAGES,
    check_concurrency,
    check_source,
    default_concurrency_paths,
)
from repro.staticcheck.concurrency.sanitize import (
    DEFAULT_SANITIZE_SEEDS,
    SanitizerConfig,
    SanitizerOutcome,
    run_sanitizer,
)

__all__ = [
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_CONCURRENCY_PACKAGES",
    "DEFAULT_SANITIZE_SEEDS",
    "SanitizerConfig",
    "SanitizerOutcome",
    "THREAD_SAFE_MARKER",
    "ThreadSafeAnnotations",
    "apply_baseline",
    "check_concurrency",
    "check_source",
    "default_baseline_path",
    "default_concurrency_paths",
    "finding_key",
    "format_baseline",
    "load_baseline",
    "promote_baseline_suppressed",
    "run_sanitizer",
]
