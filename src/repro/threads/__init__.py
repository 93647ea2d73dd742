"""Shared-memory execution backend: OS threads through real balancers.

Everything before this package ran inside the discrete-event simulator
— one Python frame driving every token. Here the tokens are OS
threads: each ``fetch_and_inc`` call walks the compiled flat routing
tables of :mod:`repro.core.network` through genuinely atomic balancer
toggles (:class:`repro.core.atomics.ThreadSafeToggle`) and retires on a
per-output locked counter. This is the paper's raison d'être made
measurable — a counting network exists to beat a centralized counter
under contention, and the ``threads_contended`` / ``threads_single``
workloads of ``perf/`` measure exactly that against
:class:`LockedCounterBaseline`.
"""

from repro.threads.network import (
    LockedCounterBaseline,
    ThreadedCountingNetwork,
    VerifyReport,
    values_form_range,
)

__all__ = [
    "LockedCounterBaseline",
    "ThreadedCountingNetwork",
    "VerifyReport",
    "values_form_range",
]
