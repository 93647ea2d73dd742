"""Shared-memory contrast experiment: OS threads through real balancers.

Everything before this package ran inside the discrete-event simulator
— one Python frame driving every token. Here the tokens are OS
threads: each ``fetch_and_inc`` call walks the compiled flat routing
tables of :mod:`repro.core.network` through genuinely atomic balancer
toggles (:class:`repro.core.atomics.ThreadSafeToggle`) and retires on a
per-output locked counter. A counting network exists to beat a
centralized counter under contention, and the ``threads_contended`` /
``threads_single`` workloads of ``perf/`` measure exactly that against
:class:`LockedCounterBaseline`. Under the GIL the network loses at
every measured cell (see "The threads backend" in
``docs/architecture.md``), so this package stays what it is: a small
experiment sharing only the frozen ``CompiledTopology`` with the rest
of the tree — no thread runs ``core``/``sim``/``runtime``/``chord``
code — guarded by an 8-thread hammer, rank-checked workloads and strict
mypy.
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
