"""Protocol-layer verification: bounded model checking of the runtime.

:mod:`repro.staticcheck.protocol.model` is **Pass 5** (codes
``RSC5xx``): it exhaustively explores small-scope schedules of
{inject, split, merge, add_node, remove_node} over the adaptive runtime,
running the real code, and checks token conservation and the step
property at quiescence.
"""

from repro.staticcheck.protocol.model import ModelCheckConfig, model_check

__all__ = [
    "ModelCheckConfig",
    "model_check",
]
