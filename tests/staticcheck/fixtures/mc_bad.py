"""A deliberately broken subject for the Pass-5 model checker.

``system_factory`` builds a runtime that silently drops every third
retiring token's accounting, violating token conservation (RSC504).
"""

from repro.runtime.system import AdaptiveCountingSystem


class LossySystem(AdaptiveCountingSystem):
    """Drops every third retiring token on the floor."""

    def retire_token(self, token, state, out_port, wire):
        if token.token_id % 3 == 2:
            return  # issued, but never assigned an output wire
        super().retire_token(token, state, out_port, wire)


def system_factory():
    return LossySystem(width=4, seed=0)
