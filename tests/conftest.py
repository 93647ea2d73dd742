"""Tier-1 is derandomised: a red run must mean the commit.

Under the ``tier1`` profile hypothesis draws each property's examples
from a seed derived from the test itself, so two runs of one commit try
the same cases (the runtime properties used to meet ROADMAP item 1's
crash-with-tokens-in-flight counterexample on some runs and not others).
The random search still runs, as a CI step that decides nothing:
``--hypothesis-profile=default --hypothesis-seed=N`` gives the stock
behaviour back — the command line's profile is loaded after this file.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
