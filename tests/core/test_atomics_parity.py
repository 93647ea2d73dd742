"""Cross-flavor parity: the locked facades are arithmetic-identical.

The committed scenario pins (``SCENARIO_FINGERPRINTS.json``) hold the
single-thread flavor. This suite closes the other half of the
thread-readiness claim: swapping every facade for its ``locked``
equivalent (``atomics.flavor("locked")``) changes *synchronization
only* — the library scenarios reproduce the same pins, because a lock
around an add is still the same add. The two scale specs are left to the
single-thread pin test: they push more tokens through the same facade
arithmetic the other thirteen already cover, at 7 s under locks.

The simulator imports the single-thread classes by name
(``from repro.core.atomics import AtomicCounter``), so the swap
rebinds those names in every already-imported ``repro.*`` module —
including aliases — and restores them afterwards. The atomics module
itself is left untouched: it owns the real class objects that
``isinstance`` checks and the Locked subclasses hang off.
"""

import sys

import pytest

# Import the full simulator stack up front so the module scan below
# sees every consumer of the atomics names.
import repro.scenarios.compile  # noqa: F401
from repro.core import atomics
from repro.core.atomics import LOCKED, SINGLE_THREAD, flavor
from repro.scenarios.registry import library_paths
from repro.scenarios.smoke import execute_scenario, load_fingerprints
from repro.scenarios.spec import spec_name_for_path
from tests.scenarios.test_library import FINGERPRINTS, SCALE_SPECS

PATHS = [
    path for path in library_paths() if spec_name_for_path(path) not in SCALE_SPECS
]

#: single-thread class -> its locked replacement, via the flavor
#: registry (so a facade added to the flavors is automatically swept
#: into this suite).
_SWAPS = {
    getattr(SINGLE_THREAD, field): getattr(LOCKED, field)
    for field in ("counter", "per_wire", "toggle", "ledger", "guarded_map")
}


@pytest.fixture
def locked_everywhere(monkeypatch):
    """Rebind every imported single-thread facade name to its locked
    twin, in every loaded ``repro.*`` module except atomics itself."""
    swapped = 0
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None or module is atomics:
            continue
        for attr in dir(module):
            current = getattr(module, attr, None)
            if not isinstance(current, type):
                continue  # _SWAPS keys are classes; skip unhashables
            replacement = _SWAPS.get(current)
            if replacement is not None:
                monkeypatch.setattr(module, attr, replacement)
                swapped += 1
    # The simulator stack genuinely uses these names; a swap count of
    # zero would mean this fixture silently stopped testing anything.
    assert swapped >= 3
    yield


class TestLockedFlavorIsBitIdentical:
    def test_flavor_registry_backs_the_swap(self):
        assert flavor("locked") is LOCKED
        assert len(_SWAPS) == 5
        for single, locked in _SWAPS.items():
            assert issubclass(locked, single)

    @pytest.mark.parametrize("path", PATHS, ids=spec_name_for_path)
    def test_golden_fingerprint_under_locked_flavor(self, locked_everywhere, path):
        result = execute_scenario(path)
        assert result["status"] == "ok", result.get("detail")
        pins = load_fingerprints(FINGERPRINTS)
        assert result["fingerprint"] == pins[spec_name_for_path(path)]
