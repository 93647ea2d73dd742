"""The committed scenario library.

The library lives in ``src/repro/scenarios/library/`` as one spec file
per scenario (JSON — the committed set must validate on every supported
interpreter, and TOML parsing needs Python 3.11+). Discovery is by
file stem, sorted, so the registry order is stable across machines.

Two consumers, one runner (:func:`repro.scenarios.compile.run_scenario`):

* the smoke matrix (:mod:`repro.scenarios.smoke`) runs every library
  scenario and pins its fingerprint;
* the schedule-perturbation sanitizer
  (:mod:`repro.staticcheck.sanitize`) re-runs every library
  scenario under reordered same-timestamp events.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.scenarios.spec import (
    SPEC_SUFFIXES,
    ScenarioSpec,
    ScenarioSpecError,
    load_spec,
    spec_name_for_path,
)

__all__ = [
    "LIBRARY_DIR",
    "library_paths",
    "library_names",
    "load_library",
    "get_scenario",
]

#: The committed scenario library shipped inside the package.
LIBRARY_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "library")

_cache: Dict[str, Dict[str, ScenarioSpec]] = {}


def library_paths(directory: Optional[str] = None) -> List[str]:
    """Spec file paths in the library, sorted by scenario name."""
    directory = directory or LIBRARY_DIR
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, entry)
        for entry in os.listdir(directory)
        if os.path.splitext(entry)[1].lower() in SPEC_SUFFIXES
    )


def load_library(directory: Optional[str] = None) -> Dict[str, ScenarioSpec]:
    """Every library scenario, validated, keyed and sorted by name.

    Raises :class:`ScenarioSpecError` on the first invalid file — a
    broken committed spec should fail fast everywhere, not silently
    vanish from the matrix (the RSC308 lint catches it even earlier).
    """
    key = directory or LIBRARY_DIR
    cached = _cache.get(key)
    if cached is None:
        cached = {}
        for path in library_paths(directory):
            name = spec_name_for_path(path)
            cached[name] = load_spec(path)
        _cache[key] = cached
    return dict(cached)


def library_names(directory: Optional[str] = None) -> List[str]:
    """Sorted scenario names in the library."""
    return sorted(load_library(directory))


def get_scenario(name: str, directory: Optional[str] = None) -> ScenarioSpec:
    """One library scenario by name."""
    library = load_library(directory)
    try:
        return library[name]
    except KeyError:
        raise ScenarioSpecError(
            name,
            [
                "name: not in the scenario library (valid: %s)"
                % ", ".join(sorted(library))
            ],
        ) from None
