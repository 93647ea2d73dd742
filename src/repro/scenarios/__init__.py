"""`repro.scenarios` — the declarative scenario DSL and smoke matrix.

A scenario is data, not code: a TOML/JSON spec naming a topology, a
latency model, an arrival process, a churn trace, an application and
the statistics to record (:mod:`repro.scenarios.spec`). The compiler
(:mod:`repro.scenarios.compile`) lowers a validated spec onto the
runtime/sim setup path and is the one runner of a simulated workload
in ``src/`` (smoke matrix, sanitizer and pins all go through it); the
committed
library (``src/repro/scenarios/library/``, discovered by
:mod:`repro.scenarios.registry`) covers flash crowds, diurnal ramps,
hot-key skew, correlated crashes, partitions, adversarial oscillation
and more; and ``repro smoke`` (:mod:`repro.scenarios.smoke`) runs the
whole matrix in parallel worker processes, pinning each scenario to a
byte-deterministic trace-hash fingerprint in
``SCENARIO_FINGERPRINTS.json``.

This package sits *outside* ``repro.sim``/``repro.runtime``: specs and
the registry import nothing heavy, so lint (RSC308 validates every
committed spec) and CLI listing stay cheap; the compiler and the smoke
runner import the runtime only when a scenario actually runs.
"""

from repro.scenarios.registry import (
    LIBRARY_DIR,
    get_scenario,
    library_names,
    library_paths,
    load_library,
)
from repro.scenarios.spec import (
    APP_KINDS,
    ARRIVAL_KINDS,
    CHURN_KINDS,
    LATENCY_KINDS,
    RECORD_GROUPS,
    ScenarioSpec,
    ScenarioSpecError,
    load_spec,
    parse_spec,
    spec_file_problems,
    validate_spec_data,
)

__all__ = [
    "APP_KINDS",
    "ARRIVAL_KINDS",
    "CHURN_KINDS",
    "LATENCY_KINDS",
    "RECORD_GROUPS",
    "LIBRARY_DIR",
    "ScenarioSpec",
    "ScenarioSpecError",
    "get_scenario",
    "library_names",
    "library_paths",
    "load_library",
    "load_spec",
    "parse_spec",
    "spec_file_problems",
    "validate_spec_data",
]
