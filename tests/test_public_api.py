"""Sanity tests of the package's public surface."""

import importlib

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.core.decomposition",
            "repro.core.wiring",
            "repro.core.components",
            "repro.core.cut",
            "repro.core.splitmerge",
            "repro.core.metrics",
            "repro.core.verification",
            "repro.core.network",
            "repro.core.bitonic",
            "repro.core.periodic",
            "repro.core.diffracting",
            "repro.chord",
            "repro.sim",
            "repro.runtime",
            "repro.runtime.combining",
            "repro.runtime.audit",
            "repro.runtime.static_deploy",
            "repro.apps",
            "repro.analysis",
            "repro.analysis.largescale",
            "repro.analysis.render",
            "repro.ext",
            "repro.scenarios",
            "repro.scenarios.spec",
            "repro.scenarios.compile",
            "repro.scenarios.registry",
            "repro.scenarios.smoke",
            "repro.cli",
            "repro.errors",
        ],
    )
    def test_module_imports_and_documents(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, "%s lacks a module docstring" % module

    def test_subpackage_all_exports_resolve(self):
        for name in ("repro.core", "repro.chord", "repro.sim", "repro.runtime",
                     "repro.apps", "repro.analysis", "repro.ext",
                     "repro.scenarios"):
            module = importlib.import_module(name)
            for export in getattr(module, "__all__", []):
                assert hasattr(module, export), (name, export)

    def test_error_hierarchy(self):
        from repro import errors

        for name in (
            "StructureError",
            "InvalidCutError",
            "StepPropertyViolation",
            "RingError",
            "MembershipError",
            "ProtocolError",
            "ComponentNotFound",
            "SimulationError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_quickstart_docstring_example(self):
        """The example in the package docstring actually works."""
        from repro import AdaptiveCountingSystem

        system = AdaptiveCountingSystem(width=16, seed=7)
        for _ in range(10):
            system.add_node()
        system.converge()
        values = [system.next_value() for _ in range(20)]
        assert sorted(values) == list(range(20))
