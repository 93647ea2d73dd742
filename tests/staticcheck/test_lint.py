"""Pass 3 (AST lint) — fixture violations, clean-repo gate, output."""

import json
import os

from repro.staticcheck import lint_paths, lint_source

HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "fixtures", "lint_bad.py")
REPO_ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))


def fixture_report():
    return lint_paths([FIXTURE])


class TestRules:
    def test_fixture_trips_expected_codes(self):
        report = fixture_report()
        codes = report.codes()
        assert codes.count("RSC301") == 3  # module call, Random(), from-import
        assert codes.count("RSC304") == 2  # list and dict defaults
        assert codes.count("RSC303") == 2  # hosts[...] + direct handle_message
        assert "RSC302" not in codes  # fixture is not in repro.sim/runtime

    def test_diagnostics_carry_file_and_line(self):
        report = fixture_report()
        for diagnostic in report:
            assert diagnostic.source.endswith("lint_bad.py")
            assert diagnostic.line is not None
        rendered = report.format()
        assert "lint_bad.py:" in rendered

    def test_wall_clock_scoped_to_sim_and_runtime(self):
        source = "import time\n\ndef stamp():\n    return time.time()\n"
        scoped = lint_source(source, "node.py", module="repro.sim.node")
        assert scoped.codes() == ["RSC302"]
        assert scoped.diagnostics[0].line == 4
        unscoped = lint_source(source, "bench.py", module="benchmarks.bench")
        assert unscoped.ok

    def test_datetime_now_flagged_in_runtime(self):
        source = "from datetime import datetime\n\nx = datetime.now()\n"
        report = lint_source(source, "x.py", module="repro.runtime.system")
        assert report.codes() == ["RSC302"]
        source = "import datetime\n\nx = datetime.datetime.now()\n"
        report = lint_source(source, "x.py", module="repro.runtime.system")
        assert report.codes() == ["RSC302"]

    def test_seeded_random_not_flagged(self):
        source = (
            "import random\n"
            "rng = random.Random(7)\n"
            "value = rng.random()\n"
        )
        assert lint_source(source, "ok.py").ok

    def test_bus_may_deliver_directly(self):
        source = (
            "class MessageBus:\n"
            "    def deliver(self, process, message):\n"
            "        process.handle_message(message)\n"
        )
        assert lint_source(source, "bus.py").ok

    def test_syntax_error_reported_not_raised(self):
        report = lint_source("def broken(:\n", "broken.py")
        assert report.codes() == ["RSC300"]

    def test_json_output(self):
        payload = json.loads(fixture_report().to_json())
        assert payload["ok"] is False
        assert all("code" in d and "line" in d for d in payload["diagnostics"])


class TestClosureHandlers:
    """RSC303 extends to closures registered as message-time callbacks."""

    CLOSURE_FIXTURE = os.path.join(HERE, "fixtures", "closure_handler_bad.py")

    def test_fixture_trips_both_closure_variants(self):
        report = lint_paths([self.CLOSURE_FIXTURE])
        assert report.codes() == ["RSC303", "RSC303"]
        lines = sorted(d.line for d in report)
        rendered = report.format()
        assert "handle_message" in rendered  # the _pending-registered def
        assert "hosts[" in rendered  # the on_undeliverable lambda
        assert lines == sorted(set(lines))  # two distinct sites

    def test_pending_registration_marks_nested_def(self):
        source = (
            "class Node:\n"
            "    def handle_message(self, message):\n"
            "        pass\n"
            "    def ask(self, other):\n"
            "        def on_reply(value):\n"
            "            other.handle_message(value)\n"
            "        self._pending[1] = on_reply\n"
        )
        assert lint_source(source, "closure.py").codes() == ["RSC303"]

    def test_on_timeout_lambda_marked(self):
        source = (
            "class Node:\n"
            "    def handle_message(self, message):\n"
            "        pass\n"
            "    def ask(self, bus, peer, other):\n"
            "        bus.send(peer, 'm', on_timeout=lambda: "
            "other.handle_message('x'))\n"
        )
        assert lint_source(source, "closure.py").codes() == ["RSC303"]

    def test_unregistered_closure_not_handler_scoped(self):
        # The same body in a plain helper closure is out of scope: it
        # never runs in message-delivery context.
        source = (
            "class Node:\n"
            "    def handle_message(self, message):\n"
            "        pass\n"
            "    def ask(self, other):\n"
            "        def helper(value):\n"
            "            other.handle_message(value)\n"
            "        return helper\n"
        )
        assert lint_source(source, "closure.py").ok

    def test_benign_registered_closure_clean(self):
        # Registration alone is fine — only bus-bypassing bodies trip.
        source = (
            "class Node:\n"
            "    def handle_message(self, message):\n"
            "        pass\n"
            "    def ask(self, bus, peer):\n"
            "        def on_drop():\n"
            "            self.failures += 1\n"
            "        bus.send(peer, 'm', on_undeliverable=on_drop)\n"
        )
        assert lint_source(source, "closure.py").ok


class TestObsEagerFormat:
    """RSC306 — no eager string formatting at obs record calls."""

    OBS_FIXTURE = os.path.join(HERE, "fixtures", "obs_eager_format_bad.py")

    def test_fixture_trips_every_bad_site(self):
        report = lint_paths([self.OBS_FIXTURE])
        assert report.codes() == ["RSC306"] * 4
        lines = [d.line for d in report]
        assert lines == sorted(set(lines))  # four distinct sites

    def test_fstring_label_flagged(self):
        source = (
            "def hook(obs, now, wire):\n"
            "    obs.bus_sent(now, f'wire-{wire}')\n"
        )
        report = lint_source(source, "x.py")
        assert report.codes() == ["RSC306"]
        assert report.diagnostics[0].line == 2

    def test_percent_format_in_keyword_flagged(self):
        source = (
            "def hook(recorder, now, kind):\n"
            "    recorder.bus_dropped(now, kind='k-%s' % kind)\n"
        )
        assert lint_source(source, "x.py").codes() == ["RSC306"]

    def test_str_format_on_metrics_flagged(self):
        source = (
            "def hook(metrics, wire, value):\n"
            "    metrics.counter('c.{}'.format(wire)).inc(value)\n"
        )
        assert lint_source(source, "x.py").codes() == ["RSC306"]

    def test_label_tuple_and_raw_values_clean(self):
        source = (
            "def hook(obs, metrics, now, kind, wire, latency):\n"
            "    obs.bus_sent(now, kind)\n"
            "    metrics.histogram('tokens.latency', (wire,)).record(latency)\n"
        )
        assert lint_source(source, "x.py").ok

    def test_formatting_on_non_obs_receiver_clean(self):
        source = (
            "def log(report, code, name):\n"
            "    report.add(code, 'bad thing in %s' % name)\n"
        )
        assert lint_source(source, "x.py").ok

    def test_deferred_lambda_formatting_clean(self):
        source = (
            "def hook(recorder, wire):\n"
            "    recorder.debug_hook(lambda: 'wire %d' % wire)\n"
        )
        assert lint_source(source, "x.py").ok

    def test_wall_clock_applies_to_obs_package(self):
        """repro.obs is sim-time scoped: a wall-clock read there would
        break byte-identical exports."""
        source = "import time\n\ndef stamp():\n    return time.time()\n"
        report = lint_source(source, "export.py", module="repro.obs.export")
        assert report.codes() == ["RSC302"]


class TestPooledConstruction:
    """RSC307 — the pooled Envelope is built only in its home module."""

    POOLED_FIXTURE = os.path.join(HERE, "fixtures", "pooled_ctor_bad.py")

    def _fixture_source(self):
        with open(self.POOLED_FIXTURE) as handle:
            return handle.read()

    def test_fixture_trips_on_envelope_only(self):
        # The rule is module-scoped: the fixture lives under tests/, so
        # lint it as if it were a repro.* module.
        report = lint_source(
            self._fixture_source(),
            self.POOLED_FIXTURE,
            module="repro.runtime.fake_injector",
        )
        assert report.codes() == ["RSC307"]
        rendered = report.format()
        assert "Envelope" in rendered and "repro.sim.node" in rendered
        assert "Token" not in rendered

    def test_fixture_exempt_under_its_real_tests_module(self):
        # Same source, real (non-repro) module path: out of scope.
        assert lint_paths([self.POOLED_FIXTURE]).ok

    def test_home_modules_exempt(self):
        source = "def build(sender):\n    return Envelope(sender, 0, 'm', 'k', None, None)\n"
        assert lint_source(source, "node.py", module="repro.sim.node").ok

    def test_attribute_construction_flagged(self):
        source = (
            "from repro.sim import node\n"
            "def build(sender):\n"
            "    return node.Envelope(sender, 0, 'm', 'k', None, None)\n"
        )
        report = lint_source(source, "x.py", module="repro.runtime.injector")
        assert report.codes() == ["RSC307"]
        assert report.diagnostics[0].line == 3

    def test_exact_name_only(self):
        # Only the registered name trips: Token, TokenMsg and lookalikes
        # are plain records any module may build.
        source = (
            "def build(path, port, tid, wire, now):\n"
            "    token = Token(tid, wire, now)\n"
            "    return TokenMsg(path, port, token), EnvelopeLike(token)\n"
        )
        assert lint_source(source, "x.py", module="repro.runtime.injector").ok


class TestScenarioSpecRule:
    """RSC308 — committed scenario spec files must pass schema
    validation, with one finding per schema problem."""

    SPEC_FIXTURE = os.path.join(HERE, "fixtures", "scenario_spec_bad.json")

    def test_fixture_trips_one_finding_per_problem(self):
        report = lint_paths([self.SPEC_FIXTURE])
        assert report.codes() == ["RSC308"] * 6
        text = report.format()
        assert "network.width" in text
        assert "arrivals.kind" in text
        assert "arrivals.tokens" in text
        assert "unknown_table" in text

    def test_messages_match_the_smoke_validator(self):
        from repro.scenarios.spec import spec_file_problems

        report = lint_paths([self.SPEC_FIXTURE])
        linted = [d.message for d in report]
        assert linted == [
            "invalid scenario spec: %s" % problem
            for problem in spec_file_problems(self.SPEC_FIXTURE)
        ]

    def test_walk_picks_up_library_specs(self, tmp_path):
        library = tmp_path / "scenarios" / "library"
        library.mkdir(parents=True)
        (library / "broken.json").write_text('{"arrivals": {"kind": "x"}}')
        report = lint_paths([str(tmp_path)])
        assert "RSC308" in report.codes()
        assert any(d.source.endswith("broken.json") for d in report)

    def test_json_outside_a_library_dir_is_ignored(self, tmp_path):
        (tmp_path / "config.json").write_text('{"arrivals": {"kind": "x"}}')
        assert lint_paths([str(tmp_path)]).ok

    def test_committed_library_is_clean(self):
        library = os.path.join(
            REPO_ROOT, "src", "repro", "scenarios", "library"
        )
        report = lint_paths([library])
        assert report.ok, report.format()

    def test_code_registered_and_explained(self):
        from repro.staticcheck.diagnostics import KNOWN_CODES
        from repro.staticcheck.explain import EXPLANATIONS

        assert "RSC308" in KNOWN_CODES
        assert "RSC308" in EXPLANATIONS


class TestRepoIsClean:
    """The lint rules must pass on the repository's own code."""

    def test_src_clean(self):
        report = lint_paths([os.path.join(REPO_ROOT, "src", "repro")])
        assert report.ok, report.format()

    def test_tests_benchmarks_examples_clean(self):
        # `fixtures` directories are excluded by default — they hold
        # deliberate violations like this test's own fixture.
        report = lint_paths(
            [
                os.path.join(REPO_ROOT, "tests"),
                os.path.join(REPO_ROOT, "benchmarks"),
                os.path.join(REPO_ROOT, "examples"),
            ]
        )
        assert report.ok, report.format()
