"""Tests for ``repro.obs.recorder``: install/uninstall, the null-object
fast path, hook coverage through a live system, and sampling."""

import pytest

from repro.obs import NULL_RECORDER, NullRecorder, Recorder, install, uninstall
from repro.obs.recorder import recording
from repro.obs import recorder as _obs
from repro.runtime.system import AdaptiveCountingSystem


def run_small_system(tokens=60, churn_every=20, width=16, nodes=8, seed=0):
    system = AdaptiveCountingSystem(width=width, seed=seed, initial_nodes=nodes)
    system.converge()
    churn_flip = True
    for index in range(tokens):
        system.inject_token()
        if churn_every and index and index % churn_every == 0:
            if churn_flip:
                system.add_node()
            else:
                system.crash_node()
            churn_flip = not churn_flip
    system.run_until_quiescent()
    system.verify()
    return system


class TestInstallUninstall:
    def test_default_is_the_shared_null_recorder(self):
        assert _obs.ACTIVE is NULL_RECORDER
        assert not _obs.ACTIVE.enabled

    def test_install_and_uninstall(self):
        recorder = Recorder()
        try:
            assert install(recorder) is recorder
            assert _obs.ACTIVE is recorder
            assert _obs.ACTIVE.enabled
        finally:
            uninstall()
        assert _obs.ACTIVE is NULL_RECORDER

    def test_recording_context_restores_previous(self):
        outer = Recorder()
        inner = Recorder()
        with recording(outer):
            with recording(inner):
                assert _obs.ACTIVE is inner
            assert _obs.ACTIVE is outer
        assert _obs.ACTIVE is NULL_RECORDER

    def test_recording_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with recording(Recorder()):
                raise RuntimeError("boom")
        assert _obs.ACTIVE is NULL_RECORDER


class TestNullRecorder:
    def test_every_hook_is_a_noop(self):
        """The full hook API exists on the null object and does nothing
        — a new hook added to Recorder only must fail here."""
        null = NullRecorder()
        null.begin_section("x")
        null.event_executed(0.0)
        null.bus_sent(0.0, "token")
        null.bus_queued(0.0, "token", 1.0)
        null.bus_delivered(0.0, "token")
        null.bus_dropped(0.0, "token")
        null.token_injected(object())
        null.token_hop(0.0, object(), (0,), 0, 1)
        null.token_rerouted(0.0, object())
        null.token_retired(object())
        null.token_dropped(0.0, object())
        null.owed_delta(1)
        null.stabilization(0.0, 1.0, 2)

    def test_recorder_overrides_every_null_hook(self):
        """Recorder must shadow the whole NullRecorder hook surface:
        an unimplemented hook would silently no-op when enabled."""
        hooks = [
            name
            for name in vars(NullRecorder)
            if not name.startswith("__") and callable(getattr(NullRecorder, name))
        ]
        for name in hooks:
            assert getattr(Recorder, name) is not getattr(NullRecorder, name), name


class TestRecorderThroughSystem:
    def test_metrics_cover_the_token_plane(self):
        with recording(Recorder()) as recorder:
            system = run_small_system()
        metrics = recorder.metrics
        stats = system.token_stats
        assert metrics.counter("tokens.injected").value == stats.issued
        assert metrics.counter("tokens.retired").value == stats.retired
        assert metrics.counter("tokens.hops").value == stats.total_hops
        assert metrics.counter("tokens.reroutes").value == stats.total_reroutes
        assert metrics.counter("sim.events_executed").value == system.sim.events_run
        # Bus counters observed real traffic; the owed ledger drained.
        assert metrics.counter("bus.sent", ("token",)).value > 0
        assert metrics.gauge("tokens.owed").value == 0

    def test_latency_histogram_matches_token_stats(self):
        with recording(Recorder()) as recorder:
            system = run_small_system()
        histogram = recorder.latency_histogram()
        assert histogram.count == system.token_stats.retired
        assert histogram.mean == pytest.approx(system.token_stats.mean_latency)

    def test_trace_records_token_journeys(self):
        with recording(Recorder(trace=True)) as recorder:
            run_small_system()
        events = recorder.trace.events()
        begins = [e for e in events if e.ph == "b"]
        ends = [e for e in events if e.ph == "e"]
        hops = [e for e in events if e.ph == "n" and e.name == "hop"]
        assert len(begins) == 60
        assert len(ends) == 60
        assert hops
        # Every journey is correlated by (cat="token", id=token_id).
        assert {e.id for e in begins} == {e.id for e in ends}
        assert all(e.cat == "token" for e in begins)

    def test_stabilization_episode_recorded_on_crash(self):
        with recording(Recorder(trace=True)) as recorder:
            system = AdaptiveCountingSystem(width=16, seed=1, initial_nodes=8)
            system.converge()
            for _ in range(10):
                system.inject_token()
            system.crash_node()
            for _ in range(10):
                system.inject_token()
            system.run_until_quiescent()
            system.verify()
        assert recorder.metrics.counter("stabilize.episodes").value >= 1
        slices = [e for e in recorder.trace.events() if e.name == "stabilize"]
        assert slices and all(e.ph == "X" for e in slices)


class TestSampling:
    def test_sampling_is_deterministic_by_token_id(self):
        with recording(Recorder(trace=True, sample_every=4)) as recorder:
            run_small_system()
        begins = [e for e in recorder.trace.events() if e.ph == "b"]
        assert {e.id for e in begins} == {i for i in range(60) if i % 4 == 0}

    def test_metrics_unaffected_by_sampling(self):
        with recording(Recorder(trace=True, sample_every=7)) as sampled:
            run_small_system()
        with recording(Recorder(trace=True)) as full:
            run_small_system()
        assert (
            sampled.metrics.counter("tokens.retired").value
            == full.metrics.counter("tokens.retired").value
        )

    def test_bad_sample_every_rejected(self):
        with pytest.raises(ValueError):
            Recorder(sample_every=0)


class TestNullFastPathEquivalence:
    def test_instrumented_run_identical_to_uninstrumented(self):
        """Hooks observe, never perturb: same seed, with and without a
        recorder, produces the identical simulation."""
        baseline = run_small_system()
        with recording(Recorder(trace=True)):
            instrumented = run_small_system()
        assert instrumented.sim.events_run == baseline.sim.events_run
        assert instrumented.sim.now == baseline.sim.now
        assert instrumented.bus.messages_sent == baseline.bus.messages_sent
        assert (
            instrumented.token_stats.latencies == baseline.token_stats.latencies
        )
        assert instrumented.output_counts == baseline.output_counts
