"""RACE001/RACE002: thread-affinity race detection."""

from __future__ import annotations

import textwrap

from tools.lint import lint_source

RX_DEVICE = """
    class Dev(Listener):
        def on_plugin(self):
            threading.Thread(target=self._rx_loop).start()

        def _rx_loop(self):
            {body}
"""

SAMPLER_DEVICE = """
    class Samp(Listener):
        def on_plugin(self):
            threading.Thread(target=self._sample_loop).start()

        def _sample_loop(self):
            frames = sys._current_frames()
            {body}
"""


def violations(source: str):
    report = lint_source(textwrap.dedent(source), "t.py")
    assert report.parse_error is None
    return [v for v in report.violations if not v.suppressed]


def rules(source: str) -> list[str]:
    return [v.rule for v in violations(source)]


def rx_rules(body: str) -> list[str]:
    return rules(RX_DEVICE.format(body=body))


def sampler_rules(body: str) -> list[str]:
    return rules(SAMPLER_DEVICE.format(body=body))


class TestRace001:
    def test_device_attribute_store_from_rx(self):
        assert rx_rules("self.last_frame = object()") == ["RACE001"]

    def test_executive_mutation_from_rx(self):
        assert rx_rules("self.executive.stats['rx'] = 1") == ["RACE001"]

    def test_mutator_call_from_rx(self):
        assert rx_rules("self.pending.append(1)") == ["RACE001"]

    def test_same_store_from_dispatch_is_fine(self):
        assert rules("""
            class Dev(Listener):
                def on_plugin(self):
                    self.last_frame = None
        """) == []

    def test_lock_region_is_exempt(self):
        assert rx_rules(
            "with self._lock:\n                self.last_frame = object()"
        ) == []

    def test_counter_augassign_is_exempt(self):
        # PT accounting idiom: rx threads bump their own counters.
        assert rx_rules("self.frames_received += 1") == []

    def test_executive_counter_is_not_exempt(self):
        assert rx_rules("self.executive.drops += 1") == ["RACE001"]

    def test_local_state_is_fine(self):
        assert rx_rules("buf = []\n            buf.append(1)") == []

    def test_noqa_suppresses(self):
        assert rx_rules(
            "self.last_frame = object()  # repro: noqa RACE001"
        ) == []


class TestRace002:
    def test_module_state_from_rx(self):
        assert rules("""
            _SEEN: dict = {}

            class Dev(Listener):
                def on_plugin(self):
                    threading.Thread(target=self._rx_loop).start()

                def _rx_loop(self):
                    _SEEN['x'] = 1
        """) == ["RACE002"]

    def test_class_attribute_from_rx(self):
        assert rx_rules("Dev.instances = []") == ["RACE002"]

    def test_shadowing_local_is_fine(self):
        assert rules("""
            _SEEN: dict = {}

            class Dev(Listener):
                def on_plugin(self):
                    threading.Thread(target=self._rx_loop).start()

                def _rx_loop(self):
                    _SEEN = {}
                    _SEEN['x'] = 1
        """) == []

    def test_module_state_from_dispatch_is_fine(self):
        assert rules("""
            _SEEN: dict = {}

            class Dev(Listener):
                def on_plugin(self):
                    _SEEN['x'] = 1
        """) == []


class TestSamplerContext:
    """The frame-walking observation thread is its own context:
    never mislabelled rx-thread, read-only walk clean, mutations of
    observed state flagged with *no* stat-counter pass."""

    def test_classified_sampler_not_rx_thread(self):
        (v,) = violations(
            SAMPLER_DEVICE.format(body="self.executive.hot = frames")
        )
        assert v.rule == "RACE001"
        assert "[sampler]" in v.message
        assert "rx-thread" not in v.message

    def test_read_only_walk_on_plain_object_is_clean(self):
        # The SamplingProfiler shape: a plain (non-device) object whose
        # thread walks frames and tallies on its own state.
        assert rules("""
            class Samp:
                def start(self):
                    threading.Thread(target=self._run).start()

                def _run(self):
                    frames = sys._current_frames()
                    self.counts[len(frames)] = 1
        """) == []

    def test_one_self_hop_to_the_walk_still_classifies(self):
        # The _run -> sample_once idiom: the target itself never names
        # sys._current_frames.
        (v,) = violations("""
            class Samp:
                def start(self):
                    threading.Thread(target=self._run).start()

                def _run(self):
                    self.sample_once()

                def sample_once(self):
                    frames = sys._current_frames()
                    self.executive.hot = frames
        """)
        assert v.rule == "RACE001"
        assert "[sampler]" in v.message

    def test_device_state_store_is_flagged(self):
        assert sampler_rules("self.last_walk = frames") == ["RACE001"]

    def test_counter_augassign_is_not_exempt_for_samplers(self):
        # Contrast with TestRace001.test_counter_augassign_is_exempt:
        # the sampler is read-only by contract, observers don't get
        # the transports' stat-counter pass.
        assert sampler_rules("self.samples_taken += 1") == ["RACE001"]

    def test_module_state_is_flagged(self):
        assert rules("""
            _SEEN: dict = {}

            class Samp(Listener):
                def on_plugin(self):
                    threading.Thread(target=self._sample_loop).start()

                def _sample_loop(self):
                    _SEEN['x'] = sys._current_frames()
        """) == ["RACE002"]

    def test_lock_region_is_exempt(self):
        assert sampler_rules(
            "with self._lock:\n                self.last_walk = frames"
        ) == []
