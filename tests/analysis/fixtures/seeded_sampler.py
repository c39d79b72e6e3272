"""Sampler-context classification, seeded for the lint gate.

Both thread targets here walk ``sys._current_frames()``, so the
context classifier must tag them ``sampler`` — not ``rx-thread``.
``ProbeSampler`` is the blessed shape: a read-only frame walk with
tallies on the sampler's own plain object, which must lint clean.
``SeededHotSampler`` does the forbidden thing: its observation thread
mutates the device, executive and module-level state it exists to
observe — the sampler is read-only by contract, so even the ``+=``
stat-counter idiom transport rx threads are allowed is a violation
here.  ``tests/analysis/test_lint_cli.py`` lints this file with
``--no-default-excludes --expect RACE001 --expect RACE002`` to prove
the stricter sampler rules still fire.  Never import this module;
never "fix" it.
"""

from __future__ import annotations

import sys
import threading

#: shared module-level state (RACE002 target)
_EXEMPLARS: dict = {}


class ProbeSampler:
    """Read-only frame walk, local accumulation: zero findings."""

    def start(self):
        self._thread = threading.Thread(
            target=self._run, name="probe-sampler", daemon=True
        )
        self._thread.start()

    def _run(self):
        while not self._stop.wait(0.01):
            self.sample_once()

    def sample_once(self):
        frames = sys._current_frames()
        for ident in frames:
            # Plain-object tallies: the sampler owns them outright.
            self.counts[ident] = self.counts.get(ident, 0) + 1


class SeededHotSampler(Listener):  # noqa: F821 - lint-only, never imported
    """An observation thread that mutates the state it observes."""

    def on_plugin(self):
        threading.Thread(
            target=self._sample_loop, name="seeded-sampler", daemon=True
        ).start()

    def _sample_loop(self):
        frames = sys._current_frames()
        frame = frames.get(self.watched_ident)
        self.samples_taken += 1  # RACE001: no counter pass for samplers
        self.executive.hot_frame = frame  # RACE001: executive state
        _EXEMPLARS[id(frame)] = frame  # RACE002: module state
