"""Dynamic module download (paper §4)."""

from __future__ import annotations

import pytest

from repro.core.executive import Executive
from repro.core.registry import (
    ModuleDownloadError,
    ModuleRegistry,
    compile_module,
    download_module,
)

GOOD_SOURCE = '''
from repro.core.device import Listener

class Pinger(Listener):
    device_class = "downloaded"

    def on_plugin(self):
        self.hits = 0
        self.bind(0x0001, self.on_ping)

    def on_ping(self, frame):
        if not frame.is_reply:
            self.hits += 1
            self.reply(frame)
'''


class TestCompile:
    def test_compiles_and_exposes_names(self):
        module = compile_module("x = 41 + 1")
        assert module.x == 42

    def test_syntax_error_wrapped(self):
        with pytest.raises(ModuleDownloadError, match="compile"):
            compile_module("def broken(:")

    def test_fresh_namespace_per_download(self):
        a = compile_module("value = []")
        b = compile_module("value = []")
        assert a.value is not b.value


class TestDownload:
    def test_download_installs_into_running_executive(self):
        exe = Executive()
        tid = download_module(exe, GOOD_SOURCE, "Pinger")
        dev = exe.device(tid)
        assert dev.device_class == "downloaded"
        assert dev.tid == tid

    def test_downloaded_device_answers_messages(self):
        from repro.core.device import Listener

        exe = Executive()
        tid = download_module(exe, GOOD_SOURCE, "Pinger")
        sender = Listener("sender")
        exe.install(sender)
        replies = []
        sender.bind(0x0001, lambda f: replies.append(f.is_reply))
        sender.send(tid, b"", xfunction=0x0001)
        exe.run_until_idle()
        assert replies == [True]
        assert exe.device(tid).hits == 1

    def test_parameters_applied_before_plugin_visible(self):
        exe = Executive()
        tid = download_module(
            exe, GOOD_SOURCE, "Pinger", parameters={"rate": "5"}
        )
        assert exe.device(tid).parameters["rate"] == "5"

    def test_missing_class_rejected(self):
        with pytest.raises(ModuleDownloadError, match="no class"):
            download_module(Executive(), "x = 1", "Ghost")

    def test_non_listener_rejected(self):
        with pytest.raises(ModuleDownloadError, match="Listener"):
            download_module(Executive(), "class Ghost: pass", "Ghost")


class TestRegistry:
    def test_record_and_forget(self):
        registry = ModuleRegistry()
        module = compile_module("x = 1")
        registry.record(42, module)
        assert len(registry) == 1
        registry.forget(42)
        assert len(registry) == 0
        registry.forget(42)  # idempotent
