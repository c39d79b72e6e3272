"""Host control: executive messages, control rights, Tcl verbs."""

from __future__ import annotations

import pytest

from repro.config.control import ControlError, HostController
from repro.config.tclish import TclInterp
from repro.core.device import Listener
from repro.core.states import DeviceState

from tests.conftest import make_loopback_cluster


@pytest.fixture
def controlled_cluster():
    cluster = make_loopback_cluster(3)

    def pump():
        for exe in cluster.values():
            exe.step()

    controller = HostController(pump=pump)
    cluster[0].install(controller)
    return cluster, controller


class TestVerbs:
    def test_status(self, controlled_cluster):
        cluster, ctl = controlled_cluster
        status = ctl.status(1)
        assert status["node"] == "1"
        assert status["state"] == "initialised"

    def test_enable_quiesce_halt_lifecycle(self, controlled_cluster):
        cluster, ctl = controlled_cluster
        dev = Listener("payload-device")
        cluster[2].install(dev)
        ctl.enable(2)
        assert dev.state is DeviceState.ENABLED
        ctl.quiesce(2)
        assert dev.state is DeviceState.QUIESCED
        ctl.halt(2)
        assert cluster[2]._halt_requested

    def test_lct_lists_remote_devices(self, controlled_cluster):
        cluster, ctl = controlled_cluster
        tid = cluster[1].install(Listener("thing"))
        table = ctl.lct(1)
        assert table[str(tid)] == "private"

    def test_params_get_set_remote(self, controlled_cluster):
        cluster, ctl = controlled_cluster
        dev = Listener("cfg")
        dev.parameters["speed"] = "slow"
        tid = cluster[1].install(dev)
        assert ctl.get_params(1, tid, "speed") == {"speed": "slow"}
        ctl.set_params(1, tid, {"speed": "fast", "extra": "1"})
        assert dev.parameters["speed"] == "fast"
        assert dev.parameters["extra"] == "1"

    def test_rpc_timeout_on_dead_node(self, controlled_cluster):
        cluster, ctl = controlled_cluster
        proxy = cluster[0].routes.create_proxy(77, 0)  # nonexistent node
        with pytest.raises(ControlError, match="rejected"):
            ctl.rpc(proxy, 0xA0)


class TestControlRights:
    def test_primary_holds_rights_by_default(self, controlled_cluster):
        _, ctl = controlled_cluster
        assert ctl.control_holder == ctl.name
        ctl.status(1)  # allowed

    def test_unregistered_secondary_cannot_apply(self, controlled_cluster):
        _, ctl = controlled_cluster
        with pytest.raises(ControlError, match="never registered"):
            ctl.apply_for_control("rogue")

    def test_secondary_denied_while_primary_holds(self, controlled_cluster):
        _, ctl = controlled_cluster
        ctl.register_secondary("backup")
        assert ctl.apply_for_control("backup") is False

    def test_secondary_granted_after_release(self, controlled_cluster):
        _, ctl = controlled_cluster
        ctl.register_secondary("backup")
        ctl.release_control()
        assert ctl.apply_for_control("backup") is True
        assert ctl.control_holder == "backup"
        with pytest.raises(ControlError, match="control rights"):
            ctl.status(1)


class TestTclIntegration:
    def test_script_drives_cluster(self, controlled_cluster):
        cluster, ctl = controlled_cluster
        interp = TclInterp()
        ctl.bind_tcl(interp, cluster)
        interp.run("""
            foreach node {1 2} { enable $node }
            puts [status 1]
        """)
        assert cluster[1].state is DeviceState.ENABLED
        assert cluster[2].state is DeviceState.ENABLED
        assert "state=enabled" in interp.output[0]

    def test_script_module_download_and_param(self, controlled_cluster):
        cluster, ctl = controlled_cluster
        interp = TclInterp()
        ctl.bind_tcl(interp, cluster)
        interp.set_var("src", (
            "from repro.core.device import Listener\n"
            "class Probe(Listener):\n"
            "    device_class = 'probe'\n"
        ))
        interp.run("""
            set tid [module 1 Probe $src]
            param set 1 $tid colour green
            puts [param get 1 $tid colour]
        """)
        assert interp.output == ["green"]
        dev = cluster[1].find_device("Probe")
        assert dev.parameters["colour"] == "green"

    def test_module_unknown_node_errors(self, controlled_cluster):
        cluster, ctl = controlled_cluster
        interp = TclInterp()
        ctl.bind_tcl(interp, cluster)
        assert interp.run("catch {module 9 X {class X: pass}} err") == "1"
