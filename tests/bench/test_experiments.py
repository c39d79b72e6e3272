"""Every experiment's *shape* claim, asserted.

These are small-scale runs of the same harnesses the benchmarks use:
who wins, by roughly what factor, what is constant and what is linear.
The absolute paper numbers live in EXPERIMENTS.md; here we pin the
relationships so a regression that flips a conclusion fails CI.
"""

from __future__ import annotations

from pathlib import Path
from statistics import median

import pytest

from repro.bench.fig6 import run_fig6
from repro.bench.tab1 import PAPER_TABLE1_US, run_tab1
from repro.core.probes import CostModel


def _daqscale_40():
    from repro.bench.daqscale import run_daqscale

    return run_daqscale(events=40)


@pytest.mark.parametrize(
    "experiment", ["fig6", "tab1", "alloc", "pcififo", "multirail", "daqscale"]
)
def test_sim_plane_table_matches_golden(experiment):
    """The paper's results, pinned: the sim plane is deterministic, so
    each experiment's first table (the sim-plane rows, two-decimal µs;
    not the fit lines, whose 1e-18 slope is float noise) must equal the
    text in ``golden/``, captured at commit d4d7be2 before the cost
    model moved from inline probe spans to the ledger.  A refactor that
    shifts a modelled nanosecond fails here, not in a hand diff."""
    from repro.bench.__main__ import EXPERIMENTS

    run = _daqscale_40 if experiment == "daqscale" else EXPERIMENTS[experiment][1]
    golden = Path(__file__).parent / "golden" / f"{experiment}.txt"
    assert run().report().split("\n\n")[0] + "\n" == golden.read_text()


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig6(payloads=(1, 512, 1024, 2048, 4096), rounds=40)

    def test_all_series_linear(self, result):
        assert result.xdaq_fit.r_squared > 0.999
        assert result.gm_fit.r_squared > 0.999

    def test_overhead_constant_across_payloads(self, result):
        """The paper's key finding: framework overhead is payload-
        independent (their fit slope: -7e-05 us/B ~ 0)."""
        assert abs(result.overhead_fit.slope) < 1e-3
        spread = max(result.overhead_us) - min(result.overhead_us)
        assert spread < 0.5  # half a microsecond across 1..4096 B

    def test_overhead_magnitude_near_paper(self, result):
        """Paper: 8.9 us (sigma 0.6). Ours is the whitebox sum plus the
        extra 44 header bytes on the wire - same single-digit regime."""
        assert 7.0 <= result.mean_overhead_us <= 13.0

    def test_xdaq_always_above_gm(self, result):
        assert all(x > g for x, g in zip(result.xdaq_us, result.gm_us))

    def test_slopes_equal_wire_dominates(self, result):
        """XDAQ and GM series have the same slope: the framework adds
        latency, not per-byte cost."""
        assert result.xdaq_fit.slope == pytest.approx(
            result.gm_fit.slope, rel=0.02
        )

    def test_report_renders(self, result):
        text = result.report()
        assert "Figure 6" in text and "overhead" in text


class TestTab1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_tab1(payload=64, rounds=200)

    def test_stage_medians_match_paper_exactly(self, result):
        for stage, paper_us in PAPER_TABLE1_US.items():
            assert result.stage_medians_us[stage] == pytest.approx(
                paper_us, abs=0.01
            ), stage

    def test_stage_sum_cross_checks_blackbox(self, result):
        """Paper: whitebox sum 9.53 vs blackbox 8.9 - same order, the
        sum slightly above.  Ours: 9.70 vs blackbox ~10.6 (the extra
        header wire bytes land in the blackbox view)."""
        assert result.stage_sum_us == pytest.approx(9.70, abs=0.05)
        assert result.blackbox_overhead_us == pytest.approx(
            result.stage_sum_us, abs=1.5
        )

    def test_pt_processing_dominated_by_frame_alloc(self, result):
        """Paper: 'most of the PT processing time is spent in the
        frame allocation'."""
        assert result.stage_medians_us["frame_alloc"] > (
            result.stage_medians_us["pt_processing"] / 2
        )

    def test_report_lists_all_rows(self, result):
        text = result.report()
        for label in ("PT GM processing", "frameAlloc", "frameFree",
                      "Cross check"):
            assert label in text


class TestAllocAblation:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.bench.alloc import run_alloc

        return run_alloc(payload=512, rounds=40)

    def test_sim_optimised_saves_about_4us(self, result):
        saving = result.sim_original_us - result.sim_optimised_us
        assert 3.0 <= saving <= 6.0  # paper: ~4 us

    def test_sim_optimised_near_paper_value(self, result):
        assert result.sim_optimised_us == pytest.approx(5.9, abs=1.5)

    def test_native_table_beats_scan(self, result):
        """The structural claim holds for the real Python allocators."""
        assert result.native_table_ns < result.native_original_ns

    def test_report_renders(self, result):
        assert "allocator" in result.report()


class TestOrbComparison:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.bench.orb import run_orb

        return run_orb(vector_len=1000, calls=80, warmup=10)

    def test_marshalling_workload_orb_much_slower(self, result):
        """The paper's ~10x: the ORB's generic marshalling engine vs
        XDAQ's buffer loaning, on typed DAQ-shaped data."""
        assert result.vector_ratio > 4.0

    def test_orb_vector_call_dominated_by_marshalling(self, result):
        """The ORB's vector call costs far more than its raw echo —
        the marshalling engine is where the time goes."""
        assert result.vector_orb_us > 5 * result.echo_orb_us

    def test_xdaq_vector_near_its_echo_cost(self, result):
        """Buffer loaning: carrying 8 KB of doubles costs XDAQ little
        more than a small echo (no per-element work)."""
        assert result.vector_xdaq_us < 4 * result.echo_xdaq_us

    def test_echo_row_reported(self, result):
        """The small-payload row exists (Python inverts the ordering
        there; EXPERIMENTS.md discusses why)."""
        assert result.echo_orb_us > 0 and result.echo_xdaq_us > 0
        assert "raw 256 B echo" in result.report()


class TestPtModes:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.bench.ptmodes import run_ptmodes

        return run_ptmodes(rounds=25, slow_delay_s=0.0005)

    def test_slow_polling_pt_inflates_latency(self, result):
        assert result.with_slow_polling_us > 3 * result.fast_only_us

    def test_suspension_restores_latency(self, result):
        assert result.with_slow_suspended_us < result.with_slow_polling_us / 3

    def test_task_mode_restores_latency(self, result):
        assert result.with_slow_task_us < result.with_slow_polling_us / 3


class TestDispatchScaling:
    def test_near_flat_in_device_count(self):
        from repro.bench.dispatch import run_dispatch

        result = run_dispatch(device_counts=(1, 10, 100), messages=4000)
        assert result.worst_ratio < 3.0


class TestPciFifo:
    def test_hardware_fifos_win(self):
        from repro.bench.pcififo import run_pcififo

        result = run_pcififo(payload=256, rounds=30)
        assert result.hw_one_way_us < result.sw_one_way_us
        assert result.saving_us > 1.0  # us-scale saving, visibly so


class TestMultirail:
    def test_two_rails_beat_one(self):
        from repro.bench.multirail import run_multirail

        result = run_multirail(messages=120, payload=4096)
        assert result.speedup > 1.5  # approaching 2x

    def test_one_rail_bandwidth_sane(self):
        from repro.bench.multirail import run_multirail

        result = run_multirail(messages=120, payload=4096)
        # The modelled PCI DMA bottleneck is ~49 MB/s per rail.
        assert 10 <= result.one_rail_mb_s <= 60


class TestDaqScale:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.bench.daqscale import run_daqscale

        # run_config raises if any event is lost at any scale.
        return run_daqscale(events=40)

    def test_assembled_bandwidth_scales_with_cluster(self, result):
        """The reason to distribute the processing task at all (paper
        §1): aggregate assembled bandwidth grows with RUxBU."""
        assert len(result.configs) == 4
        by_config = dict(zip(result.configs, result.assembled_mb_s))
        assert by_config[(2, 2)] > 1.5 * by_config[(1, 1)]
        assert by_config[(4, 4)] > 2.5 * by_config[(1, 1)]

    def test_crossing_traffic_message_count(self, result):
        """Per event the wire carries n readout + 1 allocate + n request
        + n fragment + 1 done + n clear = 4n+2 messages (minus purely
        local hops on shared nodes)."""
        for (n_ru, _), msgs in zip(result.configs, result.wire_messages):
            assert 3 * n_ru <= msgs / 40 <= 4 * n_ru + 2


class TestNative:
    def test_rtt_nearly_flat_in_payload(self):
        """Figure 6's finding at Python magnitude: per-message constant
        cost dominates; the C-speed copies are nearly invisible."""
        from repro.bench.pingpong import run_native_pingpong

        rtts_ns = [
            median(run_native_pingpong(payload, 100).rtts_ns)
            for payload in (1, 4096)
        ]
        assert max(rtts_ns) < 3 * min(rtts_ns)


class TestZeroCopyAblation:
    def test_loaning_beats_copy_chain_at_daq_payloads(self):
        from repro.bench.zerocopy import run_zerocopy

        result = run_zerocopy(payloads=(196608,), repeats=100)
        assert result.ratios[0] > 1.5
        assert "196608" in result.report()

    def test_report_ends_with_the_daq_fragment_copy_count(self):
        # (that the count is true of the code: tests/daq/test_readout.py)
        from repro.bench.zerocopy import ZeroCopyResult

        assert ZeroCopyResult().report().endswith(
            "payload copies RU->BU: 2 (arena -> reply frame, "
            "reply frame -> builder)"
        )

    def test_both_paths_move_the_same_frame(self):
        from repro.bench.zerocopy import copying_send_path, loaned_send_path
        from repro.core.executive import Executive
        from repro.i2o.frame import HEADER_SIZE

        payload = bytes(4096)
        assert (
            loaned_send_path(Executive(node=0), payload)
            == copying_send_path(payload)
            == HEADER_SIZE + 4096
        )


class TestBackpressure:
    def test_capped_arms_bounded_and_conserving(self):
        from repro.bench.backpressure import run_backpressure

        # 32 frames emitted per round against 16 dispatched per step.
        result = run_backpressure(n_sinks=2, rounds=20, burst=16, credits=4)
        assert result.violations() == []
        for name in ("park", "shed"):
            stats = result.stats[name]
            assert stats.peak_queue <= stats.bound == 8
            assert (stats.delivered + stats.shed + stats.park_overflow
                    == stats.emitted)
        assert result.stats["uncapped"].peak_queue > 8


class TestOverhead:
    def test_reports_every_arm(self):
        from repro.bench.overhead import ARMS, run_overhead

        result = run_overhead(messages=200, rounds=20, batches=1)
        text = result.report()
        for arm in ARMS:
            assert result.ns[arm.load][arm.name] > 0
            assert arm.name in text


class TestCostModels:
    def test_fig6_with_optimised_model_drops_overhead(self):
        base = run_fig6(payloads=(512, 2048), rounds=30)
        opt = run_fig6(payloads=(512, 2048), rounds=30,
                       cost_model=CostModel.optimised_allocator())
        assert opt.mean_overhead_us < base.mean_overhead_us - 3.0
