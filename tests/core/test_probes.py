"""Time probes in all three modes."""

from __future__ import annotations

import pytest

from repro.core.probes import (
    CostModel,
    OPTIMISED_ALLOC_COSTS_NS,
    PAPER_TABLE1_COSTS_NS,
    Probes,
)
from repro.i2o.errors import I2OError


class TestOffMode:
    def test_records_nothing(self):
        probes = Probes("off")
        with probes.measure("stage"):
            pass
        assert probes.stage_names() == []
        with pytest.raises(I2OError):
            probes.median_us("stage")


class TestWallMode:
    def test_durations_positive_and_counted(self):
        probes = Probes("wall")
        for _ in range(5):
            with probes.measure("work"):
                sum(range(1000))
        assert probes.count("work") == 5
        assert probes.median_us("work") > 0
        assert probes.mean_us("work") > 0

    def test_nested_inner_contributes_to_outer(self):
        probes = Probes("wall")
        with probes.measure("outer"):
            with probes.measure("inner"):
                sum(range(20_000))
        assert probes.samples("outer")[0] >= probes.samples("inner")[0]

    def test_stage_filter(self):
        probes = Probes("wall", stages=("kept",))
        with probes.measure("kept"):
            pass
        with probes.measure("dropped"):
            pass
        assert probes.stage_names() == ["kept"]

    def test_reset(self):
        probes = Probes("wall")
        with probes.measure("x"):
            pass
        probes.reset()
        assert probes.count("x") == 0


class TestModelMode:
    def test_imposes_exact_costs(self):
        probes = Probes("model", model=CostModel({"a": 100, "b": 50}))
        with probes.measure("a"):
            pass
        with probes.measure("b"):
            pass
        assert probes.samples("a")[0] == 100
        assert probes.samples("b")[0] == 50
        assert probes.drain_accrued_ns() == 150
        assert probes.drain_accrued_ns() == 0

    def test_nested_costs_are_inclusive(self):
        probes = Probes("model", model=CostModel({"outer": 10, "inner": 90}))
        with probes.measure("outer"):
            with probes.measure("inner"):
                pass
        assert probes.samples("inner")[0] == 90
        assert probes.samples("outer")[0] == 100  # inclusive, like rdtsc pairs
        assert probes.accrued_ns == 100

    def test_unknown_stage_costs_default(self):
        probes = Probes("model", model=CostModel({"a": 5}, default_ns=7))
        with probes.measure("other"):
            pass
        assert probes.samples("other")[0] == 7

    def test_charge_records_and_accrues(self):
        probes = Probes("model", model=CostModel({}))
        probes.charge("fifo", 123)
        assert probes.samples("fifo")[0] == 123
        assert probes.accrued_ns == 123

    def test_charge_ignored_outside_model_mode(self):
        probes = Probes("wall")
        probes.charge("fifo", 123)
        assert probes.count("fifo") == 0

    def test_default_model_is_paper_calibration(self):
        probes = Probes("model")
        assert probes.model is not None
        assert probes.model.cost("frame_alloc") == 2180


class TestCalibration:
    """The cost models must match the paper's table 1 by construction."""

    def test_paper_model_inclusive_stage_values(self):
        costs = PAPER_TABLE1_COSTS_NS
        assert costs["pt_processing"] + costs["frame_alloc"] == 2920
        assert costs["postprocess"] + costs["frame_free"] == 2490
        assert costs["application"] + costs["frame_alloc"] == 3600

    def test_paper_model_sum_matches_table(self):
        costs = PAPER_TABLE1_COSTS_NS
        total = (
            costs["pt_processing"] + costs["frame_alloc"]  # PT incl alloc
            + costs["demultiplex"] + costs["upcall"]
            + costs["application"] + costs["frame_alloc"]  # app incl send
            + costs["postprocess"] + costs["frame_free"]
        )
        assert total == 9700  # the paper's rows add to 9.70 us

    def test_optimised_model_cheaper_by_about_4us(self):
        base = sum(PAPER_TABLE1_COSTS_NS.values()) + PAPER_TABLE1_COSTS_NS[
            "frame_alloc"
        ]
        opt = sum(OPTIMISED_ALLOC_COSTS_NS.values()) + OPTIMISED_ALLOC_COSTS_NS[
            "frame_alloc"
        ]
        saving_us = (base - opt) / 1000
        assert 3.5 <= saving_us <= 5.5

    def test_bad_mode_rejected(self):
        with pytest.raises(I2OError):
            Probes("banana")


class TestJitter:
    def test_zero_jitter_is_exact(self):
        probes = Probes("model", model=CostModel({"a": 1000}))
        for _ in range(10):
            with probes.measure("a"):
                pass
        assert set(probes.samples("a")) == {1000}

    def test_jitter_disperses_around_mean(self):
        model = CostModel({"a": 1000}, jitter_frac=0.2, jitter_seed=3)
        probes = Probes("model", model=model)
        for _ in range(500):
            with probes.measure("a"):
                pass
        samples = probes.samples("a")
        assert len(set(samples.tolist())) > 100  # genuinely dispersed
        assert abs(float(samples.mean()) - 1000) < 50
        assert 100 < float(samples.std()) < 350

    def test_jitter_deterministic_per_seed(self):
        def run(seed):
            model = CostModel({"a": 1000}, jitter_frac=0.2, jitter_seed=seed)
            probes = Probes("model", model=model)
            for _ in range(20):
                with probes.measure("a"):
                    pass
            return probes.samples("a").tolist()

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_jitter_never_negative(self):
        model = CostModel({"a": 10}, jitter_frac=5.0)  # wild dispersion
        probes = Probes("model", model=model)
        for _ in range(200):
            with probes.measure("a"):
                pass
        assert int(probes.samples("a").min()) >= 0
