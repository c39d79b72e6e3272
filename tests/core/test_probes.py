"""The cost tables and the ledger that charges them."""

from __future__ import annotations

from repro.core.observer import OUTCOME_OK, DispatchRecord
from repro.core.probes import (
    CostModel,
    OPTIMISED_ALLOC_COSTS_NS,
    PAPER_TABLE1_COSTS_NS,
)
from repro.core.simnode import CostLedger
from repro.flightrec.records import EV_FRAME_INGEST
from repro.i2o.frame import Frame
from repro.i2o.tid import EXECUTIVE_TID


def _dispatch(ledger: CostLedger, during=lambda: None) -> None:
    """One begin/end pair as the executive delivers it."""
    frame = Frame.build(target=EXECUTIVE_TID, initiator=EXECUTIVE_TID)
    rec = DispatchRecord(0, frame, 0)
    ledger.dispatch_begin(rec)
    during()
    rec.outcome = OUTCOME_OK
    ledger.dispatch_end(rec)


class TestModelMode:
    def test_imposes_exact_costs(self):
        ledger = CostLedger(CostModel({"frame_alloc": 100, "frame_free": 50}))
        ledger.note_alloc(64, 1)
        ledger.note_release(0)
        assert ledger.samples["frame_alloc"] == [100]
        assert ledger.samples["frame_free"] == [50]
        assert ledger.accrued_ns == 150

    def test_nested_costs_are_inclusive(self):
        ledger = CostLedger(CostModel({"pt_processing": 10, "frame_alloc": 90}))
        ledger.note_alloc(64, 1)
        ledger.record(EV_FRAME_INGEST)
        assert ledger.samples["frame_alloc"] == [90]
        assert ledger.samples["pt_processing"] == [100]  # inclusive, like rdtsc pairs
        assert ledger.accrued_ns == 100

    def test_dispatch_stages_include_what_the_handler_charged(self):
        ledger = CostLedger(CostModel(
            {"demultiplex": 1, "upcall": 2, "application": 30,
             "postprocess": 40, "frame_alloc": 500, "frame_free": 600}
        ))

        def handler_and_free():
            ledger.note_alloc(64, 1)    # the handler's reply
            ledger.note_release(0)      # the executive frees the request

        ledger.note_alloc(64, 1)  # before the dispatch: not the handler's
        _dispatch(ledger, handler_and_free)
        assert ledger.samples["demultiplex"] == [1]
        assert ledger.samples["upcall"] == [2]
        assert ledger.samples["application"] == [530]
        assert ledger.samples["postprocess"] == [640]
        assert ledger.accrued_ns == 500 + 1 + 2 + 30 + 40 + 500 + 600

    def test_unknown_stage_costs_default(self):
        ledger = CostLedger(CostModel({"frame_alloc": 5}, default_ns=7))
        ledger.note_release(0)
        assert ledger.samples["frame_free"] == [7]

    def test_charge_records_and_accrues(self):
        ledger = CostLedger(CostModel({}))
        ledger.charge("fifo", 123)
        assert ledger.samples["fifo"] == [123]
        assert ledger.accrued_ns == 123

    def test_default_model_is_paper_calibration(self):
        assert CostModel().cost("frame_alloc") == 2180
        assert CostModel.paper_table1().costs_ns == PAPER_TABLE1_COSTS_NS

    def test_a_bare_release_record_is_not_cpu_work(self):
        """GM's send-completion callback hands a buffer back: a fact
        for the ring, nothing on the node's CPU."""
        from repro.flightrec.records import EV_FRAME_RELEASE

        ledger = CostLedger(CostModel.paper_table1())
        ledger.record(EV_FRAME_RELEASE)
        assert ledger.accrued_ns == 0 and not ledger.samples


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
