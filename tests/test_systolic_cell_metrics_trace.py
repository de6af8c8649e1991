"""Unit tests for the cells, metrics and trace helpers of ``repro.systolic``."""

from __future__ import annotations

import struct

import pytest

from repro.systolic.cell import InnerProductStepCell, mac
from repro.systolic.metrics import UtilizationReport, utilization
from repro.systolic.stream import DataStream, ScheduledValue
from repro.systolic.trace import (
    DataFlowTrace,
    default_tag_formatter,
    render_dataflow_table,
)


class TestInnerProductStepCell:
    def test_mac_with_all_operands(self):
        cell = InnerProductStepCell(0)
        cell.load(y_value=1.0, y_tag=None, x_value=2.0, x_tag=None)
        assert cell.step(3.0) == pytest.approx(7.0)
        assert cell.mac_count == 1
        assert cell.busy_cycles == 1

    def test_missing_coefficient_passes_y_through(self):
        cell = InnerProductStepCell(0)
        cell.load(y_value=4.0, y_tag=None, x_value=2.0, x_tag=None)
        assert cell.step(None) == 4.0
        assert cell.mac_count == 0

    def test_missing_x_passes_y_through(self):
        cell = InnerProductStepCell(0)
        cell.load(y_value=4.0, y_tag=None, x_value=None, x_tag=None)
        assert cell.step(5.0) == 4.0
        assert cell.mac_count == 0

    def test_bubble_y_stays_bubble(self):
        cell = InnerProductStepCell(0)
        cell.load(y_value=None, y_tag=None, x_value=2.0, x_tag=None)
        assert cell.step(5.0) is None

    def test_utilization_counter(self):
        cell = InnerProductStepCell(1)
        cell.load(1.0, None, 1.0, None)
        cell.step(1.0)
        cell.load(None, None, None, None)
        cell.step(None)
        assert cell.total_cycles == 2
        assert cell.utilization == pytest.approx(0.5)

    def test_fresh_cell_utilization_zero(self):
        assert InnerProductStepCell(0).utilization == 0.0


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


POSITIVE_NAN = _from_bits(0x7FF8000000000000)
NEGATIVE_NAN = _from_bits(0xFFF8000000000000)
SIGNALING_NAN = _from_bits(0x7FF0000000000001)


class TestNaNRule:
    """When two NaNs meet, the accumulator's wins over the product's and the
    coefficient's over ``x``'s — the same answer cold and after CPython's
    float fast path has warmed up (which picks the other operand)."""

    CASES = [
        # (y, a, x) -> the NaN that wins
        ((NEGATIVE_NAN, POSITIVE_NAN, 1.0), NEGATIVE_NAN),
        ((POSITIVE_NAN, NEGATIVE_NAN, NEGATIVE_NAN), POSITIVE_NAN),
        ((1.0, NEGATIVE_NAN, POSITIVE_NAN), NEGATIVE_NAN),
        ((1.0, POSITIVE_NAN, NEGATIVE_NAN), POSITIVE_NAN),
        ((NEGATIVE_NAN, 0.0, float("inf")), NEGATIVE_NAN),
    ]

    @pytest.mark.parametrize("warm_up", [0, 2000])
    def test_mac_picks_a_fixed_nan(self, warm_up):
        for _ in range(warm_up):
            mac(1.0, 2.0, 3.0)
        for operands, expected in self.CASES:
            assert _bits(mac(*operands)) == _bits(expected), operands

    @pytest.mark.parametrize("warm_up", [0, 2000])
    def test_cell_step_picks_a_fixed_nan(self, warm_up):
        cell = InnerProductStepCell(0)
        for _ in range(warm_up):
            cell.load(y_value=1.0, y_tag=None, x_value=2.0, x_tag=None)
            cell.step(3.0)
        for (y, a, x), expected in self.CASES:
            cell.load(y_value=y, y_tag=None, x_value=x, x_tag=None)
            assert _bits(cell.step(a)) == _bits(expected), (y, a, x)

    def test_result_is_quieted(self):
        assert _bits(mac(SIGNALING_NAN, 1.0, 2.0)) == 0x7FF8000000000001
        assert _bits(mac(1.0, SIGNALING_NAN, NEGATIVE_NAN)) == 0x7FF8000000000001

    def test_one_nan_or_none_is_plain_arithmetic(self):
        assert mac(1.0, 2.0, 3.0) == 7.0
        assert _bits(mac(-0.0, -0.0, 1.0)) == _bits(-0.0)
        assert _bits(mac(1.0, NEGATIVE_NAN, 2.0)) == _bits(NEGATIVE_NAN)
        # 0 * inf: the operation's own NaN, as plain arithmetic makes it.
        assert _bits(mac(1.0, 0.0, float("inf"))) == _bits(1.0 + 0.0 * float("inf"))


class TestUtilization:
    def test_formula(self):
        assert utilization(10, 2, 10) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            utilization(1, 0, 1)
        with pytest.raises(ValueError):
            utilization(1, 1, 0)
        with pytest.raises(ValueError):
            utilization(-1, 1, 1)

    def test_report_properties(self):
        report = UtilizationReport(
            processing_elements=3, steps=10, mac_operations=12, useful_operations=9
        )
        assert report.utilization == pytest.approx(0.4)
        assert report.effective_utilization == pytest.approx(0.3)
        assert report.capacity == 30
        assert "A=3" in report.describe()

    def test_report_defaults_useful_to_macs(self):
        report = UtilizationReport(processing_elements=2, steps=5, mac_operations=4)
        assert report.effective_utilization == report.utilization


class TestTagFormatter:
    def test_untagged_shows_value(self):
        item = ScheduledValue(cycle=0, value=1.25)
        assert default_tag_formatter(item) == "1.25"

    def test_simple_tag(self):
        assert default_tag_formatter(ScheduledValue(0, 1.0, tag=("x", 3))) == "x3"

    def test_pass_index_renders_as_superscript(self):
        assert default_tag_formatter(ScheduledValue(0, 1.0, tag=("y", 2, 1))) == "y2^1"

    def test_bare_kind(self):
        assert default_tag_formatter(ScheduledValue(0, 1.0, tag=("b",))) == "b"


class TestDataFlowTrace:
    def make_trace(self):
        trace = DataFlowTrace()
        x = DataStream("x in")
        y = DataStream("y out")
        x.schedule(0, 1.0, ("x", 0))
        x.schedule(2, 2.0, ("x", 1))
        y.schedule(3, 5.0, ("y", 0))
        trace.add_stream("x in", x)
        trace.add_stream("y out", y)
        return trace

    def test_span(self):
        trace = self.make_trace()
        assert trace.first_cycle == 0
        assert trace.last_cycle == 3
        assert trace.total_cycles == 4

    def test_empty_trace(self):
        trace = DataFlowTrace()
        assert trace.total_cycles == 0
        assert render_dataflow_table(trace) == "(empty trace)"

    def test_duplicate_row_name_rejected(self):
        trace = self.make_trace()
        with pytest.raises(ValueError):
            trace.add_stream("x in", DataStream())

    def test_row_labels(self):
        trace = self.make_trace()
        assert trace.row_labels("x in") == ["x0", "x1"]

    def test_render_contains_all_labels_and_bubbles(self):
        table = self.make_trace().render()
        assert "Clock:" in table
        assert "x0" in table and "x1" in table and "y0" in table
        assert "." in table

    def test_render_with_cycle_step(self):
        table = self.make_trace().render(cycle_step=2)
        # Columns are cycles 0 and 2; the y value at cycle 3 is folded into
        # the column starting at cycle 2.
        assert "y0" in table
