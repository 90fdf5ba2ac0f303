"""Unit tests for the SPICE parser, writer and dialects."""

import pytest

from repro.library import SOI28, C28, C40, build_cell
from repro.spice import (
    GENERIC,
    SpiceSyntaxError,
    classify_model,
    parse_cell,
    parse_library,
    parse_value,
    write_cell,
    write_library,
)


class TestParseValue:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1.5", 1.5),
            ("0.3u", 0.3e-6),
            ("30n", 30e-9),
            ("2meg", 2e6),
            ("1.2e-6", 1.2e-6),
            ("4k", 4000.0),
        ],
    )
    def test_values(self, text, expected):
        assert parse_value(text) == pytest.approx(expected)

    def test_bad_value(self):
        with pytest.raises(SpiceSyntaxError):
            parse_value("abc")


NAND2_TEXT = """
* a NAND2 in a foreign dialect
.SUBCKT ND2 A B Z VDD GND
MN0 Z A n1 GND nch W=0.6u L=0.04u
+ m=1
MN1 n1 B GND GND nch W=0.6u L=0.04u
MP0 Z A VDD VDD pch W=1.1u L=0.04u  $ pull-up
MP1 Z B VDD VDD pch W=1.1u L=0.04u
.ENDS
"""


class TestParser:
    def test_parse_nand2(self):
        cell = parse_cell(NAND2_TEXT)
        assert cell.name == "ND2"
        assert cell.inputs == ["A", "B"]
        assert cell.outputs == ["Z"]
        assert cell.power == "VDD" and cell.ground == "GND"
        assert cell.n_transistors == 4
        assert cell.transistor("MN0").w == pytest.approx(0.6)
        assert cell.transistor("MP0").is_pmos

    def test_continuation_and_comments_stripped(self):
        cell = parse_cell(NAND2_TEXT)
        assert cell.transistor("MP0").l == pytest.approx(0.04)

    def test_parasitics_ignored(self):
        text = NAND2_TEXT.replace(
            ".ENDS", "R1 Z Zint 12.5\nC1 Z GND 0.1f\n.ENDS"
        )
        cell = parse_cell(text)
        assert cell.n_transistors == 4

    def test_multi_cell_library(self):
        cells = parse_library(NAND2_TEXT + "\n" + NAND2_TEXT.replace("ND2", "ND2B"))
        assert [c.name for c in cells] == ["ND2", "ND2B"]

    def test_unterminated_subckt(self):
        with pytest.raises(SpiceSyntaxError):
            parse_library(".SUBCKT X A Z VDD VSS\nM0 Z A VSS VSS nmos")

    def test_unterminated_subckt_reports_source_line(self):
        # Comments, blank lines and a finished cell come first: the
        # error must name the header's 1-based line in the text.
        text = (
            "* library\n\n" + NAND2_TEXT
            + "\n.SUBCKT X A Z VDD VSS\nM0 Z A VSS VSS nmos\n"
        )
        header = text.splitlines().index(".SUBCKT X A Z VDD VSS") + 1
        with pytest.raises(SpiceSyntaxError, match=f"at line {header}$"):
            parse_library(text)

    def test_repeated_port_rejected_at_parse_time(self):
        text = (
            "* NAND2 with a repeated input\n"
            ".SUBCKT NAND2 A A Y VDD VSS\n"
            "M0 Y A VSS VSS nmos\n"
            "M1 Y A VDD VDD pmos\n"
            ".ENDS\n"
        )
        with pytest.raises(SpiceSyntaxError, match="repeated port A .* at line 2"):
            parse_library(text)

    def test_missing_rails(self):
        text = ".SUBCKT X A Z P G\nM0 Z A G G nmos\n.ENDS"
        with pytest.raises(SpiceSyntaxError):
            parse_cell(text)
        cell = parse_cell(text, power="P", ground="G")
        assert cell.power == "P"

    def test_unknown_element_rejected(self):
        with pytest.raises(SpiceSyntaxError):
            parse_cell(NAND2_TEXT.replace(".ENDS", "L1 Z A 1n\n.ENDS"))


class TestClassifyModel:
    @pytest.mark.parametrize(
        "model,expected",
        [
            ("nch", "nmos"),
            ("pch", "pmos"),
            ("nsvt28", "nmos"),
            ("psvt28", "pmos"),
            ("nfet", "nmos"),
            ("pfet_lvt", "pmos"),
        ],
    )
    def test_known_and_heuristic(self, model, expected):
        assert classify_model(model) == expected

    def test_unclassifiable(self):
        with pytest.raises(ValueError):
            classify_model("xyz123")


class TestWriterRoundtrip:
    @pytest.mark.parametrize("tech", [SOI28, C40, C28], ids=lambda t: t.name)
    @pytest.mark.parametrize("function", ["NAND2", "AOI21", "AND2"])
    def test_roundtrip_preserves_structure(self, tech, function):
        cell = build_cell(tech, function, 1)
        text = write_cell(cell, tech.dialect)
        back = parse_cell(text, technology=tech.name)
        assert back.inputs == cell.inputs
        assert back.outputs == cell.outputs
        assert back.n_transistors == cell.n_transistors
        by_name_src = {t.name for t in cell.transistors}
        # device names keep the dialect prefix
        assert all(
            t.name.upper().startswith(tech.dialect.device_prefix.upper())
            for t in back.transistors
        )
        assert len(by_name_src) == back.n_transistors

    def test_renumber(self):
        cell = build_cell(SOI28, "NAND2", 1)
        text = write_cell(cell, SOI28.dialect, renumber=True)
        back = parse_cell(text)
        assert sorted(t.name for t in back.transistors) == ["M0", "M1", "M2", "M3"]

    def test_write_library_title(self):
        cells = [build_cell(SOI28, "INV", 1), build_cell(SOI28, "NAND2", 1)]
        text = write_library(cells, SOI28.dialect, title="demo")
        assert text.startswith("* demo")
        assert len(parse_library(text)) == 2

    def test_generic_dialect(self):
        cell = build_cell(SOI28, "INV", 1)
        text = write_cell(cell, GENERIC)
        assert "nmos" in text and "pmos" in text
