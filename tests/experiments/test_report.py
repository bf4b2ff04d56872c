"""Report rendering tests."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.report import (
    format_bytes,
    render_series,
    render_table,
)


class TestFormatters:
    @pytest.mark.parametrize(
        "nbytes,expected",
        [(512, "512B"), (4096, "4KiB"), (1 << 20, "1MiB"), (4 << 20, "4MiB"),
         (1 << 30, "1GiB"), (1536, "1.5KiB")],
    )
    def test_format_bytes(self, nbytes, expected):
        assert format_bytes(nbytes) == expected


class TestRenderTable:
    def test_alignment_and_content(self):
        out = render_table("T", ["a", "bb"], [[1, "x"], [22, "yy"]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "22" in lines[-1]

    def test_note_appended(self):
        out = render_table("T", ["a"], [[1]], note="hello")
        assert out.endswith("hello")

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            render_table("T", ["a", "b"], [[1]])

    def test_no_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            render_table("T", [], [])

    def test_float_formatting(self):
        out = render_table("T", ["x"], [[0.123456789]])
        assert "0.1235" in out


class TestRenderSeries:
    def test_one_column_per_series(self):
        out = render_series("F", "x", [1, 2], {"s1": [10.0, 20.0], "s2": [1.0, 2.0]})
        header = out.splitlines()[2]
        assert "s1" in header and "s2" in header and header.startswith("x")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            render_series("F", "x", [1, 2], {"s": [1.0]})

    def test_empty_series_rejected(self):
        with pytest.raises(ConfigurationError):
            render_series("F", "x", [1], {})
