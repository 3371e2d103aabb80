"""Deterministic CSV and JSON result files."""

import json

import numpy as np
import pytest

from poissonize.records import format_value, write_records, write_summary


class TestFormatValue:
    def test_booleans_lowercase(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(np.bool_(True)) == "true"

    def test_bool_checked_before_int(self):
        # bool is an int subclass; the bool branch must win
        assert format_value(True) != "1"

    def test_integers(self):
        assert format_value(7) == "7"
        assert format_value(np.int64(-3)) == "-3"

    def test_floats_shortest_round_trip(self):
        assert format_value(0.1) == "0.1"
        assert format_value(np.float64(1.0 / 3.0)) == "0.3333333333333333"
        assert float(format_value(1e-9)) == 1e-9

    def test_none_is_empty(self):
        assert format_value(None) == ""

    def test_strings_pass_through(self):
        assert format_value("zero") == "zero"


class TestWriteRecords:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, [
            {"trial": 0, "value": 0.5, "passed": True},
            {"trial": 1, "value": 0.25, "passed": False},
        ])
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,value,passed"
        assert lines[1] == "0,0.5,true"
        assert lines[2] == "1,0.25,false"

    def test_unix_line_endings_everywhere(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, [{"a": 1}])
        assert b"\r" not in path.read_bytes()

    def test_plain_dicts_accepted(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, [{"a": 1}])
        assert path.read_text().splitlines() == ["a", "1"]

    def test_column_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_records(tmp_path / "r.csv", [{"a": 1}, {"b": 2}])

    def test_empty_record_set_rejected(self, tmp_path):
        """The header comes from the first record, so an empty set has none."""
        with pytest.raises(ValueError, match="at least one record"):
            write_records(tmp_path / "r.csv", [])
        assert not (tmp_path / "r.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        records = [{"x": 1.0 / 7.0, "n": 3, "ok": True}]
        write_records(tmp_path / "one.csv", records)
        write_records(tmp_path / "two.csv", records)
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


class TestWriteSummary:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(path, {"zebra": 1, "alpha": 2})
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"zebra"')
        assert text.endswith("\n")

    def test_numpy_values_serialized(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary(path, {
            "array": np.arange(3),
            "scalar": np.float64(0.5),
            "count": np.int32(4),
            "flag": np.bool_(True),
        })
        loaded = json.loads(path.read_text())
        assert loaded == {"array": [0, 1, 2], "scalar": 0.5, "count": 4, "flag": True}

    def test_unserializable_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_summary(tmp_path / "s.json", {"bad": object()})
