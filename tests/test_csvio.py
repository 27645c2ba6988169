"""CSV/JSON formats: parsing, round-trips, and pinned renderings."""

import io
import json

import numpy as np
import pytest

from demandeval import (
    EmptySeries,
    EvaluationPair,
    MalformedRow,
    NonContiguousTime,
    compute_all,
    spec_decompose,
    spec_alpha_sweep,
)
from demandeval.csvio import (
    RunManifest,
    decomposition_to_csv,
    format_number,
    parse_pair_csv,
    read_json_config,
    render_value,
    report_to_csv,
    report_to_dict,
    report_to_json,
    report_to_table,
    sweep_to_csv,
    write_pair_csv,
)
from demandeval.metrics import ExtendedValue
from conftest import random_pair


class TestParsePairCsv:
    def test_fixture_files(self, fixtures_dir, model_a_pair, model_b_pair):
        parsed = parse_pair_csv(fixtures_dir / "model_a.csv")
        assert list(parsed.actual.values) == list(model_a_pair.actual.values)
        assert list(parsed.forecast.values) == list(model_a_pair.forecast.values)
        parsed_b = parse_pair_csv(fixtures_dir / "model_b.csv")
        assert list(parsed_b.forecast.values) == list(model_b_pair.forecast.values)

    def test_header_only(self):
        with pytest.raises(EmptySeries):
            parse_pair_csv(io.StringIO("t,actual,forecast\n"))

    def test_missing_header(self):
        with pytest.raises(MalformedRow):
            parse_pair_csv(io.StringIO("1,2,3\n"))

    def test_duplicate_t(self):
        text = "t,actual,forecast\n1,1,1\n1,2,2\n"
        with pytest.raises(NonContiguousTime):
            parse_pair_csv(io.StringIO(text))

    def test_gap_in_t(self):
        text = "t,actual,forecast\n1,1,1\n3,2,2\n"
        with pytest.raises(NonContiguousTime):
            parse_pair_csv(io.StringIO(text))

    def test_wrong_arity(self):
        with pytest.raises(MalformedRow):
            parse_pair_csv(io.StringIO("t,actual,forecast\n1,2\n"))

    def test_non_numeric(self):
        with pytest.raises(MalformedRow):
            parse_pair_csv(io.StringIO("t,actual,forecast\n1,x,2\n"))

    def test_negative_value_propagates_series_error(self):
        from demandeval import NegativeValue

        with pytest.raises(NegativeValue):
            parse_pair_csv(io.StringIO("t,actual,forecast\n1,-1,2\n"))

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"t,actual,forecast\n1,1,\xff\n")
        with pytest.raises(MalformedRow, match="UTF-8"):
            parse_pair_csv(path)

    def test_crlf_and_blank_lines(self):
        text = "t,actual,forecast\r\n1,1,2\r\n\r\n2,3,4\r\n"
        pair = parse_pair_csv(io.StringIO(text))
        assert list(pair.actual.values) == [1, 3]


class TestReadJsonConfig:
    @pytest.mark.parametrize(
        "content",
        [b'{"n": "\xff"}', b'{"n": ' + b"9" * 5000 + b"}", b"{not json"],
        ids=["non-utf8", "over-long-integer", "syntax"],
    )
    def test_unreadable_config(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(MalformedRow, match="not valid UTF-8 JSON"):
            read_json_config(path)


class TestRoundTrip:
    def test_random_pairs_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(2)
        for i in range(25):
            pair = random_pair(rng, max_n=30)
            path = tmp_path / f"pair_{i}.csv"
            write_pair_csv(pair, path)
            back = parse_pair_csv(path)
            assert np.array_equal(back.actual.values, pair.actual.values)
            assert np.array_equal(back.forecast.values, pair.forecast.values)

    def test_fractional_values_survive(self):
        pair = EvaluationPair.from_values([0.1, 2.0000000001], [1e-9, 3.3333333333333335])
        buffer = io.StringIO()
        write_pair_csv(pair, buffer)
        buffer.seek(0)
        back = parse_pair_csv(buffer)
        assert np.array_equal(back.actual.values, pair.actual.values)
        assert np.array_equal(back.forecast.values, pair.forecast.values)


class TestRenderings:
    def test_six_significant_digits(self):
        assert format_number(2.0 / 14.0) == "0.142857"
        assert format_number(37.0 / 14.0) == "2.64286"
        assert format_number(9.0) == "9"

    def test_pinned_non_finite_text(self):
        assert render_value(ExtendedValue.infinite()) == "inf"
        assert render_value(ExtendedValue.undefined("empty-input")) == "undef"

    def test_report_json_shape(self, model_a_pair):
        report = compute_all(model_a_pair)
        manifest = RunManifest(command="score", version="0.0.0")
        payload = report_to_dict(report, manifest)
        assert payload["metrics"]["mape"] == "inf"
        assert payload["metrics"]["spec"] == pytest.approx(0.142857)
        assert payload["params"] == {"alpha1": 0.75, "alpha2": 0.25}
        assert payload["manifest"]["command"] == "score"
        json.loads(report_to_json(report, manifest))  # must be valid JSON

    def test_report_csv(self, model_a_pair):
        text = report_to_csv(compute_all(model_a_pair))
        assert "mape,inf" in text
        assert "spec,0.142857" in text

    def test_report_table_three_decimals(self, model_a_pair):
        table = report_to_table(compute_all(model_a_pair))
        assert "SPEC" in table and "0.143" in table
        assert "MAPE" in table and "inf" in table


class TestPlotData:
    def test_decomposition_rows(self, model_b_pair):
        text = decomposition_to_csv(spec_decompose(model_b_pair))
        lines = text.strip().splitlines()
        assert lines[0] == "t,opportunity,stock"
        assert "11,9,0" in lines
        assert "8,0,1" in lines

    def test_sweep_columns(self, model_a_pair, model_b_pair):
        curves = {
            "model_a": spec_alpha_sweep(model_a_pair, 5),
            "model_b": spec_alpha_sweep(model_b_pair, 5),
        }
        lines = sweep_to_csv(curves).strip().splitlines()
        assert lines[0] == "alpha1,alpha2,spec_model_a,spec_model_b"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"
