"""CSV/JSON formats: parsing, round-trips, and pinned renderings."""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demandeval import DEFAULT_PARAMS, EvaluationPair, compute_all, spec_alpha_sweep, spec_decompose
from demandeval.errors import DemandEvalError, InvalidConfig, MalformedRow, SeriesError
from demandeval.csvio import (
    PAIR_HEADER,
    _parse_pair_stream,
    decomposition_to_csv,
    format_number,
    parse_pair_csv,
    read_json_config,
    render_value,
    report_to_csv,
    report_to_json,
    report_to_table,
    sweep_to_csv,
    write_pair_csv,
)
from conftest import random_pair


class TestParsePairCsv:
    def test_fixture_files(self, fixtures_dir, model_a_pair, model_b_pair):
        parsed = parse_pair_csv(fixtures_dir / "model_a.csv")
        assert list(parsed.actual.values) == list(model_a_pair.actual.values)
        assert list(parsed.forecast.values) == list(model_a_pair.forecast.values)
        parsed_b = parse_pair_csv(fixtures_dir / "model_b.csv")
        assert list(parsed_b.forecast.values) == list(model_b_pair.forecast.values)

    def test_header_only(self):
        with pytest.raises(SeriesError, match="input contains a header but no data rows"):
            parse_pair_csv(io.StringIO("t,actual,forecast\n"))

    def test_missing_header(self):
        with pytest.raises(MalformedRow):
            parse_pair_csv(io.StringIO("1,2,3\n"))

    def test_duplicate_t(self):
        text = "t,actual,forecast\n1,1,1\n1,2,2\n"
        with pytest.raises(MalformedRow, match=r"line 3: expected t=2, got t=1 \(must run 1..n without gaps\)"):
            parse_pair_csv(io.StringIO(text))

    def test_gap_in_t(self):
        text = "t,actual,forecast\n1,1,1\n3,2,2\n"
        with pytest.raises(MalformedRow, match=r"line 3: expected t=2, got t=3 \(must run 1..n without gaps\)"):
            parse_pair_csv(io.StringIO(text))

    def test_wrong_arity(self):
        with pytest.raises(MalformedRow):
            parse_pair_csv(io.StringIO("t,actual,forecast\n1,2\n"))

    def test_non_numeric(self):
        with pytest.raises(MalformedRow):
            parse_pair_csv(io.StringIO("t,actual,forecast\n1,x,2\n"))

    def test_negative_value_propagates_series_error(self):
        with pytest.raises(SeriesError, match="series contains negative quantities"):
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


    @pytest.mark.parametrize("text", ["t,actual,forecast\n", "t,actual,forecast\n\n \n"])
    def test_header_only_raises_without_warnings(self, tmp_path, text):
        path = tmp_path / "header.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for source in (path, io.StringIO(text)):
                with pytest.raises(SeriesError, match="input contains a header but no data rows"):
                    parse_pair_csv(source)

    def test_over_long_field_is_a_malformed_row(self):
        text = "t,actual,forecast\n1,1," + "x" * 200_000 + "\n"
        with pytest.raises(MalformedRow, match="line 2: field larger than field limit"):
            parse_pair_csv(io.StringIO(text))


H = "t,actual,forecast\n"

#: Inputs on both sides of the bulk reader's format edges, by name.
EDGE_CORPUS = {
    "plain": H + "1,2,3\n2,0,1.5\n",
    "plus_t": H + "+1,2,3\n",
    "padded_t": H + " 1 ,2,3\n",
    "float_t": H + "1.0,2,3\n",
    "arabic_indic_t": H + "\u0661,2,3\n",
    "fullwidth_t": H + "\uff11,2,3\n",
    "underscore_t": H + "".join(f"{t},1,1\n" for t in range(1, 10)) + "1_0,2,3\n",
    "underscore_value": H + "1,1_0,3\n",
    "hex_t": H + "0x1,2,3\n",
    "hex_value": H + "1,0x1,3\n",
    "empty_value": H + "1,,3\n",
    "padded_value": H + "1, 2 ,\t3\n",
    "nan": H + "1,nan,3\n",
    "inf": H + "1,inf,3\n",
    "Infinity": H + "1,2,Infinity\n",
    "1e400": H + "1,1e400,3\n",
    "quoted_field": H + '1,"2",3\n',
    "quoted_header": '"t","actual","forecast"\n1,2,3\n',
    "blank_lines": H + "1,2,3\n\n2,3,4\n\n",
    "blank_first_line": H + "\n1,2,3\n",
    "whitespace_line": H + "1,2,3\n  \n2,3,4\n",
    "crlf": H.replace("\n", "\r\n") + "1,2,3\r\n2,3,4\r\n",
    "cr_only": H.replace("\n", "\r") + "1,2,3\r2,3,4\r",
    "hash_line": H + "#x\n1,2,3\n",
    "two_fields": H + "1,2\n",
    "four_fields": H + "1,2,3,4\n",
    "t_gap": H + "1,2,3\n3,4,5\n",
    "header_only": H,
    "empty": "",
    "no_final_newline": H + "1,2,3\n2,3,4",
    "negative_value": H + "1,-2,3\n",
    "capitalised_header": "T, Actual ,FORECAST\n1,2,3\n",
    "byte_order_mark": "\ufeff" + H + "1,2,3\n",
    "wrong_header": "a,b,c\n1,2,3\n",
    "subnormal_and_huge": H + "1,5e-324,1e300\n2,-0.0,0\n",
}


def _outcome(read, source):
    """The value bytes a read gives, or its error type and message."""
    try:
        pair = read(source)
    except DemandEvalError as exc:
        return type(exc), str(exc)
    return pair.actual.values.tobytes(), pair.forecast.values.tobytes()


def _row_loop_from_path(path):
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        return _parse_pair_stream(handle)


def _assert_bulk_matches_row_loop(text, path):
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(parse_pair_csv, path) == _outcome(_row_loop_from_path, path)
    assert _outcome(parse_pair_csv, io.StringIO(text)) == _outcome(
        _parse_pair_stream, io.StringIO(text, newline="")
    )


class TestBulkReaderAgreesWithRowLoop:
    @pytest.mark.parametrize("text", EDGE_CORPUS.values(), ids=EDGE_CORPUS.keys())
    def test_edge_corpus(self, tmp_path, text):
        _assert_bulk_matches_row_loop(text, tmp_path / "pair.csv")

    _FIELDS = ("0", "2.5", " 1 ", "+1", "1.0", "1_0", "\u0661", "0x1", "", "nan", "inf",
               "1e400", "-1", '"2"', "#", "x")
    _ROWS = st.one_of(
        st.tuples(st.just("{t}"), st.sampled_from(_FIELDS), st.sampled_from(_FIELDS)).map(",".join),
        st.tuples(*[st.sampled_from(_FIELDS)] * 3).map(",".join),
        st.sampled_from(["", " ", "#c", "{t},2", "{t},2,3,4"]),
    )

    @given(
        header=st.sampled_from(["t,actual,forecast", "T, Actual ,FORECAST", '"t",actual,forecast',
                                "a,b,c"]),
        rows=st.lists(st.tuples(_ROWS, st.sampled_from(["\n", "\r\n", "\r"])), max_size=6),
        final_newline=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_texts(self, tmp_path_factory, header, rows, final_newline):
        lines, t = [header + "\n"], 0
        for row, eol in rows:
            t += "{t}" in row
            lines.append(row.format(t=t) + eol)
        text = "".join(lines)
        if not final_newline:
            text = text.rstrip("\r\n")
        _assert_bulk_matches_row_loop(text, tmp_path_factory.getbasetemp() / "property.csv")


#: Texts that must read the same from a path, which loadtxt takes in blocks,
#: and from a stream, which it takes line by line.
NEWLINE_CORPUS = {
    "lf": H + "1,2,3\n2,0,1.5\n3,4,0\n",
    "crlf": H.replace("\n", "\r\n") + "1,2,3\r\n2,0,1.5\r\n3,4,0\r\n",
    "cr_only": H.replace("\n", "\r") + "1,2,3\r2,0,1.5\r3,4,0\r",
    "mixed": H.replace("\n", "\r") + "1,2,3\r\n2,0,1.5\n3,4,0\r",
    "trailing_blank_lines": H + "1,2,3\n2,0,1.5\n\n\r\n\n",
    "quoted_fields": H + '1,"2",3\n2,0,"1.5"\n',
    "padded_fields": H + " 1 , 2 ,\t3\n2 ,0, 1.5 \n",
}


class TestPathAndStreamAgree:
    @pytest.mark.parametrize("text", NEWLINE_CORPUS.values(), ids=NEWLINE_CORPUS.keys())
    def test_same_pair_from_path_and_stream(self, tmp_path, text):
        path = tmp_path / "pair.csv"
        path.write_text(text, encoding="utf-8", newline="")
        from_path = _outcome(parse_pair_csv, path)
        assert isinstance(from_path[0], bytes)
        assert from_path == _outcome(parse_pair_csv, str(path))
        assert from_path == _outcome(parse_pair_csv, io.StringIO(text, newline=""))

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_under_a_compression_suffix(self, tmp_path, suffix):
        # loadtxt would decompress a path by this suffix; the file is plain text
        path = tmp_path / f"pair.csv{suffix}"
        path.write_text(NEWLINE_CORPUS["lf"], encoding="utf-8", newline="")
        assert _outcome(parse_pair_csv, path) == _outcome(
            parse_pair_csv, io.StringIO(NEWLINE_CORPUS["lf"])
        )

    def test_local_path_that_parses_as_a_url(self, tmp_path, monkeypatch):
        # loadtxt would take "http://host/pair.csv" for a URL and fetch it
        def no_fetch(*args, **kwargs):
            raise AssertionError("a local pair CSV was fetched as a URL")

        monkeypatch.setattr("urllib.request.urlopen", no_fetch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "pair.csv").write_text(NEWLINE_CORPUS["lf"], encoding="utf-8")
        assert _outcome(parse_pair_csv, "http://host/pair.csv") == _outcome(
            parse_pair_csv, io.StringIO(NEWLINE_CORPUS["lf"])
        )


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

    def test_byte_order_mark_is_accepted(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b'\xef\xbb\xbf{"n": 5}')
        assert read_json_config(path) == {"n": 5}


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


    def test_long_pair_bytes_and_bits_survive(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 100_000  # more than one write block
        actual = rng.exponential(5.0, n) * (rng.random(n) < 0.3)
        forecast = rng.uniform(0.0, 20.0, n)
        actual[:4] = [-0.0, 5e-324, 2.2250738585072014e-308, 1e300]
        forecast[-3:] = [1e300, -0.0, 4e-320]
        pair = EvaluationPair.from_values(actual, forecast)
        path = tmp_path / "long.csv"
        write_pair_csv(pair, path)
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(PAIR_HEADER)
        for t, (a, f) in enumerate(zip(pair.actual.values, pair.forecast.values), start=1):
            writer.writerow([t, repr(float(a)), repr(float(f))])
        assert path.read_bytes() == reference.getvalue().encode("utf-8")
        back = parse_pair_csv(path)
        assert np.array_equal(back.actual.values.view(np.uint64), actual.view(np.uint64))
        assert np.array_equal(back.forecast.values.view(np.uint64), forecast.view(np.uint64))


class TestRenderings:
    def test_six_significant_digits(self):
        assert format_number(2.0 / 14.0) == "0.142857"
        assert format_number(37.0 / 14.0) == "2.64286"
        assert format_number(9.0) == "9"

    def test_pinned_non_finite_text(self):
        assert render_value(math.inf) == "inf"
        assert render_value(math.nan) == "undef"

    def test_report_json_shape(self, model_a_pair):
        report = compute_all(model_a_pair)
        manifest = {"command": "score", "version": "0.0.0"}
        payload = json.loads(report_to_json(report, DEFAULT_PARAMS, manifest))  # must be valid JSON
        assert payload["metrics"]["mape"] == "inf"
        assert payload["metrics"]["spec"] == pytest.approx(0.142857)
        assert payload["params"] == {"alpha1": 0.75, "alpha2": 0.25}
        assert payload["manifest"]["command"] == "score"

    def test_report_csv(self, model_a_pair):
        text = report_to_csv(compute_all(model_a_pair))
        assert "mape,inf" in text
        assert "spec,0.142857" in text

    def test_report_table_three_decimals(self, model_a_pair):
        table = report_to_table(compute_all(model_a_pair))
        assert "SPEC" in table and "0.143" in table
        assert "MAPE" in table and "inf" in table

    def test_report_table_exponent_form_from_1e16(self):
        assert render_value(9999999999999998.0, digits=3) == "9999999999999998.000"
        assert render_value(1e16, digits=3) == "1.000e+16"
        # actual 1e305 on odd steps and forecast 1e305 on even steps, n = 2,000
        up = np.arange(2000) % 2 == 0
        pair = EvaluationPair.from_values(np.where(up, 1e305, 0.0), np.where(up, 0.0, 1e305))
        lines = report_to_table(compute_all(pair)).splitlines()
        assert lines[:4] == ["MAE   1.000e+305", "MDAE  1.000e+305", "MSE   inf", "RMSE  1.000e+305"]
        assert lines[-3:] == ["MASE  1.000", "RMSSE 1.000", "SPEC  3.750e+304"]
        assert max(map(len, lines)) == 16


class TestPlotData:
    def test_decomposition_rows(self, model_b_pair):
        text = decomposition_to_csv(spec_decompose(model_b_pair))
        lines = text.strip().splitlines()
        assert lines[0] == "t,opportunity,stock"
        assert "11,9,0" in lines
        assert "8,0,1" in lines

    def test_decomposition_bytes_match_csv_writer(self):
        rng = np.random.default_rng(3)
        breakdown = spec_decompose(random_pair(rng, max_n=500))
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(["t", "opportunity", "stock"])
        for t in range(1, breakdown.n + 1):
            writer.writerow(
                [t, format_number(breakdown.opportunity_at(t)), format_number(breakdown.stock_at(t))]
            )
        assert decomposition_to_csv(breakdown) == reference.getvalue()

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

    def test_sweep_rejects_no_curves_and_unequal_grids(self, model_a_pair):
        with pytest.raises(InvalidConfig, match="at least one"):
            sweep_to_csv({})
        with pytest.raises(InvalidConfig, match="one grid"):
            sweep_to_csv({"a": spec_alpha_sweep(model_a_pair, 5), "b": spec_alpha_sweep(model_a_pair, 3)})
