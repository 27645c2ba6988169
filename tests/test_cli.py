"""End-to-end command line behaviour (in-process, via main())."""

import hashlib
import json
import platform
import shutil
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from conftest import REPO_ROOT
from demandeval.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def model_a_csv(fixtures_dir):
    return str(fixtures_dir / "model_a.csv")


@pytest.fixture
def model_b_csv(fixtures_dir):
    return str(fixtures_dir / "model_b.csv")


class TestScore:
    def test_table_output(self, model_a_csv, capsys):
        assert run_cli("score", "--input", model_a_csv) == 0
        out = capsys.readouterr().out
        assert "SPEC  0.143" in out.replace("   ", "  ")
        assert "MAPE" in out and "inf" in out

    def test_json_output(self, model_a_csv, capsys):
        assert run_cli("score", "--input", model_a_csv, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["spec"] == pytest.approx(0.142857)
        assert payload["metrics"]["mape"] == "inf"
        assert payload["params"]["alpha1"] == 0.75
        assert payload["manifest"]["command"] == "score"

    def test_csv_output_matches_json_values(self, model_a_csv, capsys):
        run_cli("score", "--input", model_a_csv, "--format", "json")
        json_payload = json.loads(capsys.readouterr().out)
        run_cli("score", "--input", model_a_csv, "--format", "csv")
        csv_lines = capsys.readouterr().out.strip().splitlines()[1:]
        csv_values = dict(line.split(",") for line in csv_lines)
        for name, value in json_payload["metrics"].items():
            if isinstance(value, float):
                assert float(csv_values[name]) == pytest.approx(value)
            else:
                assert csv_values[name] == value

    def test_metric_subset(self, model_a_csv, capsys):
        assert run_cli("score", "--input", model_a_csv, "--metrics", "mae,spec") == 0
        out = capsys.readouterr().out
        assert "MAE" in out and "SPEC" in out and "RMSE" not in out

    def test_degenerate_weights_exit_2(self, model_a_csv, capsys):
        assert run_cli("score", "--input", model_a_csv, "--alpha1", "0", "--alpha2", "0") == 2
        assert "alpha" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert run_cli("score", "--input", "no_such_file.csv") == 2

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,actual,forecast\n")
        assert run_cli("score", "--input", str(bad)) == 2

    def test_non_utf8_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"t,actual,forecast\n1,1,\xff\n")
        assert run_cli("score", "--input", str(bad)) == 2
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,named",
        [("x" * 200_000, "line 2: field larger than field limit"),
         ("1" * 200_000, "NaN or infinite")],
        ids=["non-numeric", "numeric"],
    )
    def test_over_long_field_exit_2(self, tmp_path, capsys, field, named):
        bad = tmp_path / "long_field.csv"
        bad.write_text(f"t,actual,forecast\n1,1,{field}\n")
        assert run_cli("score", "--input", str(bad)) == 2
        assert named in capsys.readouterr().err

    def test_overflowing_pair_is_strict_json_without_warnings(self, tmp_path, capsys):
        path = tmp_path / "overflow.csv"
        path.write_text("t,actual,forecast\n1,1e200,0\n2,0,1e200\n")

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert run_cli("score", "--input", str(path), "--format", "json") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        metrics = json.loads(captured.out, parse_constant=reject)["metrics"]
        # mse is exactly 1e400; rmse and rmsse are finite and computed without overflow
        assert (metrics["mse"], metrics["rmse"], metrics["rmsse"]) == ("inf", 1e200, 1)
        for fmt, lines in (("table", ["MSE   inf", "RMSE  1.000e+200", "RMSSE 1.000"]),
                           ("csv", ["mse,inf", "rmse,1e+200", "rmsse,1"])):
            assert run_cli("score", "--input", str(path), "--format", fmt) == 0
            captured = capsys.readouterr()
            assert set(lines) <= set(captured.out.splitlines()) and captured.err == ""

    def test_overflowing_sums_keep_finite_means(self, tmp_path, capsys):
        path = tmp_path / "overflow.csv"
        up = np.arange(2000) % 2 == 0
        rows = zip(range(1, 2001), np.where(up, 1e305, 0.0).tolist(), np.where(up, 0.0, 1e305).tolist())
        path.write_text("t,actual,forecast\n" + "".join(f"{t},{a!r},{f!r}\n" for t, a, f in rows))
        assert run_cli("score", "--input", str(path), "--format", "json") == 0
        captured = capsys.readouterr()
        metrics = json.loads(captured.out)["metrics"]
        assert (metrics["mae"], metrics["mase"]) == (1e305, 1) and captured.err == ""

    def test_overflowing_volume_scores_spec_inf(self, tmp_path, capsys):
        """The cumulative volume 2e308 overflows. The score 0.75 * 6e308 / 3 = 1.5e308 does not,
        and 6e308 / 3 with all weight on the owed side does."""
        path = tmp_path / "overflow.csv"
        path.write_text("t,actual,forecast\n1,1e308,0\n2,1e308,0\n3,0,1e308\n")
        for weights, texts in ((("0.75", "0.25"), ("SPEC  1.500e+308", "spec,1.5e+308", '    "spec": 1.5e+308')),
                               (("1", "0"), ("SPEC  inf", "spec,inf", '    "spec": "inf"'))):
            for fmt, spec_line in zip(("table", "csv", "json"), texts):
                assert run_cli("score", "--input", str(path), "--metrics", "spec", "--format", fmt,
                               "--alpha1", weights[0], "--alpha2", weights[1]) == 0
                captured = capsys.readouterr()
                assert spec_line in captured.out.splitlines() and captured.err == ""

    @pytest.mark.filterwarnings("error")
    def test_large_weight_scores_spec_finite(self, tmp_path, capsys):
        """1 unit owed for 100 periods at alpha1 = 1e306: the weighted total passes the
        float range, the score 1e306 * 5050 / 100 does not."""
        path = tmp_path / "owed.csv"
        path.write_text("t,actual,forecast\n" + "".join(f"{t},{int(t == 1)},0\n" for t in range(1, 101)))
        assert run_cli("score", "--input", str(path), "--metrics", "spec", "--format", "csv",
                       "--alpha1", "1e306", "--alpha2", "0") == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "spec,5.05e+307" and captured.err == ""
        exact = Fraction(1e306) * 5050 / 100
        assert abs(Fraction(float("5.05e+307")) - exact) <= Fraction(4e-16) * exact

    @pytest.mark.parametrize(
        "selection,named",
        [("", "no metrics"), (",", "no metrics"), ("mae,nope", "nope"), ("mae,mae", "duplicate")],
    )
    def test_bad_metric_selection_exit_2(self, model_a_csv, capsys, selection, named):
        for fmt in ("table", "json"):
            assert run_cli("score", "--input", model_a_csv, "--metrics", selection,
                           "--format", fmt) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and named in captured.err


class TestDecompose:
    def test_perfect_forecast_all_zero_rows(self, tmp_path):
        pair_path = tmp_path / "perfect.csv"
        pair_path.write_text("t,actual,forecast\n1,0,0\n2,5,5\n3,0,0\n")
        out = tmp_path / "steps.csv"
        assert run_cli("decompose", "--input", str(pair_path), "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert all(row[1] == "0" and row[2] == "0" for row in rows)

    def test_csv_and_svg(self, model_b_csv, tmp_path, capsys):
        out = tmp_path / "steps.csv"
        svg = tmp_path / "steps.svg"
        assert run_cli(
            "decompose", "--input", model_b_csv, "--out", str(out), "--svg", str(svg)
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert "11,9,0" in lines
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
        manifest = json.loads((tmp_path / "steps.csv.manifest.json").read_text())
        assert manifest["command"] == "decompose"
        assert manifest["outputs"] == [str(out), str(svg)]


def test_infinite_costs_draw_clipped_charts(tmp_path, model_a_csv):
    pair = tmp_path / "inf.csv"
    pair.write_text("t,actual,forecast\n1,1e308,0\n2,1e308,0\n3,0,1e308\n")
    svg = tmp_path / "steps.svg"
    assert run_cli("decompose", "--input", str(pair), "--out", str(tmp_path / "steps.csv"),
                   "--svg", str(svg)) == 0
    text = svg.read_text()
    assert "nan" not in text
    # the owed charges are 7.5e307, 0.75 * 3e308 (past the float range) and 1.5e308
    assert text.count('data-opportunity="inf"') == 1
    assert text.count('height="264.00"') == 2  # the infinite bar and the largest finite one fill the plot
    assert text.count('height="132.00"') == 1
    # 100 batches of 1e308, each owed for 100 periods: past the float range at every alpha1 > 0
    pair.write_text("t,actual,forecast\n" + "".join(
        f"{t},{1e308 if t <= 100 else 0},{0 if t <= 100 else 1e308}\n" for t in range(1, 201)))
    svg = tmp_path / "sweep.svg"
    assert run_cli("sweep", "--input", str(pair), "--input", model_a_csv,
                   "--out", str(tmp_path / "sweep.csv"), "--svg", str(svg)) == 0
    text = svg.read_text()
    assert "nan" not in text
    polylines = ET.fromstring(text).findall("{http://www.w3.org/2000/svg}polyline")
    heights = {float(point.split(",")[1]) for point in polylines[1].get("points").split()}
    assert len(heights) > 50  # model_a's finite curve keeps its shape


class TestSweep:
    def test_crossing_curves(self, model_a_csv, model_b_csv, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "--input", model_a_csv, "--input", model_b_csv,
            "--grid-size", "101", "--out", str(out),
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha1,alpha2,spec_model_a,spec_model_b"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 101
        diffs = [(float(a1), float(va) - float(vb)) for a1, _, va, vb in rows]
        sign_changes = [
            0.5 * (x1 + x2) for (x1, d1), (x2, d2) in zip(diffs, diffs[1:])
            if (d1 < 0) != (d2 < 0)
        ]
        assert len(sign_changes) == 1
        assert abs(sign_changes[0] - 1 / 13) < 0.01

    def test_endpoint_consistency(self, model_a_csv, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("sweep", "--input", model_a_csv, "--grid-size", "3", "--out", str(out))
        last = out.read_text().strip().splitlines()[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[2]) == 0.0

    @pytest.mark.parametrize("with_svg", [False, True])
    def test_manifest_lists_every_output(self, model_a_csv, tmp_path, with_svg):
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        argv = ["sweep", "--input", model_a_csv, "--grid-size", "5", "--out", str(out)]
        if with_svg:
            argv += ["--svg", str(svg)]
        assert run_cli(*argv) == 0
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["config"] == {"inputs": [model_a_csv], "grid_size": 5}
        assert manifest["outputs"] == ([str(out), str(svg)] if with_svg else [str(out)])
        assert svg.exists() == with_svg

    def test_colliding_labels_keep_every_input(self, tmp_path):
        # b/x.csv renamed by count to "x_2" would take x_2.csv's column
        paths = []
        for name, forecast in (("x_2.csv", (0, 4, 0)), ("a/x.csv", (4, 0, 0)),
                               ("b/x.csv", (0, 0, 4))):
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            body = "".join(f"{t},{a},{f}\n" for t, a, f in zip((1, 2, 3), (0, 4, 0), forecast))
            path.write_text("t,actual,forecast\n" + body)
            paths.append(str(path))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--grid-size", "5", "--out", str(out)]
        for path in paths:
            argv += ["--input", path]
        assert run_cli(*argv) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert rows[0] == ["alpha1", "alpha2", "spec_x_2", "spec_x", "spec_x_3"]
        for column, path in enumerate(paths, start=2):
            alone = tmp_path / "alone.csv"
            assert run_cli("sweep", "--input", path, "--grid-size", "5", "--out", str(alone)) == 0
            expected = [line.split(",")[2] for line in alone.read_text().strip().splitlines()]
            assert [row[column] for row in rows[1:]] == expected[1:]
        assert len({tuple(row[c] for row in rows[1:]) for c in (2, 3, 4)}) == 3

    def test_grid_size_one_rejected(self, model_a_csv, tmp_path, capsys):
        code = run_cli(
            "sweep", "--input", model_a_csv, "--grid-size", "1",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2


class TestSimulate:
    def _config(self, tmp_path, seed=True):
        cfg = {
            "n": 40, "count_mu": 5.0, "count_sigma": 1.0,
            "magnitude_mu": 10.0, "magnitude_sigma": 2.0,
            "error": {"horizontal_sigma": 1.0, "vertical_sigma": 1.0, "seed": 9},
        }
        if seed:
            cfg["seed"] = 11
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_seeded_run_is_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(out1)) == 0
        assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(out2)) == 0
        assert (out1 / "pair.csv").read_bytes() == (out2 / "pair.csv").read_bytes()

    def test_omitted_seed_recorded_in_manifest(self, tmp_path):
        cfg = self._config(tmp_path, seed=False)
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"]["demand_seed_source"] == "entropy"
        assert isinstance(manifest["seeds"]["demand_seed"], int)

    def test_zero_count_writes_all_zero_demand(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps({
            "n": 10, "count_mu": 0.0, "count_sigma": 0.0,
            "magnitude_mu": 5.0, "magnitude_sigma": 0.0, "seed": 1,
            "error": {"seed": 2},
        }))
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(cfg_path), "--out-dir", str(out)) == 0
        rows = (out / "pair.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[1] == "0.0" for row in rows)

    def test_simulated_pair_scores(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "run"
        run_cli("simulate", "--config", str(cfg), "--out-dir", str(out))
        assert run_cli("score", "--input", str(out / "pair.csv")) == 0

    def test_manifest_records_settings_and_seeds(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {
            "demand": {"n": 40, "count_mu": 5.0, "count_sigma": 1.0, "magnitude_mu": 10.0,
                       "magnitude_sigma": 2.0, "round_magnitudes": False},
            "error": {"vertical_mu": 0.0, "vertical_sigma": 1.0,
                      "horizontal_mu": 0.0, "horizontal_sigma": 1.0},
        }
        assert manifest["seeds"] == {"demand_seed": 11, "error_seed": 9}
        assert manifest["outputs"] == [str(out / "pair.csv")]

    @pytest.mark.parametrize(
        "change,named",
        [
            ({"error": "x"}, "field 'error'"),
            ({"error": {"vertical_sigma": -1.0}}, "field 'error': vertical_sigma"),
            ({"error": {"bogus": 1}}, "field 'error': unknown config fields: ['bogus']"),
            ({"bogus": 1}, "unknown config fields: ['bogus']"),
            ({"n": None}, "field 'n': missing"),
        ],
    )
    def test_bad_config_exit_2(self, tmp_path, capsys, change, named):
        # a None in ``change`` drops that field
        cfg = {**json.loads(self._config(tmp_path).read_text()), **change}
        cfg = {key: value for key, value in cfg.items() if value is not None}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(path), "--out-dir", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shift", [{"horizontal_sigma": 1e300}, {"horizontal_mu": 1e19}])
    def test_shift_past_int64_exit_0(self, tmp_path, capsys, shift):
        cfg = {**json.loads(self._config(tmp_path).read_text()), "error": {**shift, "seed": 4}}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(path), "--out-dir", str(tmp_path / "run")) == 0
        assert capsys.readouterr().err == ""

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"n": "\xff"}')
        assert run_cli("simulate", "--config", str(path), "--out-dir", str(tmp_path)) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_non_object_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        assert run_cli("simulate", "--config", str(path), "--out-dir", str(tmp_path)) == 2
        assert "top-level JSON value must be an object" in capsys.readouterr().err


def test_decompose_and_sweep_scale_to_long_series(tmp_path):
    # n = 1e5 is a production horizon; a quadratic kernel takes minutes here
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({
        "n": 100_000, "count_mu": 30_000.0, "count_sigma": 0.0,
        "magnitude_mu": 10.0, "magnitude_sigma": 3.0, "seed": 5,
        "error": {"horizontal_sigma": 2.0, "vertical_sigma": 1.0, "seed": 6},
    }))
    assert run_cli("simulate", "--config", str(cfg), "--out-dir", str(tmp_path)) == 0
    pair_csv = str(tmp_path / "pair.csv")
    commands = {
        "decompose": ("decompose", "--input", pair_csv, "--out", str(tmp_path / "steps.csv"),
                      "--svg", str(tmp_path / "steps.svg")),
        "sweep": ("sweep", "--input", pair_csv, "--grid-size", "101",
                  "--out", str(tmp_path / "sweep.csv")),
    }
    for name, argv in commands.items():
        start = time.perf_counter()
        assert run_cli(*argv) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0, f"{name} took {elapsed:.1f} s on n = 100000"
    assert len((tmp_path / "steps.csv").read_text().splitlines()) == 100_001
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 102


class TestExperimentCommand:
    def _write(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return path

    def test_small_validity_run(self, tmp_path):
        cfg = self._write(tmp_path, {
            "demand": {"n": 32, "count_mu": 4.0, "count_sigma": 1.0,
                       "magnitude_mu": 10.0, "magnitude_sigma": 2.0},
            "direction": "vertical", "mu_levels": [2.0, 5.0, 8.0], "sigma": 1.0,
            "series_count": 10, "forecasts_per_series": 5,
            "metrics": ["mae", "spec"], "seed": 3,
        })
        out = tmp_path / "report.json"
        assert run_cli("experiment", "validity", "--config", str(cfg), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "validity"
        assert payload["metrics"]["spec"]["r"] > 0.8
        assert payload["manifest"]["command"] == "experiment validity"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self._write(tmp_path, {
            "demand": {"n": 32, "count_mu": 4.0, "count_sigma": 1.0,
                       "magnitude_mu": 10.0, "magnitude_sigma": 2.0},
            "variance_levels": [0.5, 1.5], "series_count": 8,
            "forecasts_per_series": 4, "metrics": ["spec"], "seed": 3,
        })
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli("experiment", "reliability", "--config", str(cfg), "--out", str(out1)) == 0
        assert run_cli("experiment", "reliability", "--config", str(cfg), "--out", str(out2)) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a["manifest"]["outputs"] = b["manifest"]["outputs"] = None
        assert a == b

    def test_malformed_config_field_diagnostic(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {
            "demand": {"n": 32, "count_mu": 4.0, "count_sigma": 1.0,
                       "magnitude_mu": 10.0, "magnitude_sigma": 2.0},
            "variance_levels": [0.5, 0.5], "seed": 3,
        })
        code = run_cli("experiment", "reliability", "--config", str(cfg),
                       "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "variance_levels" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", [[True, 2.0], ["2.5", 1.0], ["x", 2]])
    def test_non_numeric_level_exit_2(self, tmp_path, capsys, levels):
        cfg = self._write(tmp_path, {
            "demand": {"n": 32, "count_mu": 4.0, "count_sigma": 1.0,
                       "magnitude_mu": 10.0, "magnitude_sigma": 2.0},
            "variance_levels": levels, "seed": 3,
        })
        code = run_cli("experiment", "reliability", "--config", str(cfg),
                       "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "variance_levels" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("metrics", {"mae": 1, "spec": 2}),  # not read as its keys
        ("metrics", "spec"),  # not split into letters
        ("variance_levels", "0.5"),
    ], ids=["metrics-object", "metrics-string", "levels-string"])
    def test_list_field_given_as_object_or_string_exit_2(self, tmp_path, capsys, field, value):
        cfg = self._write(tmp_path, {
            "demand": {"n": 32, "count_mu": 4.0, "count_sigma": 1.0,
                       "magnitude_mu": 10.0, "magnitude_sigma": 2.0},
            "variance_levels": [0.5, 1.5], "seed": 3, field: value,
        })
        out = tmp_path / "r.json"
        code = run_cli("experiment", "reliability", "--config", str(cfg), "--out", str(out))
        assert code == 2 and not out.exists()
        assert f"field '{field}': expected a list of " in capsys.readouterr().err

    def test_cost_validity_reads_both_weightings(self, tmp_path):
        cfg = self._write(tmp_path, {
            "demand": {"n": 32, "count_mu": 4.0, "count_sigma": 1.0,
                       "magnitude_mu": 10.0, "magnitude_sigma": 2.0},
            "variance_levels": [0.5, 1.5], "series_count": 4,
            "forecasts_per_series": 3, "metrics": ["spec"], "seed": 3,
            "cost_alpha1": 0.6, "cost_alpha2": 0.4, "metric_alpha2": 0.5,
        })
        out = tmp_path / "report.json"
        assert run_cli("experiment", "cost-validity", "--config", str(cfg), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "cost-validity"
        assert (payload["config"]["cost_alpha1"], payload["config"]["cost_alpha2"]) == (0.6, 0.4)
        assert (payload["config"]["metric_alpha1"], payload["config"]["metric_alpha2"]) == (0.75, 0.5)
        assert payload["manifest"]["command"] == "experiment cost-validity"

    def test_demand_seed_exit_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {
            "demand": {"n": 32, "count_mu": 4.0, "count_sigma": 1.0,
                       "magnitude_mu": 10.0, "magnitude_sigma": 2.0, "seed": 5},
            "variance_levels": [0.5, 1.5], "seed": 3,
        })
        code = run_cli("experiment", "reliability", "--config", str(cfg),
                       "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "field 'demand'" in capsys.readouterr().err

    def test_bad_seed_exit_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {
            "demand": {"n": 32, "count_mu": 4.0, "count_sigma": 1.0,
                       "magnitude_mu": 10.0, "magnitude_sigma": 2.0},
            "variance_levels": [0.5, 1.5], "seed": -1,
        })
        code = run_cli("experiment", "reliability", "--config", str(cfg),
                       "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "field 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,fields",
        [("reliability", {"variance_levels": [0.5, 1.5]}),
         ("validity", {"direction": "vertical", "mu_levels": [0, 1e199, 2e199], "sigma": 1e198}),
         ("cost-validity", {"variance_levels": [0.5, 1.5]}),
         # one spike of 1.7e308 shifted 50 steps: the warehouse cost passes the float range
         ("cost-validity", {
             "demand": {"n": 96, "count_mu": 1.0, "count_sigma": 0.0,
                        "magnitude_mu": 1.7e308, "magnitude_sigma": 0.0},
             "variance_levels": [1.5, 2.5], "forecasts_per_series": 2, "metrics": ["spec"],
             "error_directions": "horizontal", "error_mu": 50.0})],
    )
    def test_statistic_overflow_exit_2(self, tmp_path, capsys, kind, fields):
        cfg = self._write(tmp_path, {
            "demand": {"n": 12, "count_mu": 4, "count_sigma": 0.5,
                       "magnitude_mu": 1e200, "magnitude_sigma": 1e199},
            "series_count": 2, "forecasts_per_series": 3, "metrics": ["mae", "spec"],
            "seed": 1, **fields,
        })
        out = tmp_path / "r.json"
        code = run_cli("experiment", kind, "--config", str(cfg), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(" overflows the float range\n")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_scoring_overflow_prints_only_the_error(self, tmp_path, capsys):
        # rmse squares errors near 1e300: the scores overflow before the statistic does
        cfg = self._write(tmp_path, {
            "demand": {"n": 12, "count_mu": 4, "count_sigma": 0.5,
                       "magnitude_mu": 1e300, "magnitude_sigma": 1e299},
            "variance_levels": [0.5, 1.5], "series_count": 2, "forecasts_per_series": 3,
            "metrics": ["mae", "spec", "mape", "rmse"], "seed": 1,
        })
        code = run_cli("experiment", "reliability", "--config", str(cfg),
                       "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert capsys.readouterr().err == "error: statistic overflows the float range\n"

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = run_cli("experiment", "reliability", "--config", str(cfg),
                       "--out", str(tmp_path / "r.json"))
        assert code == 2


#: SHA-256 of every file the CLI writes for the shipped fixtures and the
#: simulate example, run from a directory that holds copies of them under
#: their repo-relative names (so every path in a manifest is relative). Floats
#: are reproducible only within one installation, so the pins hold for the
#: interpreter/numpy pair below and the check is skipped on any other.
GOLDEN_CLI_INSTALLATION = ("3.11.7", "2.4.6")
GOLDEN_CLI_ARTIFACTS = {
    "score model_a table": "8d77f6f464aa82e6ed94aff1a85a371cd9cb511c6908cf4dec90a5d9a301c3d2",
    "score model_a json": "53d0a6c70a7e932f74316024c4f4377dd86d8d2199bceac5683b11c4d241e2cd",
    "score model_a csv": "ec8d91a33345d53f884a36db9ad54309ef2d9602491bff5015dcb64a972792d8",
    "score model_b table": "a175a8235f7d215c1cdadeaa1a05c94e9b9304808297785b663e707b0a9173e1",
    "score model_b json": "be328025c731683c084f5e96aa31ef80e258b2ad645cbb1f8c4fd42fcb32fc17",
    "score model_b csv": "2b607e51b258a716cefa186705e8489f9e8af772543883fe94a7aba2211c708c",
    "out/model_a.csv": "a30bde4abd3a0565bedbf86bb7fafdde7e6eb775e9cf62a14daa89967e1a865a",
    "out/model_a.csv.manifest.json": "c5d992c04804f484c632a71c50764c0ad13eb9496182d95487ee2c3e483e820d",
    "out/model_a.svg": "d6cf90e0c579a4ca88299b56347824db7828ef711e661a433a64b328b807a3bd",
    "out/model_b.csv": "d1fd75380b491f9271dc63adc7221c33c2354a4cbe80661a38569937928c90b7",
    "out/model_b.csv.manifest.json": "a4d9e675d3aeee32fde77d955f1acd8ba43366bdd4468cd5e98bbe3c438f2644",
    "out/model_b.svg": "c1f03f8bb2fa2dcb5e628f08d36aed4610f14f844410eaeed508a2eb8d5bb4ff",
    "out/simulate/manifest.json": "15922235ae6295103111480ce785eb3bfb8cfa34a1020f6ba262e13bc3d9b41e",
    "out/simulate/pair.csv": "050c2ed09f1f7bfd50da07f154b815f2d0f726b354e696fe9c3ed7595e8a741a",
    "out/sweep.csv": "8a8eb4e5cd8e61ec488ef067ea803878f74c3c6c5ea2716b2ad54fbb64abbe28",
    "out/sweep.csv.manifest.json": "0d9d002b8eca5d360ae6be8d15fab1e6b5347c640796352edf6c4abc16ccaf4c",
    "out/sweep.svg": "cfd442bf4b4066629f3fb8ed8fe6e24125593ddbee3edbcff52cb1516fde37e5",
}


def test_golden_cli_artifacts(tmp_path, monkeypatch, capsys):
    installation = (platform.python_version(), np.__version__)
    if installation != GOLDEN_CLI_INSTALLATION:
        pytest.skip(
            f"CLI artifact digests are pinned for Python/numpy {GOLDEN_CLI_INSTALLATION}, "
            f"this is {installation}; floats are reproducible only within an installation"
        )
    for name in ("fixtures/model_a.csv", "fixtures/model_b.csv", "configs/simulate_example.json"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        shutil.copyfile(REPO_ROOT / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    written = {}
    for model in ("model_a", "model_b"):
        pair_csv = f"fixtures/{model}.csv"
        for fmt in ("table", "json", "csv"):
            assert run_cli("score", "--input", pair_csv, "--format", fmt) == 0
            written[f"score {model} {fmt}"] = capsys.readouterr().out.encode("utf-8")
        assert run_cli("decompose", "--input", pair_csv, "--out", f"out/{model}.csv",
                       "--svg", f"out/{model}.svg") == 0
    assert run_cli("sweep", "--input", "fixtures/model_a.csv", "--input", "fixtures/model_b.csv",
                   "--out", "out/sweep.csv", "--svg", "out/sweep.svg") == 0
    assert run_cli("simulate", "--config", "configs/simulate_example.json",
                   "--out-dir", "out/simulate") == 0
    assert capsys.readouterr() == ("", "")
    for path in sorted((tmp_path / "out").rglob("*")):
        if path.is_file():
            written[path.relative_to(tmp_path).as_posix()] = path.read_bytes()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in written.items()}
    assert digests == GOLDEN_CLI_ARTIFACTS
