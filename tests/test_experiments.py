"""Experiment runners: validation, determinism, and small-scale behaviour.

Full desk-scale threshold checks live in test_acceptance.py; these tests use
reduced counts so the whole module stays fast.
"""

import json
import multiprocessing
import multiprocessing.process
import os
import sys
import time
import tracemalloc
from dataclasses import asdict, replace
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

from demandeval import (
    DemandGenConfig,
    ReliabilityConfig,
    SegmentReliabilityConfig,
    SpecParams,
    ValidityConfig,
    generate_demand,
    run_cost_validity,
    run_reliability,
    run_segment_reliability,
    run_segment_reliability_config,
    run_validity,
)
from demandeval import experiments, metrics, simulate
from demandeval.errors import InvalidConfig, SeriesError
from demandeval.experiments import ExperimentReport, MetricOutcome, derive_seed

DEMAND = DemandGenConfig(
    n=48, count_mu=5.0, count_sigma=1.0, magnitude_mu=10.0, magnitude_sigma=2.0, seed=0
)


def small_reliability(**overrides) -> ReliabilityConfig:
    base = dict(
        demand=DEMAND,
        variance_levels=(0.5, 1.5, 2.5),
        series_count=25,
        forecasts_per_series=10,
        metrics=("mae", "spec"),
        seed=7,
    )
    base.update(overrides)
    return ReliabilityConfig(**base)


def small_validity(**overrides) -> ValidityConfig:
    base = dict(
        demand=DEMAND,
        direction="vertical",
        mu_levels=(2.0, 5.0, 8.0),
        sigma=1.0,
        series_count=25,
        forecasts_per_series=10,
        metrics=("mae", "mape", "smape", "spec"),
        seed=7,
    )
    base.update(overrides)
    return ValidityConfig(**base)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_distinct_streams(self):
        seeds = {derive_seed(1, i, j) for i in range(20) for j in range(20)}
        assert len(seeds) == 400

    @staticmethod
    def _numpy_seed(root, *key):
        return int(np.random.SeedSequence(root, spawn_key=key).generate_state(1, np.uint64)[0])

    def test_matches_seed_sequence(self):
        rng = np.random.default_rng(11)
        roots = [0, 2**32 - 1, 2**32, 2**64 - 1] + [
            int(r) for r in rng.integers(0, 2**64, size=12, dtype=np.uint64)
        ]
        elements = [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**70 + 5]
        for root in roots:
            for size in range(5):
                for _ in range(3):
                    key = tuple(int(e) for e in rng.choice(elements, size=size))
                    key += tuple(int(k) for k in rng.integers(0, 2**63, size=size % 2))
                    assert derive_seed(root, *key) == self._numpy_seed(root, *key), (root, key)

    # rows of _streams: several-word roots and prefix elements, ``last`` up to 2**32 - 1
    _rng = np.random.default_rng(12)
    _last = [0, 1, 49, 2**31, 2**32 - 1, *_rng.integers(0, 2**32, size=2).tolist()]
    _roots = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**130, int(_rng.integers(0, 2**63))]

    @pytest.mark.parametrize("root", _roots)
    def test_streams_seed_default_rng_of_each_key(self, root):
        last = self._last
        prefixes = [(), (1,), (1, 199), (2**32, 3, 2**64 - 1), (7, 2**70 + 5), (2**64 - 1,)]
        count = 3
        for prefix in prefixes:
            words = experiments._streams(root, prefix, last, count)
            assert words.shape == (len(last) * count, 4) and words.dtype == np.uint64
            keys = [(l, f) for l in last for f in range(count)]
            for key, row in zip(keys, words, strict=True):
                stream = np.random.Generator(np.random.PCG64(experiments._Words(row)))
                want = np.random.default_rng(derive_seed(root, *prefix, *key))
                assert stream.bit_generator.state == want.bit_generator.state, (root, prefix, key)
                assert stream.standard_normal(5).tolist() == want.standard_normal(5).tolist()
                # an odd count of 32-bit draws leaves half a word buffered
                assert stream.integers(2**32, size=3, dtype=np.uint32).tolist() == (
                    want.integers(2**32, size=3, dtype=np.uint32).tolist()
                )
                assert stream.standard_normal() == want.standard_normal()

    @pytest.mark.parametrize("last, count", [([], 3), ([0, 1], 0), ([], 0)])
    def test_streams_of_no_keys_are_empty(self, last, count):
        words = experiments._streams(3, (1,), last, count)
        assert words.shape == (0, 4) and words.dtype == np.uint64

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(1, -2)


class TestConfigValidation:
    def test_duplicate_variance_levels_rejected(self):
        with pytest.raises(InvalidConfig, match="variance_levels"):
            small_reliability(variance_levels=(1.0, 1.0))

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidConfig, match=r"^field 'sigma': must be >= 0, got -1\.0$"):
            small_validity(sigma=-1.0)

    def test_negative_variance_level_rejected(self):
        with pytest.raises(InvalidConfig, match="'variance_levels': sigma values must be >= 0"):
            small_reliability(variance_levels=(-1.0, 1.0))

    def test_single_mu_level_rejected(self):
        with pytest.raises(InvalidConfig, match="mu_levels"):
            small_validity(mu_levels=(1.0,))

    def test_single_magnitude_mu_rejected(self):
        with pytest.raises(InvalidConfig, match="field 'magnitude_mus': need at least 2"):
            SegmentReliabilityConfig(demand=DEMAND, magnitude_mus=(5.0,), window=24)

    def test_bad_direction(self):
        with pytest.raises(InvalidConfig, match="direction"):
            small_validity(direction="diagonal")
        with pytest.raises(InvalidConfig, match="field 'error_directions'"):
            small_reliability(error_directions="diagonal")

    def test_unknown_metric(self):
        with pytest.raises(InvalidConfig, match="metrics"):
            small_reliability(metrics=("mae", "nope"))

    @pytest.mark.parametrize("metrics,named", [((), "at least one"), (("mae", "mae"), "duplicate")])
    def test_empty_or_duplicate_metrics_rejected(self, metrics, named):
        with pytest.raises(InvalidConfig, match=f"field 'metrics': {named}"):
            small_reliability(metrics=metrics)

    def test_window_longer_than_demand_rejected(self):
        with pytest.raises(InvalidConfig, match="field 'window': 49 exceeds"):
            SegmentReliabilityConfig(demand=DEMAND, magnitude_mus=(5.0, 20.0), window=49)

    @pytest.mark.parametrize(
        "make,field", [(small_reliability, "error_mu"), (small_validity, "sigma")]
    )
    def test_bool_is_not_a_number(self, make, field):
        with pytest.raises(InvalidConfig, match=field):
            make(**{field: True})

    @pytest.mark.parametrize("levels", [(True, 2.0), ("2.5", 1.0), ("x", 2)])
    @pytest.mark.parametrize(
        "make,field",
        [
            (small_reliability, "variance_levels"),
            (small_validity, "mu_levels"),
            (lambda **kw: SegmentReliabilityConfig(demand=DEMAND, window=24, **kw),
             "magnitude_mus"),
        ],
    )
    def test_level_entries_must_be_numbers(self, make, field, levels):
        with pytest.raises(InvalidConfig, match=field):
            make(**{field: levels})

    @pytest.mark.parametrize("seed", [-1, "x", 1.5, True, 2**64])
    @pytest.mark.parametrize(
        "make",
        [
            small_reliability,
            small_validity,
            lambda **kw: SegmentReliabilityConfig(
                demand=DEMAND, magnitude_mus=(5.0, 20.0), window=24, **kw
            ),
        ],
        ids=["reliability", "validity", "segment-reliability"],
    )
    def test_seed_must_be_an_unsigned_64_bit_integer(self, make, seed):
        with pytest.raises(InvalidConfig, match="field 'seed'"):
            make(seed=seed)

    def test_levels_must_be_a_list(self):
        with pytest.raises(InvalidConfig, match="variance_levels"):
            small_reliability(variance_levels=5)

    def test_from_dict_unknown_field(self):
        data = {
            "demand": {"n": 48, "count_mu": 5, "count_sigma": 1,
                       "magnitude_mu": 10, "magnitude_sigma": 2},
            "variance_levels": [0.5, 1.5],
            "bogus": 1,
        }
        with pytest.raises(InvalidConfig, match="bogus"):
            ReliabilityConfig.from_dict(data)

    def test_from_dict_missing_field(self):
        with pytest.raises(InvalidConfig, match="demand"):
            ValidityConfig.from_dict({"direction": "vertical"})

    def test_from_dict_nested_diagnostic(self):
        data = {
            "demand": {"n": 0, "count_mu": 5, "count_sigma": 1,
                       "magnitude_mu": 10, "magnitude_sigma": 2},
            "variance_levels": [0.5, 1.5],
        }
        with pytest.raises(InvalidConfig, match="demand"):
            ReliabilityConfig.from_dict(data)
        data["demand"] = [48, 5, 1, 10, 2]
        with pytest.raises(InvalidConfig, match="field 'demand': expected an object"):
            ReliabilityConfig.from_dict(data)

    @pytest.mark.parametrize("data,kind", [("x", "str"), ([("seed", 1)], "list")])
    def test_from_dict_rejects_a_non_object(self, data, kind):
        with pytest.raises(InvalidConfig, match=f"^expected an object, got {kind}$"):
            ReliabilityConfig.from_dict(data)

    def test_from_dict_rejects_demand_seed(self):
        # every runner derives per-series seeds from the top-level seed
        data = {
            "demand": {"n": 48, "count_mu": 5, "count_sigma": 1,
                       "magnitude_mu": 10, "magnitude_sigma": 2, "seed": 5},
            "variance_levels": [0.5, 1.5],
        }
        with pytest.raises(InvalidConfig, match="field 'demand'"):
            ReliabilityConfig.from_dict(data)


class TestReliability:
    def test_deterministic_report(self):
        config = small_reliability()
        assert run_reliability(config).to_json() == run_reliability(config).to_json()

    def test_spec_variance_tracks_injected_variance(self):
        report = run_reliability(small_reliability())
        outcome = report.metrics["spec"]
        assert outcome.r is not None and outcome.r > 0.8
        variances = outcome.per_level_variance
        assert variances[0] < variances[-1]

    def test_one_generator_per_series_and_one_error_per_block(self, configs_dir, monkeypatch):
        # the shipped config on the traced-layer test's 3-series x 4-forecast grid
        data = json.loads((configs_dir / "reliability.json").read_text(encoding="utf-8"))
        config = replace(ReliabilityConfig.from_dict(data), series_count=3, forecasts_per_series=4)
        calls = {"default_rng": 0, "ErrorInjectionConfig": 0}
        default_rng = simulate.np.random.default_rng
        post_init = simulate.ErrorInjectionConfig.__post_init__

        def counted_rng(*args, **kwargs):
            calls["default_rng"] += 1
            return default_rng(*args, **kwargs)

        def counted_post_init(self):
            calls["ErrorInjectionConfig"] += 1
            post_init(self)

        monkeypatch.setattr(simulate.np.random, "default_rng", counted_rng)
        monkeypatch.setattr(simulate.ErrorInjectionConfig, "__post_init__", counted_post_init)
        monkeypatch.setattr(experiments, "_worker_count", lambda: 1)  # a worker's calls are not seen here
        run_reliability(config)
        # generate_demand's generator per series; a per-forecast one would make 4 per block
        assert calls == {"default_rng": 3, "ErrorInjectionConfig": 3 * len(config.variance_levels)}

    def test_a_cell_past_one_batch_holds_one_batch(self, configs_dir):
        # one cell of the shipped config, 2 levels x 50 forecasts, at a horizon just
        # past a batch's values, so each batch is one row; the bound is in float64s
        # of a batch, plus the series. Few spikes keep the netting short under tracemalloc.
        data = json.loads((configs_dir / "reliability.json").read_text(encoding="utf-8"))
        shipped = ReliabilityConfig.from_dict(data)
        n = experiments._BATCH_VALUES + 1
        config = replace(shipped, demand=replace(shipped.demand, n=n, count_mu=150.0),
                         variance_levels=shipped.variance_levels[:2])
        bad = dict.fromkeys(config.metrics, 0)
        cell = next(experiments._series_cells(config))
        tracemalloc.start()
        try:
            blocks = list(experiments._pair_stream(config, config.error_directions, [cell], bad))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(values["spec"]) for _, values, _ in blocks] == [50, 50]
        assert peak <= 6 * 8 * max(experiments._BATCH_VALUES, n) + 8 * n

    def test_report_structure(self):
        report = run_reliability(small_reliability())
        payload = report.to_dict()
        assert payload["kind"] == "reliability"
        assert payload["config"]["series_count"] == 25
        assert set(payload["metrics"]) == {"mae", "spec"}


class TestValidity:
    def test_vertical_monotone_for_spec(self):
        report = run_validity(small_validity())
        outcome = report.metrics["spec"]
        assert outcome.r is not None and outcome.r > 0.9
        means = outcome.per_level_mean
        assert means[0] < means[1] < means[2]

    def test_horizontal_flags_percentage_family(self):
        report = run_validity(small_validity(direction="horizontal", mu_levels=(1.0, 2.0, 3.0)))
        assert report.metrics["mape"].not_calculable is not None
        assert report.metrics["smape"].not_calculable is not None
        assert report.metrics["spec"].r is not None

    def test_horizontal_does_not_score_percentage_family(self, monkeypatch):
        def unscored(pair):
            raise AssertionError("a horizontal study scored a percentage metric")

        monkeypatch.setitem(metrics._METRIC_FUNCS, "mape", unscored)
        monkeypatch.setitem(metrics._METRIC_FUNCS, "smape", unscored)
        report = run_validity(small_validity(direction="horizontal", mu_levels=(1.0, 2.0, 3.0)))
        assert report.metrics["mape"].not_calculable is not None
        assert report.metrics["spec"].r is not None

    def test_horizontal_with_only_percentage_metrics_still_reports(self):
        config = small_validity(
            direction="horizontal", mu_levels=(1.0, 2.0, 3.0), metrics=("mape", "mdape", "rmspe", "smape")
        )
        not_calculable = "percentage-family metric under horizontal shift"
        assert run_validity(config) == ExperimentReport(
            kind="validity",
            seed=7,
            config=asdict(config),
            levels=(1.0, 2.0, 3.0),
            metrics={m: MetricOutcome(metric=m, not_calculable=not_calculable) for m in config.metrics},
        )

    def test_horizontal_with_only_percentage_metrics_draws_no_series(self, monkeypatch):
        config = small_validity(direction="horizontal", mu_levels=(1.0, 2.0, 3.0), metrics=("mape", "smape"))
        expected = run_validity(config).to_json()

        def undrawn(demand_config):
            raise AssertionError("a study with no scored metric drew a demand series")

        monkeypatch.setattr(experiments, "generate_demand", undrawn)
        assert run_validity(config).to_json() == expected

    def test_deterministic_report(self):
        config = small_validity()
        assert run_validity(config).to_json() == run_validity(config).to_json()


class TestSegmentReliability:
    def test_identical_copies_have_comparable_spread(self):
        series = generate_demand(DEMAND)
        report = run_segment_reliability([series] * 6, window=24, segments_per_series=40, seed=3)
        assert report.within_between_ratio == pytest.approx(1.0, abs=0.6)
        assert report.levene.p > 0.01

    def test_distinct_series_detected(self):
        config = SegmentReliabilityConfig(
            demand=DEMAND,
            magnitude_mus=(4.0, 8.0, 16.0, 32.0, 64.0),
            window=24,
            segments_per_series=20,
            seed=3,
        )
        report = run_segment_reliability_config(config)
        assert report.levene.p < 0.01
        assert report.within_between_ratio < 0.8

    def test_needs_two_series(self):
        series = generate_demand(DEMAND)
        with pytest.raises(InvalidConfig):
            run_segment_reliability([series], window=24, segments_per_series=5, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_series_set_seed_is_checked(self, seed):
        series = [generate_demand(DEMAND), generate_demand(DEMAND)]
        with pytest.raises(InvalidConfig, match="field 'seed'"):
            run_segment_reliability(series, 24, 10, seed=seed)

    def test_deterministic(self):
        series = [generate_demand(DEMAND), generate_demand(DEMAND)]
        a = run_segment_reliability(series, 24, 10, seed=5)
        b = run_segment_reliability(series, 24, 10, seed=5)
        assert a.to_json() == b.to_json()


class TestCostValidity:
    def test_matching_weights_give_perfect_correlation(self):
        report = run_cost_validity(small_reliability(), SpecParams(0.75, 0.25))
        assert report.metrics["spec"].r == pytest.approx(1.0, abs=1e-9)

    def test_mismatched_weights_still_strongly_related(self):
        report = run_cost_validity(
            small_reliability(), SpecParams(0.75, 0.25), SpecParams(0.5, 0.5)
        )
        r = report.metrics["spec"].r
        assert 0.8 <= r < 1.0

    def test_config_snapshot_carries_both_weightings(self):
        report = run_cost_validity(
            small_reliability(), SpecParams(0.75, 0.25), SpecParams(0.5, 0.5)
        )
        assert report.config["cost_alpha1"] == 0.75
        assert report.config["metric_alpha1"] == 0.5

    def test_deterministic(self):
        config = small_reliability()
        a = run_cost_validity(config, SpecParams(0.75, 0.25))
        b = run_cost_validity(config, SpecParams(0.75, 0.25))
        assert a.to_json() == b.to_json()


class TestSharedOutcomes:
    """Every runner triages its metrics the same way."""

    def test_non_finite_values_make_a_metric_not_calculable(self):
        config = small_reliability(metrics=("mape", "spec"), error_directions="horizontal",
                                   error_mu=1.0)
        reports = [
            run_reliability(config),
            run_cost_validity(config),
            # an all-zero series leaves every percentage term undefined
            run_validity(small_validity(metrics=("mape", "spec"),
                                        demand=replace(DEMAND, count_mu=0.5))),
        ]
        for report in reports:
            outcome = report.metrics["mape"]
            count, _, reason = outcome.not_calculable.partition(" ")
            assert reason == "non-finite metric values"
            assert int(count) > 0
            assert outcome.r is None and outcome.per_level_mean is None
            assert outcome.per_level_variance is None
            assert report.metrics["spec"].r is not None
        # reliability and cost-validity score the very same pairs
        assert reports[0].metrics["mape"] == reports[1].metrics["mape"]

    def test_constant_score_is_degenerate(self):
        # the median absolute error of a sparse series is 0 for every forecast
        reports = [
            run_reliability(small_reliability(metrics=("mdae",))),
            run_cost_validity(small_reliability(metrics=("mdae",))),
            run_validity(small_validity(metrics=("mdae",))),
        ]
        for report in reports:
            outcome = report.metrics["mdae"]
            assert outcome.not_calculable == "degenerate correlation input"
            assert outcome.r is None
        assert reports[0].metrics["mdae"].per_level_variance == (0.0, 0.0, 0.0)
        assert reports[2].metrics["mdae"].per_level_mean == (0.0, 0.0, 0.0)


#: Small grids of every engine study, with their cell counts: one or two cells
#: fewer than three workers, and a horizontal sweep of percentage metrics only,
#: which scores nothing.
_DEALT = {
    "reliability": (lambda: run_reliability(small_reliability(series_count=5, forecasts_per_series=4)), 5),
    "reliability-2-series": (lambda: run_reliability(small_reliability(series_count=2)), 2),
    "reliability-non-finite": (lambda: run_reliability(small_reliability(
        series_count=4, metrics=("mape", "spec"), error_directions="horizontal", error_mu=1.0)), 4),
    "validity-vertical": (lambda: run_validity(small_validity(series_count=3, forecasts_per_series=4)), 9),
    "validity-horizontal": (lambda: run_validity(small_validity(
        direction="horizontal", mu_levels=(1.0, 2.0, 3.0), series_count=3, forecasts_per_series=4)), 9),
    "validity-horizontal-percentage-only": (lambda: run_validity(small_validity(
        direction="horizontal", mu_levels=(1.0, 2.0, 3.0), metrics=("mape", "smape"))), 0),
    "cost-validity": (lambda: run_cost_validity(
        small_reliability(series_count=4, metrics=("mae", "smape", "spec")),
        SpecParams(0.75, 0.25), SpecParams(0.5, 0.5)), 4),
}


_START = multiprocessing.process.BaseProcess.start


def _workers(monkeypatch, count: int) -> list[int]:
    """Deal cells to ``count`` processes; the returned list counts the workers started."""
    started = []

    def counted(process):
        started.append(1)
        _START(process)

    monkeypatch.setattr(experiments, "_worker_count", lambda: count)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    return started


def _one_cell_stream(config: ReliabilityConfig, **kwargs):
    bad = dict.fromkeys(config.metrics, 0)
    stream = experiments._pair_stream(
        config, config.error_directions, islice(experiments._series_cells(config), 1), bad, **kwargs)
    return list(stream), bad


class TestWorkerCount:
    def test_one_process_where_a_fork_is_not_safe(self, monkeypatch):
        forks = hasattr(os, "sched_getaffinity") and sys.version_info < (3, 12)
        assert experiments._worker_count() == (len(os.sched_getaffinity(0)) if forks else 1)
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert experiments._worker_count() == 1
        monkeypatch.undo()
        monkeypatch.setattr(experiments, "sys", SimpleNamespace(version_info=(3, 12, 0)))
        assert experiments._worker_count() == 1
        monkeypatch.undo()
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        assert experiments._worker_count() == 1


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="no worker is forked on Python 3.12 and later")
class TestCellsDealtToWorkers:
    @pytest.mark.parametrize("study", sorted(_DEALT))
    def test_reports_do_not_depend_on_the_worker_count(self, study, monkeypatch):
        run, cells = _DEALT[study]
        reports = {}
        for count in (1, 2, 3):
            started = _workers(monkeypatch, count)
            reports[count] = run().to_json()
            assert len(started) == max(0, min(count, cells) - 1)
            assert multiprocessing.active_children() == []
        assert reports[2] == reports[1] and reports[3] == reports[1]

    def test_a_single_cell_is_scored_here(self, monkeypatch):
        config = small_reliability(metrics=("mae", "spec"))
        want = _one_cell_stream(config, cost_params=SpecParams(0.75, 0.25))
        started = _workers(monkeypatch, 3)
        assert _one_cell_stream(config, cost_params=SpecParams(0.75, 0.25)) == want
        assert started == []

    def test_a_workers_error_is_raised_at_its_cell(self, monkeypatch):
        # the second series is the worker's; the first series' blocks come before the error
        config = small_reliability(series_count=4)
        failing_seed = derive_seed(config.seed, 0, 1)
        generate = experiments.generate_demand

        def generate_or_fail(demand):
            if demand.seed == failing_seed:
                raise SeriesError("series 1 cannot be drawn")
            return generate(demand)

        monkeypatch.setattr(experiments, "generate_demand", generate_or_fail)
        seen = {}
        for count in (1, 2):
            _workers(monkeypatch, count)
            blocks = []
            bad = dict.fromkeys(config.metrics, 0)
            with pytest.raises(SeriesError, match=r"^series 1 cannot be drawn$"):
                for block in experiments._pair_stream(
                        config, config.error_directions, experiments._series_cells(config), bad):
                    blocks.append(block)
            seen[count] = blocks
            assert multiprocessing.active_children() == []
        assert len(seen[1]) == len(config.variance_levels) and seen[2] == seen[1]

    def test_a_worker_that_dies_raises_here(self, monkeypatch):
        parent = os.getpid()
        generate = experiments.generate_demand

        def generate_or_exit(demand):
            if os.getpid() != parent:
                os._exit(1)
            return generate(demand)

        monkeypatch.setattr(experiments, "generate_demand", generate_or_exit)
        _workers(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="a study worker ended without sending cell 1"):
            run_reliability(small_reliability(series_count=4))
        assert multiprocessing.active_children() == []

    def test_a_worker_that_cannot_start_leaves_the_cells_here(self, monkeypatch):
        config = small_reliability(series_count=4)
        want = run_reliability(config).to_json()
        started = _workers(monkeypatch, 3)
        start = multiprocessing.process.BaseProcess.start

        def second_fails(process):
            if started:  # the first worker has started
                raise OSError(11, "Resource temporarily unavailable")
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", second_fails)
        assert run_reliability(config).to_json() == want
        assert len(started) == 1
        assert multiprocessing.active_children() == []

    def test_workers_end_with_the_stream(self, monkeypatch):
        # the worker would take 30 s on its first cell; the stream's end stops it
        parent = os.getpid()
        generate = experiments.generate_demand

        def generate_slowly(demand):
            if os.getpid() != parent:
                time.sleep(30)
            return generate(demand)

        monkeypatch.setattr(experiments, "generate_demand", generate_slowly)
        _workers(monkeypatch, 2)
        config = small_reliability(series_count=4)
        began = time.monotonic()
        bad = dict.fromkeys(config.metrics, 0)
        stream = experiments._pair_stream(
            config, config.error_directions, experiments._series_cells(config), bad)
        next(stream)
        stream.close()
        assert multiprocessing.active_children() == []

        def interrupted(values):  # the runner is interrupted at its first block
            raise KeyboardInterrupt

        monkeypatch.setattr(experiments, "variance", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_reliability(config)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - began < 20
