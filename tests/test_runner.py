"""Tests for the programmatic experiment runner."""

import csv
import io
import json

import pytest

from tests.util import make_random_network
from repro.analysis.suite import lint_suite
from repro.bench.runner import _CSV_FIELDS, SuiteResult, run_suite
from repro.errors import BenchError, FlowError
from repro.flow import get_registry, mapper_names
from repro.report import MappingReport


@pytest.fixture(scope="module")
def small_sweep():
    nets = [make_random_network(s, num_gates=10) for s in range(2)]
    return run_suite(nets, mappers=("chortle", "mis"), ks=(2, 4), verify=True)


class TestRunSuite:
    def test_report_count(self, small_sweep):
        assert len(small_sweep.reports) == 2 * 2 * 2

    def test_filter(self, small_sweep):
        chortle_k4 = small_sweep.filter(mapper="chortle", k=4)
        assert len(chortle_k4) == 2
        assert all(r.k == 4 for r in chortle_k4)

    def test_profile_names_accepted(self):
        result = run_suite(["frg1"], mappers=("chortle",), ks=(4,))
        assert result.reports[0].circuit_name == "frg1"

    def test_all_mappers_registered(self):
        result = run_suite(
            [make_random_network(1, num_gates=8)],
            mappers=tuple(mapper_names()),
            ks=(3,),
            verify=True,
        )
        assert {r.mapper for r in result.reports} == set(mapper_names())

    def test_unknown_mapper_clean_error(self):
        with pytest.raises(BenchError) as excinfo:
            run_suite(
                [make_random_network(1, num_gates=8)],
                mappers=("chortle", "bogus"),
                ks=(3,),
            )
        message = str(excinfo.value)
        assert "unknown mapper 'bogus'" in message
        for name in mapper_names():
            assert name in message

    def test_registered_flows_sweepable(self):
        assert set(get_registry().names()) <= set(mapper_names())

    def test_flow_spec_accepted(self):
        """A comma-separated pass spec is a valid suite mapper name."""
        result = run_suite(
            [make_random_network(2, num_gates=8)],
            mappers=("sweep,strash,chortle",),
            ks=(4,),
            verify=True,
        )
        assert result.reports[0].mapper == "sweep,strash,chortle"

    def test_network_only_spec_rejected(self):
        with pytest.raises(BenchError):
            run_suite(["frg1"], mappers=("sweep,strash",), ks=(4,))

    @pytest.mark.parametrize(
        "mapper,k", [("cutmap_delay", 7), ("sweep,strash,mis", 6)]
    )
    def test_sweep_skips_cells_beyond_the_map_pass_range(self, mapper, k):
        """A flow spec's K range is its map pass's, as for raw names."""
        assert run_suite(["9symml"], mappers=(mapper,), ks=(k,)).reports == []
        assert lint_suite(["9symml"], mappers=(mapper,), ks=(k,)) == []

    def test_lint_suite_unknown_mapper_fails_before_mapping(self):
        from repro.obs import metrics

        before = metrics.counters()
        with pytest.raises(FlowError, match="bogus"):
            lint_suite(["9symml"], mappers=("chortle", "bogus"), ks=(4,))
        assert "chortle.trees_mapped" not in metrics.counter_delta(before)


def synthetic_report(circuit="c0", k=4, mapper="chortle", luts=10):
    return MappingReport(
        circuit_name=circuit,
        k=k,
        mapper=mapper,
        num_inputs=4,
        num_outputs=1,
        source_gates=8,
        source_edges=14,
        source_depth=4,
        luts=luts,
        luts_total=luts,
        depth=3,
        utilization_histogram={4: luts},
        seconds=0.01,
    )


class TestSuiteResultHelpers:
    def test_filter_multiple_criteria(self):
        result = SuiteResult(reports=[
            synthetic_report("c0", k=2),
            synthetic_report("c0", k=4),
            synthetic_report("c1", k=4, mapper="mis"),
        ])
        assert [r.k for r in result.filter(circuit_name="c0")] == [2, 4]
        assert result.filter(circuit_name="c1", mapper="mis", k=4)
        assert result.filter(circuit_name="c1", mapper="chortle") == []

    def test_comparison_gains(self):
        result = SuiteResult(reports=[
            synthetic_report("c0", mapper="mis", luts=10),
            synthetic_report("c0", mapper="chortle", luts=8),
        ])
        gains = result.comparison(4, baseline="mis", challenger="chortle")
        assert gains == {"c0": pytest.approx(20.0)}

    def test_comparison_skips_zero_lut_baseline(self):
        result = SuiteResult(reports=[
            synthetic_report("c0", mapper="mis", luts=0),
            synthetic_report("c0", mapper="chortle", luts=5),
            synthetic_report("c1", mapper="chortle", luts=5),  # no baseline
        ])
        gains = result.comparison(4, baseline="mis", challenger="chortle")
        assert gains == {}

    def test_comparison_respects_k(self):
        result = SuiteResult(reports=[
            synthetic_report("c0", k=2, mapper="mis", luts=10),
            synthetic_report("c0", k=2, mapper="chortle", luts=9),
            synthetic_report("c0", k=4, mapper="mis", luts=10),
        ])
        assert "c0" in result.comparison(2, "mis", "chortle")
        assert result.comparison(4, "mis", "chortle") == {}


class TestExports:
    def test_json(self, small_sweep):
        data = json.loads(small_sweep.to_json())
        assert len(data) == len(small_sweep.reports)
        assert {"luts", "depth", "mapper"} <= set(data[0])

    def test_csv(self, small_sweep):
        rows = list(csv.DictReader(io.StringIO(small_sweep.to_csv())))
        assert len(rows) == len(small_sweep.reports)
        assert int(rows[0]["luts"]) > 0

    def test_comparison(self, small_sweep):
        gains = small_sweep.comparison(4, baseline="mis", challenger="chortle")
        assert len(gains) == 2
        assert all(g >= -10.0 for g in gains.values())

    def test_csv_column_order_stable(self, small_sweep):
        # The CSV header is a public interface for downstream tooling:
        # exact names, exact order.
        header = small_sweep.to_csv().splitlines()[0]
        assert header.split(",") == _CSV_FIELDS == [
            "circuit_name", "k", "mapper", "num_inputs", "num_outputs",
            "source_gates", "luts", "luts_total", "depth", "seconds",
            "wall_seconds", "depth_attribution",
        ]

    def test_to_records_bundles_reports(self, small_sweep):
        record = small_sweep.to_records(
            created_at="2026-08-06T00:00:00Z", label="sweep"
        )
        assert record.reports == small_sweep.reports
        assert record.created_at == "2026-08-06T00:00:00Z"
        assert "git_sha" in record.environment


class TestPerfTrajectory:
    def test_json_includes_timings_and_counters(self, small_sweep):
        data = json.loads(small_sweep.to_json())
        assert all("timings" in d and "counters" in d for d in data)
        chortle = [d for d in data if d["mapper"] == "chortle"][0]
        assert chortle["counters"]["chortle.minmap_entries"] > 0
        assert chortle["counters"]["chortle.decomp_candidates"] > 0
        assert "chortle.map" in chortle["timings"]
        assert all(t >= 0.0 for t in chortle["timings"].values())

    def test_per_tree_spans_not_exported(self, small_sweep):
        for report in small_sweep.reports:
            assert "chortle.map_tree" not in (report.timings or {})
            assert "bench.run" not in (report.timings or {})

    def test_csv_fields_backward_compatible(self, small_sweep):
        from repro.bench.runner import _CSV_FIELDS

        rows = list(csv.DictReader(io.StringIO(small_sweep.to_csv())))
        assert set(rows[0]) == set(_CSV_FIELDS)
        assert "timings" not in rows[0] and "counters" not in rows[0]

    def test_seconds_matches_run_span(self, small_sweep):
        # seconds is now derived from the bench.run span, so it bounds
        # the per-stage totals for single-mapper stage names.
        for report in small_sweep.reports:
            assert report.seconds is not None and report.seconds >= 0.0
