"""Tests for QoR run records, baseline diffing, and the regression gate."""

import dataclasses
import json

import pytest

from tests.util import make_random_network
from repro.core.chortle import ChortleMapper
from repro.errors import QorError
from repro.obs.qor import SCHEMA_VERSION, RunRecord, collect_environment
from repro.obs.qordiff import (
    DEFAULT_POLICIES,
    IMPROVED,
    REGRESSED,
    UNCHANGED,
    MetricPolicy,
    diff_records,
    render_record,
)
from repro.report import MappingReport


def make_report(circuit="rnd0", k=4, mapper="chortle", luts=10, depth=3,
                seconds=0.1, tree_luts=None):
    return MappingReport(
        circuit_name=circuit,
        k=k,
        mapper=mapper,
        num_inputs=4,
        num_outputs=2,
        source_gates=12,
        source_edges=20,
        source_depth=5,
        luts=luts,
        luts_total=luts + 1,
        depth=depth,
        utilization_histogram={2: 4, 4: luts - 4},
        seconds=seconds,
        tree_luts=tree_luts,
    )


def make_record(reports, label="test"):
    return RunRecord(
        reports=reports,
        created_at="2026-08-06T00:00:00Z",
        environment={"git_sha": "deadbeef", "python": "3.12.0"},
        label=label,
    )


@pytest.fixture(scope="module")
def suite_record():
    from repro.bench.runner import run_suite

    nets = [make_random_network(s, num_gates=10) for s in range(2)]
    result = run_suite(nets, mappers=("chortle", "mis"), ks=(3,))
    return result.to_records(created_at="2026-08-06T00:00:00Z", label="sweep")


class TestRunRecord:
    def test_round_trip(self, suite_record, tmp_path):
        path = str(tmp_path / "run.json")
        suite_record.save(path)
        loaded = RunRecord.load(path)
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.created_at == suite_record.created_at
        assert loaded.label == "sweep"
        assert loaded.reports == suite_record.reports

    def test_histogram_int_keys_survive(self, suite_record, tmp_path):
        path = str(tmp_path / "run.json")
        suite_record.save(path)
        loaded = RunRecord.load(path)
        for report in loaded.reports:
            assert all(
                isinstance(u, int) for u in report.utilization_histogram
            )

    def test_cells_index(self, suite_record):
        cells = suite_record.cells()
        assert len(cells) == len(suite_record.reports) == 4
        assert ("rnd0", 3, "chortle") in cells

    def test_duplicate_cell_rejected(self):
        record = make_record([make_report(), make_report()])
        with pytest.raises(QorError, match="duplicate cell"):
            record.cells()

    def test_environment_metadata(self, suite_record):
        env = suite_record.environment
        assert {"git_sha", "python", "platform"} <= set(env)
        assert env["python"].count(".") == 2

    def test_collect_environment_outside_repo(self, tmp_path):
        env = collect_environment(cwd=str(tmp_path))
        assert env["git_sha"] == "unknown"

    def test_chortle_reports_carry_tree_provenance(self, suite_record):
        report = suite_record.cells()[("rnd0", 3, "chortle")]
        assert report.tree_luts
        assert sum(report.tree_luts.values()) == report.luts
        mis = suite_record.cells()[("rnd0", 3, "mis")]
        assert mis.tree_luts is None

    def test_bad_schema_version(self):
        with pytest.raises(QorError, match="schema version"):
            RunRecord.from_dict({"schema_version": 99, "reports": []})

    def test_bad_json(self):
        with pytest.raises(QorError, match="not valid JSON"):
            RunRecord.from_json("{nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(QorError, match="cannot read"):
            RunRecord.load(str(tmp_path / "absent.json"))


class TestMetricPolicy:
    def test_hard_metric(self):
        policy = MetricPolicy("luts", hard=True)
        assert policy.classify(10, 11) == REGRESSED
        assert policy.classify(10, 9) == IMPROVED
        assert policy.classify(10, 10) == UNCHANGED

    def test_soft_metric_tolerance_band(self):
        policy = MetricPolicy("seconds", hard=False, rel_tol=0.25, abs_tol=0.05)
        # 1.0s baseline: band is +-0.30s
        assert policy.classify(1.0, 1.29) == UNCHANGED
        assert policy.classify(1.0, 0.71) == UNCHANGED
        assert policy.classify(1.0, 1.31) == REGRESSED
        assert policy.classify(1.0, 0.69) == IMPROVED

    def test_default_seconds_band_absorbs_small_cell_spikes(self):
        by_metric = {p.metric: p for p in DEFAULT_POLICIES}
        seconds = by_metric["seconds"]
        # A 0.28s cell spiking to 0.46s is shared-runner noise, not a
        # regression (observed on the table suite).
        assert seconds.classify(0.28, 0.46) == UNCHANGED
        assert seconds.classify(3.0, 6.0) == REGRESSED

    def test_default_policies_cover_issue_contract(self):
        by_metric = {p.metric: p for p in DEFAULT_POLICIES}
        assert by_metric["luts"].hard and by_metric["luts"].gate
        assert by_metric["depth"].hard and by_metric["depth"].gate
        assert not by_metric["seconds"].hard


class TestDiff:
    def test_identical_records_pass(self, suite_record):
        diff = diff_records(suite_record, suite_record)
        assert diff.passes_gate()
        assert not diff.regressions and not diff.improvements
        # cells x (luts, depth, seconds, wall_seconds)
        assert len(diff.cells) == 4 * 4

    def test_seeded_lut_regression_is_named(self):
        base = make_record([make_report(luts=10)])
        cur = make_record([make_report(luts=11)])
        diff = diff_records(base, cur)
        assert not diff.passes_gate()
        (cell,) = diff.gate_failures
        assert (cell.circuit, cell.k, cell.mapper, cell.metric) == (
            "rnd0", 4, "chortle", "luts",
        )
        assert cell.delta == 1
        assert cell.cell_name() in cell.describe()

    def test_depth_regresses_hard(self):
        base = make_record([make_report(depth=3)])
        cur = make_record([make_report(depth=4)])
        diff = diff_records(base, cur)
        assert [c.metric for c in diff.gate_failures] == ["depth"]

    def test_wall_time_jitter_tolerated(self):
        base = make_record([make_report(seconds=0.10)])
        cur = make_record([make_report(seconds=0.15)])  # +50% < 50% + 250ms
        diff = diff_records(base, cur)
        assert diff.passes_gate()
        assert not diff.regressions

    def test_wall_time_blowup_regresses(self):
        base = make_record([make_report(seconds=2.0)])
        cur = make_record([make_report(seconds=4.0)])  # +100% > 50% + 250ms
        diff = diff_records(base, cur)
        assert [c.metric for c in diff.gate_failures] == ["seconds"]

    def test_improvement_classified(self):
        base = make_record([make_report(luts=10)])
        cur = make_record([make_report(luts=8)])
        diff = diff_records(base, cur)
        assert diff.passes_gate()
        assert [c.metric for c in diff.improvements] == ["luts"]

    def test_removed_cell_fails_gate(self):
        base = make_record([make_report(), make_report(circuit="rnd1")])
        cur = make_record([make_report()])
        diff = diff_records(base, cur)
        assert diff.removed == [("rnd1", 4, "chortle")]
        assert not diff.passes_gate()

    def test_added_cell_is_informational(self):
        base = make_record([make_report()])
        cur = make_record([make_report(), make_report(circuit="rnd1")])
        diff = diff_records(base, cur)
        assert diff.added == [("rnd1", 4, "chortle")]
        assert diff.passes_gate()

    def test_missing_seconds_skipped(self):
        base = make_record([make_report(seconds=None)])
        cur = make_record([make_report(seconds=9.0)])
        diff = diff_records(base, cur)
        assert all(c.metric != "seconds" for c in diff.cells)

    def test_tree_culprits_attributed(self):
        base = make_record(
            [make_report(luts=10, tree_luts={"a": 4, "b": 6})]
        )
        cur = make_record(
            [make_report(luts=12, tree_luts={"a": 7, "b": 5})]
        )
        diff = diff_records(base, cur)
        (cell,) = diff.gate_failures
        worse = [t for t in cell.tree_deltas if t.delta > 0]
        assert [(t.tree, t.baseline, t.current) for t in worse] == [("a", 4, 7)]
        assert "`a` 4 -> 7" in diff.to_markdown()


class TestMarkdown:
    def test_dashboard_shape(self):
        base = make_record([make_report(luts=10), make_report(circuit="rnd1", luts=5)])
        cur = make_record([make_report(luts=11), make_report(circuit="rnd1", luts=4)])
        text = diff_records(base, cur).to_markdown()
        assert text.startswith("# QoR diff")
        assert "Gate: **FAIL**" in text
        assert "| rnd0 | 4 | chortle | luts | 10 | 11 | +1 |" in text
        assert "| rnd1 | 4 | chortle | luts | 5 | 4 | -1 |" in text

    def test_render_record(self, suite_record):
        text = render_record(suite_record)
        assert "# QoR record" in text
        assert "deadbeef" not in text  # real env, not the fake one
        assert "| rnd0 | 3 | chortle |" in text


class TestCli:
    def _record(self, tmp_path, name):
        from repro.cli import main

        path = str(tmp_path / name)
        rc = main([
            "qor", "record", "-o", path,
            "--circuits", "count", "--mappers", "chortle", "--ks", "3",
            "--label", "cli-test", "--timestamp", "2026-08-06T00:00:00Z",
        ])
        assert rc == 0
        return path

    def test_record_then_identical_diff(self, tmp_path, capsys):
        from repro.cli import main

        path = self._record(tmp_path, "a.json")
        capsys.readouterr()
        assert main(["qor", "diff", path, path]) == 0
        out = capsys.readouterr().out
        assert "gate PASS" in out

    def test_diff_catches_injected_regression(self, tmp_path, capsys):
        from repro.cli import main

        path = self._record(tmp_path, "a.json")
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        for report in data["reports"]:
            report["luts"] += 1
        mutated = tmp_path / "b.json"
        mutated.write_text(json.dumps(data))
        md = tmp_path / "diff.md"
        capsys.readouterr()
        rc = main(["qor", "diff", path, str(mutated), "--markdown", str(md)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSED (count, K=3, chortle, luts)" in out
        assert "Gate: **FAIL**" in md.read_text()

    def test_gate_against_own_record(self, tmp_path, capsys):
        from repro.cli import main

        path = self._record(tmp_path, "a.json")
        out_path = tmp_path / "fresh.json"
        capsys.readouterr()
        rc = main([
            "qor", "gate", path,
            "--circuits", "count", "--mappers", "chortle", "--ks", "3",
            "-o", str(out_path),
        ])
        assert rc == 0
        assert out_path.exists()
        assert "gate PASS" in capsys.readouterr().out

    def test_narrowed_gate_passes_on_its_cells(self, capsys):
        from repro.cli import main

        rc = main([
            "qor", "gate", "benchmarks/baselines/qor_baseline.json",
            "--mappers", "chortle", "--circuits", "count", "--ks", "4",
        ])
        out = capsys.readouterr().out
        assert "MISSING" not in out
        assert "1 of 168 baseline cells in the sweep (167 left out)" in out
        assert rc == 0

    def test_narrowed_gate_fails_on_a_covered_cell_it_cannot_produce(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = self._record(tmp_path, "a.json")
        data = json.loads(open(path, encoding="utf-8").read())
        data["reports"].append(dict(data["reports"][0], mapper="mis", k=6))
        baseline = tmp_path / "with_mis_k6.json"
        baseline.write_text(json.dumps(data))
        capsys.readouterr()
        rc = main([
            "qor", "gate", str(baseline),
            "--circuits", "count", "--mappers", "chortle", "mis", "--ks", "3", "6",
        ])
        out = capsys.readouterr().out
        assert "MISSING   (count, K=6, mis)" in out
        assert rc == 1

    def test_report_renders_markdown(self, tmp_path, capsys):
        from repro.cli import main

        path = self._record(tmp_path, "a.json")
        capsys.readouterr()
        assert main(["qor", "report", path]) == 0
        out = capsys.readouterr().out
        assert "# QoR record" in out
        assert "| count | 3 | chortle |" in out

    def test_unknown_mapper_one_line_error(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "qor", "record", "-o", str(tmp_path / "x.json"),
            "--circuits", "count", "--mappers", "bogus", "--ks", "3",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown mapper 'bogus'")
        assert "chortle" in err and "mis" in err


class TestProvenance:
    def test_every_cost_lut_has_provenance(self):
        net = make_random_network(3, num_gates=12)
        circuit = ChortleMapper(k=4).map(net)
        for lut in circuit.luts():
            if len(lut.inputs) >= 2:
                assert lut.provenance is not None
                assert lut.provenance.tree in circuit
                assert set(lut.provenance.placements) <= {
                    "ext", "wire", "merged"
                }

    def test_tree_profile_sums_to_cost(self):
        net = make_random_network(4, num_gates=15)
        circuit = ChortleMapper(k=4).map(net)
        profile = circuit.tree_profile()
        assert sum(profile.values()) == circuit.cost

    def test_root_flag_marks_tree_roots(self):
        net = make_random_network(5, num_gates=12)
        circuit = ChortleMapper(k=4).map(net)
        for lut in circuit.luts():
            if lut.provenance is not None:
                assert lut.provenance.root == (lut.name == lut.provenance.tree)

    def test_merged_count(self):
        from repro.core.lut import LUTProvenance

        prov = LUTProvenance(
            tree="t", op="and", placements=("ext", "merged", "merged"), root=True
        )
        assert prov.merged == 2

    def test_report_fields_stable(self):
        # RunRecord consumers rely on these exact field names.
        names = [f.name for f in dataclasses.fields(MappingReport)]
        for required in ("luts", "depth", "seconds", "tree_luts",
                        "timings", "counters"):
            assert required in names
