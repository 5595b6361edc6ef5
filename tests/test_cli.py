"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def blif_file(tmp_path, capsys):
    path = tmp_path / "count.blif"
    assert main(["generate", "count", "-o", str(path)]) == 0
    capsys.readouterr()
    return path


class TestGenerate:
    def test_generate_writes_blif(self, tmp_path, capsys):
        path = tmp_path / "c.blif"
        assert main(["generate", "frg1", "-o", str(path)]) == 0
        text = path.read_text()
        assert ".model frg1" in text

    def test_generate_stdout(self, capsys):
        assert main(["generate", "9symml"]) == 0
        out = capsys.readouterr().out
        assert ".model 9symml" in out

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "bogus"])


class TestMap:
    @pytest.mark.parametrize("mapper", ["chortle", "mis", "flowmap", "binpack"])
    def test_mappers(self, blif_file, tmp_path, capsys, mapper):
        out = tmp_path / "out.blif"
        rc = main(
            ["map", str(blif_file), "-k", "4", "--mapper", mapper,
             "--verify", "-o", str(out)]
        )
        assert rc == 0
        assert ".model" in out.read_text()
        assert "LUTs" in capsys.readouterr().err

    def test_map_with_factoring(self, blif_file, tmp_path, capsys):
        out = tmp_path / "out.blif"
        rc = main(["map", str(blif_file), "--factor", "--verify", "-o", str(out)])
        assert rc == 0

    def test_map_to_stdout(self, blif_file, capsys):
        assert main(["map", str(blif_file), "-k", "3"]) == 0
        assert ".names" in capsys.readouterr().out

    def test_bad_blif_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.blif"
        path.write_text(".model m\n.latch a b\n.end\n")
        assert main(["map", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestFlows:
    def test_flows_lists_registered_flows_and_passes(self, capsys):
        assert main(["flows"]) == 0
        out = capsys.readouterr().out
        assert "area" in out and "delay" in out
        assert "sweep,strash,refactor,strash,chortle,merge" in out
        assert "merge_guarded" in out

    def test_map_with_registered_flow(self, blif_file, tmp_path, capsys):
        out = tmp_path / "out.blif"
        rc = main(
            ["map", str(blif_file), "-k", "4", "--flow", "area",
             "--verify", "-o", str(out)]
        )
        assert rc == 0
        assert ".model" in out.read_text()
        assert "area:" in capsys.readouterr().err

    def test_map_with_custom_flow_spec_checked(self, blif_file, tmp_path, capsys):
        out = tmp_path / "out.blif"
        rc = main(
            ["map", str(blif_file), "-k", "4",
             "--flow", "sweep,strash,chortle,merge", "--checked",
             "-o", str(out)]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "sweep,strash,chortle,merge:" in err

    def test_map_flow_mapper_checked(self, blif_file, tmp_path, capsys):
        rc = main(
            ["map", str(blif_file), "--mapper", "area", "--checked",
             "-o", str(tmp_path / "out.blif")]
        )
        assert rc == 0

    def test_checked_raw_mapper_runs_one_stage_flow(self, blif_file, capsys):
        import json

        rc = main(
            ["map", str(blif_file), "--mapper", "chortle", "--checked",
             "--json-report"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().err)
        assert report["mapper"] == "chortle"
        assert report["counters"]["flow.stages_checked"] == 1

    def test_flow_naming_a_mapper_runs_it_raw(self, blif_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rc = main(
            ["map", str(blif_file), "--flow", "chortle", "--trace", str(trace),
             "-o", str(tmp_path / "out.blif")]
        )
        assert rc == 0
        text = trace.read_text()
        assert '"chortle.map"' in text and '"flow.' not in text

    def test_mappers_lists_every_name(self, capsys):
        from repro.flow import mapper_names

        assert main(["mappers"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed[1:] == mapper_names()

    def test_bad_flow_spec_clean_error(self, blif_file, capsys):
        rc = main(["map", str(blif_file), "--flow", "sweep,bogus"])
        assert rc == 2
        assert "unknown pass 'bogus'" in capsys.readouterr().err

    def test_ill_typed_flow_clean_error(self, blif_file, capsys):
        rc = main(["map", str(blif_file), "--flow", "merge,sweep"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_network_only_flow_rejected(self, blif_file, capsys):
        rc = main(["map", str(blif_file), "--flow", "sweep,strash"])
        assert rc == 2
        assert "LUT circuit" in capsys.readouterr().err

    def test_circuit_only_flow_rejected(self, blif_file, capsys):
        rc = main(["map", str(blif_file), "--flow", "merge"])
        assert rc == 2
        assert "has no map pass" in capsys.readouterr().err

    def test_flow_stage_spans_in_trace(self, blif_file, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        rc = main(
            ["map", str(blif_file), "--flow", "area", "--trace", str(trace)]
        )
        assert rc == 0
        capsys.readouterr()
        names = [
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        ]
        stage_names = [n for n in names if n.startswith("flow.stage.")]
        assert stage_names == [
            "flow.stage.0.sweep",
            "flow.stage.1.strash",
            "flow.stage.2.refactor",
            "flow.stage.3.strash",
            "flow.stage.4.chortle",
            "flow.stage.5.merge",
        ]
        assert "flow.run" in names

    def test_profile_with_flow(self, blif_file, capsys):
        rc = main(["profile", str(blif_file), "--flow", "sweep,strash,chortle"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flow.stage.2.chortle" in out

    def test_report_carries_flow_counters(self, blif_file, capsys):
        rc = main(
            ["map", str(blif_file), "--flow", "area", "--json-report"]
        )
        assert rc == 0
        import json

        report = json.loads(capsys.readouterr().err)
        assert report["mapper"] == "area"
        assert report["counters"]["flow.runs"] == 1
        assert report["counters"]["flow.stages_run"] == 6


class TestStatsAndVerify:
    def test_stats(self, blif_file, capsys):
        assert main(["stats", str(blif_file)]) == 0
        out = capsys.readouterr().out
        assert "fanin histogram" in out

    def test_verify_equivalent(self, blif_file, tmp_path, capsys):
        out = tmp_path / "out.blif"
        main(["map", str(blif_file), "-o", str(out)])
        capsys.readouterr()
        assert main(["verify", str(blif_file), str(out)]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_verify_detects_difference(self, tmp_path, capsys):
        a = tmp_path / "a.blif"
        b = tmp_path / "b.blif"
        a.write_text(
            ".model m\n.inputs x y\n.outputs z\n.names x y z\n11 1\n.end\n"
        )
        b.write_text(
            ".model m\n.inputs x y\n.outputs z\n.names x y z\n1- 1\n-1 1\n.end\n"
        )
        assert main(["verify", str(a), str(b)]) == 1

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["map", "x.blif", "-k", "5"])
        assert args.k == 5


class TestVerilogAndAnalyze:
    def test_verilog_output(self, blif_file, tmp_path, capsys):
        out = tmp_path / "out.blif"
        vfile = tmp_path / "out.v"
        rc = main(
            ["map", str(blif_file), "-k", "4", "-o", str(out),
             "--verilog", str(vfile)]
        )
        assert rc == 0
        text = vfile.read_text()
        assert text.startswith("module ")
        assert "endmodule" in text

    def test_analyze(self, blif_file, tmp_path, capsys):
        out = tmp_path / "out.blif"
        main(["map", str(blif_file), "-k", "4", "-o", str(out)])
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0
        text = capsys.readouterr().out
        assert "critical path" in text
        assert "max fanout" in text

    def test_minimize_flag(self, blif_file, tmp_path):
        out = tmp_path / "out.blif"
        rc = main(
            ["map", str(blif_file), "--minimize", "--verify", "-o", str(out)]
        )
        assert rc == 0


class TestTracingAndProfile:
    def test_map_trace_writes_jsonl(self, blif_file, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        rc = main(
            ["map", str(blif_file), "-k", "4", "--trace", str(trace)]
        )
        assert rc == 0
        capsys.readouterr()
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert records, "trace file is empty"
        names = {r["name"] for r in records}
        assert "cli.map" in names
        assert "chortle.map" in names

    def test_map_profile_prints_stage_table(self, blif_file, capsys):
        rc = main(["map", str(blif_file), "-k", "4", "--profile"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "stage" in err
        assert "cli.map" in err

    def test_map_leaves_tracer_clean(self, blif_file, tmp_path, capsys):
        from repro.obs import get_tracer

        trace = tmp_path / "trace.jsonl"
        main(["map", str(blif_file), "--trace", str(trace), "--profile"])
        capsys.readouterr()
        assert not get_tracer().enabled

    def test_profile_subcommand(self, blif_file, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        rc = main(
            ["profile", str(blif_file), "-k", "4", "--mapper", "chortle",
             "--trace", str(trace)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "span tree:" in out
        assert "chortle.map" in out
        assert "counters:" in out
        assert "chortle.minmap_entries" in out
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert {r["name"] for r in records} >= {"cli.profile", "chortle.map"}


class TestPerfCommands:
    """Smoke tests for the ``chortle perf`` trace-analytics group."""

    def test_top_prints_self_time_table(self, capsys):
        rc = main(["perf", "top", "--circuits", "9symml", "--ks", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hotspots (self time)" in out
        assert "chortle.map_tree" in out
        assert "listed self time" in out
        assert "critical path" in out

    def test_top_reads_trace_file(self, blif_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["map", str(blif_file), "--trace", str(trace)]) == 0
        capsys.readouterr()
        rc = main(["perf", "top", "--trace", str(trace), "-n", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli.map" in out or "chortle.map" in out

    def test_flame_emits_folded_stacks(self, tmp_path, capsys):
        import re

        out_path = tmp_path / "suite.folded"
        rc = main(
            ["perf", "flame", "--circuits", "9symml", "--ks", "3",
             "-o", str(out_path)]
        )
        assert rc == 0
        capsys.readouterr()
        lines = out_path.read_text().splitlines()
        assert lines, "no folded stacks written"
        # Strict folded format: semicolon-joined frames, space, integer.
        for line in lines:
            assert re.match(r"^[^ ]+(;[^ ]+)* \d+$", line), line
        assert any(line.startswith("perf.suite") for line in lines)

    @pytest.mark.parametrize(
        "argv", [["perf", "record"], ["perf", "diff", "a", "b"], ["perf", "gate"]]
    )
    def test_only_top_and_flame_exist(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_qor_record_progress_heartbeats(self, tmp_path, capsys):
        out_path = tmp_path / "qor.json"
        rc = main(
            ["qor", "record", "--circuits", "9symml", "--ks", "3",
             "--mappers", "chortle", "--progress", "-o", str(out_path)]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "[progress] 1/1" in err


class TestVerifySubcommand:
    """The formal-verification forms of ``chortle verify``."""

    def test_two_files_auto_proves_exhaustively(self, blif_file, tmp_path,
                                                capsys):
        out = tmp_path / "out.blif"
        main(["map", str(blif_file), "-o", str(out)])
        capsys.readouterr()
        assert main(["verify", str(blif_file), str(out),
                     "--method", "auto"]) == 0
        captured = capsys.readouterr()
        assert "equivalent" in captured.out
        assert "proved" in captured.err

    def test_two_files_sat_method(self, blif_file, tmp_path, capsys):
        out = tmp_path / "out.blif"
        main(["map", str(blif_file), "-o", str(out)])
        capsys.readouterr()
        assert main(["verify", str(blif_file), str(out),
                     "--method", "sat"]) == 0
        captured = capsys.readouterr()
        assert "equivalent" in captured.out
        assert "SAT proof" in captured.err

    def test_sat_mismatch_prints_counterexample(self, tmp_path, capsys):
        a = tmp_path / "a.blif"
        b = tmp_path / "b.blif"
        a.write_text(
            ".model m\n.inputs x y\n.outputs z\n.names x y z\n11 1\n.end\n"
        )
        b.write_text(
            ".model m\n.inputs x y\n.outputs z\n.names x y z\n1- 1\n-1 1\n.end\n"
        )
        assert main(["verify", str(a), str(b), "--method", "sat"]) == 1
        captured = capsys.readouterr()
        assert "NOT equivalent" in captured.out
        assert "counterexample" in captured.err

    def test_cell_mapper_form(self, capsys):
        assert main(["verify", "--cell", "adv_xor_chain",
                     "--mapper", "cutmap", "--method", "sat"]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_cell_form_json(self, capsys):
        import json

        assert main(["verify", "--cell", "adv_deep_chain",
                     "--method", "sat", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent"] is True
        assert payload["method"] == "sat"

    def test_per_lut_localization(self, blif_file, tmp_path, capsys):
        out = tmp_path / "out.blif"
        main(["map", str(blif_file), "-o", str(out)])
        capsys.readouterr()
        assert main(["verify", str(blif_file), str(out), "--per-lut"]) == 0
        assert "cone" in capsys.readouterr().err

    def test_corpus_gate(self, tmp_path, capsys):
        import json

        summary = tmp_path / "gate.json"
        rc = main(["verify", "--corpus", "--cell", "adv_xor_chain",
                   "adv_deep_chain", "--mappers", "chortle", "cutmap",
                   "-o", str(summary)])
        assert rc == 0
        assert "sat gate" in capsys.readouterr().out
        payload = json.loads(summary.read_text())
        assert payload["failures"] == 0
        assert len(payload["rows"]) == 4

    def test_files_and_cell_are_exclusive(self, blif_file, capsys):
        rc = main(["verify", str(blif_file), "--cell", "adv_xor_chain"])
        assert rc == 2

    def test_checked_sat_flow(self, blif_file, tmp_path, capsys):
        rc = main(
            ["map", str(blif_file), "-k", "4",
             "--flow", "sweep,strash,chortle", "--checked", "sat",
             "-o", str(tmp_path / "out.blif")]
        )
        assert rc == 0
