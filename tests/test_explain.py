"""Tests for the explain engine: decision provenance for the mapping DP.

The load-bearing properties: recording never changes the mapped circuit
(bit-identity), the records themselves are bit-identical across serial,
parallel, and warm-cache runs (determinism), and the critical-path depth
attribution always sums to the reported circuit depth.
"""

import json

import pytest

from tests.util import make_random_network
from repro.bench.mcnc import mcnc_circuit
from repro.blif import write_lut_circuit
from repro.core.chortle import ChortleMapper
from repro.errors import ExplainError, MappingError
from repro.obs.explain import (
    EXPLAIN_SCHEMA,
    INTERFACE,
    DecisionRecorder,
    MappingExplanation,
    build_explanation,
    decision_drilldown,
    depth_attribution,
    render_explanation,
    validate_explanation,
)
from repro.perf.memo import NodeTableCache


QUICK_CELLS = [("9symml", 4), ("alu2", 3), ("count", 4), ("frg1", 3)]


def explain_json(net, k=4, **mapper_kwargs):
    """Map with recording on; returns (blif_text, explanation_json)."""
    mapper = ChortleMapper(k=k, recorder=DecisionRecorder(), **mapper_kwargs)
    circuit = mapper.map(net)
    return write_lut_circuit(circuit), mapper.explanation.to_json()


class TestRecordingIdentity:
    def test_recording_does_not_change_the_circuit(self):
        for seed in range(6):
            net = make_random_network(seed)
            plain = write_lut_circuit(ChortleMapper(k=4).map(net))
            recorded, _ = explain_json(net, k=4)
            assert recorded == plain

    def test_records_identical_serial_parallel_and_warm_cache(self):
        for seed in range(4):
            net = make_random_network(seed, num_gates=14)
            recorded, serial = explain_json(net, k=4)
            cache = NodeTableCache()
            _, cold = explain_json(net, k=4, cache=cache)
            _, warm = explain_json(net, k=4, cache=cache)
            assert cold == serial  # recording bypasses the cache entirely
            assert warm == serial
            # Recording is serial-only; the parallel circuit still matches.
            parallel = ChortleMapper(k=4, jobs=2).map(net)
            assert write_lut_circuit(parallel) == recorded

    def test_process_executor_rejects_recorder(self):
        # Worker processes cannot stream decisions back: recording needs
        # jobs=1, and jobs=None (one worker per CPU) is rejected too.
        for jobs in (2, None):
            with pytest.raises(MappingError):
                ChortleMapper(k=4, recorder=DecisionRecorder(), jobs=jobs)


class TestExplanationContent:
    def test_structure_and_invariants(self):
        net = mcnc_circuit("count")
        mapper = ChortleMapper(k=4, recorder=DecisionRecorder())
        circuit = mapper.map(net)
        exp = mapper.explanation
        assert exp.circuit == net.name and exp.k == 4
        assert exp.luts == circuit.cost
        assert exp.depth == circuit.depth()
        assert sum(exp.area_by_tree.values()) == exp.luts
        assert sum(exp.depth_attribution.values()) == exp.depth
        assert len(exp.critical_path) == exp.depth
        validate_explanation(exp.to_dict())
        # Every tree record's chosen root decision matches the tree totals.
        for tree in exp.trees:
            root = tree.node(tree.root)
            assert root is not None
            assert root.placement == "root"
            assert root.cost == tree.luts
            assert root.depth == tree.depth
            # The root picks its table's best at full K, so no retained
            # alternative can beat it; internal nodes may carry negative
            # deltas (a tighter parent budget forced a costlier entry).
            if root.runner_up_delta is not None:
                assert root.runner_up_delta >= 0
            for decision in tree.nodes:
                assert decision.candidates >= 1
                assert decision.placement in ("root", "wire", "merged")

    @pytest.mark.parametrize("name,k", QUICK_CELLS)
    def test_depth_attribution_sums_on_quick_suite(self, name, k):
        net = mcnc_circuit(name)
        circuit = ChortleMapper(k=k).map(net)
        attribution, path = depth_attribution(circuit)
        assert sum(attribution.values()) == circuit.depth()
        assert len(path) == circuit.depth()

    def test_interface_bucket_for_provenance_free_circuits(self):
        from repro.baseline.mis_mapper import MisMapper

        net = mcnc_circuit("count")
        circuit = MisMapper(k=4).map(net)
        attribution, _ = depth_attribution(circuit)
        assert set(attribution) == {INTERFACE}
        assert attribution[INTERFACE] == circuit.depth()

    def test_json_round_trip(self):
        net = make_random_network(1)
        mapper = ChortleMapper(k=4, recorder=DecisionRecorder())
        mapper.map(net)
        exp = mapper.explanation
        back = MappingExplanation.from_dict(json.loads(exp.to_json()))
        assert back.to_json() == exp.to_json()

    def test_filter_node_and_render(self):
        net = make_random_network(2)
        mapper = ChortleMapper(k=4, recorder=DecisionRecorder())
        mapper.map(net)
        exp = mapper.explanation
        node = exp.trees[0].nodes[0].node
        filtered = exp.filter_node(node)
        assert all(
            d.node == node for t in filtered.trees for d in t.nodes
        )
        text = render_explanation(exp, node=node)
        assert node in text
        assert "who pays" in text

    def test_build_explanation_without_recorder(self):
        net = mcnc_circuit("count")
        circuit = ChortleMapper(k=4).map(net)
        exp = build_explanation(net, circuit, None, k=4, mapper="chortle")
        assert exp.trees == []
        assert sum(exp.depth_attribution.values()) == circuit.depth()
        validate_explanation(exp.to_dict())


class TestValidation:
    def base(self):
        return {
            "schema": EXPLAIN_SCHEMA,
            "circuit": "c",
            "k": 4,
            "mapper": "chortle",
            "luts": 1,
            "depth": 1,
            "trees": [],
            "depth_attribution": {"t": 1},
            "critical_path": ["t"],
            "area_by_tree": {"t": 1},
        }

    def test_accepts_minimal(self):
        validate_explanation(self.base())

    def test_rejects_wrong_schema(self):
        data = self.base()
        data["schema"] = 99
        with pytest.raises(ExplainError):
            validate_explanation(data)

    def test_rejects_attribution_not_summing_to_depth(self):
        data = self.base()
        data["depth_attribution"] = {"t": 2}
        with pytest.raises(ExplainError):
            validate_explanation(data)

    def test_rejects_short_critical_path(self):
        data = self.base()
        data["critical_path"] = []
        with pytest.raises(ExplainError):
            validate_explanation(data)

    def test_rejects_bad_placement(self):
        data = self.base()
        data["trees"] = [
            {
                "root": "t",
                "luts": 1,
                "depth": 1,
                "nodes": [
                    {
                        "node": "t", "op": "and", "fanins": 2, "split": False,
                        "placement": "teleported", "utilization": 2,
                        "cost": 1, "depth": 1, "placements": ["ext", "ext"],
                        "candidates": 1, "alternatives": [],
                        "runner_up_delta": None,
                    }
                ],
            }
        ]
        with pytest.raises(ExplainError):
            validate_explanation(data)


class TestDrilldown:
    def explanations(self):
        net = mcnc_circuit("count")
        base_mapper = ChortleMapper(k=4, recorder=DecisionRecorder())
        base_mapper.map(net)
        cur_mapper = ChortleMapper(
            k=4, split_threshold=3, recorder=DecisionRecorder()
        )
        cur_mapper.map(net)
        return base_mapper.explanation, cur_mapper.explanation

    def test_identical_explanations_have_no_deltas(self):
        base, _ = self.explanations()
        assert decision_drilldown(base, base) == []

    def test_changed_mapping_names_changed_decisions(self):
        base, cur = self.explanations()
        if base.to_json() == cur.to_json():
            pytest.skip("split threshold change did not alter this mapping")
        deltas = decision_drilldown(base, cur)
        assert deltas
        for delta in deltas:
            assert delta.describe()

    def test_tree_restriction(self):
        base, cur = self.explanations()
        deltas = decision_drilldown(base, cur)
        if not deltas:
            pytest.skip("no deltas to restrict")
        one_tree = deltas[0].tree
        restricted = decision_drilldown(base, cur, trees=[one_tree])
        assert restricted
        assert all(d.tree == one_tree for d in restricted)

    def test_qordiff_attachment(self):
        from repro.obs.qordiff import CellDiff, QorDiff, attach_decision_drilldown

        base, cur = self.explanations()
        if base.to_json() == cur.to_json():
            pytest.skip("split threshold change did not alter this mapping")
        cell = CellDiff(
            circuit="count", k=4, mapper="chortle", metric="luts",
            baseline=base.luts, current=cur.luts,
            status="regressed" if cur.luts > base.luts else "improved",
            gated=True,
        )
        diff = QorDiff(cells=[cell])
        key = ("count", 4, "chortle")
        attached = attach_decision_drilldown(diff, {key: base}, {key: cur})
        assert attached == len(cell.decision_deltas) > 0
        assert "Changed decisions" in diff.to_markdown()


class TestSnapshot:
    def test_committed_snapshot_matches_a_fresh_run(self):
        committed = MappingExplanation.load(
            "benchmarks/baselines/explain_9symml_k4.json"
        )
        net = mcnc_circuit("9symml")
        mapper = ChortleMapper(k=4, recorder=DecisionRecorder())
        mapper.map(net)
        assert mapper.explanation.to_json() == committed.to_json()


class TestFlowAndCli:
    def test_flow_context_explain(self):
        from repro.flow import FlowMapperAdapter, get_registry

        net = mcnc_circuit("count")
        adapter = FlowMapperAdapter(
            get_registry().resolve("area"), k=4, explain=True
        )
        adapter.map(net)
        assert adapter.explanation is not None
        validate_explanation(adapter.explanation.to_dict())

    def test_resolve_mapper_explain(self):
        from repro.flow import resolve_mapper

        net = make_random_network(3)
        mapper = resolve_mapper("chortle", 4, explain=True)
        mapper.map(net)
        assert mapper.explanation is not None
        # A mapper without the chortle engine records nothing.
        mis = resolve_mapper("mis", 4, explain=True)
        mis.map(net)
        assert getattr(mis, "explanation", None) is None

    def test_cli_explain_json(self, capsys):
        from repro.cli import main

        assert main(["explain", "count", "-k", "4", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        validate_explanation(data)

    def test_cli_explain_unknown_input(self, capsys):
        from repro.cli import main

        assert main(["explain", "no_such_circuit_anywhere"]) == 2

    def test_cli_map_explain(self, tmp_path, capsys):
        from repro.blif import write_network
        from repro.cli import main

        blif = tmp_path / "count.blif"
        blif.write_text(write_network(mcnc_circuit("count")))
        out = tmp_path / "exp.json"
        assert main([
            "map", str(blif), "-k", "4", "--explain",
            "--explain-json", str(out), "-o", str(tmp_path / "m.blif"),
        ]) == 0
        validate_explanation(json.loads(out.read_text()))
        err = capsys.readouterr().err
        assert "who pays" in err

    def test_cli_explain_report_na_for_mis(self, capsys):
        from repro.cli import main

        assert main(["explain", "count", "--mapper", "mis"]) == 1
        err = capsys.readouterr().err
        assert "records no decisions" in err
