"""Tests for the circuit lint engine (repro.analysis).

One deliberately-broken fixture per rule, asserting code, severity, and
location; flow-engine stage attribution with an injected violation;
baseline round-trip and suppression; CLI behavior; and a fuzz pass
asserting benchmark mappings lint clean at error level.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import (
    ERROR,
    INFO,
    WARN,
    Baseline,
    BaselineEntry,
    Diagnostic,
    FlowArtifacts,
    LintContext,
    all_rules,
    apply_baseline,
    at_least,
    gate,
    lint_cell,
    lint_circuit,
    lint_flow,
    lint_mapping,
    lint_network,
    load_baseline,
    render_json,
    render_text,
    rules_for,
    severity_rank,
    sort_diagnostics,
)
from repro.bench.mcnc import mcnc_circuit
from repro.cli import main
from repro.core.lut import LUTCircuit, LUTProvenance
from repro.errors import LintError
from repro.flow.engine import Flow, FlowContext
from repro.flow.passes import PASSES, CircuitPass
from repro.network.network import BooleanNetwork, Node, Signal
from repro.pipeline import map_area
from repro.report import build_report
from repro.truth.truthtable import TruthTable


def codes(diags):
    return {d.code for d in diags}


def by_code(diags, code):
    return [d for d in diags if d.code == code]


# -- diagnostics core --------------------------------------------------------


def test_severity_order_and_gating():
    assert severity_rank(INFO) < severity_rank(WARN) < severity_rank(ERROR)
    assert at_least(ERROR, WARN)
    assert at_least(WARN, WARN)
    assert not at_least(INFO, WARN)
    with pytest.raises(LintError):
        severity_rank("fatal")


def test_sort_and_render():
    diags = [
        Diagnostic("CHRT205", INFO, "an inverter", subject="c", location="x"),
        Diagnostic("CHRT201", ERROR, "too wide", subject="c", location="y",
                   hint="split it"),
        Diagnostic("CHRT206", WARN, "floating", subject="c", location="z"),
    ]
    ordered = sort_diagnostics(diags)
    assert [d.code for d in ordered] == ["CHRT201", "CHRT206", "CHRT205"]
    text = render_text(diags)
    assert "error CHRT201 [c y] too wide" in text
    assert "hint: split it" in text
    assert "lint: 1 error(s), 1 warning(s), 1 info" in text
    payload = json.loads(render_json(diags, suppressed=2))
    assert payload["schema_version"] == 1
    assert payload["summary"] == {"error": 1, "warn": 1, "info": 1}
    assert payload["suppressed"] == 2
    assert payload["diagnostics"][0]["code"] == "CHRT201"


def test_gate_raises_with_findings():
    warns = [Diagnostic("CHRT206", WARN, "floating", subject="c")]
    errors = [Diagnostic("CHRT201", ERROR, "too wide", subject="c")]
    gate([])  # no findings: no raise
    gate(warns)  # warnings stay below the default error threshold
    with pytest.raises(LintError, match="CHRT206"):
        gate(warns, fail_on=WARN)
    with pytest.raises(LintError, match="CHRT201"):
        gate(errors)


def test_rule_catalogue_is_complete():
    catalogue = {r.code for r in all_rules()}
    assert catalogue == {
        "CHRT101", "CHRT102", "CHRT103", "CHRT104", "CHRT105", "CHRT106",
        "CHRT201", "CHRT202", "CHRT203", "CHRT204", "CHRT205", "CHRT206",
        "CHRT207", "CHRT208", "CHRT209", "CHRT210", "CHRT211",
        "CHRT301", "CHRT302", "CHRT303",
        "CHRT401", "CHRT402", "CHRT403",
    }
    assert len(rules_for("network")) == 6
    assert len(rules_for("circuit")) == 11
    assert len(rules_for("flow")) == 3
    assert len(rules_for("semantic")) == 3
    with pytest.raises(LintError):
        rules_for("quantum")


# -- network rule fixtures ---------------------------------------------------


def _net_with(name="n"):
    net = BooleanNetwork(name)
    a = net.add_input("a")
    b = net.add_input("b")
    return net, a, b


def test_chrt101_dangling_reference():
    net, a, _b = _net_with()
    net.add_gate("g", "and", [a])
    net.set_output("o", "g")
    # Surgically delete the input out from under the gate.
    del net._nodes["a"]
    net._inputs.remove("a")
    found = by_code(lint_network(net), "CHRT101")
    assert found and found[0].severity == ERROR
    assert found[0].location == "g"
    assert "'a'" in found[0].message


def test_chrt101_dangling_output_port():
    net, a, _b = _net_with()
    net.add_gate("g", "and", [a])
    net.set_output("o", "ghost")
    found = by_code(lint_network(net), "CHRT101")
    assert found and found[0].location == "o"


def test_chrt102_cycle():
    net, a, _b = _net_with()
    net.add_gate("g1", "and", [a])
    net.add_gate("g2", "or", [a])
    net.set_output("o", "g2")
    # Tie the two gates into a loop behind the API's back.
    net._nodes["g1"] = Node("g1", "and", (Signal("g2"),))
    net._nodes["g2"] = Node("g2", "or", (Signal("g1"),))
    found = by_code(lint_network(net), "CHRT102")
    assert found and found[0].severity == ERROR
    assert "cycle" in found[0].message


def test_chrt103_op_arity():
    net, a, _b = _net_with()
    net.add_gate("g", "and", [a])
    net.set_output("o", "g")
    net._nodes["x"] = Node("x", "xor", (a,))  # unknown op
    net._nodes["e"] = Node("e", "and", ())  # gate without fanins
    net._nodes["a"] = Node("a", "input", (Signal("b"),))  # input with fanins
    found = by_code(lint_network(net), "CHRT103")
    assert {d.location for d in found} == {"x", "e", "a"}
    assert all(d.severity == ERROR for d in found)


def test_chrt104_buffer_chain():
    net, a, _b = _net_with()
    net.add_gate("u1", "and", [a])
    net.add_gate("u2", "or", [~Signal("u1")])
    net.set_output("o", "u2")
    found = by_code(lint_network(net), "CHRT104")
    assert found and found[0].severity == WARN
    assert found[0].location == "u2"


def test_chrt105_dead_node():
    net, a, b = _net_with()
    net.add_gate("live", "and", [a, b])
    net.add_gate("dead", "or", [a, b])
    net.set_output("o", "live")
    found = by_code(lint_network(net), "CHRT105")
    by_loc = {d.location: d for d in found}
    assert by_loc["dead"].severity == WARN
    # Unused primary inputs are only informational.
    assert all(
        d.severity == INFO for d in found if d.location not in ("dead",)
    )


def test_chrt106_duplicate_gate():
    net, a, b = _net_with()
    net.add_gate("g1", "and", [a, b])
    net.add_gate("g2", "and", [b, a])  # same op, same fanins, reordered
    net.add_gate("root", "or", ["g1", "g2"])
    net.set_output("o", "root")
    found = by_code(lint_network(net), "CHRT106")
    assert len(found) == 1
    assert found[0].location == "g2" and "'g1'" in found[0].message


def test_clean_network_has_no_errors():
    net = mcnc_circuit("count")
    findings = lint_network(net)
    assert not [d for d in findings if d.severity == ERROR]


# -- circuit rule fixtures ---------------------------------------------------


def _circuit_with_inputs(*names):
    circuit = LUTCircuit("fix")
    for name in names:
        circuit.add_input(name)
    return circuit


def test_chrt201_overwide_lut():
    c = _circuit_with_inputs("a", "b", "c")
    c.add_lut("f", ("a", "b", "c"), TruthTable.var(0, 3) & TruthTable.var(1, 3)
              | TruthTable.var(2, 3))
    c.set_output("o", "f")
    found = by_code(lint_circuit(c, LintContext(k=2)), "CHRT201")
    assert found and found[0].severity == ERROR and found[0].location == "f"
    # Without a K bound the rule is silent.
    assert not by_code(lint_circuit(c), "CHRT201")


def test_chrt202_undefined_wire():
    c = _circuit_with_inputs("a")
    c.add_lut("f", ("a", "ghost"), TruthTable.var(0, 2) & TruthTable.var(1, 2))
    c.set_output("o", "f")
    c.set_output("p", "phantom")
    found = by_code(lint_circuit(c), "CHRT202")
    assert {d.location for d in found} == {"f", "p"}
    assert all(d.severity == ERROR for d in found)


def test_chrt203_cycle():
    c = _circuit_with_inputs("a")
    two_and = TruthTable.var(0, 2) & TruthTable.var(1, 2)
    c.add_lut("f", ("a", "g"), two_and)
    c.add_lut("g", ("a", "f"), two_and)
    c.set_output("o", "f")
    found = by_code(lint_circuit(c), "CHRT203")
    assert found and found[0].severity == ERROR


def test_chrt204_constant_lut():
    c = _circuit_with_inputs("a", "b")
    c.add_lut("wide", ("a", "b"), TruthTable.const(True, 2))
    c.add_lut("iface", (), TruthTable.const(False, 0))
    c.set_output("o", "wide")
    c.set_output("z", "iface")
    found = by_code(lint_circuit(c), "CHRT204")
    by_loc = {d.location: d for d in found}
    assert by_loc["wide"].severity == WARN
    assert by_loc["iface"].severity == INFO


def test_chrt205_buffer_and_inverter():
    c = _circuit_with_inputs("a")
    c.add_lut("buf", ("a",), TruthTable.var(0, 1))
    c.add_lut("inv", ("a",), ~TruthTable.var(0, 1))
    c.set_output("o", "buf")
    c.set_output("p", "inv")
    found = by_code(lint_circuit(c), "CHRT205")
    by_loc = {d.location: d for d in found}
    assert by_loc["buf"].severity == WARN
    assert by_loc["inv"].severity == INFO


def test_chrt206_floating_input():
    c = _circuit_with_inputs("a", "b")
    c.add_lut("f", ("a", "b"), TruthTable.var(0, 2))  # never reads b
    c.set_output("o", "f")
    found = by_code(lint_circuit(c), "CHRT206")
    assert len(found) == 1
    assert found[0].severity == WARN and "'b'" in found[0].message


def test_chrt207_duplicate_lut():
    c = _circuit_with_inputs("a", "b")
    two_or = TruthTable.var(0, 2) | TruthTable.var(1, 2)
    c.add_lut("f1", ("a", "b"), two_or)
    c.add_lut("f2", ("a", "b"), two_or)
    c.set_output("o", "f1")
    c.set_output("p", "f2")
    found = by_code(lint_circuit(c), "CHRT207")
    assert len(found) == 1 and found[0].location == "f2"


def test_chrt208_unreachable_lut():
    c = _circuit_with_inputs("a", "b")
    two_or = TruthTable.var(0, 2) | TruthTable.var(1, 2)
    c.add_lut("live", ("a", "b"), two_or)
    c.add_lut("orphan", ("a", "b"), two_or & TruthTable.var(0, 2))
    c.set_output("o", "live")
    found = by_code(lint_circuit(c), "CHRT208")
    assert len(found) == 1 and found[0].location == "orphan"


def test_chrt209_stale_provenance():
    c = _circuit_with_inputs("a", "b")
    two_and = TruthTable.var(0, 2) & TruthTable.var(1, 2)
    # Merge-free provenance claiming fewer placements than inputs: stale.
    c.add_lut("f", ("a", "b"), two_and,
              provenance=LUTProvenance("t", "and", ("ext",), True))
    # Unknown placement kind.
    c.add_lut("g", ("a", "b"), two_and | TruthTable.var(0, 2),
              provenance=LUTProvenance("t", "and", ("ext", "bogus"), False))
    # A merged placement legitimately widens the table: no finding.
    c.add_lut("h", ("a", "b"), ~two_and,
              provenance=LUTProvenance("t", "and", ("ext", "merged"), True))
    c.set_output("o", "f")
    c.set_output("p", "g")
    c.set_output("q", "h")
    found = by_code(lint_circuit(c), "CHRT209")
    assert {d.location for d in found} == {"f", "g"}
    assert all(d.severity == ERROR for d in found)


def test_chrt210_depth_mismatch():
    net = mcnc_circuit("count")
    circuit = map_area(net, k=4)
    report = build_report(net, circuit, 4)
    ok = lint_circuit(circuit, LintContext(k=4, report=report))
    assert not by_code(ok, "CHRT210")

    # Any object with a wrong .depth attribute triggers the rule.
    class FakeReport:
        depth = circuit.depth() + 7

    found = by_code(
        lint_circuit(circuit, LintContext(report=FakeReport())), "CHRT210"
    )
    assert found and found[0].severity == ERROR
    assert str(circuit.depth()) in found[0].message


# -- flow rule fixtures ------------------------------------------------------


def test_chrt301_bad_flow_spec():
    found = by_code(
        lint_flow(FlowArtifacts(name="t", spec="merge,chortle")), "CHRT301"
    )
    assert found and found[0].severity == ERROR
    assert not lint_flow(FlowArtifacts(name="t", spec="sweep,chortle"))


class FakeCache:
    def __init__(self, keys):
        self._keys = keys

    def items_snapshot(self):
        return [(key, None) for key in self._keys]


def test_chrt302_bad_cache_key():
    from repro.perf.memo import intern_signature

    good = (4, 10, intern_signature(("nt", "and", ())))
    bad_shape = (4, ("nt",))
    # Raw tuple signatures are no longer legal: the DP interns them.
    bad_sig = (4, 10, ("nt", "and", ()))
    found = by_code(
        lint_flow(FlowArtifacts(name="t", cache=FakeCache([good, bad_shape,
                                                           bad_sig]))),
        "CHRT302",
    )
    assert len(found) == 2
    assert all(d.severity == ERROR for d in found)


def test_chrt302_real_cache_is_clean():
    from repro.perf.memo import NodeTableCache

    cache = NodeTableCache(maxsize=4096)
    net = mcnc_circuit("frg1")
    map_area(net, k=3, cache=cache)
    assert not lint_flow(FlowArtifacts(name="t", cache=cache))


def test_chrt303_report_contradiction():
    net = mcnc_circuit("count")
    circuit = map_area(net, k=4)
    report = build_report(net, circuit, 4)
    assert not lint_flow(FlowArtifacts(name="t", circuit=circuit,
                                       report=report))

    class WrongReport:
        luts = circuit.cost + 3
        luts_total = circuit.num_luts
        utilization_histogram = circuit.utilization_histogram()

    found = by_code(
        lint_flow(FlowArtifacts(name="t", circuit=circuit,
                                report=WrongReport())),
        "CHRT303",
    )
    assert found and found[0].location == "luts"


# -- lint_mapping and metrics ------------------------------------------------


def test_lint_mapping_clean_cell_and_counters():
    from repro.obs import get_metrics

    before = get_metrics().counters()
    net = mcnc_circuit("frg1")
    circuit = map_area(net, k=4)
    report = build_report(net, circuit, 4)
    findings = lint_mapping(net, circuit, k=4, report=report, subject="frg1")
    assert not [d for d in findings if d.severity == ERROR]
    assert all(d.subject == "frg1" for d in findings)
    delta = get_metrics().counter_delta(before)
    assert delta.get("lint.runs", 0) >= 3  # network + circuit + flow


# -- flow-engine stage attribution -------------------------------------------


class BreakCircuitPass(CircuitPass):
    """Deliberately emit an overwide LUT so stage lint has a finding."""

    name = "breaker"

    def run(self, value, ctx):
        wires = list(value.inputs)[: ctx.k + 1]
        nvars = len(wires)
        tt = TruthTable.var(0, nvars)
        for index in range(1, nvars):
            tt = tt | TruthTable.var(index, nvars)
        value.add_lut("lint_bomb", tuple(wires), tt)
        value.set_output("lint_bomb_out", "lint_bomb")
        return value


def test_flow_lint_attributes_injected_violation_to_stage():
    flow = Flow("bad", [PASSES["sweep"], PASSES["chortle"],
                        BreakCircuitPass()])
    ctx = FlowContext(k=4, lint=True)
    net = mcnc_circuit("frg1")
    flow.run(net, ctx)
    overwide = [d for d in ctx.diagnostics if d.code == "CHRT201"]
    assert overwide, "injected overwide LUT must be caught"
    assert all(d.stage == "flow.stage.2.breaker" for d in overwide)
    assert all(d.location == "lint_bomb" for d in overwide)
    # The chortle stage itself lints error-free.
    chortle_errors = [
        d for d in ctx.diagnostics
        if d.stage == "flow.stage.1.chortle" and d.severity == ERROR
    ]
    assert not chortle_errors


def test_flow_lint_off_by_default():
    flow = Flow("ok", [PASSES["sweep"], PASSES["chortle"]])
    ctx = FlowContext(k=4)
    flow.run(mcnc_circuit("frg1"), ctx)
    assert ctx.diagnostics == []


def test_pipeline_lint_gates_on_errors():
    # A clean mapping passes with lint on...
    net = mcnc_circuit("frg1")
    circuit = map_area(net, k=4, lint=True)
    assert circuit.cost > 0
    # ...and a raw mapper name lints as its one-stage flow.
    from repro.flow.mappers import resolve_mapper

    mapper = resolve_mapper("flowmap", 4, lint=True)
    mapper.map(net)
    assert mapper.diagnostics
    assert {d.stage for d in mapper.diagnostics} == {"flow.stage.0.flowmap"}


def test_flow_mapper_adapter_collects_diagnostics():
    from repro.flow import get_registry
    from repro.flow.mappers import FlowMapperAdapter

    flow = get_registry().resolve("area")
    adapter = FlowMapperAdapter(flow, k=4, lint=True)
    adapter.map(mcnc_circuit("frg1"))
    assert adapter.diagnostics, "area flow lint collects stage findings"
    assert all(d.stage.startswith("flow.stage.") for d in adapter.diagnostics)


# -- baseline ----------------------------------------------------------------


def test_baseline_roundtrip_and_globs(tmp_path):
    baseline = Baseline([
        BaselineEntry(rule="CHRT205", subject="count*",
                      justification="interface inverters"),
        BaselineEntry(rule="CHRT206", location="n4*"),
    ])
    path = str(tmp_path / "baseline.json")
    baseline.save(path)
    loaded = load_baseline(path)
    assert loaded == baseline

    diags = [
        Diagnostic("CHRT205", INFO, "m", subject="count_k4", location="po1"),
        Diagnostic("CHRT205", INFO, "m", subject="des_k4", location="po1"),
        Diagnostic("CHRT206", WARN, "m", subject="x", location="n42"),
        Diagnostic("CHRT207", WARN, "m", subject="count_k4"),
    ]
    kept, suppressed = loaded.filter(diags)
    assert suppressed == 2
    assert codes(kept) == {"CHRT205", "CHRT207"}
    kept2, sup2 = apply_baseline(diags, loaded)
    assert (len(kept2), sup2) == (2, 2)
    assert apply_baseline(diags, None) == (diags, 0)


def test_baseline_rejects_malformed(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{}")
    with pytest.raises(LintError):
        load_baseline(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"schema_version": 99, "entries": []}))
    with pytest.raises(LintError, match="schema_version"):
        load_baseline(path)
    with pytest.raises(LintError):
        load_baseline(str(tmp_path / "missing.json"))


def test_committed_baseline_loads():
    repo_root = os.path.join(os.path.dirname(__file__), os.pardir)
    path = os.path.join(repo_root, "benchmarks", "baselines",
                        "lint_baseline.json")
    baseline = load_baseline(path)
    assert baseline.entries, "committed baseline must not be empty"
    assert all(e.justification for e in baseline.entries), (
        "every committed suppression needs a justification"
    )


# -- CLI ---------------------------------------------------------------------


def test_cli_lint_rules_listing(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    assert "CHRT201" in out and "overwide-lut" in out


def test_cli_lint_requires_input():
    assert main(["lint"]) == 2  # ReproError -> exit 2


def test_cli_lint_network_file(tmp_path, capsys):
    from repro.blif import write_network

    net = mcnc_circuit("frg1")
    path = str(tmp_path / "frg1.blif")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_network(net))
    assert main(["lint", path]) == 0
    assert "lint:" in capsys.readouterr().out


def test_cli_lint_mapped_circuit_json(tmp_path, capsys):
    from repro.blif import write_lut_circuit, write_network

    net = mcnc_circuit("frg1")
    src = str(tmp_path / "frg1.blif")
    with open(src, "w", encoding="utf-8") as handle:
        handle.write(write_network(net))
    mapped = str(tmp_path / "frg1_m.blif")
    with open(mapped, "w", encoding="utf-8") as handle:
        handle.write(write_lut_circuit(map_area(net, k=4)))
    out_path = str(tmp_path / "report.json")
    code = main(["lint", mapped, "--mapped", "-k", "4",
                 "--format", "json", "-o", out_path])
    assert code == 0
    with open(out_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["summary"]["error"] == 0


def test_cli_lint_fail_on_threshold(tmp_path):
    from repro.blif import write_lut_circuit

    c = LUTCircuit("warned")
    c.add_input("a")
    c.add_input("b")
    c.add_lut("f", ("a", "b"), TruthTable.var(0, 2))  # floating input b
    c.set_output("o", "f")
    path = str(tmp_path / "warned.blif")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_lut_circuit(c))
    assert main(["lint", path, "--mapped"]) == 0
    assert main(["lint", path, "--mapped", "--fail-on", "warn"]) == 1


def test_cli_lint_baseline_suppression(tmp_path, capsys):
    from repro.blif import write_lut_circuit

    c = LUTCircuit("warned")
    c.add_input("a")
    c.add_input("b")
    c.add_lut("f", ("a", "b"), TruthTable.var(0, 2))
    c.set_output("o", "f")
    path = str(tmp_path / "warned.blif")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_lut_circuit(c))
    bl_path = str(tmp_path / "bl.json")
    # CHRT205 too: the BLIF round-trip adds a buffer table per output port.
    Baseline([
        BaselineEntry(rule="CHRT206", justification="test"),
        BaselineEntry(rule="CHRT205", justification="test"),
    ]).save(bl_path)
    code = main(["lint", path, "--mapped", "--fail-on", "warn",
                 "--baseline", bl_path])
    assert code == 0
    assert "suppressed by baseline" in capsys.readouterr().out


def test_cli_lint_spec(capsys):
    assert main(["lint", "--spec", "sweep,strash,chortle"]) == 0
    capsys.readouterr()
    assert main(["lint", "--spec", "merge,chortle"]) == 1
    assert "CHRT301" in capsys.readouterr().out


def test_cli_lint_cell(capsys):
    code = main(["lint", "--cell", "frg1", "--mappers", "chortle",
                 "--ks", "3"])
    assert code == 0
    assert "lint:" in capsys.readouterr().out


def test_lint_suite_on_shared_pool_matches_serial():
    from repro.analysis.suite import lint_suite
    from repro.obs import metrics

    serial = lint_suite(["count", "9symml"], ks=(3, 4))
    before = metrics.counters()
    parallel = lint_suite(["count", "9symml"], ks=(3, 4), jobs=2)
    delta = metrics.counter_delta(before)
    assert serial and parallel == serial  # same findings, same order
    pools = delta.get("perf.pool.created", 0) + delta.get("perf.pool.reused", 0)
    assert pools == 1


def test_cli_map_lint_flag(tmp_path, capsys):
    from repro.blif import write_network

    net = mcnc_circuit("frg1")
    path = str(tmp_path / "frg1.blif")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_network(net))
    code = main(["map", path, "--flow", "sweep,strash,chortle", "--lint",
                 "-k", "4", "-o", str(tmp_path / "out.blif")])
    assert code == 0
    assert "lint" in capsys.readouterr().err
    # A raw mapper stage-lints as its one-stage flow.
    assert main(["map", path, "--mapper", "flowmap", "--lint",
                 "-o", str(tmp_path / "out.blif")]) == 0
    assert "flow.stage.0.flowmap" in capsys.readouterr().err


# -- fuzz: benchmark mappings lint clean at error level ----------------------


@pytest.mark.parametrize("name", ["9symml", "count", "frg1", "apex7"])
def test_fuzz_benchmark_cells_lint_clean(name):
    for k in (3, 4):
        for mapper in ("chortle", "mis"):
            findings = lint_cell(name, k, mapper)
            errors = [d for d in findings if d.severity == ERROR]
            assert not errors, render_text(errors)


# -- semantic (SAT-backed) rules: CHRT4xx ------------------------------------


def _semantic_demo_circuit():
    """One circuit that trips all three CHRT4xx rules.

    ``x = a AND b`` and ``y = a AND NOT b`` are disjoint, so
    ``z = AND(x, y)`` is provably constant 0 (CHRT401) although its
    table is a plain AND.  ``u = AND(b, a)`` computes the same function
    as ``x`` with different structure (CHRT403), and because ``x == u``
    on every reachable assignment, either pin of ``v = OR(x, u)`` can be
    tied to constant 0 (CHRT402).
    """
    c = LUTCircuit("semantic_demo")
    c.add_input("a")
    c.add_input("b")
    c.add_lut("x", ("a", "b"), TruthTable(2, 0b1000))  # a AND b
    c.add_lut("y", ("a", "b"), TruthTable(2, 0b0010))  # a AND NOT b
    c.add_lut("z", ("x", "y"), TruthTable(2, 0b1000))  # constant 0 in context
    c.add_lut("u", ("b", "a"), TruthTable(2, 0b1000))  # b AND a == x
    c.add_lut("v", ("x", "u"), TruthTable(2, 0b1110))  # OR with tied pins
    c.set_output("oz", "z")
    c.set_output("ov", "v")
    return c


def test_chrt401_semantic_constant_cone():
    from repro.analysis import lint_semantic

    found = by_code(lint_semantic(_semantic_demo_circuit()), "CHRT401")
    assert any(d.location == "z" for d in found)
    assert all(d.severity == WARN for d in found)
    assert any("constant 0" in d.message for d in found)


def test_chrt401_skips_structurally_constant_tables():
    # A constant *table* belongs to CHRT204, not CHRT401.
    from repro.analysis import lint_semantic

    c = LUTCircuit("c")
    c.add_input("a")
    c.add_lut("k0", ("a",), TruthTable(1, 0b00))
    c.set_output("o", "k0")
    assert not by_code(lint_semantic(c), "CHRT401")


def test_chrt402_context_unobservable_input():
    from repro.analysis import lint_semantic

    found = by_code(lint_semantic(_semantic_demo_circuit()), "CHRT402")
    assert any(d.location == "v" for d in found)
    assert any("can provably be tied" in d.message for d in found)


def test_chrt403_duplicate_function_pair():
    from repro.analysis import lint_semantic

    found = by_code(lint_semantic(_semantic_demo_circuit()), "CHRT403")
    assert any(d.location == "u" for d in found)
    assert all(d.severity == INFO for d in found)


def test_chrt403_reports_complement_pairs():
    from repro.analysis import lint_semantic

    c = LUTCircuit("c")
    c.add_input("a")
    c.add_input("b")
    c.add_lut("x", ("a", "b"), TruthTable(2, 0b1000))
    c.add_lut("w", ("a", "b"), TruthTable(2, 0b0111))  # NAND: complement
    c.set_output("ox", "x")
    c.set_output("ow", "w")
    found = by_code(lint_semantic(c), "CHRT403")
    assert any("up to complement" in d.message for d in found)


def test_chrt403_skips_byte_identical_copies():
    # An exact duplicate (same pins, same table) is CHRT207's finding.
    from repro.analysis import lint_semantic

    c = LUTCircuit("c")
    c.add_input("a")
    c.add_input("b")
    c.add_lut("x", ("a", "b"), TruthTable(2, 0b1000))
    c.add_lut("x2", ("a", "b"), TruthTable(2, 0b1000))
    c.set_output("o1", "x")
    c.set_output("o2", "x2")
    assert not by_code(lint_semantic(c), "CHRT403")


def test_semantic_rules_clean_on_faithful_mapping(fig1):
    # fig1's chortle mapping has no collapsed cones at all.
    from repro.analysis import lint_semantic
    from repro.core.chortle import ChortleMapper

    findings = lint_semantic(ChortleMapper(k=4).map(fig1))
    assert not by_code(findings, "CHRT401")


def test_semantic_domain_registered():
    from repro.analysis import SEMANTIC

    semantic_rules = [r for r in all_rules() if r.domain == SEMANTIC]
    assert {r.code for r in semantic_rules} == {
        "CHRT401", "CHRT402", "CHRT403",
    }
    # ...and lint_circuit does NOT run them: they are opt-in.
    assert not codes(lint_circuit(_semantic_demo_circuit())) & {
        "CHRT401", "CHRT402", "CHRT403",
    }


def test_lint_mapping_semantic_flag():
    c = _semantic_demo_circuit()
    plain = codes(lint_mapping(None, c))
    semantic = codes(lint_mapping(None, c, semantic=True))
    assert not plain & {"CHRT401", "CHRT402", "CHRT403"}
    assert {"CHRT401", "CHRT402", "CHRT403"} <= semantic


def test_cli_lint_semantic_flag(tmp_path, capsys):
    from repro.blif import write_lut_circuit

    path = str(tmp_path / "demo.blif")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_lut_circuit(_semantic_demo_circuit()))
    code = main(["lint", path, "--mapped", "--semantic"])
    out = capsys.readouterr().out
    assert "CHRT401" in out
    # Semantic findings are warn/info: they never gate at the default
    # error threshold.
    assert code == 0
    # Without the flag the SAT rules stay off.
    assert main(["lint", path, "--mapped"]) == 0
    assert "CHRT401" not in capsys.readouterr().out
