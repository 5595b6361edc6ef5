"""Tests for the declarative pass/flow engine (repro.flow)."""

import pytest

from tests.util import make_random_network
from repro.bench.circuits import parity_tree, ripple_adder
from repro.core.lut import LUTCircuit
from repro.errors import FlowError
from repro.flow import (
    BUILTIN_FLOWS,
    MAP_PASSES,
    Flow,
    FlowContext,
    FlowMapperAdapter,
    PASSES,
    get_registry,
    mapper_capabilities,
    mapper_names,
    resolve_mapper,
)
from repro.flow.registry import FlowRegistry
from repro.obs import capture, metrics
from repro.pipeline import map_area, map_delay
from repro.verify import verify_equivalence


def bench_networks():
    return [ripple_adder(4), parity_tree(6), make_random_network(7, num_gates=14)]


class TestFlowConstruction:
    def test_type_mismatch_rejected_at_construction(self):
        with pytest.raises(FlowError) as excinfo:
            Flow("bad", [PASSES["merge"], PASSES["sweep"]])
        message = str(excinfo.value)
        assert "stage 1" in message and "stage 0" in message

    def test_two_mappers_rejected(self):
        with pytest.raises(FlowError):
            Flow("bad", [PASSES["chortle"], PASSES["mis"]])

    def test_empty_flow_rejected(self):
        with pytest.raises(FlowError):
            Flow("empty", [])

    def test_spec_round_trips(self):
        flow = get_registry().parse("sweep,strash,chortle,merge")
        assert flow.spec == "sweep,strash,chortle,merge"
        again = get_registry().parse(flow.spec)
        assert [p.name for p in again.passes] == [p.name for p in flow.passes]

    def test_domains(self):
        flow = get_registry().get("area")
        assert flow.input_domain == "network"
        assert flow.output_domain == "circuit"
        assert flow.map_pass is PASSES["chortle"]
        net_only = get_registry().parse("sweep,strash")
        assert net_only.map_pass is None


class TestRegistry:
    def test_builtins_registered(self):
        names = get_registry().names()
        assert "area" in names and "delay" in names

    def test_unknown_flow_clean_error(self):
        with pytest.raises(FlowError) as excinfo:
            get_registry().get("bogus")
        assert "area" in str(excinfo.value)

    def test_unknown_pass_clean_error(self):
        with pytest.raises(FlowError) as excinfo:
            get_registry().parse("sweep,bogus")
        assert "sweep" in str(excinfo.value)

    def test_empty_spec_rejected(self):
        with pytest.raises(FlowError):
            get_registry().parse(" , ")

    def test_duplicate_registration_rejected(self):
        registry = FlowRegistry()
        area = get_registry().get("area")
        registry.register(area)
        with pytest.raises(FlowError):
            registry.register(area)
        registry.register(area, replace=True)

    def test_resolve_prefers_registered_name(self):
        for name, spec, description in BUILTIN_FLOWS:
            flow = get_registry().resolve(name)
            assert (flow.name, flow.spec, flow.description) == (
                name, spec, description,
            )


class TestFlowExecution:
    @pytest.mark.parametrize("name", get_registry().names())
    def test_registered_flows_verified_on_bench_circuits(self, name):
        flow = get_registry().get(name)
        for net in bench_networks():
            circuit = flow.run(net, FlowContext(k=4))
            assert isinstance(circuit, LUTCircuit)
            verify_equivalence(net, circuit)
            circuit.validate(4)

    def test_shims_match_flow_engine_lut_for_lut(self):
        """map_area/map_delay must equal the registered flows exactly."""
        for net in bench_networks():
            for k in (3, 4):
                via_shim = map_area(net, k=k)
                via_flow = get_registry().get("area").run(net, FlowContext(k=k))
                assert [
                    (lut.name, lut.inputs, lut.tt.bits) for lut in via_shim.luts()
                ] == [
                    (lut.name, lut.inputs, lut.tt.bits) for lut in via_flow.luts()
                ]
                fast_shim = map_delay(net, k=k, slack=0)
                fast_flow = get_registry().get("delay").run(
                    net, FlowContext(k=k, config={"slack": 0})
                )
                assert fast_shim.cost == fast_flow.cost
                assert fast_shim.depth() == fast_flow.depth()

    def test_stage_results_recorded(self):
        net = make_random_network(1, num_gates=12)
        ctx = FlowContext(k=4)
        get_registry().get("area").run(net, ctx)
        assert [s.name for s in ctx.stages] == [
            "sweep", "strash", "refactor", "strash", "chortle", "merge",
        ]
        assert [s.index for s in ctx.stages] == list(range(6))
        assert all(s.seconds >= 0.0 for s in ctx.stages)
        assert ctx.stages[-1].domain == "circuit"

    def test_stage_spans_unique_and_sized(self):
        net = make_random_network(2, num_gates=12)
        with capture() as sink:
            get_registry().get("area").run(net, FlowContext(k=4))
        stage_names = [
            r.name for r in sink.records if r.name.startswith("flow.stage.")
        ]
        assert len(stage_names) == len(set(stage_names)) == 6
        for record in sink.records:
            if record.name.startswith("flow.stage."):
                assert record.attrs["size_in"] > 0
                assert record.attrs["size_out"] > 0

    def test_flow_counters(self):
        net = make_random_network(3, num_gates=10)
        before = metrics.counters()
        get_registry().get("area").run(net, FlowContext(k=4))
        delta = metrics.counter_delta(before)
        assert delta["flow.runs"] == 1
        assert delta["flow.stages_run"] == 6
        assert delta["flow.pass.strash.runs"] == 2
        assert delta["flow.pass.chortle.runs"] == 1

    def test_network_only_flow_returns_network(self):
        from repro.network.network import BooleanNetwork

        net = make_random_network(4, num_gates=10)
        out = get_registry().parse("sweep,strash").run(net, FlowContext())
        assert isinstance(out, BooleanNetwork)


class TestCheckedMode:
    @pytest.mark.parametrize("name", get_registry().names())
    def test_checked_flows_pass_and_count(self, name):
        net = make_random_network(6, num_gates=12)
        before = metrics.counters()
        ctx = FlowContext(k=4, checked=True)
        circuit = get_registry().get(name).run(net, ctx)
        verify_equivalence(net, circuit)
        delta = metrics.counter_delta(before)
        assert delta["flow.stages_checked"] == len(ctx.stages)
        assert all(s.checked for s in ctx.stages)

    def test_checked_failure_names_the_stage(self):
        """A pass that corrupts the logic is caught and attributed."""
        from repro.flow.passes import NetworkPass
        from repro.network.network import Signal

        class BrokenPass(NetworkPass):
            name = "broken"

            def run(self, value, ctx):
                out = value.copy()
                # Invert one output port: functionally wrong, same shape.
                port, sig = next(iter(out.outputs.items()))
                out.set_output(port, Signal(sig.name, not sig.inv))
                return out

        flow = Flow("evil", [PASSES["sweep"], BrokenPass(), PASSES["chortle"]])
        net = make_random_network(7, num_gates=10)
        with pytest.raises(FlowError) as excinfo:
            flow.run(net, FlowContext(k=4, checked=True))
        message = str(excinfo.value)
        assert "stage 1" in message and "broken" in message

    def test_unchecked_does_not_verify(self):
        net = make_random_network(8, num_gates=10)
        before = metrics.counters()
        get_registry().get("area").run(net, FlowContext(k=4))
        delta = metrics.counter_delta(before)
        assert "flow.stages_checked" not in delta


class TestMapperProtocol:
    def test_mapper_names_cover_core_and_flows(self):
        names = mapper_names()
        assert {row.name for row in MAP_PASSES} <= set(names)
        assert set(get_registry().names()) <= set(names)

    def test_resolve_raw_mapper(self):
        mapper = resolve_mapper("chortle", k=4)
        assert mapper.name == "chortle"
        net = make_random_network(9, num_gates=10)
        verify_equivalence(net, mapper.map(net))

    def test_resolve_flow_and_spec(self):
        net = make_random_network(10, num_gates=10)
        for spec in ("delay", "sweep,strash,chortle,merge"):
            mapper = resolve_mapper(spec, k=4, checked=True)
            verify_equivalence(net, mapper.map(net))

    def test_checked_raw_mapper_checks_its_stage(self):
        """A map-pass name in checked mode runs as its one-stage flow."""
        mapper = resolve_mapper("chortle", k=4, checked=True)
        assert mapper.flow.spec == "chortle"
        net = make_random_network(9, num_gates=10)
        before = metrics.counters()
        verify_equivalence(net, mapper.map(net))
        assert metrics.counter_delta(before)["flow.stages_checked"] == 1

    def test_adapter_rejects_network_only_flow(self):
        with pytest.raises(FlowError):
            FlowMapperAdapter(get_registry().parse("sweep,strash"), k=4)

    @pytest.mark.parametrize("spec", ["merge", "sweep,strash"])
    def test_flow_without_map_pass_names_the_map_passes(self, spec):
        with pytest.raises(FlowError) as err:
            resolve_mapper(spec, 4)
        message = str(err.value)
        assert "has no map pass" in message
        assert all(row.name in message for row in MAP_PASSES)

    def test_all_mappers_have_names(self):
        for row in MAP_PASSES:
            assert row.build(4).name == row.name

    def test_capability_rows(self):
        """Kind, records, cache and K range of every resolvable name."""
        unbounded, cut = (2, None), (2, 6)
        rows = {
            row.name: (row.kind, row.records_provenance, row.cache_aware,
                       row.k_range)
            for row in mapper_capabilities()
        }
        assert rows == {
            "chortle": ("core", True, True, unbounded),
            "cutmap": ("core", True, True, cut),
            "cutmap_delay": ("core", True, True, cut),
            "mis": ("core", False, False, (2, 5)),
            "flowmap": ("core", False, False, unbounded),
            "binpack": ("core", False, False, unbounded),
            "depthbounded": ("core", False, False, unbounded),
            "area": ("flow", True, True, unbounded),
            "delay": ("flow", False, False, unbounded),
            "area_cut": ("flow", True, True, cut),
            "delay_cut": ("flow", True, True, cut),
        }
        assert sorted(rows) == mapper_names()


class TestMergeGuard:
    def test_merge_rejection_counted(self, monkeypatch):
        """A depth-increasing merge is kept out and counted, not dropped."""
        import repro.flow.passes as passes_mod

        net = make_random_network(11, num_gates=12)

        def bad_merge(circuit, k, protect_outputs=True):
            from repro.extensions.lutmerge import merge_luts as real

            merged = real(circuit, k, protect_outputs=protect_outputs)
            # Pretend the merge came back deeper than the input.
            monkeypatch.setattr(
                type(merged), "depth", lambda self: 10 ** 6, raising=True
            )
            return merged

        monkeypatch.setattr(passes_mod, "merge_luts", bad_merge)
        before = metrics.counters()
        circuit = map_delay(net, k=4)
        delta = metrics.counter_delta(before)
        assert delta.get("pipeline.merge_rejected") == 1
        verify_equivalence(net, circuit)
