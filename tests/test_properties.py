"""Hypothesis property tests spanning the whole mapping stack.

These generate arbitrary small networks and assert the system-level
invariants: every mapper's output is functionally equivalent to its
input, respects the K bound, and the exact mapper's cost lower-bounds the
heuristics'.
"""


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baseline.mis_mapper import MisMapper
from repro.core.chortle import ChortleMapper
from repro.core.divisions import exhaustive_map_tree
from repro.core.forest import build_forest
from repro.extensions.binpack import BinPackMapper
from repro.extensions.flowmap import FlowMapper
from repro.network.builder import NetworkBuilder
from repro.network.network import Signal
from repro.network.simulate import output_truth_tables
from repro.network.transform import sweep
from repro.verify import verify_equivalence


@st.composite
def networks(draw, max_inputs=6, max_gates=9, max_fanin=5):
    """Arbitrary small swept AND/OR networks."""
    num_inputs = draw(st.integers(2, max_inputs))
    num_gates = draw(st.integers(1, max_gates))
    b = NetworkBuilder("hyp")
    sigs = list(b.inputs(*["i%d" % i for i in range(num_inputs)]))
    for _ in range(num_gates):
        fan = draw(st.integers(2, max_fanin))
        indices = draw(
            st.lists(
                st.integers(0, len(sigs) - 1),
                min_size=2,
                max_size=min(fan, len(sigs)),
                unique=True,
            )
        )
        fanins = [
            Signal(sigs[i].name, draw(st.booleans())) for i in indices
        ]
        op = b.and_ if draw(st.booleans()) else b.or_
        sigs.append(op(*fanins))
    b.output("o0", sigs[-1])
    if draw(st.booleans()) and num_gates >= 2:
        b.output("o1", sigs[-2])
    return sweep(b.network())


COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(networks(), st.integers(2, 5))
@settings(**COMMON)
def test_chortle_equivalence_property(net, k):
    circuit = ChortleMapper(k=k).map(net)
    verify_equivalence(net, circuit)
    circuit.validate(k)


@given(networks(), st.integers(2, 5))
@settings(**COMMON)
def test_mis_equivalence_property(net, k):
    circuit = MisMapper(k=k).map(net)
    verify_equivalence(net, circuit)
    circuit.validate(k)


@given(networks(), st.integers(2, 5))
@settings(**COMMON)
def test_flowmap_equivalence_property(net, k):
    circuit = FlowMapper(k=k).map(net)
    verify_equivalence(net, circuit)
    circuit.validate(k)


@given(networks(), st.integers(2, 5))
@settings(**COMMON)
def test_binpack_equivalence_property(net, k):
    circuit = BinPackMapper(k=k).map(net)
    verify_equivalence(net, circuit)
    circuit.validate(k)


@given(networks(max_gates=6, max_fanin=4), st.integers(2, 4))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_chortle_matches_paper_pseudocode(net, k):
    """The optimized DP equals the exhaustive transliteration, always."""
    net = sweep(net)
    circuit = ChortleMapper(k=k).map(net)
    forest = build_forest(net)
    oracle = sum(exhaustive_map_tree(net, t, k) for t in forest.trees)
    assert circuit.cost == oracle


@given(networks(), st.integers(2, 5))
@settings(**COMMON)
def test_heuristics_bounded_below_by_exact(net, k):
    exact = ChortleMapper(k=k).map(net).cost
    packed = BinPackMapper(k=k).map(net).cost
    assert packed >= exact


@given(networks())
@settings(**COMMON)
def test_cost_monotone_in_k(net):
    costs = [ChortleMapper(k=k).map(net).cost for k in (2, 3, 4, 5)]
    assert all(a >= b for a, b in zip(costs, costs[1:]))


@given(networks(), st.integers(2, 5))
@settings(**COMMON)
def test_flowmap_depth_lower_bounds_chortle(net, k):
    """FlowMap's label is the depth optimum *for a fixed subject graph*;
    Chortle mapped over the same binary decomposition can never go
    shallower.  (On the raw network Chortle may restructure wide nodes
    and legitimately beat it, so the comparison is structure-fair.)"""
    from repro.baseline.subject import decompose_to_binary
    from repro.network.transform import sweep as _sweep

    fm = FlowMapper(k=k)
    optimal = fm.optimal_depth(net)
    assert fm.map(net).depth() == optimal
    binary = decompose_to_binary(_sweep(net))
    assert ChortleMapper(k=k).map(binary).depth() >= optimal


@given(networks())
@settings(**COMMON)
def test_sweep_fixpoint_property(net):
    swept = sweep(net)
    assert output_truth_tables(swept) == output_truth_tables(net)
    assert sorted(sweep(swept).names()) == sorted(swept.names())
