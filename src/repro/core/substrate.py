"""Mapper-agnostic covering substrate: the machinery every mapper shares.

Technology mappers differ in *how they choose* a cover — the tree DP of
:mod:`repro.core.tree_mapper`, the DAG cut covering of
:mod:`repro.core.cut_mapper`, the library matching of the MIS baseline —
but they all finish the same way: derive a truth table for each chosen
cone, materialize it as a :class:`~repro.core.lut.LUT` carrying
provenance, and plumb the output ports.  This module is that common
layer, extracted so the tree-DP and DAG-cover paths are peers rather
than the tree path being privileged:

* :func:`cone_truth_table` — bit-parallel evaluation of the cone of a
  node over an ordered leaf set (any AND/OR subject graph);
* :func:`cone_signature` — a canonical, hashable structure key for one
  cone computation, suitable for memo caching
  (:class:`~repro.perf.memo.NodeTableCache` accepts arbitrary tuple
  keys);
* :func:`emit_candidate` — materialize a tree-DP candidate as LUTs with
  per-table :class:`~repro.core.lut.LUTProvenance`;
* :func:`emit_trees` — the whole circuit of one candidate per forest
  tree, the back end of every :class:`~repro.core.tree_mapper.MapCand`
  mapper (chortle, binpack, depthbounded);
* :func:`wire_outputs` — output-port plumbing (constants, inverters,
  buffers) shared by every mapper;
* :func:`circuit_to_network` — re-express a mapped circuit as a plain
  AND/OR network, so two *circuits* can be compared through
  :func:`repro.verify.verify_network_equivalence` (the cross-mapper
  equivalence fuzz path).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.lut import LUTCircuit, LUTProvenance
from repro.core.expr import Leaf, NotExpr, OpExpr, to_truth_table
from repro.errors import MappingError
from repro.network.network import AND, CONST0, CONST1, OR, BooleanNetwork, Signal
from repro.truth.truthtable import TruthTable

# -- cone evaluation ---------------------------------------------------------


def cone_gates(
    net: BooleanNetwork, root: str, leaves: Sequence[str]
) -> List[str]:
    """The gate nodes of the cone of ``root`` over ``leaves``, in a
    canonical topological order (fanins before readers).

    The order is determined purely by the cone's structure — an
    iterative post-order walk from ``root`` visiting fanins in declared
    order — so two structurally identical cones enumerate their gates
    identically (the property :func:`cone_signature` relies on).
    """
    stop: Set[str] = set(leaves)
    order: List[str] = []
    state: Dict[str, int] = {}  # 0 = visiting, 1 = done
    stack: List[Tuple[str, int]] = [(root, 0)]
    while stack:
        name, phase = stack.pop()
        if phase == 0:
            if name in stop or state.get(name) == 1:
                continue
            state[name] = 0
            stack.append((name, 1))
            node = net.node(name)
            for sig in reversed(node.fanins):
                if sig.name not in stop and state.get(sig.name) != 1:
                    stack.append((sig.name, 0))
        else:
            if state.get(name) != 1:
                state[name] = 1
                order.append(name)
    return order


def cone_truth_table(
    net: BooleanNetwork, root: str, leaves: Sequence[str]
) -> TruthTable:
    """The function of ``root`` over the ordered ``leaves``, bit-parallel.

    ``leaves`` must cut every path from the primary inputs to ``root``
    (a node on a missed path raises :class:`MappingError` rather than
    silently evaluating an unbounded cone).  Variable ``j`` of the
    returned table is ``leaves[j]``.
    """
    n = len(leaves)
    width = 1 << n
    mask = (1 << width) - 1
    values: Dict[str, int] = {}
    for j, leaf in enumerate(leaves):
        period = 1 << j
        block = ((1 << period) - 1) << period
        word = 0
        for start in range(0, width, 2 * period):
            word |= block << start
        values[leaf] = word

    for name in cone_gates(net, root, leaves):
        node = net.node(name)
        if node.op == CONST0:
            values[name] = 0
            continue
        if node.op == CONST1:
            values[name] = mask
            continue
        if not node.is_gate:
            raise MappingError(
                "cone of %r reaches non-gate %r outside its leaf set %r"
                % (root, name, tuple(leaves))
            )
        acc = mask if node.op == AND else 0
        for sig in node.fanins:
            word = values[sig.name]
            if sig.inv:
                word = ~word & mask
            acc = (acc & word) if node.op == AND else (acc | word)
        values[name] = acc
    if root not in values:
        raise MappingError(
            "cone of %r over %r evaluates nothing" % (root, tuple(leaves))
        )
    return TruthTable(n, values[root])


def cone_signature(
    net: BooleanNetwork, root: str, leaves: Sequence[str]
) -> tuple:
    """A canonical, hashable key for one cone-truth-table computation.

    Leaves contribute their *position* in the ordered leaf tuple, gates
    contribute their op and locally numbered fanin references — never a
    node name — so two structurally identical cones (across trees,
    networks, or circuits) share a key and therefore a cached truth
    table.  The key layout mirrors :func:`repro.perf.memo.node_signature`
    conventions: a tagged tuple, safe to mix with node-table keys in one
    :class:`~repro.perf.memo.NodeTableCache`.
    """
    ids: Dict[str, tuple] = {
        name: ("l", j) for j, name in enumerate(leaves)
    }
    parts: List[tuple] = []
    for i, name in enumerate(cone_gates(net, root, leaves)):
        node = net.node(name)
        ids[name] = ("n", i)
        parts.append(
            (node.op, tuple((ids[s.name], s.inv) for s in node.fanins))
        )
    return ("cone", len(leaves), tuple(parts))


# -- candidate emission (the tree-DP back end) -------------------------------


class _EmitFrame:
    """One in-flight candidate of the iterative emission walk.

    ``keys`` collects the leaf keys of ``children`` left to right, with
    repeats: a merged child's keys join at the child's position, so the
    first appearances give the table's input order without a second
    walk over the finished expression.
    """

    __slots__ = ("cand", "name", "inv", "children", "keys", "index")

    def __init__(self, cand, name, inv):
        self.cand = cand
        self.name = name  # LUT name for emit frames, None for merged
        self.inv = inv
        self.children: list = []
        self.keys: list = []
        self.index = 0


def emit_candidate(cand, circuit: LUTCircuit, wire_name: str) -> int:
    """Materialize a tree-DP candidate as LUTs; returns the number emitted.

    Every emitted table is stamped with a :class:`LUTProvenance` naming
    the tree root (``wire_name``) and the placement shape of the
    candidate that produced it, so downstream QoR tooling can attribute
    per-tree area.

    The walk runs on an explicit frame stack — candidate chains grow
    with tree depth, so recursion would cap mappable circuits at the
    interpreter limit.  Wire names are assigned at discovery and child
    tables are added before their readers, the same event order as the
    recursive formulation, so emitted circuits are bit-identical.
    """
    counter = 0
    emitted = 0
    stack = [_EmitFrame(cand, wire_name, False)]
    while stack:
        frame = stack[-1]
        placements = frame.cand.placements
        if frame.index < len(placements):
            placement = placements[frame.index]
            frame.index += 1
            kind = placement[0]
            if kind == "ext":
                frame.children.append(Leaf(placement[1], placement[2]))
                frame.keys.append(placement[1])
            elif kind == "wire":
                counter += 1
                child_name = circuit.fresh_name(
                    "%s_l%d" % (wire_name, counter)
                )
                frame.children.append(Leaf(child_name, placement[2]))
                frame.keys.append(child_name)
                stack.append(_EmitFrame(placement[1], child_name, False))
            else:  # merged: the child's root table folds into this one
                stack.append(_EmitFrame(placement[1], None, placement[2]))
            continue
        stack.pop()
        expr = OpExpr(frame.cand.op, frame.children)
        if frame.name is not None:
            keys = list(dict.fromkeys(frame.keys))
            tt = to_truth_table(expr, keys)
            circuit.add_lut(
                frame.name,
                keys,
                tt,
                provenance=LUTProvenance(
                    tree=wire_name,
                    op=frame.cand.op,
                    placements=frame.cand.placement_kinds(),
                    root=frame.name == wire_name,
                ),
            )
            emitted += 1
        else:
            parent = stack[-1]
            parent.children.append(NotExpr(expr) if frame.inv else expr)
            parent.keys.extend(frame.keys)
    return emitted


def emit_trees(
    net: BooleanNetwork,
    name: str,
    k: int,
    chosen: Iterable[Tuple[str, object]],
) -> LUTCircuit:
    """The circuit of one chosen candidate per fanout-free tree of ``net``.

    ``chosen`` yields ``(tree root, MapCand)`` pairs in forest order.
    Each candidate must emit exactly the ``cost`` it predicts, or the
    mapper's accounting is wrong and :class:`MappingError` says where.
    The circuit gets ``net``'s inputs and output ports and is validated
    for width ``k``.
    """
    circuit = LUTCircuit(name)
    for pi in net.inputs:
        circuit.add_input(pi)
    for root, cand in chosen:
        emitted = emit_candidate(cand, circuit, root)
        if emitted != cand.cost:
            raise MappingError(
                "internal accounting error in tree %r: predicted %d "
                "LUTs, emitted %d" % (root, cand.cost, emitted)
            )
    wire_outputs(net, circuit)
    circuit.validate(k)
    return circuit


# -- output-port plumbing ----------------------------------------------------


def wire_outputs(net: BooleanNetwork, circuit: LUTCircuit) -> None:
    """Connect output ports, adding inverters/buffers/constants as needed.

    Single-input and zero-input tables added here are interface plumbing
    and are excluded from the cost metric (see
    :attr:`~repro.core.lut.LUTCircuit.cost`).
    """
    materialized: Dict[Tuple[str, bool], str] = {}
    for port, sig in net.outputs.items():
        node = net.node(sig.name)
        if node.op in (CONST0, CONST1):
            value = (node.op == CONST1) != sig.inv
            key = ("__const__", value)
            if key not in materialized:
                name = circuit.fresh_name(port)
                circuit.add_lut(name, (), TruthTable.const(value, 0))
                materialized[key] = name
            circuit.set_output(port, materialized[key])
        elif sig.inv:
            key = (sig.name, True)
            if key not in materialized:
                name = circuit.fresh_name(port)
                circuit.add_lut(name, (sig.name,), ~TruthTable.var(0, 1))
                materialized[key] = name
            circuit.set_output(port, materialized[key])
        else:
            circuit.set_output(port, sig.name)


# -- circuit-to-network lowering ---------------------------------------------


def circuit_to_network(circuit: LUTCircuit, name: str = "") -> BooleanNetwork:
    """Re-express a mapped circuit as a plain AND/OR boolean network.

    Each lookup table becomes its sum-of-products: one AND gate per
    minterm over the table's input wires (with inverted literals carried
    on the edges) and an OR gate collecting them.  Constant and empty
    tables become constant nodes.  The result computes exactly what the
    circuit computes, so two mapped circuits — from *different* mappers
    — can be compared through
    :func:`repro.verify.verify_network_equivalence`.
    """
    net = BooleanNetwork(name or ("%s_net" % circuit.name))
    for pi in circuit.inputs:
        net.add_input(pi)
    for lut_name in circuit.topological_order():
        lut = circuit.lut(lut_name)
        minterms = list(lut.tt.minterms())
        nvars = lut.tt.nvars
        if nvars == 0 or not minterms or len(minterms) == (1 << nvars):
            net.add_const(lut.name, bool(minterms))
            continue
        terms: List[Signal] = []
        for m in minterms:
            literals = [
                Signal(lut.inputs[j], not ((m >> j) & 1))
                for j in range(nvars)
            ]
            if len(minterms) == 1:
                net.add_gate(lut.name, AND, literals)
                terms = []
                break
            term = net.fresh_name("%s_m%d" % (lut.name, m))
            net.add_gate(term, AND, literals)
            terms.append(Signal(term))
        if terms:
            net.add_gate(lut.name, OR, terms)
    for port, sig in circuit.outputs.items():
        net.set_output(port, Signal(sig))
    net.validate()
    return net
