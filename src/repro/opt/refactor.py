"""Tree refactoring: collapse, minimize, and re-factor fanout-free cones.

The remaining piece of the MIS-script role: ``eliminate`` + ``simplify``
+ ``refactor``.  Each maximal fanout-free tree with a bounded number of
distinct leaves is collapsed to its root function (by bit-parallel
simulation), two-level minimized (Quine-McCluskey), algebraically
factored, and rebuilt as a fresh AND/OR tree.  Redundant or poorly
structured logic inside a cone disappears; the network's function is
preserved exactly (and is property-tested to be).
"""

from __future__ import annotations

from typing import Dict

from repro.blif.sop import SopCover
from repro.core.forest import Tree, build_forest
from repro.network.network import AND, BooleanNetwork
from repro.network.transform import sweep
from repro.opt.factor import factor_cover
from repro.opt.minimize import EXACT_MAX_INPUTS, minimize_function
from repro.opt.script import _emit_factor_tree
from repro.truth.truthtable import TruthTable


def _tree_root_function(net: BooleanNetwork, tree: Tree) -> TruthTable:
    """The root's function over the tree's sorted distinct leaves."""
    leaves = sorted(tree.leaves)
    n = len(leaves)
    values = {leaf: TruthTable.var(j, n).bits for j, leaf in enumerate(leaves)}
    mask = (1 << (1 << n)) - 1
    for name in tree.order:
        node = net.node(name)
        acc = None
        for sig in node.fanins:
            word = values[sig.name]
            if sig.inv:
                word = ~word & mask
            if acc is None:
                acc = word
            elif node.op == AND:
                acc &= word
            else:
                acc |= word
        values[name] = acc
    return TruthTable(n, values[tree.root])


def refactor_network(
    network: BooleanNetwork, max_leaves: int = 10, min_nodes: int = 2
) -> BooleanNetwork:
    """Collapse-minimize-refactor every small fanout-free tree.

    Trees with more than ``max_leaves`` distinct leaves or fewer than
    ``min_nodes`` gates are left alone.  Returns a swept network; tree
    roots keep their names, so outputs and cross-tree references are
    untouched.
    """
    net = sweep(network)
    forest = build_forest(net)
    rebuilt: Dict[str, SopCover] = {}
    drop: set = set()
    for tree in forest.trees:
        if tree.num_nodes < min_nodes or len(tree.leaves) > max_leaves:
            continue
        tt = _tree_root_function(net, tree)
        leaves = sorted(tree.leaves)
        if tt.nvars > EXACT_MAX_INPUTS:
            # Too wide for exact minimization: keep the minterm cover.
            rebuilt[tree.root] = SopCover.from_truth_table(leaves, tree.root, tt)
        else:
            rebuilt[tree.root] = minimize_function(leaves, tree.root, tt)
        drop |= tree.internal - {tree.root}

    out = BooleanNetwork(net.name)
    for name in net.topological_order():
        node = net.node(name)
        if node.op == "input":
            out.add_input(name)
            continue
        if name in drop:
            continue
        if name in rebuilt:
            cover = rebuilt[name]
            if cover.is_constant():
                out.add_const(name, bool(cover.constant_value()))
                continue
            tree_expr, inverted = factor_cover(cover)
            counter = [0]
            sig = _emit_factor_tree(out, tree_expr, name, counter)
            if inverted:
                sig = ~sig
            out.add_gate(name, AND, [sig])  # name-preserving; swept below
        elif node.is_gate:
            out.add_gate(name, node.op, node.fanins)
        else:
            out.add_const(name, node.op == "const1")
    for port, sig in net.outputs.items():
        out.set_output(port, sig)
    return sweep(out)
