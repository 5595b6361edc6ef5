#!/usr/bin/env python
"""A guided walk through the paper's algorithm on its own example.

Follows Sections 2-3 step by step: the Figure 1 network, the Figure 3
forest of maximal fanout-free trees, the minmap tables of the tree
mapper, and the final Figure 2 circuit of three 3-input lookup tables.

Run:  python examples/paper_walkthrough.py
"""

from repro.bench.circuits import figure1_network
from repro.core import ChortleMapper, build_forest
from repro.core.tree_mapper import ExtItem, TableItem, TreeMapper
from repro.verify import verify_equivalence


def main() -> None:
    net = figure1_network()
    print("Section 2 - the boolean network (Figure 1):")
    for node in net.gates():
        fanins = ", ".join(str(s) for s in node.fanins)
        print("  %s = %s(%s)" % (node.name, node.op.upper(), fanins))
    print("  outputs: %s" % {p: str(s) for p, s in net.outputs.items()})

    print()
    print("Section 3 - creating a forest of trees (Figure 3):")
    forest = build_forest(net)  # checked: every gate in exactly one tree
    for tree in forest.trees:
        print(
            "  tree rooted at %s: internal %s, leaves %s"
            % (tree.root, sorted(tree.internal), sorted(tree.leaves))
        )
    print(
        "  (node g2 has out-degree 2, so the edge into g4 is redirected "
        "through a pseudo-input, as in Figure 3b)"
    )

    print()
    print("Section 3.1 - minmap(n, U) tables for K=3:")
    mapper = TreeMapper(3)
    for tree in forest.trees:
        print("  tree %s:" % tree.root)
        tables = {}
        for name in tree.order:
            node = net.node(name)
            items = []
            for sig in node.fanins:
                if sig.name in tables:
                    items.append(TableItem(tuple(tables[sig.name]), sig.inv))
                else:
                    items.append(ExtItem(sig.name, sig.inv))
            table = mapper.compute_node_table(node.op, items)
            tables[name] = table
            row = ", ".join(
                "U=%d: %s" % (u, table[u].cost if table[u] else "-")
                for u in range(2, 4)
            )
            print("    minmap(%s): %s" % (name, row))

    print()
    print("Section 3.1.2 - the constructed mapping (Figure 2):")
    circuit = ChortleMapper(k=3).map(net)
    for lut in circuit.luts():
        print(
            "  LUT %-4s inputs (%s)  table %s"
            % (lut.name, ", ".join(lut.inputs), lut.tt.to_binary_string())
        )
    print("  total: %d lookup tables (the paper's Figure 2 uses 3)" % circuit.cost)

    from repro.draw import draw_circuit, draw_network

    print()
    print(draw_network(net))
    print()
    print(draw_circuit(circuit))

    vectors = verify_equivalence(net, circuit)
    print()
    print("Verified against the network on all %d input assignments." % vectors)


if __name__ == "__main__":
    main()
