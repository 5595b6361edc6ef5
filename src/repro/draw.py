"""Plain-text rendering of networks and mapped circuits.

For documentation, teaching, and debugging: a level-by-level listing
that makes small examples (like the paper's Figure 1/2) readable in a
terminal or a README without graphics.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.lut import LUTCircuit
from repro.network.network import BooleanNetwork


def draw_network(network: BooleanNetwork) -> str:
    """Level-ordered listing of a boolean network."""
    level: Dict[str, int] = {}
    for name in network.topological_order():
        node = network.node(name)
        if node.is_gate:
            level[name] = 1 + max(level.get(s.name, 0) for s in node.fanins)
        else:
            level[name] = 0
    by_level: Dict[int, List[str]] = {}
    for name, lv in level.items():
        by_level.setdefault(lv, []).append(name)

    port_of: Dict[str, List[str]] = {}
    for port, sig in network.outputs.items():
        label = ("~" if sig.inv else "") + port
        port_of.setdefault(sig.name, []).append(label)

    lines = ["network %s" % network.name]
    inputs = ", ".join(network.inputs)
    lines.append("  level 0: inputs %s" % (inputs or "(none)"))
    for lv in sorted(by_level):
        if lv == 0:
            continue
        entries = []
        for name in by_level[lv]:
            node = network.node(name)
            fanins = ", ".join(str(s) for s in node.fanins)
            entry = "%s=%s(%s)" % (name, node.op.upper(), fanins)
            if name in port_of:
                entry += " -> %s" % ",".join(port_of[name])
            entries.append(entry)
        lines.append("  level %d: %s" % (lv, "  ".join(entries)))
    return "\n".join(lines)


def draw_circuit(circuit: LUTCircuit) -> str:
    """Level-ordered listing of a mapped LUT circuit."""
    level = circuit.levels()
    by_level: Dict[int, List[str]] = {}
    for name in circuit.topological_order():
        by_level.setdefault(level[name], []).append(name)

    port_of: Dict[str, List[str]] = {}
    for port, sig in circuit.outputs.items():
        port_of.setdefault(sig, []).append(port)

    lines = ["circuit %s: %d LUTs" % (circuit.name, circuit.cost)]
    inputs = ", ".join(circuit.inputs)
    lines.append("  level 0: inputs %s" % (inputs or "(none)"))
    for lv in sorted(by_level):
        entries = []
        for name in by_level[lv]:
            lut = circuit.lut(name)
            entry = "%s[%s](%s)" % (
                name,
                lut.tt.to_binary_string(),
                ", ".join(lut.inputs),
            )
            if name in port_of:
                entry += " -> %s" % ",".join(port_of[name])
            entries.append(entry)
        lines.append("  level %d: %s" % (lv, "  ".join(entries)))
    return "\n".join(lines)
