"""Shared test helpers (importable; fixtures live in conftest.py)."""

from __future__ import annotations

import random

from repro.network.builder import NetworkBuilder
from repro.network.network import BooleanNetwork, Signal
from repro.network.transform import sweep


def make_random_network(
    seed: int,
    num_inputs: int = 6,
    num_gates: int = 10,
    max_fanin: int = 5,
    num_outputs: int = 2,
    invert_prob: float = 0.3,
) -> BooleanNetwork:
    """A small random AND/OR DAG, swept and ready to map."""
    rng = random.Random(seed)
    b = NetworkBuilder("rnd%d" % seed)
    sigs = list(b.inputs(*["i%d" % i for i in range(num_inputs)]))
    for _ in range(num_gates):
        fan = rng.randint(2, max_fanin)
        picks = rng.sample(sigs, min(fan, len(sigs)))
        fanins = [Signal(s.name, rng.random() < invert_prob) for s in picks]
        op = rng.choice([b.and_, b.or_])
        sigs.append(op(*fanins))
    for j in range(num_outputs):
        b.output("o%d" % j, sigs[-(j + 1)])
    return sweep(b.network())


def make_random_tree_network(
    seed: int, depth: int = 3, max_fanin: int = 4, invert_prob: float = 0.3
) -> BooleanNetwork:
    """A single fanout-free tree (every gate read exactly once)."""
    rng = random.Random(seed)
    b = NetworkBuilder("tree%d" % seed)
    counter = [0]

    def fresh_leaf() -> Signal:
        counter[0] += 1
        return b.input("x%d" % counter[0])

    def build(level: int) -> Signal:
        if level == 0:
            return fresh_leaf()
        fan = rng.randint(2, max_fanin)
        children = []
        for _ in range(fan):
            child = build(level - 1) if rng.random() < 0.7 else fresh_leaf()
            if rng.random() < invert_prob:
                child = ~child
            children.append(child)
        op = b.and_ if rng.random() < 0.5 else b.or_
        return op(*children)

    root = build(depth)
    if root.name.startswith("x"):  # degenerate: force at least one gate
        other = fresh_leaf()
        root = b.and_(root, other)
    b.output("y", root)
    return sweep(b.network())


def minterm_truth_table(expr, key_order):
    """Truth table of an expression by evaluating it on every minterm.

    The reference for ``repro.core.expr.to_truth_table``: one recursive
    ``evaluate`` per assignment, independent of its bit-parallel words.
    """
    from repro.core.expr import evaluate
    from repro.truth.truthtable import TruthTable

    n = len(key_order)
    bits = 0
    for m in range(1 << n):
        values = {key: (m >> j) & 1 for j, key in enumerate(key_order)}
        if evaluate(expr, values):
            bits |= 1 << m
    return TruthTable(n, bits)


def iter_leaves(expr):
    """Every ``Leaf`` of a ``repro.core.expr`` expression, left to right."""
    from repro.core.expr import Leaf, NotExpr

    stack = [expr]
    out = []
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node)
        elif isinstance(node, NotExpr):
            stack.append(node.child)
        else:
            stack.extend(reversed(node.children))
    return out


def leaf_keys(expr):
    """Distinct leaf keys of an expression in first-appearance order."""
    return list(dict.fromkeys(leaf.key for leaf in iter_leaves(expr)))
