"""Expression trees describing the function inside a single lookup table.

During tree mapping, the contents of a root lookup table are represented
structurally: an AND/OR expression whose leaves are either external
signals (tree leaves) or references to child lookup tables.  Expressions
are materialized into truth tables only for the LUTs of the final chosen
mapping.
"""

from __future__ import annotations

import functools
from typing import Dict, Sequence, Tuple

from repro.network.network import AND, OR
from repro.truth.truthtable import TruthTable


class Leaf:
    """A literal: an input wire of the lookup table, possibly inverted."""

    __slots__ = ("key", "inv")

    def __init__(self, key, inv: bool = False):
        self.key = key
        self.inv = bool(inv)

    def __repr__(self) -> str:
        return "Leaf(%r%s)" % (self.key, ", inv" if self.inv else "")


class OpExpr:
    """An AND/OR over sub-expressions."""

    __slots__ = ("op", "children")

    def __init__(self, op: str, children: Sequence):
        if op not in (AND, OR):
            raise ValueError("expression op must be and/or, got %r" % op)
        if not children:
            raise ValueError("OpExpr needs at least one child")
        self.op = op
        self.children = tuple(children)

    def __repr__(self) -> str:
        return "OpExpr(%r, %d children)" % (self.op, len(self.children))


class NotExpr:
    """Complement of a sub-expression."""

    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def __repr__(self) -> str:
        return "NotExpr(%r)" % (self.child,)


Expr = object  # Leaf | OpExpr | NotExpr


def evaluate(expr, values: Dict) -> bool:
    """Evaluate the expression given leaf-key truth values."""
    if isinstance(expr, Leaf):
        v = bool(values[expr.key])
        return not v if expr.inv else v
    if isinstance(expr, NotExpr):
        return not evaluate(expr.child, values)
    if expr.op == AND:
        return all(evaluate(c, values) for c in expr.children)
    return any(evaluate(c, values) for c in expr.children)


def to_truth_table(expr, key_order: Sequence) -> TruthTable:
    """Truth table of the expression over the given leaf-key order.

    Bit-parallel: each key stands for its projection word (bit ``m`` is
    the key's value on assignment ``m``), so one pass over the
    expression with AND/OR/complement on whole words yields every row.
    """
    n = len(key_order)
    words = dict(zip(key_order, _projection_words(n)))
    return TruthTable(n, _eval_words(expr, words, (1 << (1 << n)) - 1))


@functools.lru_cache(maxsize=8)
def _projection_words(n: int) -> Tuple[int, ...]:
    return tuple(TruthTable.var(j, n).bits for j in range(n))


def _eval_words(expr, words: Dict, ones: int) -> int:
    if isinstance(expr, Leaf):
        word = words[expr.key]
        return word ^ ones if expr.inv else word
    if isinstance(expr, NotExpr):
        return _eval_words(expr.child, words, ones) ^ ones
    children = iter(expr.children)
    acc = _eval_words(next(children), words, ones)
    if expr.op == AND:
        for child in children:
            acc &= _eval_words(child, words, ones)
    else:
        for child in children:
            acc |= _eval_words(child, words, ones)
    return acc

