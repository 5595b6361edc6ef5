"""Tests for LUT-content expression trees."""

import random

import pytest

from repro.core.expr import Leaf, NotExpr, OpExpr, evaluate, to_truth_table
from repro.network.network import AND, OR
from repro.truth.truthtable import TruthTable
from tests.util import iter_leaves, leaf_keys, minterm_truth_table


def sample_expr():
    # (a & ~b) | ~(c & a)
    return OpExpr(
        OR,
        [
            OpExpr(AND, [Leaf("a"), Leaf("b", inv=True)]),
            NotExpr(OpExpr(AND, [Leaf("c"), Leaf("a")])),
        ],
    )


class TestStructure:
    def test_opexpr_validation(self):
        with pytest.raises(ValueError):
            OpExpr("xor", [Leaf("a")])
        with pytest.raises(ValueError):
            OpExpr(AND, [])

    def test_iter_leaves_order(self):
        leaves = list(iter_leaves(sample_expr()))
        assert [leaf.key for leaf in leaves] == ["a", "b", "c", "a"]

    def test_leaf_keys_dedup(self):
        assert leaf_keys(sample_expr()) == ["a", "b", "c"]

    def test_reprs(self):
        assert "Leaf" in repr(Leaf("a"))
        assert "inv" in repr(Leaf("a", True))
        assert "NotExpr" in repr(NotExpr(Leaf("a")))
        assert "children" in repr(OpExpr(AND, [Leaf("a")]))


class TestEvaluation:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ({"a": 1, "b": 0, "c": 0}, True),
            ({"a": 1, "b": 1, "c": 1}, False),
            ({"a": 0, "b": 0, "c": 1}, True),
        ],
    )
    def test_evaluate(self, values, expected):
        assert evaluate(sample_expr(), values) is expected

    def test_to_truth_table(self):
        tt = to_truth_table(sample_expr(), ["a", "b", "c"])
        a, b, c = (TruthTable.var(j, 3) for j in range(3))
        assert tt == (a & ~b) | ~(c & a)

    def test_to_truth_table_respects_order(self):
        expr = OpExpr(AND, [Leaf("x"), Leaf("y", inv=True)])
        tt_xy = to_truth_table(expr, ["x", "y"])
        tt_yx = to_truth_table(expr, ["y", "x"])
        assert tt_xy == TruthTable.var(0, 2) & ~TruthTable.var(1, 2)
        assert tt_yx == TruthTable.var(1, 2) & ~TruthTable.var(0, 2)

    def test_single_leaf(self):
        tt = to_truth_table(Leaf("a", inv=True), ["a"])
        assert tt == ~TruthTable.var(0, 1)


def _random_expr(rng, keys, depth):
    """A random AND/OR/NOT expression over ``keys``, merges nested."""
    if depth == 0 or rng.random() < 0.25:
        return Leaf(rng.choice(keys), inv=rng.random() < 0.4)
    if rng.random() < 0.2:
        return NotExpr(_random_expr(rng, keys, depth - 1))
    children = [
        _random_expr(rng, keys, depth - 1) for _ in range(rng.randint(1, 4))
    ]
    return OpExpr(rng.choice((AND, OR)), children)


class TestBitParallelTruthTable:
    """``to_truth_table`` against one ``evaluate`` per minterm."""

    @pytest.mark.parametrize("nkeys", [1, 2, 3, 4, 5, 6])
    def test_fuzz_against_minterm_loop(self, nkeys):
        rng = random.Random(nkeys)
        keys = [("ext", "k%d" % j) for j in range(nkeys)]
        for _ in range(60):
            expr = _random_expr(rng, keys, depth=4)
            order = leaf_keys(expr)
            assert to_truth_table(expr, order) == minterm_truth_table(
                expr, order
            )
            # Key orders with unused or permuted keys, as emission never
            # produces but callers may.
            shuffled = list(keys)
            rng.shuffle(shuffled)
            assert to_truth_table(expr, shuffled) == minterm_truth_table(
                expr, shuffled
            )
