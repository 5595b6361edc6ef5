"""Tests for two-level minimization (Quine-McCluskey + cover selection)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blif.sop import SopCover
from repro.opt.minimize import (
    _implicant_covers,
    minimize_cover,
    minimize_function,
    minimize_truth_table,
    prime_implicants,
)
from repro.truth.truthtable import TruthTable


def _try_merge(a, b):
    """Combine two implicants differing in exactly one cared bit."""
    if a[1] != b[1]:
        return None
    diff = (a[0] ^ b[0]) & ~a[1]
    if diff == 0 or diff & (diff - 1):
        return None
    return (a[0] & ~diff, a[1] | diff)


def _pairwise_prime_implicants(tt):
    """Textbook Quine-McCluskey: try every pair each round (the oracle)."""
    current = {(m, 0) for m in tt.minterms()}
    primes = set()
    while current:
        merged = set()
        used = set()
        current_list = sorted(current)
        for i, a in enumerate(current_list):
            for b in current_list[i + 1:]:
                combo = _try_merge(a, b)
                if combo is not None:
                    merged.add(combo)
                    used.add(a)
                    used.add(b)
        primes |= current - used
        current = merged
    return sorted(primes)


class TestMerging:
    def test_merge_adjacent(self):
        assert _try_merge((0b00, 0), (0b01, 0)) == (0b00, 0b01)

    def test_merge_requires_same_mask(self):
        assert _try_merge((0b00, 0b01), (0b10, 0b00)) is None

    def test_merge_requires_single_difference(self):
        assert _try_merge((0b00, 0), (0b11, 0)) is None

    def test_covers(self):
        imp = (0b00, 0b01)  # x1=0, x0 free
        assert _implicant_covers(imp, 0b00)
        assert _implicant_covers(imp, 0b01)
        assert not _implicant_covers(imp, 0b10)


class TestPrimeImplicants:
    def test_and2(self):
        tt = TruthTable.var(0, 2) & TruthTable.var(1, 2)
        assert prime_implicants(tt) == [(0b11, 0)]

    def test_or2(self):
        tt = TruthTable.var(0, 2) | TruthTable.var(1, 2)
        primes = set(prime_implicants(tt))
        assert primes == {(0b01, 0b10), (0b10, 0b01)}

    def test_xor_has_minterm_primes(self):
        tt = TruthTable.var(0, 2) ^ TruthTable.var(1, 2)
        assert set(prime_implicants(tt)) == {(0b01, 0), (0b10, 0)}

    def test_tautology(self):
        tt = TruthTable.const(True, 3)
        assert prime_implicants(tt) == [(0, 0b111)]

    def test_classic_consensus(self):
        # f = ab + ~ac has the consensus prime bc; QM must find all 3.
        a, b, c = (TruthTable.var(j, 3) for j in range(3))
        tt = (a & b) | (~a & c)
        primes = prime_implicants(tt)
        assert len(primes) == 3


class TestPrimeImplicantsOracle:
    """The set-lookup merge finds exactly the pairwise merge's primes."""

    def test_random_tables_zero_to_seven_vars(self):
        rng = random.Random(2024)
        for nvars in range(8):
            for _ in range(40):
                # Sparse, dense and uniform on-sets.
                density = rng.choice((0.1, 0.5, 0.9))
                bits = 0
                for m in range(1 << nvars):
                    if rng.random() < density:
                        bits |= 1 << m
                tt = TruthTable(nvars, bits)
                assert prime_implicants(tt) == _pairwise_prime_implicants(tt)

    def test_constants(self):
        for nvars in range(4):
            for value in (False, True):
                tt = TruthTable.const(value, nvars)
                assert prime_implicants(tt) == _pairwise_prime_implicants(tt)


class TestMinimizeTruthTable:
    def test_constant_zero(self):
        assert minimize_truth_table(TruthTable.const(False, 2)) == []

    @given(st.integers(0, 255))
    @settings(max_examples=120)
    def test_cover_is_exact(self, bits):
        tt = TruthTable(3, bits)
        cover = minimize_truth_table(tt)
        for m in range(8):
            covered = any(_implicant_covers(i, m) for i in cover)
            assert covered == bool(tt.value(m))

    @given(st.integers(0, 65535))
    @settings(max_examples=60)
    def test_cover_no_larger_than_minterms(self, bits):
        tt = TruthTable(4, bits)
        cover = minimize_truth_table(tt)
        assert len(cover) <= tt.count_ones()


class TestMinimizeCover:
    def test_redundant_cubes_removed(self):
        cover = SopCover(["a", "b"], "y", ["11", "1-", "10"])
        result = minimize_cover(cover)
        assert result.truth_table() == cover.truth_table()
        assert result.num_cubes == 1  # collapses to "1-"

    def test_phase_choice(self):
        # ~(abc) is cheaper as a single off-set cube.
        tt = ~(
            TruthTable.var(0, 3) & TruthTable.var(1, 3) & TruthTable.var(2, 3)
        )
        cover = SopCover.from_truth_table(["a", "b", "c"], "y", tt)
        result = minimize_cover(cover)
        assert result.truth_table() == tt
        assert result.num_cubes == 1
        assert result.phase == 0

    def test_constant_cover(self):
        result = minimize_cover(SopCover(["a"], "y", ["-"]))
        assert result.is_constant()
        assert result.constant_value() == 1

    def test_wide_cover_containment_only(self):
        inputs = ["x%d" % i for i in range(14)]
        wide = SopCover(inputs, "y", ["1" + "-" * 13, "11" + "-" * 12])
        result = minimize_cover(wide, max_inputs=10)
        assert result.num_cubes == 1
        assert result.truth_table().bits  # unchanged function (spot check)

    @given(st.integers(0, 255), st.integers(0, 1))
    @settings(max_examples=80)
    def test_function_preserved(self, bits, phase):
        tt = TruthTable(3, bits)
        base = SopCover.from_truth_table(["a", "b", "c"], "y", tt)
        cover = SopCover(base.inputs, "y", base.cubes, phase=1)
        if phase == 0:
            cover = SopCover(base.inputs, "y", base.cubes, phase=0)
        result = minimize_cover(cover)
        assert result.truth_table() == cover.truth_table()

    @given(st.integers(1, 255))
    @settings(max_examples=60)
    def test_never_more_cubes_than_input(self, bits):
        tt = TruthTable(3, bits)
        cover = SopCover.from_truth_table(["a", "b", "c"], "y", tt)
        result = minimize_cover(cover)
        assert result.num_cubes <= max(1, cover.num_cubes)


class TestMinimizeFunction:
    @given(st.integers(0, 65535))
    @settings(max_examples=60)
    def test_same_cover_as_minterm_round_trip(self, bits):
        tt = TruthTable(4, bits)
        inputs = ["a", "b", "c", "d"]
        direct = minimize_function(inputs, "y", tt)
        via_cover = minimize_cover(SopCover.from_truth_table(inputs, "y", tt))
        assert direct.cubes == via_cover.cubes
        assert direct.phase == via_cover.phase
        assert direct.truth_table() == tt

    def test_constants_are_cubeless(self):
        for value in (False, True):
            cover = minimize_function(["a", "b"], "y", TruthTable.const(value, 2))
            assert cover.cubes == ()
            assert cover.is_constant()
            assert cover.constant_value() == int(value)


class TestModelIntegration:
    def test_minimize_model_tables(self):
        from repro.blif.parser import parse_blif
        from repro.blif.convert import blif_to_network
        from repro.network.simulate import output_truth_tables
        from repro.opt.minimize import minimize_model_tables

        text = """
.model m
.inputs a b c
.outputs y
.names a b c y
111 1
110 1
101 1
100 1
011 1
.end
"""
        model = parse_blif(text)
        before = output_truth_tables(blif_to_network(model))
        model = minimize_model_tables(model)
        after = output_truth_tables(blif_to_network(model))
        assert before == after
        assert model.tables[0].num_cubes <= 2  # a + bc
