"""Tests for the SAT engine: solver, CNF encoder, and miter checker.

Covers the CDCL solver on hand-built CNF (sat/unsat/assumptions/budget),
random-CNF fuzz against brute force, pinned search trajectories (also
under constant activity rescaling), the Tseitin encoder's special forms,
SAT-vs-exhaustive-simulation agreement on random networks across mappers
(the issue's acceptance fuzz), and per-LUT localization of a
deliberately corrupted LUT with a concrete counterexample.
"""

import itertools
import random

import pytest

import repro.sat.solver as solver_module
from repro.bench.adversarial import adversarial_preset
from repro.core.chortle import ChortleMapper
from repro.core.lut import LUTCircuit
from repro.errors import SatError, VerificationError
from repro.flow.mappers import resolve_mapper
from repro.network.network import BooleanNetwork, Signal
from repro.network.simulate import exhaustive_input_words, simulate
from repro.sat import (
    CdclSolver,
    Encoder,
    SolverStats,
    check_equivalence,
    check_per_lut,
    luby,
)
from repro.truth.truthtable import TruthTable
from repro.verify import verify_equivalence

from tests.util import make_random_network


def _pigeonhole(pigeons, holes):
    """A solver loaded with PHP(pigeons, holes): UNSAT when pigeons > holes."""
    s = CdclSolver()
    var = {(p, h): s.new_var() for p in range(pigeons) for h in range(holes)}
    for p in range(pigeons):
        s.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-var[p1, h], -var[p2, h]])
    return s


def _fuzz_against_brute_force():
    """Random small CNFs: verdicts match brute force, models satisfy."""
    rng = random.Random(2026)
    for trial in range(60):
        nvars = rng.randint(1, 8)
        nclauses = rng.randint(1, 4 * nvars)
        clauses = []
        for _ in range(nclauses):
            width = rng.randint(1, min(3, nvars))
            chosen = rng.sample(range(1, nvars + 1), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        brute = any(
            all(
                any(
                    (assignment >> (abs(lit) - 1)) & 1 == (lit > 0)
                    for lit in clause
                )
                for clause in clauses
            )
            for assignment in range(1 << nvars)
        )
        s = CdclSolver()
        for _ in range(nvars):
            s.new_var()
        ok = True
        for clause in clauses:
            ok = s.add_clause(clause) and ok
        got = ok and s.solve()
        assert got == brute, "trial %d: solver %s, brute force %s" % (
            trial, got, brute,
        )
        if got:  # the model must actually satisfy every clause
            for clause in clauses:
                assert any(
                    s.model_value(abs(lit)) == (lit > 0) for lit in clause
                )


def _random_3sat_under_assumptions():
    """Six assumption solves on one seeded 100-var, 426-clause 3-SAT CNF."""
    rng = random.Random(12)
    s = CdclSolver()
    lits = [s.new_var() for _ in range(100)]
    clauses = []
    for _ in range(426):
        chosen = rng.sample(lits, 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        s.add_clause(clauses[-1])
    verdicts = []
    for _ in range(6):
        assumed = [v if rng.random() < 0.5 else -v for v in rng.sample(lits, 4)]
        verdict = s.solve(assumed)
        verdicts.append(verdict)
        if verdict:
            for clause in clauses + [[lit] for lit in assumed]:
                assert any(
                    s.model_value(abs(lit)) == (lit > 0) for lit in clause
                )
    return s, verdicts


def _adv_add10_miter_stats():
    net = adversarial_preset("adv_add10")
    result = check_equivalence(net, ChortleMapper(k=4).map(net))
    assert result.equivalent
    return {name: result.stats[name] for name in SolverStats.__slots__}


def _stats(solves, decisions, propagations, conflicts, learned, restarts):
    return {
        "solves": solves,
        "decisions": decisions,
        "propagations": propagations,
        "conflicts": conflicts,
        "learned": learned,
        "restarts": restarts,
    }


class TestSearchTrajectory:
    """The solver's search is pinned, counter for counter.

    The expected counters were recorded from the textbook solver (DIMACS
    literals throughout, one VSIDS heap push per bump and per
    unassignment).  Any change to the kernel must reproduce them
    exactly: a different count means a different search, not a faster
    one.
    """

    def test_pigeonhole_5_4(self):
        s = _pigeonhole(5, 4)
        assert not s.solve()
        assert s.stats.to_dict() == _stats(1, 38, 297, 28, 27, 0)

    def test_random_3sat_under_assumptions(self):
        s, verdicts = _random_3sat_under_assumptions()
        assert verdicts == [False, False, True, False, False, False]
        assert s.stats.to_dict() == _stats(6, 560, 10213, 439, 439, 0)

    def test_adv_add10_miter(self):
        assert _adv_add10_miter_stats() == _stats(7, 320, 4647, 220, 220, 1)


class TestActivityRescale:
    """Activity rescaling, which never fires at the production limit.

    A rescale shrinks every activity but leaves queued heap entries at
    their old keys, so it is the path where a heap that skips duplicate
    entries could drift from the textbook heap.
    """

    @pytest.fixture(autouse=True)
    def _tiny_limit(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_RESCALE_LIMIT", 1e3)
        calls = []
        rescale = CdclSolver._rescale

        def counting(solver):
            calls.append(1)
            rescale(solver)

        monkeypatch.setattr(CdclSolver, "_rescale", counting)
        return calls

    def test_fuzz_against_brute_force(self):
        _fuzz_against_brute_force()

    def test_pigeonhole_unsat(self, _tiny_limit):
        assert not _pigeonhole(4, 3).solve()
        assert not _pigeonhole(6, 5).solve()
        assert _tiny_limit, "the limit is too high to exercise rescaling"

    def test_trajectories_match_textbook_heap(self, _tiny_limit):
        # Recorded from the textbook solver under the same 1e3 limit.
        s, verdicts = _random_3sat_under_assumptions()
        assert verdicts == [False, False, True, False, False, False]
        assert s.stats.to_dict() == _stats(6, 1059, 16958, 778, 778, 4)
        assert _adv_add10_miter_stats() == _stats(7, 431, 5760, 274, 274, 1)
        assert _tiny_limit


class TestSolver:
    def test_trivial_sat(self):
        s = CdclSolver()
        a, b = s.new_var(), s.new_var()
        assert s.add_clause([a, b])
        assert s.add_clause([-a])
        assert s.solve()
        assert not s.model_value(a)
        assert s.model_value(b)

    def test_trivial_unsat(self):
        s = CdclSolver()
        a = s.new_var()
        s.add_clause([a])
        assert not s.add_clause([-a]) or not s.solve()

    def test_empty_clause_is_unsat(self):
        s = CdclSolver()
        assert not s.add_clause([])
        assert not s.solve()

    def test_tautology_is_dropped(self):
        s = CdclSolver()
        a = s.new_var()
        assert s.add_clause([a, -a])
        assert s.solve()

    def test_three_var_unsat_core(self):
        # All eight clauses over three variables: classically UNSAT.
        s = CdclSolver()
        lits = [s.new_var() for _ in range(3)]
        for signs in itertools.product((1, -1), repeat=3):
            s.add_clause([sign * lit for sign, lit in zip(signs, lits)])
        assert not s.solve()

    def test_assumptions(self):
        s = CdclSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve([-a])  # forces b
        assert s.model_value(b)
        assert s.solve([a])
        # Contradictory assumptions: UNSAT under them, SAT again without.
        s.add_clause([-a, -b])
        assert not s.solve([a, b])
        assert s.solve()

    def test_assumption_of_fixed_literal(self):
        s = CdclSolver()
        a = s.new_var()
        s.add_clause([a])
        assert s.solve([a])
        assert not s.solve([-a])
        assert s.solve()  # solver state survives a failed assumption

    def test_conflict_budget_raises(self):
        rng = random.Random(11)
        s = CdclSolver()
        lits = [s.new_var() for _ in range(30)]
        for _ in range(130):
            clause = rng.sample(lits, 3)
            s.add_clause([lit if rng.random() < 0.5 else -lit for lit in clause])
        with pytest.raises(SatError):
            s.solve(max_conflicts=1)

    def test_pigeonhole_unsat(self):
        # PHP(4,3): 4 pigeons into 3 holes — UNSAT, needs real learning.
        s = _pigeonhole(4, 3)
        assert not s.solve()
        assert s.stats.conflicts > 0

    def test_fuzz_against_brute_force(self):
        _fuzz_against_brute_force()

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
    def test_non_int_literals_rejected(self, bad):
        # bool is an int subclass: True must not silently mean literal 1.
        s = CdclSolver()
        a = s.new_var()
        with pytest.raises(SatError):
            s.add_clause([bad])
        with pytest.raises(SatError):
            s.solve([bad])
        assert s.solve([a])
        with pytest.raises(SatError):
            s.model_value(bad)
        assert s.model_value(a)

    def test_luby_sequence(self):
        assert [luby(i) for i in range(1, 10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1]


class TestEncoder:
    def _exhaustive_agree(self, net):
        """The CNF projection of every output equals exhaustive simulation."""
        solver = CdclSolver()
        encoder = Encoder(solver)
        from repro.sat.cnf import network_output_lits

        out_lits = network_output_lits(net, encoder.encode_network(net))
        inputs = sorted(net.inputs)
        words = exhaustive_input_words(net.inputs)
        width = 1 << len(inputs)
        values = simulate(net, words, width)
        for m in range(width):
            assumptions = []
            for name in inputs:
                lit = encoder.input_lit(name)
                bit = (words[name] >> m) & 1
                assumptions.append(lit if bit else -lit)
            assert solver.solve(assumptions)
            for port, sig in net.outputs.items():
                expected = (values[sig.name] >> m) & 1
                if sig.inv:
                    expected ^= 1
                lit = out_lits[port]
                if encoder.is_true(lit):
                    got = 1
                elif encoder.is_false(lit):
                    got = 0
                else:
                    got = int(solver.model_value(lit))
                assert got == expected, (port, m)

    def test_network_encoding_matches_simulation(self):
        self._exhaustive_agree(make_random_network(7, num_inputs=5, num_gates=9))

    def test_lut_special_forms(self):
        # parity, single-minterm, single-maxterm, constants, inverters:
        # every nvars<=4 table must encode to the same function.
        rng = random.Random(5)
        tables = [
            TruthTable(3, 0b10010110),  # 3-input parity
            TruthTable(3, 0b01101001),  # complement parity
            TruthTable(2, 0b1000),  # AND
            TruthTable(2, 0b0111),  # NAND
            TruthTable(1, 0b01),  # inverter
            TruthTable(1, 0b10),  # buffer
            TruthTable(2, 0b0000),  # constant 0
            TruthTable(2, 0b1111),  # constant 1
            TruthTable(3, 0b11001100),  # depends only on var 1
        ]
        tables += [
            TruthTable(4, rng.getrandbits(16)) for _ in range(12)
        ]
        for tt in tables:
            solver = CdclSolver()
            encoder = Encoder(solver)
            lits = [encoder.input_lit("i%d" % j) for j in range(tt.nvars)]
            out = encoder.lit_lut(tt, lits)
            for m in range(1 << tt.nvars):
                assumptions = [
                    lit if (m >> j) & 1 else -lit
                    for j, lit in enumerate(lits)
                ]
                expected = bool(tt.value(m))
                if encoder.is_true(out):
                    got = True
                elif encoder.is_false(out):
                    got = False
                else:
                    assert solver.solve(assumptions)
                    got = solver.model_value(out)
                assert got == expected, (tt, m)

    def test_strash_shares_structure(self):
        solver = CdclSolver()
        encoder = Encoder(solver)
        a, b = encoder.input_lit("a"), encoder.input_lit("b")
        x = encoder.lit_and([a, b])
        y = encoder.lit_and([b, a])  # same key after sorting
        assert x == y
        assert encoder.strash_hits >= 1


def _corrupt_one_lut(circuit, name, flip_mask=None):
    """A copy of ``circuit`` with one LUT's table XORed with a mask.

    The default mask complements the whole table, which is guaranteed
    to change the wire on every reachable assignment; a single-row flip
    can silently land on an unreachable row of a correlated cone.
    """
    bad = LUTCircuit(circuit.name + "_bad")
    for inp in circuit.inputs:
        bad.add_input(inp)
    for lut_name in circuit.topological_order():
        lut = circuit.lut(lut_name)
        tt = lut.tt
        if lut_name == name:
            mask = (1 << (1 << tt.nvars)) - 1 if flip_mask is None else flip_mask
            tt = TruthTable(tt.nvars, tt.bits ^ mask)
        bad.add_lut(lut.name, lut.inputs, tt)
    for port, wire in circuit.outputs.items():
        bad.set_output(port, wire)
    return bad


class TestMiter:
    def test_equivalent_mapping_proves(self, fig1):
        circuit = ChortleMapper(k=4).map(fig1)
        result = check_equivalence(fig1, circuit)
        assert result.equivalent
        assert result.method == "sat"
        assert result.stats["vars"] > 0

    def test_simulation_refutes_with_counterexample(self, fig1):
        circuit = ChortleMapper(k=4).map(fig1)
        root = circuit.outputs["z"]
        bad = _corrupt_one_lut(circuit, root)
        result = check_equivalence(fig1, bad)
        assert not result.equivalent
        assert result.counterexample is not None
        assert set(result.counterexample) == set(fig1.inputs)
        assert result.expected != result.actual
        # The counterexample must actually reproduce the mismatch.
        words = {n: v for n, v in result.counterexample.items()}
        got = bad.simulate(words, 1)[circuit.outputs[result.failing_output]]
        assert got & 1 == result.actual

    def test_sat_refutes_without_simulation(self, fig1):
        circuit = ChortleMapper(k=4).map(fig1)
        bad = _corrupt_one_lut(circuit, circuit.outputs["z"])
        result = check_equivalence(fig1, bad, use_simulation=False)
        assert not result.equivalent
        assert result.method == "sat"
        assert result.counterexample is not None

    def test_interface_mismatch_raises(self, fig1):
        wrong = LUTCircuit("w")
        wrong.add_input("zz")
        with pytest.raises(VerificationError):
            check_equivalence(fig1, wrong)

    def test_circuit_vs_circuit(self, fig1):
        a = ChortleMapper(k=3).map(fig1)
        b = ChortleMapper(k=5).map(fig1)
        assert check_equivalence(a, b).equivalent

    def test_fuzz_sat_agrees_with_exhaustive_sim(self):
        # Acceptance: SAT and exhaustive simulation agree on random
        # <=10-input networks across mappers, for both equivalent and
        # deliberately broken candidates.
        for seed, mapper_name in [
            (1, "chortle"), (2, "mis"), (3, "cutmap"),
            (4, "flowmap"), (5, "binpack"), (6, "chortle"), (7, "cutmap"),
        ]:
            net = make_random_network(
                seed, num_inputs=4 + seed % 5, num_gates=8 + 2 * seed
            )
            circuit = resolve_mapper(mapper_name, 4).map(net)
            # Equivalent direction: exhaustive sim passes and SAT proves.
            assert verify_equivalence(net, circuit, method="sim")
            assert check_equivalence(net, circuit).equivalent
            # Broken direction: both must refute.
            victim = circuit.outputs[sorted(circuit.outputs)[0]]
            if victim in circuit.inputs:
                continue  # port wired straight to an input; nothing to corrupt
            bad = _corrupt_one_lut(circuit, victim)
            assert not check_equivalence(net, bad).equivalent
            with pytest.raises(VerificationError):
                verify_equivalence(net, bad, method="sim")


class TestPerLut:
    def test_clean_mapping_all_cones_prove(self, fig1):
        circuit = ChortleMapper(k=4).map(fig1)
        result = check_per_lut(fig1, circuit)
        assert result.equivalent
        assert result.checked_luts > 0
        assert result.failing_lut is None

    def test_localizes_injected_corruption(self):
        # Acceptance: corrupt exactly one named LUT; per-LUT checking
        # must name that LUT and carry a concrete counterexample.
        net = make_random_network(9, num_inputs=6, num_gates=14)
        circuit = ChortleMapper(k=4).map(net)
        words = exhaustive_input_words(net.inputs)
        width = 1 << len(net.inputs)
        full = (1 << width) - 1
        base = circuit.simulate(words, width)
        victims = [
            name
            for name in circuit.topological_order()
            if name in net and circuit.lut(name).tt.nvars >= 2
        ]
        # Find a single-row flip that is reachable (the wire actually
        # changes) and not a pure complement (per-LUT treats inverted
        # cones as legal polarity choices, not corruption).
        chosen = None
        for victim in victims:
            tt = circuit.lut(victim).tt
            for row in range(1 << tt.nvars):
                bad = _corrupt_one_lut(circuit, victim, 1 << row)
                word = bad.simulate(words, width)[victim]
                if word != base[victim] and word != ~base[victim] & full:
                    chosen = (victim, bad)
                    break
            if chosen:
                break
        assert chosen is not None, "no reachable single-row corruption found"
        victim, bad = chosen
        result = check_per_lut(net, bad)
        assert not result.equivalent
        assert result.failing_lut == victim
        assert result.counterexample is not None
        assert result.expected != result.actual
        # Replaying the counterexample reproduces the corrupted value.
        got = bad.simulate(dict(result.counterexample), 1)[victim]
        assert got & 1 == result.actual

    def test_inverted_cone_reported_not_failed(self):
        net = BooleanNetwork("inv")
        for n in ("a", "b"):
            net.add_input(n)
        net.add_gate("g", "and", [Signal("a"), Signal("b")])
        net.set_output("o", Signal("g"))
        circuit = LUTCircuit("cand")
        for n in ("a", "b"):
            circuit.add_input(n)
        # The candidate computes NAND at wire "g" (complement cone) and
        # fixes polarity downstream — legal mapper behavior.
        circuit.add_lut("g", ("a", "b"), TruthTable(2, 0b0111))
        circuit.add_lut("o", ("g",), TruthTable(1, 0b01))
        circuit.set_output("o", "o")
        result = check_per_lut(net, circuit)
        assert result.equivalent
        assert "g" in result.inverted_luts
