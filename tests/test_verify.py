"""Tests for the equivalence verifier."""

import pytest

from tests.util import make_random_network
from repro.core.chortle import ChortleMapper
from repro.core.lut import LUTCircuit
from repro.errors import VerificationError
from repro.network.transform import strash, sweep
from repro.obs import metrics
from repro.verify import VerifyResult, verify_equivalence


class TestVerify:
    def test_exhaustive_on_small(self, fig1):
        circuit = ChortleMapper(k=4).map(fig1)
        assert verify_equivalence(fig1, circuit) == 32  # 2**5 vectors

    def test_random_on_large(self):
        net = make_random_network(5, num_inputs=16, num_gates=20)
        circuit = ChortleMapper(k=4).map(net)
        assert verify_equivalence(net, circuit, vectors=512) == 512

    def test_detects_wrong_function(self, fig1):
        circuit = ChortleMapper(k=4).map(fig1)
        tampered = LUTCircuit("bad")
        for name in circuit.inputs:
            tampered.add_input(name)
        for lut_name in circuit.topological_order():
            lut = circuit.lut(lut_name)
            tampered.add_lut(lut.name, lut.inputs, ~lut.tt)
        for port, sig in circuit.outputs.items():
            tampered.set_output(port, sig)
        with pytest.raises(VerificationError):
            verify_equivalence(fig1, tampered)
        with pytest.raises(VerificationError):
            verify_equivalence(fig1, tampered, method="sat")

    def test_detects_missing_port(self, fig1):
        incomplete = LUTCircuit("inc")
        for name in fig1.inputs:
            incomplete.add_input(name)
        with pytest.raises(VerificationError):
            verify_equivalence(fig1, incomplete)

    def test_detects_input_mismatch(self, fig1):
        wrong = LUTCircuit("w")
        wrong.add_input("zz")
        with pytest.raises(VerificationError):
            verify_equivalence(fig1, wrong)

    def test_equivalent_true_path(self, fig1):
        assert verify_equivalence(fig1, ChortleMapper(k=3).map(fig1))

    def test_error_message_counts_vectors(self, fig1):
        circuit = ChortleMapper(k=4).map(fig1)
        tampered = LUTCircuit("bad")
        for name in circuit.inputs:
            tampered.add_input(name)
        for lut_name in circuit.topological_order():
            lut = circuit.lut(lut_name)
            tt = ~lut.tt if lut_name == "g4" else lut.tt
            tampered.add_lut(lut.name, lut.inputs, tt)
        for port, sig in circuit.outputs.items():
            tampered.set_output(port, sig)
        with pytest.raises(VerificationError, match="of 32 vectors"):
            verify_equivalence(fig1, tampered)


class TestVerifyResult:
    def test_is_int_compatible(self):
        result = VerifyResult(32, mode="exhaustive")
        assert result == 32
        assert result + 1 == 33
        assert result.proved and not result.sampled

    def test_repr_carries_verdict(self):
        result = VerifyResult(512, mode="random", sampled=True, proved=False)
        assert "sampled=True" in repr(result)


class TestVerifyMethods:
    def test_exhaustive_result_is_proof(self, fig1):
        circuit = ChortleMapper(k=4).map(fig1)
        result = verify_equivalence(fig1, circuit)
        assert result.mode == "exhaustive"
        assert result.proved and not result.sampled

    def test_random_result_is_flagged_sampled(self):
        # Satellite: the silent degradation to random vectors is now
        # visible on the result and counted.
        net = make_random_network(5, num_inputs=16, num_gates=20)
        circuit = ChortleMapper(k=4).map(net)
        before = metrics.counters()
        result = verify_equivalence(net, circuit, vectors=256, method="sim")
        assert result == 256
        assert result.mode == "random"
        assert result.sampled and not result.proved
        assert metrics.counter_delta(before).get("verify.sampled") == 1

    def test_sat_method_proves_small(self, fig1):
        circuit = ChortleMapper(k=4).map(fig1)
        before = metrics.counters()
        result = verify_equivalence(fig1, circuit, method="sat")
        assert result == 32  # 2**5: a proof covers the full space
        assert result.mode == "sat"
        assert result.proved and not result.sampled
        assert metrics.counter_delta(before).get("verify.sat_runs") == 1

    def test_auto_escalates_to_sat_above_limit(self):
        # 16 inputs > exhaustive_limit: sim would sample, auto proves.
        net = make_random_network(5, num_inputs=16, num_gates=20)
        circuit = ChortleMapper(k=4).map(net)
        result = verify_equivalence(net, circuit, method="auto")
        assert result.mode == "sat"
        assert result == 1 << 16
        assert result.proved and not result.sampled

    def test_auto_stays_exhaustive_below_limit(self, fig1):
        circuit = ChortleMapper(k=4).map(fig1)
        result = verify_equivalence(fig1, circuit, method="auto")
        assert result.mode == "exhaustive"

    def test_sat_mismatch_carries_counterexample(self, fig1):
        circuit = ChortleMapper(k=4).map(fig1)
        tampered = LUTCircuit("bad")
        for name in circuit.inputs:
            tampered.add_input(name)
        for lut_name in circuit.topological_order():
            lut = circuit.lut(lut_name)
            tt = ~lut.tt if lut_name == "g4" else lut.tt
            tampered.add_lut(lut.name, lut.inputs, tt)
        for port, sig in circuit.outputs.items():
            tampered.set_output(port, sig)
        with pytest.raises(VerificationError, match="counterexample"):
            verify_equivalence(fig1, tampered, method="sat")

    def test_unknown_method_raises(self, fig1):
        circuit = ChortleMapper(k=4).map(fig1)
        with pytest.raises(VerificationError, match="unknown verify method"):
            verify_equivalence(fig1, circuit, method="bdd")


class TestVerifyNetworkMethods:
    def test_network_pair_sat_proof(self):
        net = make_random_network(8, num_inputs=6, num_gates=12)
        cleaned = strash(sweep(net))
        result = verify_equivalence(net, cleaned, method="sat")
        assert result.mode == "sat"
        assert result == 64

    def test_network_pair_auto_below_limit(self):
        net = make_random_network(8, num_inputs=6, num_gates=12)
        result = verify_equivalence(net, sweep(net), method="auto")
        assert result.mode == "exhaustive"

    @pytest.mark.parametrize("method", ["sim", "sat"])
    @pytest.mark.parametrize("extra_in", ["candidate", "golden"])
    def test_network_candidate_needs_the_same_ports(self, extra_in, method):
        # A circuit candidate may carry extra ports; a network candidate
        # may neither add a port to the golden network nor drop one.
        net = make_random_network(8, num_inputs=6, num_gates=12)
        wider = net.copy()
        wider.set_output("extra", net.inputs[0])
        golden, candidate = (net, wider) if extra_in == "candidate" else (wider, net)
        with pytest.raises(VerificationError, match="output port sets differ"):
            verify_equivalence(golden, candidate, method=method)
