"""Tests for the composed mapping pipelines."""

import pytest

from tests.util import make_random_network
from repro.core.chortle import ChortleMapper
from repro.flow import resolve_mapper
from repro.pipeline import map_area, map_delay
from repro.verify import verify_equivalence


class TestMapArea:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_equivalence(self, seed, k):
        net = make_random_network(seed, num_gates=15)
        circuit = map_area(net, k=k)
        verify_equivalence(net, circuit)
        circuit.validate(k)

    @pytest.mark.parametrize("seed", range(8))
    def test_never_worse_than_plain_chortle(self, seed):
        net = make_random_network(seed, num_gates=15)
        plain = ChortleMapper(k=4).map(net).cost
        composed = map_area(net, k=4).cost
        assert composed <= plain

    def test_finds_sharing_and_redundancy(self):
        """A network with a duplicated cone and a redundant term: the
        composed flow must beat plain Chortle strictly."""
        from repro.network.builder import NetworkBuilder

        b = NetworkBuilder("messy")
        a, c, d, e = b.inputs("a", "c", "d", "e")
        # Same subfunction built twice:
        g1 = b.and_(a, c, name="g1")
        g2 = b.and_(c, a, name="g2")
        # A redundant absorbed term inside one cone: acd is absorbed by ac.
        t1 = b.or_(g1, b.and_(a, c, d, name="t"), name="o1")
        t2 = b.or_(g2, e, name="o2")
        b.output("y1", t1)
        b.output("y2", t2)
        net = b.network()
        plain = ChortleMapper(k=4).map(net).cost
        composed = map_area(net, k=4).cost
        assert composed <= plain

    def test_flags(self):
        """The refactor and merge stages never cost LUTs on this net."""
        net = make_random_network(2, num_gates=12)
        raw = resolve_mapper("sweep,strash,chortle", 4).map(net)
        full = map_area(net, k=4)
        verify_equivalence(net, raw)
        assert full.cost <= raw.cost


class TestMapDelay:
    @pytest.mark.parametrize("seed", range(8))
    def test_equivalence_and_depth(self, seed):
        net = make_random_network(seed, num_gates=15)
        fast = map_delay(net, k=4, slack=0)
        verify_equivalence(net, fast)
        area = map_area(net, k=4)
        assert fast.depth() <= area.depth()

    @pytest.mark.parametrize("seed", range(5))
    def test_slack_trades_area(self, seed):
        net = make_random_network(seed, num_gates=15)
        tight = map_delay(net, k=4, slack=0)
        loose = map_delay(net, k=4, slack=1000)
        assert loose.cost <= tight.cost
