"""Lookup-table circuits: the output of technology mapping.

A :class:`LUT` is a named K-or-fewer-input lookup table holding an
explicit truth table; a :class:`LUTCircuit` is a DAG of LUTs over the
original network's primary inputs.  Inversions never appear on wires —
a lookup table absorbs any input polarity into its contents — so wires
are plain names.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import NetworkError
from repro.truth.truthtable import TruthTable


class LUTProvenance(NamedTuple):
    """Where a lookup table came from: the mapping decision that emitted it.

    ``tree`` is the root node of the fanout-free tree whose decomposition
    produced this table (for DAG-cover mappers: the pre-decomposition
    origin node); ``op`` is the operation of the (possibly virtual)
    node the table realizes; ``placements`` are the placement kinds of the
    root table's inputs (``ext`` / ``wire`` / ``merged`` for the tree
    mappers, ``cut`` — one per cut leaf — for the cut mapper), i.e. the
    shape of the winning utilization division; ``root`` marks the
    tree-root table itself.
    """

    tree: str
    op: str
    placements: Tuple[str, ...]
    root: bool

    @property
    def merged(self) -> int:
        """Child root tables absorbed into this table by the decomposition."""
        return sum(1 for kind in self.placements if kind == "merged")


class LUT(NamedTuple):
    """A single lookup table: ``output = tt(inputs[0], inputs[1], ...)``."""

    name: str
    inputs: Tuple[str, ...]
    tt: TruthTable
    provenance: Optional[LUTProvenance] = None

    @property
    def utilization(self) -> int:
        """Number of inputs actually wired (Definition 3 in the paper)."""
        return len(self.inputs)


class LUTCircuit:
    """A circuit of K-input lookup tables implementing a boolean network."""

    def __init__(self, name: str = "mapped"):
        self.name = name
        self._inputs: List[str] = []
        self._luts: Dict[str, LUT] = {}
        self._outputs: Dict[str, str] = {}

    # -- construction -----------------------------------------------------

    def add_input(self, name: str) -> str:
        if name in self._luts or name in self._inputs:
            raise NetworkError("duplicate signal name %r" % name)
        self._inputs.append(name)
        return name

    def add_lut(
        self,
        name: str,
        inputs: Iterable[str],
        tt: TruthTable,
        provenance: Optional[LUTProvenance] = None,
    ) -> str:
        if name in self._luts or name in self._inputs:
            raise NetworkError("duplicate signal name %r" % name)
        inputs = tuple(inputs)
        if tt.nvars != len(inputs):
            raise NetworkError(
                "LUT %r has %d inputs but a %d-variable table"
                % (name, len(inputs), tt.nvars)
            )
        if len(set(inputs)) != len(inputs):
            raise NetworkError("LUT %r has duplicate input wires" % name)
        self._luts[name] = LUT(name, inputs, tt, provenance)
        return name

    def set_output(self, port: str, signal: str) -> None:
        if not port:
            raise NetworkError("output port names must be non-empty")
        self._outputs[port] = signal

    def fresh_name(self, stem: str) -> str:
        if stem not in self._luts and stem not in self._inputs:
            return stem
        i = 0
        while True:
            cand = "%s_%d" % (stem, i)
            if cand not in self._luts and cand not in self._inputs:
                return cand
            i += 1

    # -- accessors ----------------------------------------------------------

    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(self._inputs)

    @property
    def outputs(self) -> Dict[str, str]:
        return dict(self._outputs)

    def luts(self) -> Iterator[LUT]:
        return iter(self._luts.values())

    def lut(self, name: str) -> LUT:
        try:
            return self._luts[name]
        except KeyError:
            raise NetworkError("no LUT named %r" % name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._luts or name in self._inputs

    @property
    def num_luts(self) -> int:
        """All lookup tables, including inverters/buffers and constants."""
        return len(self._luts)

    @property
    def cost(self) -> int:
        """LUTs with two or more inputs.

        This is the paper's area accounting: single-input tables are
        inverters or buffers, which "a simple post-processor could easily
        merge... into the lookup tables", and are not counted as logic
        blocks for either mapper.
        """
        return sum(1 for lut in self._luts.values() if len(lut.inputs) >= 2)

    def utilization_histogram(self) -> Dict[int, int]:
        hist: Dict[int, int] = {}
        for lut in self._luts.values():
            u = lut.utilization
            hist[u] = hist.get(u, 0) + 1
        return hist

    def tree_profile(self) -> Dict[str, int]:
        """Cost-counted LUTs per source tree, from per-LUT provenance.

        Only tables carrying provenance (i.e. emitted by a tree
        decomposition) contribute, under the same >=2-input accounting as
        :attr:`cost` — so ``sum(tree_profile().values()) == cost`` for a
        circuit mapped entirely by the Chortle flow, and the dict is empty
        for mappers that do not record provenance.
        """
        profile: Dict[str, int] = {}
        for lut in self._luts.values():
            if lut.provenance is not None and len(lut.inputs) >= 2:
                tree = lut.provenance.tree
                profile[tree] = profile.get(tree, 0) + 1
        return profile

    # -- structure ------------------------------------------------------------

    def topological_order(self) -> List[str]:
        """LUT names, each after all of its fanin LUTs."""
        state: Dict[str, int] = {}
        order: List[str] = []
        for root in self._luts:
            if state.get(root) == 1:
                continue
            stack = [(root, 0)]
            while stack:
                name, phase = stack.pop()
                if name in self._luts:
                    if phase == 0:
                        st = state.get(name)
                        if st == 1:
                            continue
                        if st == 0:
                            raise NetworkError("cycle through LUT %r" % name)
                        state[name] = 0
                        stack.append((name, 1))
                        for src in self._luts[name].inputs:
                            if src in self._luts and state.get(src) != 1:
                                stack.append((src, 0))
                    else:
                        if state.get(name) != 1:
                            state[name] = 1
                            order.append(name)
        return order

    def levels(self) -> Dict[str, int]:
        """LUT level of every wire: 0 for inputs and fanin-free tables,
        one more than the deepest fanin for every other LUT."""
        level: Dict[str, int] = {name: 0 for name in self._inputs}
        for name in self.topological_order():
            lut = self._luts[name]
            fanin_levels = [level.get(src, 0) for src in lut.inputs]
            level[name] = 1 + max(fanin_levels) if fanin_levels else 0
        return level

    def depth(self) -> int:
        """Longest path from inputs to outputs in LUT levels."""
        level = self.levels()
        if not self._outputs:
            return 0
        return max(level.get(sig, 0) for sig in self._outputs.values())

    def validate(self, k: Optional[int] = None) -> None:
        """Check wire integrity, acyclicity, and (optionally) the K bound."""
        for lut in self._luts.values():
            for src in lut.inputs:
                if src not in self:
                    raise NetworkError(
                        "LUT %r reads undefined wire %r" % (lut.name, src)
                    )
            if k is not None and len(lut.inputs) > k:
                raise NetworkError(
                    "LUT %r has %d inputs, exceeding K=%d"
                    % (lut.name, len(lut.inputs), k)
                )
        for port, sig in self._outputs.items():
            if sig not in self:
                raise NetworkError(
                    "output %r references undefined wire %r" % (port, sig)
                )
        self.topological_order()

    # -- evaluation ---------------------------------------------------------

    def simulate(self, input_words: Mapping[str, int], width: int) -> Dict[str, int]:
        """Bit-parallel evaluation, mirroring network simulation."""
        mask = (1 << width) - 1
        values: Dict[str, int] = {}
        for name in self._inputs:
            try:
                values[name] = input_words[name] & mask
            except KeyError:
                raise NetworkError("no value supplied for input %r" % name) from None
        for name in self.topological_order():
            lut = self._luts[name]
            words = [values[src] for src in lut.inputs]
            out = 0
            for m in lut.tt.minterms():
                term = mask
                for j, word in enumerate(words):
                    term &= word if (m >> j) & 1 else ~word & mask
                out |= term
                if out == mask:
                    break
            values[name] = out
        return values

    def __repr__(self) -> str:
        return "LUTCircuit(%r, inputs=%d, luts=%d, cost=%d)" % (
            self.name,
            len(self._inputs),
            self.num_luts,
            self.cost,
        )
