"""The pass contract and the built-in passes.

A *pass* is one stage of a mapping flow.  Every pass declares the domain
it consumes and the domain it produces, so a :class:`~repro.flow.engine.Flow`
can type-check stage chaining at construction time:

* :class:`NetworkPass` — ``BooleanNetwork -> BooleanNetwork`` (sweep,
  strash, refactor);
* :class:`MapPass` — ``BooleanNetwork -> LUTCircuit`` (the technology
  mappers: chortle, depthbounded, mis, flowmap, binpack);
* :class:`CircuitPass` — ``LUTCircuit -> LUTCircuit`` (LUT merging).

Passes are stateless and parameterless by design: everything run-specific
(K, slack, split threshold) is read from the
:class:`~repro.flow.engine.FlowContext` at execution time, so one pass
instance can be shared by every flow that mentions it.  Instrumentation
(spans, delta counters, checked-mode verification) is applied uniformly
by the engine, never inside a pass.
"""

from __future__ import annotations

from repro.baseline.mis_mapper import MisMapper
from repro.core.chortle import ChortleMapper
from repro.core.lut import LUTCircuit
from repro.extensions.binpack import BinPackMapper
from repro.extensions.flowmap import FlowMapper
from repro.extensions.lutmerge import merge_luts
from repro.extensions.pareto import DepthBoundedMapper
from repro.network.network import BooleanNetwork
from repro.network.transform import strash, sweep
from repro.obs import metrics
from repro.opt.refactor import refactor_network

# The two value domains a pass can consume or produce.
NETWORK = "network"
CIRCUIT = "circuit"


class Pass:
    """One stage of a flow; subclasses fix the domains and implement run."""

    name: str = "pass"
    input_domain: str = NETWORK
    output_domain: str = NETWORK

    def run(self, value, ctx):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<%s %s: %s -> %s>" % (
            type(self).__name__,
            self.name,
            self.input_domain,
            self.output_domain,
        )


class NetworkPass(Pass):
    """A network-preserving transformation (cleanup, restructuring)."""

    input_domain = NETWORK
    output_domain = NETWORK

    def run(self, value: BooleanNetwork, ctx) -> BooleanNetwork:
        raise NotImplementedError


class MapPass(Pass):
    """Technology mapping: turns a network into a circuit of K-input LUTs."""

    input_domain = NETWORK
    output_domain = CIRCUIT

    def run(self, value: BooleanNetwork, ctx) -> LUTCircuit:
        raise NotImplementedError


class CircuitPass(Pass):
    """A post-mapping transformation over the LUT circuit."""

    input_domain = CIRCUIT
    output_domain = CIRCUIT

    def run(self, value: LUTCircuit, ctx) -> LUTCircuit:
        raise NotImplementedError


# -- network passes ----------------------------------------------------------


class SweepPass(NetworkPass):
    """Constant propagation, buffer collapse, unreachable-node removal."""

    name = "sweep"

    def run(self, value: BooleanNetwork, ctx) -> BooleanNetwork:
        return sweep(value)


class StrashPass(NetworkPass):
    """Structural hashing: share identical gates (same op and fanins)."""

    name = "strash"

    def run(self, value: BooleanNetwork, ctx) -> BooleanNetwork:
        return strash(value)


class RefactorPass(NetworkPass):
    """Collapse-minimize-refactor every small fanout-free tree."""

    name = "refactor"

    def run(self, value: BooleanNetwork, ctx) -> BooleanNetwork:
        return refactor_network(
            value,
            max_leaves=ctx.option("refactor_max_leaves", 10),
            min_nodes=ctx.option("refactor_min_nodes", 2),
        )


# -- map passes --------------------------------------------------------------


class ChortlePass(MapPass):
    """The paper's tree-DP mapper (area-optimal per fanout-free tree).

    Honours the performance-layer context options: ``cache`` (a
    :class:`~repro.perf.memo.NodeTableCache`, or ``True`` for the shared
    one) and ``jobs`` — see :mod:`repro.perf`.
    """

    name = "chortle"

    def run(self, value: BooleanNetwork, ctx) -> LUTCircuit:
        recorder = None
        if getattr(ctx, "explain", False):
            from repro.obs.explain import DecisionRecorder

            recorder = DecisionRecorder()
        mapper = ChortleMapper(
            k=ctx.k,
            split_threshold=ctx.option("split_threshold", 10),
            cache=ctx.option("cache"),
            jobs=ctx.option("jobs", 1),
            recorder=recorder,
        )
        circuit = mapper.map(value)
        if recorder is not None:
            ctx.explanation = mapper.explanation
        return circuit


class CutMapPass(MapPass):
    """Priority-cut DAG covering (:class:`~repro.core.cut_mapper.CutMapper`).

    One shared class serves both objectives: ``CutMapPass()`` registers
    as ``cutmap`` (area-flow covering), ``CutMapPass(mode="depth")`` as
    ``cutmap_delay`` (depth-first covering).  Honours the context
    options ``priority_size``, ``rounds``, and ``cache``, and records
    decision provenance when the context asks for it.
    """

    def __init__(self, mode: str = "area"):
        self.mode = mode
        self.name = "cutmap" if mode == "area" else "cutmap_delay"

    def run(self, value: BooleanNetwork, ctx) -> LUTCircuit:
        from repro.core.cut_mapper import CutMapper
        from repro.core.cuts import DEFAULT_PRIORITY_SIZE

        recorder = None
        if getattr(ctx, "explain", False):
            from repro.obs.explain import DecisionRecorder

            recorder = DecisionRecorder()
        mapper = CutMapper(
            k=ctx.k,
            priority_size=ctx.option("priority_size", DEFAULT_PRIORITY_SIZE),
            mode=self.mode,
            rounds=ctx.option("rounds", 2),
            cache=ctx.option("cache"),
            recorder=recorder,
        )
        circuit = mapper.map(value)
        if recorder is not None:
            ctx.explanation = mapper.explanation
        return circuit


class DepthBoundedPass(MapPass):
    """Minimum-area mapping under a depth bound (``slack`` from the context)."""

    name = "depthbounded"

    def run(self, value: BooleanNetwork, ctx) -> LUTCircuit:
        mapper = DepthBoundedMapper(
            k=ctx.k,
            slack=ctx.option("slack", 0),
            split_threshold=ctx.option("split_threshold", 10),
        )
        return mapper.map(value)


class MisPass(MapPass):
    """The MIS II / DAGON-style library-based baseline mapper."""

    name = "mis"

    def run(self, value: BooleanNetwork, ctx) -> LUTCircuit:
        return MisMapper(k=ctx.k).map(value)


class FlowMapPass(MapPass):
    """FlowMap: depth-optimal mapping via min-height K-feasible cuts."""

    name = "flowmap"

    def run(self, value: BooleanNetwork, ctx) -> LUTCircuit:
        return FlowMapper(k=ctx.k).map(value)


class BinPackPass(MapPass):
    """Fast first-fit-decreasing bin-packing mapper."""

    name = "binpack"

    def run(self, value: BooleanNetwork, ctx) -> LUTCircuit:
        return BinPackMapper(k=ctx.k).map(value)


# -- circuit passes ----------------------------------------------------------


class MergePass(CircuitPass):
    """Fold single-fanout tables into their readers (area recovery).

    With ``guard_depth`` the merged circuit is kept only if its depth did
    not grow; a rejected merge is counted as ``pipeline.merge_rejected``
    (and is visible as an unchanged LUT count on the stage span) instead
    of being dropped invisibly.
    """

    def __init__(self, guard_depth: bool = False):
        self.guard_depth = guard_depth
        self.name = "merge_guarded" if guard_depth else "merge"

    def run(self, value: LUTCircuit, ctx) -> LUTCircuit:
        if not self.guard_depth:
            return merge_luts(value, ctx.k)
        before = value.depth()
        merged = merge_luts(value, ctx.k)
        # Folding a single-fanout table into its reader keeps the
        # reader's level, so depth should never grow; count (rather than
        # silently discard) the merge if the invariant ever fails.
        if merged.depth() > before:
            metrics.count("pipeline.merge_rejected")
            return value
        return merged


def builtin_passes():
    """One shared instance of every built-in pass, keyed by name."""
    passes = [
        SweepPass(),
        StrashPass(),
        RefactorPass(),
        ChortlePass(),
        CutMapPass(),
        CutMapPass(mode="depth"),
        DepthBoundedPass(),
        MisPass(),
        FlowMapPass(),
        BinPackPass(),
        MergePass(),
        MergePass(guard_depth=True),
    ]
    return {p.name: p for p in passes}
