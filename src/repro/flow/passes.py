"""The pass contract, the built-in passes, and the mapper table.

A *pass* is one stage of a mapping flow.  Every pass declares the domain
it consumes and the domain it produces, so a :class:`~repro.flow.engine.Flow`
can type-check stage chaining at construction time:

* :class:`NetworkPass` — ``BooleanNetwork -> BooleanNetwork`` (sweep,
  strash, refactor);
* :class:`MapPass` — ``BooleanNetwork -> LUTCircuit``: one row of
  :data:`MAP_PASSES` per technology mapper (chortle, cutmap,
  cutmap_delay, mis, flowmap, binpack, depthbounded);
* :class:`CircuitPass` — ``LUTCircuit -> LUTCircuit`` (LUT merging).

:data:`MAP_PASSES` is the one place a mapper is built.  Each row names
a mapper, builds it, and says what it can do: the K range it supports,
whether it records decision provenance, whether it honours the memo
cache.  Flows, the ``mappers`` listing and
:func:`~repro.flow.mappers.resolve_mapper` all read these rows.

Passes hold no run state: a map pass reads K and the options ``cache``,
``jobs`` and ``slack`` from the :class:`~repro.flow.engine.FlowContext`
at execution time, so one pass instance serves every flow that mentions
it.  Instrumentation (spans, delta counters, checked-mode verification)
is applied uniformly by the engine, never inside a pass.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.baseline.mis_mapper import MisMapper
from repro.core.chortle import ChortleMapper
from repro.core.cut_mapper import CutMapper
from repro.core.cuts import MAX_CUT_SIZE, MIN_CUT_SIZE
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
    """Technology mapping: one mapper of the table, as a flow stage.

    ``build(k, cache=None, jobs=1, slack=0, recorder=None)`` returns a
    ready mapper; each row's ``build`` ignores the options its mapper
    lacks.  ``k_range`` is the supported LUT-width range (``None``
    meaning unbounded above), ``records`` marks mappers that accept a
    :class:`~repro.obs.explain.DecisionRecorder`, and ``cache_aware``
    marks mappers that honour the structural memo cache.
    """

    input_domain = NETWORK
    output_domain = CIRCUIT

    def __init__(
        self,
        name: str,
        build: Callable[..., object],
        description: str,
        k_range: Tuple[int, Optional[int]] = (2, None),
        records: bool = False,
        cache_aware: bool = False,
    ):
        self.name = name
        self.build = build
        self.description = description
        self.k_range = k_range
        self.records = records
        self.cache_aware = cache_aware

    def mapper(self, k: int, explain: bool = False, **options):
        """The row's mapper at width ``k``, recording decisions if asked."""
        recorder = None
        if explain and self.records:
            from repro.obs.explain import DecisionRecorder

            recorder = DecisionRecorder()
        return self.build(k, recorder=recorder, **options)

    def run(self, value: BooleanNetwork, ctx) -> LUTCircuit:
        mapper = self.mapper(
            ctx.k,
            ctx.explain,
            cache=ctx.option("cache"),
            jobs=ctx.option("jobs", 1),
            slack=ctx.option("slack", 0),
        )
        circuit = mapper.map(value)
        ctx.explanation = getattr(mapper, "explanation", None)
        return circuit


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
        return refactor_network(value)


# -- the mapper table --------------------------------------------------------


def _cut_mapper(mode: str) -> Callable[..., CutMapper]:
    """The ``build`` of a cut-mapper row: one objective, ``area`` or ``depth``."""
    return lambda k, cache=None, recorder=None, **_: CutMapper(
        k=k, mode=mode, cache=cache, recorder=recorder
    )


#: Every technology mapper, in listing order.
MAP_PASSES: Tuple[MapPass, ...] = (
    MapPass(
        "chortle",
        lambda k, cache=None, jobs=1, recorder=None, **_: ChortleMapper(
            k=k, cache=cache, jobs=jobs, recorder=recorder
        ),
        "tree-DP area mapper (the paper's algorithm)",
        records=True,
        cache_aware=True,
    ),
    MapPass(
        "cutmap",
        _cut_mapper("area"),
        "priority-cut DAG covering (area flow + exact-area recovery)",
        (MIN_CUT_SIZE, MAX_CUT_SIZE),
        records=True,
        cache_aware=True,
    ),
    MapPass(
        "cutmap_delay",
        _cut_mapper("depth"),
        "priority-cut DAG covering, depth first",
        (MIN_CUT_SIZE, MAX_CUT_SIZE),
        records=True,
        cache_aware=True,
    ),
    MapPass(
        "mis",
        lambda k, **_: MisMapper(k=k),
        "MIS II library-matching baseline (kernel libraries stop at K=5)",
        (2, 5),
    ),
    MapPass(
        "flowmap",
        lambda k, **_: FlowMapper(k=k),
        "depth-optimal max-flow min-cut mapping",
    ),
    MapPass(
        "binpack",
        lambda k, **_: BinPackMapper(k=k),
        "fast first-fit-decreasing bin packing",
    ),
    MapPass(
        "depthbounded",
        lambda k, slack=0, **_: DepthBoundedMapper(k=k, slack=slack),
        "minimum area under a depth bound",
    ),
)


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


#: One shared instance of every built-in pass, keyed by spec name.
PASSES: Dict[str, Pass] = {
    p.name: p
    for p in (
        SweepPass(),
        StrashPass(),
        RefactorPass(),
        *MAP_PASSES,
        MergePass(),
        MergePass(guard_depth=True),
    )
}
