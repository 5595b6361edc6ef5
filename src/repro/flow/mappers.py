"""The common mapper protocol and flow-to-mapper adaptation.

Everything that maps a :class:`~repro.network.network.BooleanNetwork`
into a :class:`~repro.core.lut.LUTCircuit` — the raw algorithmic mappers
(chortle, mis, flowmap, binpack, depthbounded) and the composed flows
(area, delay, custom specs) — is exposed behind one :class:`Mapper`
protocol, so the CLI and the benchmark runner resolve every name the
same way::

    resolve_mapper("chortle", k=4)                  # raw ChortleMapper
    resolve_mapper("delay", k=4)                    # registered flow
    resolve_mapper("sweep,strash,chortle", k=4)     # ad-hoc flow spec
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Protocol, Tuple

from repro.baseline.mis_mapper import MisMapper
from repro.core.chortle import ChortleMapper
from repro.core.cut_mapper import CutMapper
from repro.core.cuts import MAX_CUT_SIZE, MIN_CUT_SIZE
from repro.core.lut import LUTCircuit
from repro.errors import FlowError
from repro.extensions.binpack import BinPackMapper
from repro.extensions.flowmap import FlowMapper
from repro.extensions.pareto import DepthBoundedMapper
from repro.flow.engine import Flow, FlowContext
from repro.flow.registry import get_registry
from repro.network.network import BooleanNetwork


class Mapper(Protocol):
    """Anything that maps a boolean network into a LUT circuit."""

    name: str

    def map(self, network: BooleanNetwork) -> LUTCircuit:
        ...  # pragma: no cover - protocol


#: Factories for the raw algorithmic mappers, keyed by spec name.  Every
#: factory takes (k, **perf_opts); mappers without a parallel/memoized
#: engine simply ignore the perf options.
CORE_MAPPERS: Dict[str, Callable[..., Mapper]] = {
    "chortle": lambda k, **opts: ChortleMapper(k=k, **opts),
    "cutmap": lambda k, cache=None, recorder=None, **opts: CutMapper(
        k=k, cache=cache, recorder=recorder
    ),
    "mis": lambda k, **opts: MisMapper(k=k),
    "flowmap": lambda k, **opts: FlowMapper(k=k),
    "binpack": lambda k, **opts: BinPackMapper(k=k),
    "depthbounded": lambda k, **opts: DepthBoundedMapper(k=k, slack=0),
}

#: Raw mappers that accept a ``recorder`` and expose decision provenance.
RECORDING_MAPPERS = ("chortle", "cutmap")


class MapperCapabilities(NamedTuple):
    """What one resolvable mapper name can do (the ``mappers`` listing).

    ``kind`` is ``core`` (a raw algorithmic mapper) or ``flow`` (a
    registered pass chain); ``records_provenance`` marks mappers that
    can stream decision records into the explain engine; ``cache_aware``
    marks mappers honouring the structural memo cache; ``k_range`` is
    the supported LUT-width range, ``None`` meaning unbounded above.
    """

    name: str
    kind: str
    records_provenance: bool
    cache_aware: bool
    k_range: Tuple[int, Optional[int]]
    description: str


#: Capability rows for the raw mappers (flows derive theirs from the
#: passes they contain).
_CORE_CAPABILITIES: Dict[str, MapperCapabilities] = {
    "chortle": MapperCapabilities(
        "chortle", "core", True, True, (2, None),
        "tree-DP area mapper (the paper's algorithm)",
    ),
    "cutmap": MapperCapabilities(
        "cutmap", "core", True, True, (MIN_CUT_SIZE, MAX_CUT_SIZE),
        "priority-cut DAG covering (area flow + exact-area recovery)",
    ),
    "mis": MapperCapabilities(
        "mis", "core", False, False, (2, 5),
        "MIS II library-matching baseline (kernel libraries stop at K=5)",
    ),
    "flowmap": MapperCapabilities(
        "flowmap", "core", False, False, (2, None),
        "depth-optimal max-flow min-cut mapping",
    ),
    "binpack": MapperCapabilities(
        "binpack", "core", False, False, (2, None),
        "fast first-fit-decreasing bin packing",
    ),
    "depthbounded": MapperCapabilities(
        "depthbounded", "core", False, False, (2, None),
        "minimum area under a depth bound",
    ),
}

#: Map passes that bound K from the cut enumerator.
_CUT_PASSES = ("cutmap", "cutmap_delay")


def mapper_capabilities() -> List[MapperCapabilities]:
    """Capability rows for every resolvable mapper name, sorted by name.

    Core mappers report their intrinsic capabilities; registered flows
    inherit from the passes they chain (a flow records provenance and
    honours the cache iff it contains a recording map pass, and is
    K-bounded iff it contains a cut-enumeration pass).
    """
    rows = [
        _CORE_CAPABILITIES.get(
            name,
            MapperCapabilities(name, "core", False, False, (2, None), ""),
        )
        for name in CORE_MAPPERS
    ]
    for flow in get_registry().flows():
        pass_names = {p.name for p in flow.passes}
        records = bool(pass_names & set(RECORDING_MAPPERS + _CUT_PASSES))
        k_range: Tuple[int, Optional[int]] = (
            (MIN_CUT_SIZE, MAX_CUT_SIZE)
            if pass_names & set(_CUT_PASSES)
            else (2, None)
        )
        rows.append(
            MapperCapabilities(
                flow.name, "flow", records, records, k_range,
                flow.description or "",
            )
        )
    return sorted(rows)


class FlowMapperAdapter:
    """Runs a :class:`~repro.flow.engine.Flow` through the mapper protocol."""

    def __init__(
        self,
        flow: Flow,
        k: int = 4,
        checked: bool = False,
        lint: bool = False,
        explain: bool = False,
        config: Optional[dict] = None,
        verify_method: str = "sim",
    ):
        if not flow.is_mapping_flow:
            raise FlowError(
                "flow %r ends in a %s, not a LUT circuit; a mapping flow "
                "must finish with a map or circuit pass"
                % (flow.name, flow.output_domain)
            )
        self.flow = flow
        self.name = flow.name
        self.k = k
        self.checked = checked
        self.lint = lint
        self.explain = explain
        self.config = dict(config or {})
        self.verify_method = verify_method
        # Stage-attributed lint findings from the most recent map() call
        # (empty unless constructed with lint=True).
        self.diagnostics: List[object] = []
        # Decision provenance from the most recent map() call (None
        # unless constructed with explain=True and the flow contains a
        # decision-recording map pass).
        self.explanation = None

    def map(self, network: BooleanNetwork) -> LUTCircuit:
        ctx = FlowContext(
            k=self.k,
            checked=self.checked,
            lint=self.lint,
            explain=self.explain,
            config=self.config,
            verify_method=self.verify_method,
        )
        result = self.flow.run(network, ctx)
        self.diagnostics = list(ctx.diagnostics)
        self.explanation = ctx.explanation
        return result


def mapper_names() -> List[str]:
    """Every resolvable mapper name: raw mappers plus registered flows."""
    return sorted(set(CORE_MAPPERS) | set(get_registry().names()))


def supported_k_range(name: str) -> Tuple[int, Optional[int]]:
    """The LUT-width range the named mapper or flow supports.

    ``(lo, hi)`` with ``hi = None`` meaning unbounded above.  Unknown
    names get the permissive default — resolution will fail later with
    a clearer error than a range check could give here.
    """
    for row in mapper_capabilities():
        if row.name == name:
            return row.k_range
    return (2, None)


def supports_k(name: str, k: int) -> bool:
    """Whether the named mapper or flow can map at LUT width ``k``."""
    lo, hi = supported_k_range(name)
    return k >= lo and (hi is None or k <= hi)


def resolve_mapper(
    name: str,
    k: int,
    checked: bool = False,
    lint: bool = False,
    cache=None,
    jobs: int = 1,
    explain: bool = False,
    verify_method: str = "sim",
) -> Mapper:
    """A ready-to-run mapper for a raw-mapper name, flow name, or flow spec.

    ``cache`` and ``jobs`` are the performance-layer options (structural
    node-table memoization and tree mapping on ``jobs`` worker
    processes; see :mod:`repro.perf`); they reach the chortle engine
    whether it is resolved raw or as a stage of a flow.  The cut
    mappers honour ``cache`` only; the other mappers ignore both.

    ``explain`` turns on decision provenance: a mapper that records
    decisions (raw chortle, or any flow containing the chortle pass)
    exposes a :class:`~repro.obs.explain.MappingExplanation` as its
    ``explanation`` attribute after each ``map`` call; other mappers
    leave it ``None``.

    ``verify_method`` selects how checked mode verifies each stage:
    ``"sim"``, ``"sat"``, or ``"auto"`` (see :mod:`repro.verify`).

    Raises :class:`FlowError` for names that are neither known mappers
    nor parseable flow specs, and for ``checked`` on a raw mapper (only
    flows support per-pass verification).
    """
    registry = get_registry()
    if name in CORE_MAPPERS and name not in registry:
        if checked or lint:
            mode = "checked" if checked else "lint"
            raise FlowError(
                "mapper %r is not a flow; %s mode needs a flow "
                "(registered flows: %s)"
                % (name, mode, ", ".join(registry.names()))
            )
        opts: Dict[str, object] = {"cache": cache, "jobs": jobs}
        if explain and name in RECORDING_MAPPERS:
            from repro.obs.explain import DecisionRecorder

            opts["recorder"] = DecisionRecorder()
        return CORE_MAPPERS[name](k, **opts)
    flow = registry.resolve(name)
    config: Dict[str, object] = {}
    if cache is not None:
        config["cache"] = cache
    if jobs != 1:
        config["jobs"] = jobs
    return FlowMapperAdapter(
        flow, k=k, checked=checked, lint=lint, explain=explain, config=config,
        verify_method=verify_method,
    )
