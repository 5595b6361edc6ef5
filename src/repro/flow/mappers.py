"""The common mapper protocol and the one mapper resolver.

Everything that maps a :class:`~repro.network.network.BooleanNetwork`
into a :class:`~repro.core.lut.LUTCircuit` — the raw algorithmic mappers
of :data:`~repro.flow.passes.MAP_PASSES` and the composed flows (area,
delay, custom specs) — is exposed behind one :class:`Mapper` protocol,
and :func:`resolve_mapper` is the only place a name becomes a mapper,
so the CLI, the benchmark runner and the lint suite resolve every name
the same way::

    resolve_mapper("chortle", k=4)                  # raw ChortleMapper
    resolve_mapper("chortle", k=4, checked=True)    # its one-stage flow
    resolve_mapper("delay", k=4)                    # registered flow
    resolve_mapper("sweep,strash,chortle", k=4)     # ad-hoc flow spec
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Protocol, Tuple

from repro.core.lut import LUTCircuit
from repro.errors import FlowError
from repro.flow.engine import Flow, FlowContext
from repro.flow.passes import MAP_PASSES, PASSES, MapPass
from repro.flow.registry import get_registry
from repro.network.network import BooleanNetwork


class Mapper(Protocol):
    """Anything that maps a boolean network into a LUT circuit."""

    name: str

    def map(self, network: BooleanNetwork) -> LUTCircuit:
        ...  # pragma: no cover - protocol


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


def _capabilities(
    name: str, kind: str, row: MapPass, description: str
) -> MapperCapabilities:
    return MapperCapabilities(
        name, kind, row.records, row.cache_aware, row.k_range, description
    )


def mapper_capabilities() -> List[MapperCapabilities]:
    """Capability rows for every resolvable mapper name, sorted by name.

    Each map pass reports its own row; a registered flow reports the
    flags and K range of its one map pass, under its own description.
    """
    rows = [_capabilities(p.name, "core", p, p.description) for p in MAP_PASSES]
    rows.extend(
        _capabilities(f.name, "flow", _map_pass(f), f.description)
        for f in get_registry().flows()
    )
    return sorted(rows)


def _map_pass(flow: Flow) -> MapPass:
    """The one map pass of a mapping flow; FlowError for any other flow."""
    row = flow.map_pass
    if row is None:
        raise FlowError(
            "flow %r ends in a %s, not a LUT circuit; a mapping flow "
            "must finish with a map or circuit pass"
            % (flow.name, flow.output_domain)
        )
    return row


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
        _map_pass(flow)
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
    """Every resolvable mapper name: map passes plus registered flows."""
    return sorted([p.name for p in MAP_PASSES] + get_registry().names())


def supported_k_range(name: str) -> Tuple[int, Optional[int]]:
    """The LUT-width range of a mapper, registered flow, or flow spec.

    ``(lo, hi)`` with ``hi = None`` meaning unbounded above: the range of
    the map pass the name runs.  Raises :class:`FlowError` for a name
    that neither names a map pass nor resolves to a mapping flow.
    """
    row = PASSES.get(name)
    if not isinstance(row, MapPass):
        row = _map_pass(get_registry().resolve(name))
    return row.k_range


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
    """A ready-to-run mapper for a map-pass name, flow name, or flow spec.

    A map-pass name gives the raw mapper its
    :data:`~repro.flow.passes.MAP_PASSES` row builds, with no ``flow.*``
    spans or counters.  Anything else — a registered flow, a spec, or a
    map-pass name asked for ``checked`` or ``lint`` (which then runs as
    its one-stage flow) — gives a :class:`FlowMapperAdapter`.

    ``cache`` and ``jobs`` are the performance-layer options (structural
    node-table memoization and tree mapping on ``jobs`` worker
    processes; see :mod:`repro.perf`); they reach the map pass whether
    it runs raw or as a stage of a flow, and mappers without them ignore
    them.

    ``explain`` turns on decision provenance: a mapper that records
    decisions (chortle and the cut mappers, raw or in a flow) exposes a
    :class:`~repro.obs.explain.MappingExplanation` as its
    ``explanation`` attribute after each ``map`` call; other mappers
    leave it ``None``.

    ``verify_method`` selects how checked mode verifies each stage:
    ``"sim"``, ``"sat"``, or ``"auto"`` (see :mod:`repro.verify`).

    Raises :class:`FlowError` for names that are neither map passes nor
    parseable mapping-flow specs.
    """
    row = PASSES.get(name)
    if isinstance(row, MapPass) and not (checked or lint):
        return row.mapper(k, explain, cache=cache, jobs=jobs)
    return FlowMapperAdapter(
        get_registry().resolve(name), k=k, checked=checked, lint=lint,
        explain=explain, config={"cache": cache, "jobs": jobs},
        verify_method=verify_method,
    )
