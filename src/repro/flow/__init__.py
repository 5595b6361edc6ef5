"""Declarative mapping flows: typed pass chains with uniform checking.

The flow engine is the one place the repository composes mapping
pipelines and builds mappers.  A *pass* transforms a network or a LUT
circuit, and the map passes form the one table of technology mappers
(:mod:`repro.flow.passes`); a *flow* is a type-checked chain of passes
(:mod:`repro.flow.engine`); the *registry* names the built-in flows of
``BUILTIN_FLOWS`` and parses custom comma-separated specs
(:mod:`repro.flow.registry`); and :func:`resolve_mapper` turns every
name — raw mapper, flow, or spec — into a mapper behind one protocol
(:mod:`repro.flow.mappers`)::

    from repro.flow import FlowContext, get_registry

    flow = get_registry().resolve("sweep,strash,chortle,merge")
    circuit = flow.run(network, FlowContext(k=4, checked=True))

The engine applies spans (``flow.run``, ``flow.stage.<n>.<name>``),
size-delta accounting, and optional per-pass functional-equivalence
verification uniformly; see ``docs/OBSERVABILITY.md``.
"""

from repro.flow.engine import Flow, FlowContext, StageResult
from repro.flow.mappers import (
    FlowMapperAdapter,
    Mapper,
    MapperCapabilities,
    mapper_capabilities,
    mapper_names,
    resolve_mapper,
)
from repro.flow.passes import (
    CIRCUIT,
    MAP_PASSES,
    NETWORK,
    PASSES,
    CircuitPass,
    MapPass,
    NetworkPass,
    Pass,
)
from repro.flow.registry import BUILTIN_FLOWS, FlowRegistry, get_registry

__all__ = [
    "BUILTIN_FLOWS",
    "CIRCUIT",
    "CircuitPass",
    "Flow",
    "FlowContext",
    "FlowMapperAdapter",
    "FlowRegistry",
    "MAP_PASSES",
    "MapPass",
    "Mapper",
    "MapperCapabilities",
    "NETWORK",
    "NetworkPass",
    "PASSES",
    "Pass",
    "StageResult",
    "get_registry",
    "mapper_capabilities",
    "mapper_names",
    "resolve_mapper",
]
