"""Flow registry: named flows, plus parse-from-string custom flows.

:data:`BUILTIN_FLOWS` lists the four composed flows the default registry
ships, each as ``(name, spec, description)``:

* ``area``  — sweep, strash, refactor, strash, chortle, merge — the best
  tree-DP area this package knows how to get (what
  :func:`repro.pipeline.map_area` runs);
* ``delay`` — sweep, strash, refactor, strash, depthbounded,
  merge_guarded — minimum depth with area recovered (what
  :func:`repro.pipeline.map_delay` runs);
* ``area_cut`` / ``delay_cut`` — the same front end feeding the
  priority-cut DAG-covering mapper (``cutmap`` / ``cutmap_delay``), the
  pair that escapes the forest partition's tree restriction.

Any other chain can be built from a comma-separated spec::

    resolve("sweep,strash,chortle,merge")

Specs are type-checked by the :class:`~repro.flow.engine.Flow`
constructor, so an ill-typed chain ("merge,sweep") is rejected with a
message naming the offending stages.  A lone map-pass name ("chortle")
is a valid spec: the one-stage flow around that mapper.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import FlowError
from repro.flow.engine import Flow
from repro.flow.passes import PASSES, Pass

#: The registered flows, as (name, spec, description).
BUILTIN_FLOWS = (
    (
        "area",
        "sweep,strash,refactor,strash,chortle,merge",
        "minimum area: tree-DP mapping with LUT merging",
    ),
    (
        "delay",
        "sweep,strash,refactor,strash,depthbounded,merge_guarded",
        "minimum depth at a chosen slack, area recovered",
    ),
    (
        "area_cut",
        "sweep,strash,refactor,strash,cutmap,merge",
        "minimum area: priority-cut DAG covering with LUT merging",
    ),
    (
        "delay_cut",
        "sweep,strash,refactor,strash,cutmap_delay,merge_guarded",
        "minimum depth: depth-first cut covering, merge guarded",
    ),
)


def _passes(spec: str) -> List[Pass]:
    names = [part.strip() for part in spec.split(",") if part.strip()]
    if not names:
        raise FlowError("empty flow spec %r" % spec)
    out = []
    for name in names:
        try:
            out.append(PASSES[name])
        except KeyError:
            raise FlowError(
                "unknown pass %r; valid passes: %s"
                % (name, ", ".join(sorted(PASSES)))
            ) from None
    return out


class FlowRegistry:
    """Named flows plus spec parsing; one default instance per process."""

    def __init__(self) -> None:
        self._flows: Dict[str, Flow] = {}

    def register(self, flow: Flow, replace: bool = False) -> Flow:
        if not replace and flow.name in self._flows:
            raise FlowError("flow %r is already registered" % flow.name)
        self._flows[flow.name] = flow
        return flow

    def get(self, name: str) -> Flow:
        try:
            return self._flows[name]
        except KeyError:
            raise FlowError(
                "unknown flow %r; registered flows: %s"
                % (name, ", ".join(sorted(self._flows)))
            ) from None

    def names(self) -> List[str]:
        return sorted(self._flows)

    def flows(self) -> Iterator[Flow]:
        return iter(self._flows[name] for name in self.names())

    def __contains__(self, name: str) -> bool:
        return name in self._flows

    def parse(self, spec: str) -> Flow:
        """Build an ad-hoc flow from a comma-separated pass spec."""
        passes = _passes(spec)
        return Flow(",".join(p.name for p in passes), passes)

    def resolve(self, spec: str) -> Flow:
        """A registered flow by name, or a custom flow parsed from a spec."""
        if spec in self._flows:
            return self._flows[spec]
        return self.parse(spec)


_REGISTRY: Optional[FlowRegistry] = None


def get_registry() -> FlowRegistry:
    """The process-wide registry, created (with the built-ins) on first use."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = FlowRegistry()
        for name, spec, description in BUILTIN_FLOWS:
            _REGISTRY.register(Flow(name, _passes(spec), description))
    return _REGISTRY
