"""The flow engine: typed pass chains with uniform instrumentation.

A :class:`Flow` is an ordered list of passes whose domains chain —
checked once, at construction, so a malformed composition (``merge``
before any mapper, two mappers in a row) fails before any work is done.
Running a flow threads one :class:`FlowContext` through every stage and
applies the repository's instrumentation uniformly:

* one ``flow.run`` span around the whole flow, and one
  ``flow.stage.<n>.<name>`` span per stage — the stage index makes every
  span name unique, so per-stage timing tables never aggregate two
  different stages that happen to share a pass (e.g. the two ``strash``
  stages of the area flow);
* node/LUT delta accounting: every stage span carries ``size_in`` /
  ``size_out`` attributes, and the registry histograms
  ``flow.pass.<name>.delta`` record the size change per pass;
* optional **checked mode** (``FlowContext(checked=True)``): after every
  stage the intermediate result is verified functionally equivalent to
  the flow's input network (MEC-style per-pass checking — because every
  stage is checked, the first failing check names the offending pass).

Flows are parameterless and reusable; everything run-specific lives in
the context, so the same ``area`` flow object serves every K and every
caller concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.lut import LUTCircuit
from repro.errors import FlowError, VerificationError
from repro.flow.passes import NETWORK, MapPass, Pass
from repro.network.network import BooleanNetwork
from repro.obs import metrics, span

#: Random vectors checked mode simulates per stage when a network has
#: too many inputs for exhaustive simulation.
VERIFY_VECTORS = 1024


@dataclass
class FlowContext:
    """Everything run-specific, threaded through every stage of a flow.

    ``config`` holds the options a map pass reads via :meth:`option`:
    ``cache`` and ``jobs`` (the performance layer, see
    :mod:`repro.perf`) and ``slack`` (the depth bound of
    ``depthbounded``); ``stages`` is filled by the engine with one
    :class:`StageResult` per executed stage.
    """

    k: int = 4
    checked: bool = False
    lint: bool = False
    explain: bool = False
    # How checked mode verifies each stage: "sim" (historical
    # exhaustive-or-random simulation), "sat" (formal proof), or "auto"
    # (exhaustive below the input limit, SAT proof above it).
    verify_method: str = "sim"
    config: Dict[str, object] = field(default_factory=dict)
    stages: List[StageResult] = field(default_factory=list)
    # Filled by the engine when ``lint`` is set: every diagnostic the
    # lint rules raised on any stage's output, attributed to the
    # emitting stage via its flow.stage.<n>.<name> span name.
    diagnostics: List[object] = field(default_factory=list)
    # Filled by a decision-recording map pass when ``explain`` is set: a
    # repro.obs.explain.MappingExplanation for the mapped circuit (None
    # when the flow's mapper records no decisions).
    explanation: Optional[object] = None

    def option(self, name: str, default=None):
        """A pass option from ``config``, or ``default``."""
        return self.config.get(name, default)


@dataclass(frozen=True)
class StageResult:
    """What one executed stage did: sizes, wall time, verification."""

    index: int
    name: str
    domain: str  # output domain of the pass (NETWORK or CIRCUIT)
    size_in: int
    size_out: int
    seconds: float
    checked: bool = False


def _size(value) -> int:
    """Stage size metric: gates for networks, cost-counted LUTs for circuits."""
    if isinstance(value, LUTCircuit):
        return value.cost
    return len(value)


class Flow:
    """A named, type-checked chain of passes over one shared context."""

    def __init__(self, name: str, passes: Sequence[Pass], description: str = ""):
        if not passes:
            raise FlowError("flow %r has no passes" % name)
        for i, (prev, cur) in enumerate(zip(passes, passes[1:]), start=1):
            if prev.output_domain != cur.input_domain:
                raise FlowError(
                    "flow %r: stage %d (%s) consumes a %s but stage %d (%s) "
                    "produces a %s"
                    % (
                        name,
                        i,
                        cur.name,
                        cur.input_domain,
                        i - 1,
                        prev.name,
                        prev.output_domain,
                    )
                )
        self.name = name
        self.passes: Tuple[Pass, ...] = tuple(passes)
        self.description = description

    @property
    def input_domain(self) -> str:
        return self.passes[0].input_domain

    @property
    def output_domain(self) -> str:
        return self.passes[-1].output_domain

    @property
    def map_pass(self) -> Optional[MapPass]:
        """The flow's mapper stage, or None for a flow that maps nothing.

        Domain chaining admits at most one ``network -> circuit`` stage,
        so a mapping flow has exactly one; the flow's capabilities and K
        range are that pass's.
        """
        return next((p for p in self.passes if isinstance(p, MapPass)), None)

    @property
    def spec(self) -> str:
        """The comma-separated pass spec that rebuilds this flow."""
        return ",".join(p.name for p in self.passes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Flow %s: %s>" % (self.name, self.spec)

    def run(self, network: BooleanNetwork, ctx: Optional[FlowContext] = None):
        """Execute the flow on ``network``; returns the final stage's output."""
        if self.input_domain != NETWORK:
            raise FlowError(
                "flow %r starts from a %s, not a network"
                % (self.name, self.input_domain)
            )
        ctx = ctx if ctx is not None else FlowContext()
        metrics.count("flow.runs")
        with span(
            "flow.run", flow=self.name, network=network.name, k=ctx.k,
            checked=ctx.checked,
        ) as sp:
            value = network
            for index, stage in enumerate(self.passes):
                value = self._run_stage(index, stage, value, network, ctx)
            if isinstance(value, LUTCircuit):
                sp.set("luts", value.cost)
                sp.set("depth", value.depth())
            return value

    def _run_stage(
        self,
        index: int,
        stage: Pass,
        value,
        golden: BooleanNetwork,
        ctx: FlowContext,
    ):
        size_in = _size(value)
        started = time.perf_counter()
        with span("flow.stage.%d.%s" % (index, stage.name), k=ctx.k) as sp:
            out = stage.run(value, ctx)
            size_out = _size(out)
            sp.set("size_in", size_in)
            sp.set("size_out", size_out)
        seconds = time.perf_counter() - started
        metrics.count("flow.stages_run")
        metrics.count("flow.pass.%s.runs" % stage.name)
        metrics.observe("flow.pass.%s.delta" % stage.name, size_out - size_in)
        if ctx.checked:
            self._check_stage(index, stage, out, golden, ctx)
        if ctx.lint:
            self._lint_stage(index, stage, out, ctx)
        ctx.stages.append(
            StageResult(
                index=index,
                name=stage.name,
                domain=stage.output_domain,
                size_in=size_in,
                size_out=size_out,
                seconds=seconds,
                checked=ctx.checked,
            )
        )
        return out

    def _check_stage(
        self, index: int, stage: Pass, out, golden: BooleanNetwork,
        ctx: FlowContext,
    ) -> None:
        from repro.verify import verify_equivalence

        try:
            verify_equivalence(
                golden, out, vectors=VERIFY_VECTORS, method=ctx.verify_method
            )
        except VerificationError as exc:
            raise FlowError(
                "checked flow %r: stage %d (%s) broke equivalence: %s"
                % (self.name, index, stage.name, exc)
            ) from exc
        metrics.count("flow.stages_checked")

    def _lint_stage(self, index: int, stage: Pass, out, ctx: FlowContext) -> None:
        # Imported here: repro.analysis pulls in the rule catalogue,
        # which most flow runs never need.
        from repro.analysis import LintContext, lint_circuit, lint_network

        lint_ctx = LintContext(k=ctx.k)
        if isinstance(out, LUTCircuit):
            found = lint_circuit(out, lint_ctx)
        else:
            found = lint_network(out, lint_ctx)
        stage_name = "flow.stage.%d.%s" % (index, stage.name)
        attributed = [diag.with_stage(stage_name) for diag in found]
        ctx.diagnostics.extend(attributed)
        if attributed:
            metrics.count("flow.lint_diagnostics", len(attributed))
