"""Best-effort mapping pipelines: one-call entry points to the built-in flows.

:func:`map_area` and :func:`map_delay` run the registered ``area`` and
``delay`` flows (:data:`repro.flow.registry.BUILTIN_FLOWS`) with the
options a map pass reads (``cache``, ``jobs`` and, for the delay flow,
``slack``) and, with ``lint=True``, gate the result on error-severity
findings.  They exist so that ``from repro import map_area`` keeps
working; to run any other chain, resolve it from
:func:`repro.flow.get_registry` or through
:func:`repro.flow.resolve_mapper`.

Every stage preserves functions; the composed flows are verified
end-to-end — and per-pass, in checked mode — in the tests.
"""

from __future__ import annotations

from repro.core.lut import LUTCircuit
from repro.flow.engine import FlowContext
from repro.flow.registry import get_registry
from repro.network.network import BooleanNetwork


def _run(name: str, network: BooleanNetwork, ctx: FlowContext) -> LUTCircuit:
    result = get_registry().get(name).run(network, ctx)
    if ctx.lint:
        from repro.analysis import gate

        gate(
            ctx.diagnostics,
            subject="%s flow on %r" % (name, network.name),
        )
    return result


def map_area(
    network: BooleanNetwork,
    k: int = 4,
    checked: bool = False,
    lint: bool = False,
    cache=None,
    jobs: int = 1,
) -> LUTCircuit:
    """Area-focused composed flow; minimum LUTs this package can reach.

    ``cache`` and ``jobs`` reach the chortle stage's memoized/parallel
    engine (see :mod:`repro.perf`); both are QoR-neutral.  With
    ``lint=True`` every stage's output is audited by the lint rules and
    any error-severity finding raises :class:`~repro.errors.LintError`,
    naming the emitting stage.
    """
    ctx = FlowContext(
        k=k, checked=checked, lint=lint, config={"cache": cache, "jobs": jobs}
    )
    return _run("area", network, ctx)


def map_delay(
    network: BooleanNetwork,
    k: int = 4,
    slack: int = 0,
    checked: bool = False,
    lint: bool = False,
    cache=None,
    jobs: int = 1,
) -> LUTCircuit:
    """Delay-focused composed flow: minimum depth, area recovered.

    Merging is depth-guarded: a merge that would increase depth is
    rejected and counted (``pipeline.merge_rejected``) rather than
    silently discarded.  ``lint=True`` gates every stage's output on
    error-severity lint findings, as in :func:`map_area`.
    """
    ctx = FlowContext(
        k=k,
        checked=checked,
        lint=lint,
        config={"cache": cache, "jobs": jobs, "slack": slack},
    )
    return _run("delay", network, ctx)
