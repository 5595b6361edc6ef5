"""Per-layer attribution for a traced benchmark run.

Under ``--trace 1`` the benchmark wraps each layer's public entry points
in a :func:`repro.obs.span`, captures those spans together with the
spans the program already opens, and turns the captured span tree into
self times with :mod:`repro.obs.traceview`.  Counts come from the
program's metrics registry (:meth:`MetricsRegistry.counter_delta`).

A function is wrapped wherever a ``repro`` module binds it, because
``from x import f`` copies the binding; a method is wrapped on its
class.  The wrappers exist only inside :func:`wrapped_layers` and are
restored on exit, and a wrapped name that no longer exists is an error,
so a renamed entry point fails the benchmark instead of reading zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.obs import span
from repro.obs.traceview import aggregate_by_name, build_span_tree

#: (span name, defining module, function or ``Class.method``).
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("e2e.blif.parse", "repro.blif.parser", "parse_blif"),
    ("e2e.blif.parse", "repro.blif.convert", "blif_to_network"),
    ("e2e.blif.write", "repro.blif.writer", "write_lut_circuit"),
    ("e2e.forest.build", "repro.core.forest", "build_forest"),
    ("e2e.forest.build", "repro.core.forest", "tree_orders"),
    ("e2e.tree_dp", "repro.core.tree_mapper", "TreeMapper.map_tree"),
    ("e2e.substrate.emit", "repro.core.substrate", "emit_candidate"),
    ("e2e.substrate.emit", "repro.core.substrate", "wire_outputs"),
    ("e2e.cuts.enumerate", "repro.core.cuts", "enumerate_cuts"),
    ("e2e.binpack.map", "repro.extensions.binpack", "BinPackMapper.map"),
    ("e2e.depthbounded.map", "repro.extensions.pareto", "DepthBoundedMapper.map"),
    ("e2e.sat.encode", "repro.sat.cnf", "Encoder.encode_network"),
    ("e2e.sat.encode", "repro.sat.cnf", "Encoder.encode_circuit"),
    ("e2e.sat.solve", "repro.sat.solver", "CdclSolver.solve"),
)

#: Per-layer time metric -> the span whose self time it reports.  The
#: ``e2e.*`` spans are the wrappers above; the rest are the program's own.
SELF_TIMES: Dict[str, str] = {
    "blif.parse_s": "e2e.blif.parse",
    "blif.write_s": "e2e.blif.write",
    "transform.sweep_s": "transform.sweep",
    "transform.strash_s": "transform.strash",
    "forest.build_s": "e2e.forest.build",
    "tree_dp.self_s": "e2e.tree_dp",
    "substrate.emit_s": "e2e.substrate.emit",
    "cuts.enumerate_s": "e2e.cuts.enumerate",
    "cutmap.cover_s": "cutmap.map",
    "binpack.map_s": "e2e.binpack.map",
    "depthbounded.map_s": "e2e.depthbounded.map",
    "sat.encode_s": "e2e.sat.encode",
    "sat.solve_s": "e2e.sat.solve",
    "sat.prefilter_s": "sat.check",
}

#: Per-layer count metric -> the program counter it reads.
COUNTS: Dict[str, str] = {
    "transform.sweep_runs": "sweep.runs",
    "transform.sweep_memo_hits": "sweep.memo_hits",
    "forest.trees": "chortle.trees_mapped",
    "tree_dp.decomp_candidates": "chortle.decomp_candidates",
    "tree_dp.minmap_entries": "chortle.minmap_entries",
    "tree_dp.node_splits": "chortle.node_splits",
    "cuts.nodes_enumerated": "cuts.nodes_enumerated",
    "cuts.candidates": "cuts.candidates",
    "cutmap.exact_area_passes": "cutmap.exact_area_passes",
    "sat.conflicts": "sat.conflicts",
    "sat.propagations": "sat.propagations",
    "sat.decisions": "sat.decisions",
    "sat.sim_refutations": "sat.sim_refutations",
    "sat.proofs": "sat.proofs",
    "pool.pickle_bytes": "perf.parallel.pickle_bytes",
    "pool.tasks": "perf.parallel.tasks",
    "pool.subject_misses": "perf.parallel.subject_miss",
    "memo.hits": "perf.parallel.cache_hits",
    "memo.misses": "perf.parallel.cache_misses",
}


def _resolve(module_name: str, qualname: str) -> Tuple[object, str, Callable]:
    """The (owner, attribute, function) a wrapped name refers to."""
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    func = getattr(owner, attr, None)
    if not callable(func):
        raise LookupError(
            "benchmark wraps %s.%s, which no longer exists" % (module_name, qualname)
        )
    return owner, attr, func


def _bindings(owner: object, attr: str, func: Callable) -> List[Tuple[object, str]]:
    """Every (namespace, attribute) that must be patched for ``func``."""
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is func:
                found.append((module, key))
    return found


def _wrap(func: Callable, name: str) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with span(name):
            return func(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def wrapped_layers(table: Sequence[Tuple[str, str, str]] = WRAPPED) -> Iterator[None]:
    """Install the layer wrappers for the duration of the block."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for span_name, module_name, qualname in table:
            owner, attr, func = _resolve(module_name, qualname)
            wrapper = _wrap(func, span_name)
            for namespace, key in _bindings(owner, attr, func):
                saved.append((namespace, key, vars(namespace)[key]))
                setattr(namespace, key, wrapper)
        yield
    finally:
        for namespace, key, original in reversed(saved):
            setattr(namespace, key, original)


def self_times(records) -> Dict[str, float]:
    """Self seconds of each layer metric over the captured spans."""
    by_name = {
        stat.name: stat.self_seconds
        for stat in aggregate_by_name(build_span_tree(records))
    }
    return {metric: by_name.get(name, 0.0) for metric, name in SELF_TIMES.items()}


def counts(delta: Dict[str, int]) -> Dict[str, int]:
    return {metric: delta.get(name, 0) for metric, name in COUNTS.items()}


def derived(values: Dict[str, float], delta: Dict[str, int], jobs: int, wall: float) -> None:
    """Fill in the ratio metrics and the pool times from counter deltas."""
    nodes = values["cuts.nodes_enumerated"]
    values["cuts.candidates_per_node"] = values["cuts.candidates"] / nodes if nodes else 0.0
    solve = values["sat.solve_s"]
    values["sat.props_per_s"] = values["sat.propagations"] / solve if solve else 0.0
    values["pool.compute_s"] = delta.get("perf.parallel.task_us", 0) / 1e6
    values["pool.queue_wait_s"] = delta.get("perf.parallel.queue_wait_us", 0) / 1e6
    values["pool.busy_frac"] = values["pool.compute_s"] / (jobs * wall) if wall else 0.0
    lookups = values["memo.hits"] + values["memo.misses"]
    values["memo.hit_ratio"] = values["memo.hits"] / lookups if lookups else 0.0
