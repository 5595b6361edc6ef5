"""The complete Chortle mapper: forest partitioning + tree DP + emission.

``ChortleMapper(k).map(network)`` returns a :class:`~repro.core.lut.LUTCircuit`
whose root lookup tables are named after the tree-root nodes of the input
network, so per-node functions can be compared directly during
verification.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.errors import MappingError
from repro.core.forest import build_forest
from repro.core.lut import LUTCircuit
from repro.core.substrate import emit_trees
from repro.core.tree_mapper import MapCand, TreeMapper
from repro.network.network import BooleanNetwork
from repro.network.transform import sweep
from repro.obs import metrics, span

__all__ = ["ChortleMapper"]


class ChortleMapper:
    """Area-minimizing technology mapper for K-input lookup tables.

    ``cache`` enables structural memoization of node tables (``True``
    for the shared process-wide cache, or an explicit
    :class:`~repro.perf.memo.NodeTableCache`); ``jobs`` maps forest
    trees on that many worker processes of the shared fork-once pool
    (``None`` = one per CPU).  Both are QoR-neutral: the mapped circuit
    is bit-identical to a serial, uncached run.  Under ``jobs > 1`` each
    worker uses its own process-local memo cache instead of ``cache``.

    ``recorder`` (a :class:`~repro.obs.explain.DecisionRecorder`) turns
    on decision provenance: the mapper records every tree-DP choice and
    exposes a built :class:`~repro.obs.explain.MappingExplanation` as
    :attr:`explanation` after each ``map`` call.  Recording is
    cache-exclusive (the memo cache is bypassed so records are exact and
    reproducible) and needs ``jobs=1`` — worker processes cannot stream
    decisions back.  The mapped circuit is bit-identical with recording
    on or off.
    """

    name = "chortle"  # spec name under the common Mapper protocol

    def __init__(
        self,
        k: int = 4,
        split_threshold: int = 10,
        cache=None,
        jobs: int = 1,
        recorder=None,
    ):
        if recorder is not None and jobs != 1:
            raise MappingError(
                "decision recording needs jobs=1, got jobs=%r; worker "
                "processes cannot stream decisions back" % (jobs,)
            )
        self.k = k
        self.split_threshold = split_threshold
        from repro.perf.memo import resolve_cache

        self.cache = resolve_cache(cache)
        self.jobs = jobs
        self.recorder = recorder
        # The explanation for the most recent map() call (recorder set).
        self.explanation = None
        self._tree_mapper = TreeMapper(
            k,
            split_threshold=split_threshold,
            cache=self.cache,
            recorder=recorder,
        )

    def map(self, network: BooleanNetwork) -> LUTCircuit:
        """Map the network into a circuit of K-input lookup tables."""
        with span("chortle.map", network=network.name, k=self.k) as sp:
            net = sweep(network)
            net.validate()
            circuit = self._map_swept(net)
            sp.set("luts", circuit.cost)
            if self.recorder is not None:
                from repro.obs.explain import build_explanation

                self.explanation = build_explanation(
                    net, circuit, self.recorder, k=self.k, mapper=self.name
                )
            return circuit

    def _map_swept(self, net: BooleanNetwork) -> LUTCircuit:
        forest = build_forest(net)
        metrics.count("chortle.trees_mapped", len(forest.trees))
        if self.recorder is not None:
            # Explanations list trees in forest order, not by root name.
            self.recorder.set_order([tree.root for tree in forest.trees])

        cands = self._map_trees(net, forest.trees)
        roots = [tree.root for tree in forest.trees]
        circuit = emit_trees(
            net, "%s_k%d" % (net.name, self.k), self.k, zip(roots, cands)
        )
        # emit_trees checked that every tree emitted its predicted cost.
        for cand in cands:
            metrics.count("chortle.luts_emitted", cand.cost)
            metrics.observe("chortle.luts_per_tree", cand.cost)
        return circuit

    def _map_trees(self, net: BooleanNetwork, trees) -> List[MapCand]:
        """Root candidates for every tree, in forest order.

        With ``jobs > 1`` the independent tree problems are fanned across
        the fork-once process pool; results come back in forest order,
        so the emitted circuit — names, LUT order, functions — is
        identical to a serial run.
        """
        jobs = self.jobs if self.jobs is not None else (os.cpu_count() or 1)
        if jobs <= 1 or len(trees) < 2:
            return [map_one_tree(self._tree_mapper, net, tree) for tree in trees]
        from repro.perf.parallel import map_trees_processes

        jobs = min(jobs, len(trees))
        with span("chortle.parallel", jobs=jobs, trees=len(trees)):
            return map_trees_processes(
                net,
                len(trees),
                k=self.k,
                split_threshold=self.split_threshold,
                jobs=jobs,
                use_shared_cache=self.cache is not None,
            )


def map_one_tree(
    tree_mapper: TreeMapper, net: BooleanNetwork, tree,
    worker: Optional[int] = None,
) -> MapCand:
    """One tree's root candidate, under its ``chortle.map_tree`` span.

    The serial path and the pool workers both map through here, so a
    parallel trace holds the same spans as a serial one, plus the
    ``worker`` attribute.
    """
    attrs = {"tree": tree.root, "nodes": tree.num_nodes}
    if worker is not None:
        attrs["worker"] = worker
    with span("chortle.map_tree", **attrs) as tree_sp:
        cand = tree_mapper.map_tree(net, tree)
        tree_sp.set("luts", cand.cost)
    return cand
