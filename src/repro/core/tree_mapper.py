"""Dynamic-programming tree mapping (Section 3.1 of the paper).

For every tree node ``n`` and every utilization ``U`` in ``2..K`` the
mapper records ``minmap(n, U)``: the cheapest circuit of K-input lookup
tables implementing the subtree rooted at ``n`` whose root lookup table
uses at most ``U`` inputs.  (The paper states the table for exact
utilization; the at-most form is equivalent at the optimum and makes the
monotonicity property ``cost(minmap(n,U)) >= cost(minmap(n,K))`` hold by
construction.)

Decomposition (Section 3.1.3) is searched exhaustively: every partition
of a node's fanin set into groups, where a non-singleton group becomes an
intermediate node carrying the same operation, including multi-level
decompositions of the intermediate nodes themselves.  The search is
organized as a DP over fanin subsets:

* ``sub[S][U]`` — the best mapping of the *virtual node* ``op(S)`` over
  fanin subset ``S`` with root utilization at most ``U`` (for the full
  fanin set this is ``minmap(n, U)`` itself);
* ``F[S][u]`` — the best way to feed the items of ``S`` into an enclosing
  root lookup table using at most ``u`` of its inputs, choosing for each
  item whether it enters as a direct wire, as a merged child root table,
  or grouped with siblings under an intermediate node.

Enumerating the block containing the lowest-indexed element of ``S``
visits every set partition exactly once, so this DP reaches exactly the
mappings of the paper's exhaustive utilization-division search; the test
suite cross-checks it against a literal transliteration of the paper's
pseudo-code (:mod:`repro.core.divisions`).

Node splitting (Section 3.1.4): nodes with more fanins than
``split_threshold`` (default 10, as in the paper) are first split into
two roughly equal halves that are decomposed separately.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import MappingError
from repro.core.expr import Leaf, NotExpr, OpExpr
from repro.core.forest import Tree
from repro.network.network import BooleanNetwork
from repro.obs import metrics


class MapCand:
    """A candidate mapping of a (possibly virtual) node.

    ``cost`` counts all lookup tables in the candidate including its root
    table.  ``placements`` describe the root table's inputs; see the
    placement kinds below.  ``input_depth`` is the LUT depth of the
    deepest signal feeding the root table (so the candidate's own depth
    is ``input_depth + 1``); it is tracked so equal-cost mappings can be
    tie-broken toward shallower circuits.
    """

    __slots__ = ("cost", "op", "placements", "input_depth")

    def __init__(self, cost: int, op: str, placements: Tuple, input_depth: int = 0):
        self.cost = cost
        self.op = op
        self.placements = placements
        self.input_depth = input_depth

    @property
    def depth(self) -> int:
        """LUT levels from the tree's leaves through this root table."""
        return self.input_depth + 1

    def placement_kinds(self) -> Tuple[str, ...]:
        """The root table's input placement kinds (``ext``/``wire``/``merged``).

        This is the shape of the winning utilization division — the
        provenance recorded on each emitted LUT so a QoR diff can
        attribute area changes to individual tree decompositions.
        """
        return tuple(placement[0] for placement in self.placements)

    def expr(self):
        """The root lookup table's function as an expression tree."""
        children = []
        for placement in self.placements:
            kind = placement[0]
            if kind == "ext":
                children.append(Leaf(("ext", placement[1]), placement[2]))
            elif kind == "wire":
                children.append(Leaf(("lut", placement[1]), placement[2]))
            else:  # merged
                sub = placement[1].expr()
                children.append(NotExpr(sub) if placement[2] else sub)
        return OpExpr(self.op, children)

    def __repr__(self) -> str:
        return "MapCand(cost=%d, op=%r, inputs=%d)" % (
            self.cost,
            self.op,
            len(self.placements),
        )


# Placement kinds (tuples, first element is the tag):
#   ("ext", name, inv)     external tree-leaf signal
#   ("wire", cand, inv)    a child or intermediate node realized as its own LUT
#   ("merged", cand, inv)  a child whose root LUT is absorbed into this LUT

# A node table: index u in 0..k, entry is the best MapCand with root
# utilization <= u (None where infeasible).
NodeTable = List[Optional[MapCand]]


class ExtItem(NamedTuple):
    """A fanin edge to a tree leaf."""

    name: str
    inv: bool


class TableItem(NamedTuple):
    """A fanin edge to an already-mapped child (or split-virtual) node.

    ``sig`` is the child table's structural signature — an
    :class:`repro.perf.memo.InternedSignature` from
    :func:`repro.perf.memo.node_signature` — when the table was computed
    through the memoizing path; ``None`` marks the item — and therefore
    any node table built from it — as not cacheable.
    """

    table: tuple  # actually NodeTable; tuple for hashability of the item
    inv: bool
    sig: Optional[object] = None


FaninItem = Union[ExtItem, TableItem]

# Linked list of placements used inside the F tables: (placement, rest).
_Chain = Optional[Tuple[tuple, Optional[tuple]]]


def placement_depth(placement: tuple) -> int:
    """LUT depth contributed to an enclosing root table by a placement."""
    kind = placement[0]
    if kind == "ext":
        return 0
    if kind == "wire":
        return placement[1].input_depth + 1
    return placement[1].input_depth  # merged: child root LUT is absorbed


def _chain_to_tuple(chain: _Chain) -> Tuple:
    placements = []
    while chain is not None:
        placements.append(chain[0])
        chain = chain[1]
    return tuple(placements)


class TreeMapper:
    """Maps fanout-free trees into minimum-cost circuits of K-input LUTs.

    ``recorder`` (a :class:`~repro.obs.explain.DecisionRecorder`) turns
    on decision provenance: one record per tree node naming the chosen
    utilization division, its cost/depth, the alternatives enumerated,
    and the runner-up's cost delta.  Recording is *cache-exclusive* —
    a recording mapper computes every node table fresh, never reading
    or writing the memo cache, so candidate counts are exact and the
    records (like the mapping itself) are bit-identical across serial,
    parallel, and warm-cache runs.  The recorder observes the DP; it
    never changes the mapped circuit.
    """

    def __init__(
        self, k: int, split_threshold: int = 10, cache=None, recorder=None
    ):
        if k < 2:
            raise MappingError("K must be at least 2, got %d" % k)
        if split_threshold < 2:
            raise MappingError(
                "split threshold must be at least 2, got %d" % split_threshold
            )
        self.k = k
        self.split_threshold = split_threshold
        # Optional structural memo cache (repro.perf.memo.NodeTableCache).
        # Shared across trees, networks, and K sweeps; results are
        # bit-identical to the uncached path by construction.
        self.cache = cache
        self.recorder = recorder

    # -- public API ---------------------------------------------------------

    def map_tree(self, network: BooleanNetwork, tree: Tree) -> MapCand:
        """Optimal mapping of one fanout-free tree; returns the root candidate.

        The DP visits the tree's nodes in :attr:`~repro.core.forest.Tree.order`.
        """
        tables: Dict[str, NodeTable] = {}
        sigs: Dict[str, Optional[object]] = {}
        recording = self.recorder is not None
        # (name, op, fanins, split, candidates) per node, in topological
        # order — the raw material for the per-node decision records.
        node_info: List[Tuple[str, str, int, bool, int]] = []
        for name in tree.order:
            node = network.node(name)
            items: List[FaninItem] = []
            for sig in node.fanins:
                if sig.name in tables:
                    items.append(
                        TableItem(
                            tuple(tables[sig.name]), sig.inv, sigs.get(sig.name)
                        )
                    )
                else:
                    items.append(ExtItem(sig.name, sig.inv))
            if recording:
                stats = [0, 0]
                tables[name] = self.compute_node_table(node.op, items, stats)
                sigs[name] = None
                node_info.append(
                    (
                        name,
                        node.op,
                        len(items),
                        len(items) > self.split_threshold,
                        stats[0],
                    )
                )
            else:
                tables[name], sigs[name] = self.cached_node_table(node.op, items)
        root_table = tables.get(tree.root)
        if root_table is None:
            raise MappingError("tree root %r was never mapped" % tree.root)
        best = root_table[self.k]
        if best is None:
            raise MappingError("no feasible mapping for tree %r" % tree.root)
        if recording:
            self._record_tree(tree.root, tables, node_info, best)
        return best

    # -- decision recording -------------------------------------------------

    def _record_tree(
        self,
        root: str,
        tables: Dict[str, NodeTable],
        node_info: List[Tuple[str, str, int, bool, int]],
        best: MapCand,
    ) -> None:
        """Build and store one tree's decision records (recorder set).

        The per-node *chosen* entry is resolved top-down from the root
        candidate: walking the winning placement chain visits, exactly
        once per tree node, the node-table entry the emission will
        actually use — as the node's own LUT (``wire``) or absorbed into
        its parent's root table (``merged``).
        """
        from repro.obs.explain import Alternative, NodeDecision, TreeDecisions

        entry_owner: Dict[int, str] = {}
        for name, table in tables.items():
            for cand in table:
                if cand is not None:
                    entry_owner[id(cand)] = name
        chosen: Dict[str, Tuple[MapCand, str]] = {root: (best, "root")}
        stack: List[MapCand] = [best]
        while stack:
            cand = stack.pop()
            for placement in cand.placements:
                kind = placement[0]
                if kind == "ext":
                    continue
                child = placement[1]
                owner = entry_owner.get(id(child))
                if owner is not None and owner != root:
                    chosen[owner] = (child, kind)
                stack.append(child)

        decisions = []
        for name, op, fanins, split, candidates in node_info:
            table = tables[name]
            cand, placement = chosen.get(name, (table[self.k], "wire"))
            # Two table entries are the same *mapping* when cost, depth,
            # and placement shape agree — the monotonize step can leave
            # equal-content duplicates behind distinct objects, which
            # must not masquerade as runner-up ties.
            chosen_key = (cand.cost, cand.depth, cand.placement_kinds())
            alternatives = []
            seen_keys = set()
            for u in range(2, self.k + 1):
                entry = table[u]
                if entry is None:
                    continue
                key = (entry.cost, entry.depth, entry.placement_kinds())
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                alternatives.append(
                    Alternative(
                        utilization=u,
                        cost=entry.cost,
                        depth=entry.depth,
                        placements=entry.placement_kinds(),
                    )
                )
            runner_costs = [
                alt.cost
                for alt in alternatives
                if (alt.cost, alt.depth, alt.placements) != chosen_key
            ]
            decisions.append(
                NodeDecision(
                    node=name,
                    op=op,
                    fanins=fanins,
                    split=split,
                    placement=placement,
                    utilization=len(cand.placements),
                    cost=cand.cost,
                    depth=cand.depth,
                    placements=cand.placement_kinds(),
                    candidates=candidates,
                    alternatives=tuple(alternatives),
                    runner_up_delta=(
                        min(runner_costs) - cand.cost if runner_costs else None
                    ),
                )
            )
        self.recorder.record_tree(
            TreeDecisions(
                root=root, luts=best.cost, depth=best.depth, nodes=decisions
            )
        )

    # -- node table construction ------------------------------------------------

    def cached_node_table(
        self, op: str, items: Sequence[FaninItem], stats: Optional[list] = None
    ) -> Tuple[NodeTable, Optional[object]]:
        """``compute_node_table`` through the memo cache, plus the signature.

        Without a cache (or for items carrying no signature) this is
        exactly the uncached computation.  On a hit, the cached
        canonical table is rehydrated against the live ``items`` — same
        costs, depths, and placement structure, with this call's leaf
        names and child candidates substituted in.

        A ``stats`` accumulator (decision recording) forces the uncached
        path: a rehydrated table enumerates nothing, so exact candidate
        counts are only available — and the records only reproducible —
        when every table is computed fresh.
        """
        if self.cache is None or stats is not None:
            return self.compute_node_table(op, items, stats), None
        from repro.perf.memo import (
            canonicalize_table,
            node_signature,
            rehydrate_table,
        )

        sig = node_signature(op, items)
        if sig is None:
            return self.compute_node_table(op, items), None
        key = (self.k, self.split_threshold, sig)
        canon = self.cache.get(key)
        if canon is not None:
            return rehydrate_table(canon, op, items), sig
        table = self.compute_node_table(op, items)
        self.cache.put(key, canonicalize_table(table, items))
        return table, sig

    def compute_node_table(
        self, op: str, items: Sequence[FaninItem], stats: Optional[list] = None
    ) -> NodeTable:
        """``minmap(n, U)`` for all U, for a node with the given fanin items.

        ``stats`` is an optional ``[candidates, entries]`` accumulator
        (decision recording); when ``None`` — the default — the hot path
        is byte-for-byte the unrecorded computation.
        """
        items = list(items)
        if len(items) < 1:
            raise MappingError("a node must have at least one fanin")
        if len(items) == 1:
            raise MappingError(
                "single-fanin gates must be swept before mapping"
            )
        if len(items) > self.split_threshold:
            return self._split_and_map(op, items, stats)
        return self._subset_dp(op, items, stats)

    def _split_and_map(
        self, op: str, items: List[FaninItem], stats: Optional[list] = None
    ) -> NodeTable:
        """Section 3.1.4: split a wide node into two roughly equal halves."""
        metrics.count("chortle.node_splits")
        half = len(items) // 2
        left = self._table_or_passthrough(op, items[:half], stats)
        right = self._table_or_passthrough(op, items[half:], stats)
        return self._subset_dp(op, [left, right], stats)

    def _table_or_passthrough(
        self, op: str, items: List[FaninItem], stats: Optional[list] = None
    ) -> FaninItem:
        if len(items) == 1:
            return items[0]
        table, sig = self.cached_node_table(op, items, stats)
        return TableItem(tuple(table), False, sig)

    # -- the subset DP ------------------------------------------------------------
    #
    # The DP over fanin subsets keeps two families of tables, as flat lists
    # indexed ``mask * (k+1) + u``:
    #
    # * the node table of the virtual node ``op(mask)``, per mask with >= 2
    #   items.  Other masks read only its at-most-K entry, as an
    #   intermediate-node "wire" block (``wires``), so the whole table is
    #   built only for the complete fanin set (the value returned).
    # * ``F[mask]`` — the best ways to feed the mask's items into an
    #   enclosing root table using at most ``u`` of its inputs.  A mask is
    #   read only as the *rest* of a larger mask once that mask's
    #   lowest-indexed item is peeled off, so only masks without bit 0 have
    #   an F table.  ``fmin[mask]`` is its lowest feasible ``u``; entries
    #   stay feasible from there up to K.
    #
    # Two invariants let every candidate be evaluated once per mask:
    #
    # 1. For a mask with >= 2 items, F enumerates the node table's
    #    candidates plus one: the whole mask as a single intermediate node.
    #    That one reaches only u=1, and no other candidate does, because
    #    every rest is non-empty and ``F[r][0]`` is None for non-empty
    #    ``r``.  So ``F[mask]`` is the node enumeration taken before the
    #    monotonize sweep, with the whole-mask wire at u=1, monotonized.
    # 2. A mask with bit 0 set, other than the full set, is read only
    #    through its at-most-K entry.  F tables are monotonized, so each
    #    candidate's (cost, depth) can only fall as u grows, and the sweep
    #    keeps the current entry on ties: the first minimum at u=K is
    #    already the final at-most-K entry.  Such masks evaluate each
    #    candidate at u=K only; their feasible entries run from the
    #    smallest ``consumed + fmin[rest]`` up to K.
    #
    # The enumeration order — singletons of the lowest-indexed item in
    # wire-then-merged order, then blocks in descending submask order,
    # then the ascending monotonize sweep — fixes every tie-break and so
    # the mapped circuit.  The counters keep the exhaustive accounting:
    # each mask's node and F enumerations, at every utilization.

    def _subset_dp(
        self, op: str, items: List[FaninItem], stats: Optional[list] = None
    ) -> NodeTable:
        k = self.k
        k1 = k + 1
        n = len(items)
        full = (1 << n) - 1
        acc0 = 0  # candidates considered
        acc1 = 0  # feasible minmap entries

        # Singleton options per item: (consumed, cost, placement_depth,
        # placement), in wire-then-merged order.
        singles: List[List[Tuple[int, int, int, tuple]]] = []
        for item in items:
            options: List[Tuple[int, int, int, tuple]] = []
            if isinstance(item, ExtItem):
                options.append((1, 0, 0, ("ext", item.name, item.inv)))
            else:
                table = item.table
                cand = table[k]
                if cand is not None:
                    options.append(
                        (1, cand.cost, cand.input_depth + 1,
                         ("wire", cand, item.inv))
                    )
                for uc in range(2, k1):
                    cand = table[uc]
                    if cand is not None:
                        options.append(
                            (uc, cand.cost - 1, cand.input_depth,
                             ("merged", cand, item.inv))
                        )
            singles.append(options)

        F: List[Optional[Tuple[int, int, _Chain]]] = [None] * ((full + 1) * k1)
        F[0] = (0, 0, None)
        fmin = [k1] * (full + 1)  # k1: infeasible at every u
        fmin[0] = 0
        # Per mask with >= 2 items: its at-most-K candidate as a block,
        # (cost, placement depth, placement), or None if infeasible.
        wires: List[Optional[Tuple[int, int, tuple]]] = [None] * (full + 1)

        # Bucket masks by popcount in one ascending fill; int.bit_count is
        # a single CPython opcode (py >= 3.10).  Ascending mask order
        # within each bucket preserves the DP's tie-break enumeration.
        buckets: List[List[int]] = [[] for _ in range(n + 1)]
        for mask in range(1, full + 1):
            buckets[mask.bit_count()].append(mask)

        # One item: each option fills exactly u = consumed (the rest is
        # empty, and no two options of an item consume the same count),
        # then the monotonize sweep.
        for mask in buckets[1]:
            first_singles = singles[mask.bit_length() - 1]
            acc0 += len(first_singles)
            if mask & 1:
                continue
            best: List[Optional[Tuple[int, int, _Chain]]] = [None] * k1
            for consumed, cost, pdepth, placement in first_singles:
                best[consumed] = (cost, pdepth, (placement, None))
                if consumed < fmin[mask]:
                    fmin[mask] = consumed
            _monotonize(best)
            base = mask * k1
            F[base:base + k1] = best

        full_table: NodeTable = [None] * k1
        for p in range(2, n + 1):
            for mask in buckets[p]:
                first_bit = mask & -mask
                rest0 = mask ^ first_bit
                first_singles = singles[first_bit.bit_length() - 1]
                rfmin = fmin[rest0]
                umin = k1  # the node table's lowest feasible u

                if mask & 1 and mask != full:
                    # Invariant 2: every candidate once, at u = K.
                    # (total, depth, placement, rest chain) of the best.
                    top: Optional[Tuple[int, int, tuple, _Chain]] = None
                    rtop = rest0 * k1 + k
                    for consumed, cost, pdepth, placement in first_singles:
                        lo = consumed + rfmin
                        if lo > k:
                            continue
                        if lo < umin:
                            umin = lo
                        rest_entry = F[rtop - consumed]
                        total = cost + rest_entry[0]
                        rdepth = rest_entry[1]
                        depth = pdepth if pdepth > rdepth else rdepth
                        # Cost first (the paper's objective); among
                        # equal-cost choices prefer the shallower circuit.
                        if (
                            top is None
                            or total < top[0]
                            or (total == top[0] and depth < top[1])
                        ):
                            top = (total, depth, placement, rest_entry[2])
                    # Blocks: intermediate nodes over strict subsets
                    # containing the first item (Section 3.1.3: an
                    # intermediate node provides a single input to the
                    # root lookup table), in descending submask order.
                    nblocks = 0
                    t = (rest0 - 1) & rest0
                    while t:
                        wire = wires[first_bit | t]
                        if wire is not None:
                            nblocks += 1
                            rest_mask = rest0 ^ t
                            lo = 1 + fmin[rest_mask]
                            if lo <= k:
                                if lo < umin:
                                    umin = lo
                                rest_entry = F[rest_mask * k1 + k - 1]
                                cost, pdepth, placement = wire
                                total = cost + rest_entry[0]
                                rdepth = rest_entry[1]
                                depth = pdepth if pdepth > rdepth else rdepth
                                if (
                                    top is None
                                    or total < top[0]
                                    or (total == top[0] and depth < top[1])
                                ):
                                    top = (total, depth, placement,
                                           rest_entry[2])
                        t = (t - 1) & rest0
                    acc0 += 2 * (len(first_singles) + nblocks)
                    if top is not None:
                        acc0 += 1  # the whole-mask wire in F's enumeration
                        acc1 += k1 - umin
                        whole = MapCand(
                            top[0] + 1, op,
                            (top[2],) + _chain_to_tuple(top[3]),
                            input_depth=top[1],
                        )
                        wires[mask] = (
                            whole.cost, top[1] + 1, ("wire", whole, False)
                        )
                    continue

                # The full set and masks without bit 0: every u.
                best = [None] * k1
                rbase = rest0 * k1
                for consumed, cost, pdepth, placement in first_singles:
                    lo = consumed + rfmin
                    if lo < umin:
                        umin = lo
                    for u in range(lo, k1):
                        rest_entry = F[rbase + u - consumed]
                        total = cost + rest_entry[0]
                        rdepth = rest_entry[1]
                        depth = pdepth if pdepth > rdepth else rdepth
                        cur = best[u]
                        if (
                            cur is None
                            or total < cur[0]
                            or (total == cur[0] and depth < cur[1])
                        ):
                            best[u] = (total, depth, (placement, rest_entry[2]))
                nblocks = 0
                t = (rest0 - 1) & rest0
                while t:
                    wire = wires[first_bit | t]
                    if wire is not None:
                        nblocks += 1
                        rest_mask = rest0 ^ t
                        lo = 1 + fmin[rest_mask]
                        if lo < umin:
                            umin = lo
                        cost, pdepth, placement = wire
                        rbase = rest_mask * k1 - 1
                        for u in range(lo, k1):
                            rest_entry = F[rbase + u]
                            total = cost + rest_entry[0]
                            rdepth = rest_entry[1]
                            depth = pdepth if pdepth > rdepth else rdepth
                            cur = best[u]
                            if (
                                cur is None
                                or total < cur[0]
                                or (total == cur[0] and depth < cur[1])
                            ):
                                best[u] = (
                                    total, depth, (placement, rest_entry[2])
                                )
                    t = (t - 1) & rest0
                acc0 += 2 * (len(first_singles) + nblocks)

                if mask == full:
                    _monotonize(best)
                    for u in range(2, k1):
                        entry = best[u]
                        if entry is not None:
                            full_table[u] = MapCand(
                                entry[0] + 1, op, _chain_to_tuple(entry[2]),
                                input_depth=entry[1],
                            )
                            acc1 += 1
                    if full_table[k] is not None:
                        acc0 += 1
                    continue

                # best[k] is already the at-most-K entry (the argument of
                # invariant 2); by invariant 1, F is this enumeration plus
                # the whole-mask wire at u=1.
                entry = best[k]
                if entry is None:
                    continue
                acc0 += 1
                acc1 += k1 - umin
                whole = MapCand(
                    entry[0] + 1, op, _chain_to_tuple(entry[2]),
                    input_depth=entry[1],
                )
                placement = ("wire", whole, False)
                wires[mask] = (whole.cost, entry[1] + 1, placement)
                best[1] = (whole.cost, entry[1] + 1, (placement, None))
                _monotonize(best)
                base = mask * k1
                F[base:base + k1] = best
                fmin[mask] = 1

        metrics.count("chortle.decomp_candidates", acc0)
        metrics.count("chortle.minmap_entries", acc1)
        if stats is not None:
            stats[0] += acc0
            stats[1] += acc1
        return full_table


def _monotonize(best: list) -> None:
    """Make ``best[u]`` the best entry using at most ``u`` inputs, in place.

    Ascending in ``u``, a strictly better (cost, depth) at ``u - 1``
    replaces the entry at ``u``; on ties the entry at ``u`` stays.
    """
    for u in range(1, len(best)):
        prev = best[u - 1]
        if prev is None:
            continue
        cur = best[u]
        if (
            cur is None
            or prev[0] < cur[0]
            or (prev[0] == cur[0] and prev[1] < cur[1])
        ):
            best[u] = prev
