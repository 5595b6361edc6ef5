"""Per-node K-feasible cut enumeration with priority-cut pruning.

Chortle's forest partition severs the DAG at every multi-fanout point,
so reconvergent logic (the XOR patterns the paper concedes to MIS at
K=2) is mapped piecewise.  Cut enumeration works on the *whole* DAG
instead: for every node of a two-input subject graph it computes a set
of K-feasible cuts — leaf sets of at most ``cut_size`` signals that
separate the node from the primary inputs — by merging the fanins' cut
sets bottom-up.

Exhaustive cut sets grow exponentially, so this module implements the
standard *priority cuts* pruning (Mishchenko et al.; the
``cut_size``/``priority_size`` knob pair of iMap's ``klut_mapping``):

* **dominance filtering** — a cut whose leaf set contains another cut's
  leaf set is never better and is dropped;
* **priority pruning** — per node only the ``priority_size`` best cuts
  survive, ranked by the mapping objective (area flow, then depth, then
  leaf count), plus the trivial cut ``{node}`` so parents can always
  fall back to reading the node as a wire.

Cuts carry the two costs cover selection needs:

* ``depth`` — LUT levels if this cut is realized as one lookup table
  over its leaves (1 + the deepest leaf's best depth);
* ``area_flow`` — the fanout-amortized area estimate
  ``(1 + sum(leaf area flows)) / fanout(node)``, the classic area-flow
  relaxation of exact area over a DAG.

The kernel never touches a node name.  A :class:`Numbering` numbers
the nodes by their position in one topological order, and a cut is a
bitset over those numbers (``mask``) plus the same set as an ascending
tuple of indices (``leaves``, the LUT's input order).  Feasibility is
``popcount <= K`` and dominance ``a | b == b``, single integer
operations.  A merged cut's depth is the larger of its two parts'
depths, exact because a max ignores overlap.  Only a merged mask that
differs from both parts' masks needs a new leaf tuple, and the
numbering remembers it for the later rounds of the same map.  Callers
turn indices back into names (:meth:`Numbering.names`) when they emit
a LUT or record a decision.

Two rules keep the ranking identical to ranking by name:

* equal (cost, depth, size) keys are broken by the leaves' *names*,
  compared as tuples in index order; :func:`name_ranks` numbers the
  nodes in name order, and comparing tuples of those numbers orders
  exactly as comparing the names;
* a cut's area flow sums its leaves' flows with :func:`sum`, in
  ascending index order.  Python 3.12's float ``sum`` is compensated,
  so a hand-written accumulation loop would round differently there.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import MappingError
from repro.network.network import BooleanNetwork
from repro.obs import metrics

#: The supported cut widths.  Two is the smallest meaningful lookup
#: table; six is where exhaustive-ish enumeration under priority pruning
#: stops being cheap (and where commercial LUT architectures stop).
MIN_CUT_SIZE = 2
MAX_CUT_SIZE = 6

#: Default number of cuts kept per node (iMap defaults to 10 within a
#: recommended [6, 20]; 12 buys a little extra quality on reconvergent
#: MCNC profiles for negligible runtime).
DEFAULT_PRIORITY_SIZE = 12


class Cut(NamedTuple):
    """One K-feasible cut of a node.

    ``leaves`` holds the leaves' topological indices in ascending order
    (the LUT's input order); ``mask`` is the same set as a bitset;
    ``depth`` and ``area_flow`` are the costs of realizing the node as
    one LUT over these leaves.
    """

    leaves: Tuple[int, ...]
    mask: int
    depth: int
    area_flow: float

    @property
    def size(self) -> int:
        return len(self.leaves)


#: A candidate's rank key after its two costs: (size, tie key, mask, leaves).
_RankTail = Tuple[int, Tuple[int, ...], int, Tuple[int, ...]]


class Numbering:
    """One topological numbering of a subject graph.

    Built once per map and shared by every enumeration over the graph.
    ``order[i]`` names node ``i`` and ``position`` inverts it;
    ``rank[i]`` is the position of ``order[i]`` in name order (see
    :func:`name_ranks`); ``fanins[i]`` holds the fanin indices of a gate
    and is ``None`` for inputs and constants; ``fanouts[i]`` is the
    structural fanout count.  The numbering also remembers the leaf
    tuple and rank tail of every cut mask seen, since the area-recovery
    rounds re-enumerate mostly the same leaf sets.
    """

    def __init__(self, net: BooleanNetwork) -> None:
        self.order: List[str] = net.topological_order()
        self.position: Dict[str, int] = {
            name: i for i, name in enumerate(self.order)
        }
        self.rank = name_ranks(self.order)
        counts = net.fanout_counts()
        self.fanouts = [counts[name] for name in self.order]
        self.fanins: List[Optional[Tuple[int, ...]]] = []
        for name in self.order:
            node = net.node(name)
            self.fanins.append(
                tuple([self.position[sig.name] for sig in node.fanins])
                if node.is_gate
                else None
            )
        self.rank_tails: Dict[int, _RankTail] = {}

    def names(self, cut: Cut) -> Tuple[str, ...]:
        """The cut's leaf names, in its leaf order."""
        order = self.order
        return tuple([order[i] for i in cut.leaves])

    def tie_key(self, cut: Cut) -> Tuple[int, ...]:
        """Orders cuts of equal size as their leaf-name tuples would."""
        rank = self.rank
        return tuple([rank[i] for i in cut.leaves])


class CutSets(NamedTuple):
    """The enumeration result: every node's cuts, by topological index.

    ``cuts[i]`` holds node ``i``'s retained non-trivial cuts, best first
    under the enumeration's ranking, and is empty for primary inputs and
    constants.  ``depth[i]`` and ``flow[i]`` are what node ``i`` costs
    as a *leaf* of a parent's cut: its best cut's costs, or 0 for an
    input.  ``numbering`` names the indices.
    """

    numbering: Numbering
    cuts: List[Tuple[Cut, ...]]
    depth: List[int]
    flow: List[float]


def name_ranks(order: Sequence[str]) -> List[int]:
    """Each index's position in name order: ``rank[i] < rank[j]`` exactly
    when ``order[i] < order[j]``."""
    rank = [0] * len(order)
    for r, i in enumerate(sorted(range(len(order)), key=lambda j: order[j])):
        rank[i] = r
    return rank


def check_cut_size(k: int) -> None:
    """Validate a cut width; raises :class:`MappingError` outside 2..6."""
    if not (MIN_CUT_SIZE <= k <= MAX_CUT_SIZE):
        raise MappingError(
            "cut_size must be between %d and %d, got %d"
            % (MIN_CUT_SIZE, MAX_CUT_SIZE, k)
        )


#: What a parent merges against, per fanin: the fanin's retained cuts
#: and its trivial self-cut.  Each entry reads (leaves, mask, depth of a
#: LUT over those leaves, unused): a retained cut's own depth, one more
#: than the fanin's depth for the self-cut.  A merged cut's depth is the
#: larger of its two parts'.  The single fanin of a one-input gate
#: merges against an entry with no leaves.
_Offer = Tuple[Tuple[int, ...], int, int, float]
_NO_LEAVES: List[_Offer] = [((), 0, 0, 0.0)]


def enumerate_cuts(
    net: BooleanNetwork,
    k: int,
    priority_size: int = DEFAULT_PRIORITY_SIZE,
    mode: str = "area",
    fanout_est: Optional[Mapping[int, int]] = None,
    numbering: Optional[Numbering] = None,
) -> CutSets:
    """Priority-pruned K-feasible cuts for every node of a subject graph.

    ``net`` must be two-input-decomposed (every gate fanin count <= 2;
    see :func:`repro.baseline.subject.decompose_to_binary`).  ``mode``
    selects the ranking: ``area`` (area flow first) or ``depth`` (depth
    first).  ``numbering`` is the graph's :class:`Numbering` (built from
    ``net`` when omitted; pass one to share it across enumerations).
    ``fanout_est`` maps node indices to counts that override the
    structural fanout used to amortize area flow — the area-recovery
    iterations of :class:`~repro.core.cut_mapper.CutMapper` pass the
    reference counts of the previous cover so shared logic is only
    discounted where the cover actually shares it.
    """
    check_cut_size(k)
    if priority_size < 1:
        raise MappingError(
            "priority_size must be positive, got %d" % priority_size
        )
    if mode not in ("area", "depth"):
        raise MappingError("cut mode must be 'area' or 'depth', got %r" % mode)
    if numbering is None:
        numbering = Numbering(net)
    order = numbering.order
    fanouts = numbering.fanouts
    tails = numbering.rank_tails
    rank_of = numbering.rank.__getitem__
    est: Mapping[int, int] = fanout_est or {}
    area_first = mode == "area"
    n = len(order)
    # Per-index costs of the node's *best retained realization* — what
    # it contributes as a leaf of a parent's cut.  Making cut costs a
    # function of the leaf set alone (rather than of the fanin cut pair
    # that first produced it) keeps dedup-by-mask exact.
    depth = [0] * n
    flow = [0.0] * n
    flow_of = flow.__getitem__
    cuts: List[Tuple[Cut, ...]] = [()] * n
    offers: List[List[_Offer]] = []
    candidates_total = 0
    kept_total = 0

    for i, fanins in enumerate(numbering.fanins):
        if fanins is None:
            offers.append([((i,), 1 << i, 1, 0.0)])
            continue
        if len(fanins) > 2:
            raise MappingError(
                "cut enumeration needs a two-input subject graph; gate %r "
                "has %d fanins (run decompose_to_binary first)"
                % (order[i], len(fanins))
            )
        share = max(1, est[i] if i in est else fanouts[i])
        a_offers = offers[fanins[0]]
        b_offers = offers[fanins[1]] if len(fanins) == 2 else _NO_LEAVES
        candidates_total += len(a_offers) * len(b_offers)
        # Rank keys (cost, cost, tail).  A mask reached by two pairs
        # yields two equal keys; the dominance filter drops the second.
        ranked: List[Tuple[Any, Any, _RankTail]] = []
        for la, ma, da, _ in a_offers:
            for lb, mb, db, _ in b_offers:
                m = ma | mb
                if m.bit_count() > k:
                    continue
                tail = tails.get(m)
                if tail is None:
                    if m == ma:
                        leaves = la
                    elif m == mb:
                        leaves = lb
                    else:
                        leaves = tuple(sorted({*la, *lb}))
                    tail = (len(leaves), tuple(map(rank_of, leaves)), m, leaves)
                    tails[m] = tail
                f = (1.0 + sum(map(flow_of, tail[3]))) / share
                if area_first:
                    ranked.append((f, da if da >= db else db, tail))
                else:
                    ranked.append((da if da >= db else db, f, tail))
        if not ranked:
            raise MappingError(
                "no %d-feasible cut for gate %r (subject graph malformed?)"
                % (k, order[i])
            )
        # The (cost, cost, size, tie key) prefix differs between masks,
        # so the order never depends on the mask or on arrival order.
        ranked.sort()
        kept = _dominance_filter(ranked, priority_size)
        if area_first:
            node_cuts = tuple([Cut(t[3], t[2], d, f) for f, d, t in kept])
        else:
            node_cuts = tuple([Cut(t[3], t[2], d, f) for d, f, t in kept])
        best = node_cuts[0]
        depth[i] = best.depth
        flow[i] = best.area_flow
        cuts[i] = node_cuts
        kept_total += len(node_cuts)
        offer: List[_Offer] = list(node_cuts)
        offer.append(((i,), 1 << i, best.depth + 1, best.area_flow))
        offers.append(offer)

    metrics.count("cuts.nodes_enumerated", n)
    metrics.count("cuts.candidates", candidates_total)
    metrics.count("cuts.kept", kept_total)
    return CutSets(numbering, cuts, depth, flow)


def _dominance_filter(
    ranked: Sequence[Tuple[Any, Any, _RankTail]], priority_size: int
) -> List[Tuple[Any, Any, _RankTail]]:
    """Drop dominated cuts, keep the ``priority_size`` best survivors.

    A cut ``a`` dominates ``b`` when ``a``'s leaves are a subset of
    ``b``'s: any cover using ``b`` could use ``a`` at no worse cost.
    ``ranked`` must already be sorted best-first; scanning in that order
    means every kept cut only needs checking against better ones.  A
    repeated mask counts as dominated by its first copy.
    """
    kept: List[Tuple[Any, Any, _RankTail]] = []
    masks: List[int] = []
    for entry in ranked:
        m = entry[2][2]
        for other in masks:
            if other | m == m:
                break
        else:
            kept.append(entry)
            masks.append(m)
            if len(kept) >= priority_size:
                break
    return kept


def cut_cover_stats(cuts: CutSets) -> Dict[str, int]:
    """Summary counters for one enumeration (observability hook)."""
    gate_cuts = [c for c in cuts.cuts if c]
    return {
        "nodes": len(cuts.cuts),
        "gates": len(gate_cuts),
        "cuts_kept": sum(len(c) for c in gate_cuts),
        "max_cuts": max((len(c) for c in gate_cuts), default=0),
    }
