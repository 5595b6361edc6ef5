"""Decision provenance: the explain engine for the mapping DP.

The tree DP records only *outcomes* (per-LUT :class:`~repro.core.lut.LUTProvenance`)
unless asked otherwise; this module is the asked-otherwise.  A
:class:`DecisionRecorder` handed to the mapper captures, per tree node,
the decision the DP actually took — the chosen utilization division,
its cost and depth, how many alternatives were enumerated to find it,
and how close the runner-up came — as schema-versioned,
JSON-serializable records.  On top of the records sit the analytics a
QoR investigation needs:

* :func:`depth_attribution` — walk the mapped circuit's critical path
  from the deepest output back to the source gates and attribute each
  LUT level to the source tree (or the output-interface plumbing) that
  pays it; the attribution always sums to the reported circuit depth;
* :func:`area_attribution` — the "who pays" table: cost-counted LUTs
  and share per source tree, from per-LUT provenance;
* :func:`decision_drilldown` — compare two explanations node by node
  and name the decisions that changed, so a QoR regression on a tree
  (see :mod:`repro.obs.qordiff`) resolves to an individual DP choice.

Recording is **cache-exclusive**: a :class:`~repro.core.tree_mapper.TreeMapper`
carrying a recorder bypasses the structural memo cache entirely, so the
alternatives-enumerated counts are exact and the records are
bit-identical whether the cache is cold, warm, or absent — and a run
*without* a recorder pays nothing (the hot DP loops are untouched; see
the overhead budget in ``docs/OBSERVABILITY.md``).  The mapped circuit
itself is unchanged either way: the recorder observes the DP, it never
steers it.

Everything serializes through :meth:`MappingExplanation.to_dict` under
:data:`EXPLAIN_SCHEMA`; :func:`validate_explanation` is the CI smoke
check for the committed explain snapshot.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.lut import LUTCircuit
from repro.errors import ExplainError
from repro.obs.metrics import metrics

if TYPE_CHECKING:
    from repro.network.network import BooleanNetwork

#: Bump when the record layout changes; validation rejects other versions.
EXPLAIN_SCHEMA = 1

#: Attribution bucket for critical-path LUTs emitted outside any tree
#: decomposition (output-interface inverters/buffers/constants).
INTERFACE = "(interface)"


@dataclass(frozen=True)
class Alternative:
    """One retained entry of a node's minmap table: an alternative the
    chosen decision beat (or equals, at the chosen utilization bound)."""

    utilization: int  # at-most-u bound of this minmap entry
    cost: int
    depth: int
    placements: Tuple[str, ...]  # placement kinds (ext/wire/merged)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["placements"] = list(self.placements)
        return data


@dataclass(frozen=True)
class NodeDecision:
    """The DP's decision at one tree node.

    ``placement`` says how the node's table entered the circuit:
    ``root`` (the tree root's own LUT), ``wire`` (its own LUT feeding
    the parent), ``merged`` (absorbed into the parent's root table), or
    ``cut`` (realized as one LUT over a chosen K-feasible cut by a
    DAG-covering mapper).
    ``candidates`` counts every utilization division the subset DP
    enumerated for this node; ``runner_up_delta`` is the cost distance
    to the best *different* retained entry (``None`` when every retained
    entry is the chosen one).  It can be negative on non-root nodes: the
    parent's utilization budget may force a costlier entry than the
    table's global best, and the negative delta names the LUTs a looser
    budget would have saved.
    """

    node: str
    op: str
    fanins: int
    split: bool  # node exceeded the split threshold (Section 3.1.4)
    placement: str  # root | wire | merged
    utilization: int  # root-table inputs actually used by the chosen entry
    cost: int
    depth: int
    placements: Tuple[str, ...]
    candidates: int
    alternatives: Tuple[Alternative, ...] = ()
    runner_up_delta: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "op": self.op,
            "fanins": self.fanins,
            "split": self.split,
            "placement": self.placement,
            "utilization": self.utilization,
            "cost": self.cost,
            "depth": self.depth,
            "placements": list(self.placements),
            "candidates": self.candidates,
            "alternatives": [alt.to_dict() for alt in self.alternatives],
            "runner_up_delta": self.runner_up_delta,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "NodeDecision":
        return cls(
            node=str(data["node"]),
            op=str(data["op"]),
            fanins=int(data["fanins"]),
            split=bool(data["split"]),
            placement=str(data["placement"]),
            utilization=int(data["utilization"]),
            cost=int(data["cost"]),
            depth=int(data["depth"]),
            placements=tuple(data.get("placements") or ()),
            candidates=int(data["candidates"]),
            alternatives=tuple(
                Alternative(
                    utilization=int(alt["utilization"]),
                    cost=int(alt["cost"]),
                    depth=int(alt["depth"]),
                    placements=tuple(alt.get("placements") or ()),
                )
                for alt in data.get("alternatives") or ()
            ),
            runner_up_delta=(
                None
                if data.get("runner_up_delta") is None
                else int(data["runner_up_delta"])
            ),
        )


@dataclass
class TreeDecisions:
    """Every decision taken while mapping one fanout-free tree."""

    root: str
    luts: int  # the chosen root candidate's cost
    depth: int  # the chosen root candidate's depth (LUT levels)
    nodes: List[NodeDecision] = field(default_factory=list)

    def node(self, name: str) -> Optional[NodeDecision]:
        for decision in self.nodes:
            if decision.node == name:
                return decision
        return None

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "luts": self.luts,
            "depth": self.depth,
            "nodes": [decision.to_dict() for decision in self.nodes],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TreeDecisions":
        return cls(
            root=str(data["root"]),
            luts=int(data["luts"]),
            depth=int(data["depth"]),
            nodes=[NodeDecision.from_dict(d) for d in data.get("nodes") or ()],
        )


class DecisionRecorder:
    """Collects per-tree decision records from the mapper.

    Thread-safe, so a library caller may record from its own threads.
    Output order is independent of execution order — trees come back in
    the forest order the mapper declares via :meth:`set_order` — so
    records are bit-identical across cold- and warm-cache runs.
    Recording needs ``jobs=1``: worker processes cannot stream
    decisions back.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._trees: Dict[str, TreeDecisions] = {}
        self._order: List[str] = []

    def set_order(self, roots: Sequence[str]) -> None:
        """Declare the deterministic (forest) ordering of tree records."""
        with self._lock:
            self._order = list(roots)

    def record_tree(self, tree: TreeDecisions) -> None:
        """Store the finished record for one tree (last write wins)."""
        metrics.count("explain.trees_recorded")
        metrics.count("explain.nodes_recorded", len(tree.nodes))
        with self._lock:
            self._trees[tree.root] = tree

    def trees(self) -> List[TreeDecisions]:
        """All recorded trees, in the declared forest order."""
        with self._lock:
            ordered = [
                self._trees[root] for root in self._order if root in self._trees
            ]
            extra = [
                tree
                for root, tree in sorted(self._trees.items())
                if root not in self._order
            ]
            return ordered + extra

    def __len__(self) -> int:
        with self._lock:
            return len(self._trees)


# -- circuit analytics -------------------------------------------------------


def critical_path(circuit: LUTCircuit) -> List[str]:
    """LUT names along one deepest output-to-source path, source first.

    Ties (equal-depth outputs or fanins) break lexicographically, so the
    path — and everything derived from it — is deterministic.  The path
    length equals :meth:`LUTCircuit.depth` by construction: each step
    descends exactly one LUT level.
    """
    outputs = circuit.outputs
    if not outputs:
        return []
    level = circuit.levels()
    sig = min(
        outputs.values(), key=lambda name: (-level.get(name, 0), name)
    )
    path: List[str] = []
    cur = sig
    while level.get(cur, 0) > 0:
        path.append(cur)
        lut = circuit.lut(cur)
        cur = min(lut.inputs, key=lambda src: (-level.get(src, 0), src))
    path.reverse()
    return path


def depth_attribution(circuit: LUTCircuit) -> Tuple[Dict[str, int], List[str]]:
    """(levels per source tree, critical path) for a mapped circuit.

    Each LUT on the critical path contributes one level, attributed to
    the source tree named by its provenance — or to :data:`INTERFACE`
    for provenance-free tables (output inverters, constants, or any LUT
    emitted by a mapper that records no provenance).  The values always
    sum to the circuit's reported depth.
    """
    path = critical_path(circuit)
    attribution: Dict[str, int] = {}
    for name in path:
        prov = circuit.lut(name).provenance
        key = prov.tree if prov is not None else INTERFACE
        attribution[key] = attribution.get(key, 0) + 1
    return attribution, path


def area_attribution(circuit: LUTCircuit) -> Dict[str, int]:
    """Cost-counted LUTs per source tree (the "who pays" area table)."""
    return circuit.tree_profile()


# -- the explanation object --------------------------------------------------


@dataclass
class MappingExplanation:
    """Everything the explain engine knows about one mapping run."""

    circuit: str
    k: int
    mapper: str
    luts: int
    depth: int
    trees: List[TreeDecisions] = field(default_factory=list)
    depth_attribution: Dict[str, int] = field(default_factory=dict)
    critical_path: List[str] = field(default_factory=list)
    area_by_tree: Dict[str, int] = field(default_factory=dict)
    schema: int = EXPLAIN_SCHEMA

    def tree(self, root: str) -> Optional[TreeDecisions]:
        for tree in self.trees:
            if tree.root == root:
                return tree
        return None

    def filter_node(self, node: str) -> "MappingExplanation":
        """A copy keeping only decision records for the named node."""
        from dataclasses import replace

        trees = []
        for tree in self.trees:
            kept = [d for d in tree.nodes if d.node == node]
            if kept:
                trees.append(
                    TreeDecisions(
                        root=tree.root,
                        luts=tree.luts,
                        depth=tree.depth,
                        nodes=kept,
                    )
                )
        return replace(self, trees=trees)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "circuit": self.circuit,
            "k": self.k,
            "mapper": self.mapper,
            "luts": self.luts,
            "depth": self.depth,
            "trees": [tree.to_dict() for tree in self.trees],
            "depth_attribution": dict(self.depth_attribution),
            "critical_path": list(self.critical_path),
            "area_by_tree": dict(self.area_by_tree),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping) -> "MappingExplanation":
        validate_explanation(data)
        return cls(
            circuit=str(data["circuit"]),
            k=int(data["k"]),
            mapper=str(data["mapper"]),
            luts=int(data["luts"]),
            depth=int(data["depth"]),
            trees=[TreeDecisions.from_dict(t) for t in data.get("trees") or ()],
            depth_attribution={
                str(tree): int(levels)
                for tree, levels in (data.get("depth_attribution") or {}).items()
            },
            critical_path=[str(n) for n in data.get("critical_path") or ()],
            area_by_tree={
                str(tree): int(luts)
                for tree, luts in (data.get("area_by_tree") or {}).items()
            },
            schema=int(data["schema"]),
        )

    @classmethod
    def load(cls, path: str) -> "MappingExplanation":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ExplainError(
                "cannot load explanation %r: %s" % (path, exc)
            ) from exc
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(self.to_json())
                handle.write("\n")
        except OSError as exc:
            raise ExplainError(
                "cannot write explanation %r: %s" % (path, exc)
            ) from exc


_NODE_KEYS = (
    "node", "op", "fanins", "split", "placement", "utilization", "cost",
    "depth", "placements", "candidates", "alternatives", "runner_up_delta",
)


def validate_explanation(data: Mapping) -> None:
    """Check a dict against the explain record schema; raise on violation.

    Validates the schema version, the presence and types of every
    required field, and the structural invariants — notably that the
    depth attribution sums to the recorded circuit depth and the
    critical path is exactly that long.
    """
    if not isinstance(data, Mapping):
        raise ExplainError("explanation must be a JSON object")
    schema = data.get("schema")
    if schema != EXPLAIN_SCHEMA:
        raise ExplainError(
            "unsupported explain schema %r (supported: %d)"
            % (schema, EXPLAIN_SCHEMA)
        )
    for key, kind in (
        ("circuit", str), ("k", int), ("mapper", str), ("luts", int),
        ("depth", int), ("trees", list), ("depth_attribution", dict),
        ("critical_path", list), ("area_by_tree", dict),
    ):
        if not isinstance(data.get(key), kind):
            raise ExplainError(
                "explanation field %r missing or not a %s"
                % (key, kind.__name__)
            )
    attributed = sum(int(v) for v in data["depth_attribution"].values())
    if attributed != data["depth"]:
        raise ExplainError(
            "depth attribution sums to %d but circuit depth is %d"
            % (attributed, data["depth"])
        )
    if len(data["critical_path"]) != data["depth"]:
        raise ExplainError(
            "critical path has %d LUTs but circuit depth is %d"
            % (len(data["critical_path"]), data["depth"])
        )
    for tree in data["trees"]:
        if not isinstance(tree, Mapping):
            raise ExplainError("tree record is not an object")
        for key in ("root", "luts", "depth", "nodes"):
            if key not in tree:
                raise ExplainError("tree record missing field %r" % key)
        for node in tree["nodes"]:
            if not isinstance(node, Mapping):
                raise ExplainError(
                    "node record in tree %r is not an object" % tree["root"]
                )
            missing = [key for key in _NODE_KEYS if key not in node]
            if missing:
                raise ExplainError(
                    "node record %r missing fields %s"
                    % (node.get("node"), missing)
                )
            if node["placement"] not in ("root", "wire", "merged", "cut"):
                raise ExplainError(
                    "node %r has unknown placement %r"
                    % (node.get("node"), node["placement"])
                )


def build_explanation(
    network: "BooleanNetwork",
    circuit: LUTCircuit,
    recorder: Optional[DecisionRecorder],
    k: int,
    mapper: str = "chortle",
) -> MappingExplanation:
    """Assemble the explanation for one mapping run.

    ``recorder`` may be ``None`` (or empty) for mappers that record no
    decisions; the circuit-level analytics — depth attribution and the
    area table — are still computed from whatever provenance the
    circuit carries.
    """
    attribution, path = depth_attribution(circuit)
    return MappingExplanation(
        circuit=network.name,
        k=k,
        mapper=mapper,
        luts=circuit.cost,
        depth=circuit.depth(),
        trees=recorder.trees() if recorder is not None else [],
        depth_attribution=attribution,
        critical_path=path,
        area_by_tree=area_attribution(circuit),
    )


# -- the qordiff drill-down --------------------------------------------------


@dataclass(frozen=True)
class DecisionDelta:
    """One tree node whose DP decision differs between two explanations."""

    tree: str
    node: str
    field: str  # what changed: cost | utilization | placements | ...
    baseline: str
    current: str

    def describe(self) -> str:
        return "tree %s, node %s: %s %s -> %s" % (
            self.tree, self.node, self.field, self.baseline, self.current,
        )


def _decision_deltas(
    tree: str, base: NodeDecision, cur: NodeDecision
) -> List[DecisionDelta]:
    deltas: List[DecisionDelta] = []
    for attr in ("cost", "utilization", "depth", "placement"):
        b, c = getattr(base, attr), getattr(cur, attr)
        if b != c:
            deltas.append(
                DecisionDelta(
                    tree=tree, node=base.node, field=attr,
                    baseline=str(b), current=str(c),
                )
            )
    if base.placements != cur.placements:
        deltas.append(
            DecisionDelta(
                tree=tree,
                node=base.node,
                field="placements",
                baseline=",".join(base.placements),
                current=",".join(cur.placements),
            )
        )
    return deltas


def decision_drilldown(
    baseline: MappingExplanation,
    current: MappingExplanation,
    trees: Optional[Sequence[str]] = None,
) -> List[DecisionDelta]:
    """Name the decisions that changed between two explanations.

    ``trees`` restricts the comparison to the named source trees (the
    worsened trees a QoR diff already attributed); ``None`` compares
    every shared tree.  Nodes present on only one side are reported as
    ``present`` deltas — a changed forest partition is itself a decision
    change worth naming.
    """
    wanted = set(trees) if trees is not None else None
    base_trees = {tree.root: tree for tree in baseline.trees}
    cur_trees = {tree.root: tree for tree in current.trees}
    deltas: List[DecisionDelta] = []
    for root in sorted(set(base_trees) | set(cur_trees)):
        if wanted is not None and root not in wanted:
            continue
        b_tree, c_tree = base_trees.get(root), cur_trees.get(root)
        if b_tree is None or c_tree is None:
            deltas.append(
                DecisionDelta(
                    tree=root,
                    node=root,
                    field="present",
                    baseline=str(b_tree is not None),
                    current=str(c_tree is not None),
                )
            )
            continue
        b_nodes = {d.node: d for d in b_tree.nodes}
        c_nodes = {d.node: d for d in c_tree.nodes}
        for node in sorted(set(b_nodes) | set(c_nodes)):
            b, c = b_nodes.get(node), c_nodes.get(node)
            if b is None or c is None:
                deltas.append(
                    DecisionDelta(
                        tree=root,
                        node=node,
                        field="present",
                        baseline=str(b is not None),
                        current=str(c is not None),
                    )
                )
            else:
                deltas.extend(_decision_deltas(root, b, c))
    return deltas


# -- rendering ---------------------------------------------------------------


def _render_decision(decision: NodeDecision, indent: str = "    ") -> str:
    runner = (
        "runner-up %+d" % decision.runner_up_delta
        if decision.runner_up_delta is not None
        else "no distinct runner-up"
    )
    line = (
        "%s%s: %s/%d -> %s u=%d cost=%d depth=%d [%s] "
        "(%d candidates, %s)"
        % (
            indent,
            decision.node,
            decision.op,
            decision.fanins,
            decision.placement,
            decision.utilization,
            decision.cost,
            decision.depth,
            ",".join(decision.placements),
            decision.candidates,
            runner,
        )
    )
    if decision.split:
        line += " [split]"
    return line


def render_explanation(
    explanation: MappingExplanation,
    node: Optional[str] = None,
    max_trees: int = 10,
) -> str:
    """The human-readable explain report (``chortle explain``)."""
    exp = explanation if node is None else explanation.filter_node(node)
    lines = [
        "explain: %s (K=%d, %s): %d LUTs, depth %d"
        % (exp.circuit, exp.k, exp.mapper, exp.luts, exp.depth)
    ]
    lines.append("")
    lines.append("area (who pays):")
    if exp.area_by_tree:
        total = sum(exp.area_by_tree.values()) or 1
        ranked = sorted(exp.area_by_tree.items(), key=lambda kv: (-kv[1], kv[0]))
        for tree, luts in ranked[:max_trees]:
            lines.append(
                "  %-32s %4d LUTs  %5.1f%%" % (tree, luts, 100.0 * luts / total)
            )
        if len(ranked) > max_trees:
            rest = sum(luts for _, luts in ranked[max_trees:])
            lines.append(
                "  %-32s %4d LUTs  %5.1f%%"
                % ("(%d more trees)" % (len(ranked) - max_trees), rest,
                   100.0 * rest / total)
            )
    else:
        lines.append("  n/a (mapper records no provenance)")
    lines.append("")
    lines.append(
        "critical-path depth attribution (sums to %d):" % exp.depth
    )
    if exp.depth_attribution:
        for tree, levels in sorted(
            exp.depth_attribution.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append("  %-32s %4d level%s" % (
                tree, levels, "" if levels == 1 else "s"))
    else:
        lines.append("  (depth 0: no LUT on any output path)")
    if exp.critical_path:
        lines.append("  path: %s" % " -> ".join(exp.critical_path))
    shown = exp.trees if node is not None else exp.trees[:max_trees]
    if shown:
        lines.append("")
        lines.append(
            "decisions%s:" % ("" if node is None else " for node %r" % node)
        )
        for tree in shown:
            lines.append(
                "  tree %s (%d LUTs, depth %d, %d nodes):"
                % (tree.root, tree.luts, tree.depth, len(tree.nodes))
            )
            for decision in tree.nodes:
                lines.append(_render_decision(decision))
        hidden = len(exp.trees) - len(shown)
        if hidden > 0:
            lines.append("  (%d more trees; use --format json for all)" % hidden)
    elif node is not None:
        lines.append("")
        lines.append("no decisions recorded for node %r" % node)
    elif not exp.trees:
        lines.append("")
        lines.append("decisions: n/a (mapper records no decisions)")
    return "\n".join(lines)
