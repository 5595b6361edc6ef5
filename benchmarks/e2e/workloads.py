"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Every workload has the same three steps.  ``setup(seed, smoke)`` builds
the inputs (untimed, reported as ``setup_s``); ``run_pass(inputs)`` runs
every operation once and times each; ``check(inputs, passes, seed)``
judges every output with :mod:`checks`, outside the timed region.

The program only ever sees the generated networks.  ``--seed S`` is
folded into every generator seed with :func:`mix`, and ``mix(0) == 0``,
so seed 0 reproduces the committed stand-ins and fixtures exactly.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import checks
import layers

import repro.blif as blif
from repro.bench.adversarial import ADVERSARIAL_PRESETS, adversarial_network
from repro.bench.generator import (
    RECONVERGENT_PRESETS,
    GeneratorConfig,
    random_network,
    reconvergent_network,
)
from repro.bench.mcnc import MCNC_PROFILES, TABLE_CIRCUITS
from repro.bench.runner import run_suite
from repro.core.lut import LUTCircuit
from repro.errors import VerificationError
from repro.flow.mappers import resolve_mapper
from repro.network.network import BooleanNetwork
from repro.obs import metrics
from repro.perf.pool import reset_pool
from repro.truth.truthtable import TruthTable
from repro.verify import verify_equivalence

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = ROOT / "benchmarks" / "fixtures"
QOR_BASELINE = ROOT / "benchmarks" / "baselines" / "qor_baseline.json"

#: The six classic circuits beyond the paper's tables that the repo profiles.
EXTRA_CIRCUITS = ("c432", "c880", "c1355", "dalu", "i10", "t481")
XOR_PRESETS = tuple(sorted(RECONVERGENT_PRESETS))
CORPUS = tuple(sorted(ADVERSARIAL_PRESETS)) + XOR_PRESETS


def mix(seed: int) -> int:
    """The offset XORed into every generator seed (``mix(0) == 0``)."""
    return (seed * 0x9E3779B1) & 0xFFFFFFFF


def mcnc_network(name: str, seed: int) -> BooleanNetwork:
    profile = MCNC_PROFILES[name]
    net = random_network(
        GeneratorConfig(
            num_inputs=profile.num_inputs,
            num_outputs=profile.num_outputs,
            num_gates=profile.num_gates,
            seed=profile.seed ^ mix(seed),
        )
    )
    net.name = name
    return net


def preset_network(name: str, seed: int) -> BooleanNetwork:
    """A reconvergent-XOR preset or an adversarial corpus cell."""
    if name in RECONVERGENT_PRESETS:
        config, build = RECONVERGENT_PRESETS[name], reconvergent_network
    else:
        config, build = ADVERSARIAL_PRESETS[name], adversarial_network
    net = build(dataclasses.replace(config, seed=config.seed ^ mix(seed)))
    net.name = name
    return net


def network(name: str, seed: int) -> BooleanNetwork:
    if name in MCNC_PROFILES:
        return mcnc_network(name, seed)
    return preset_network(name, seed)


class Op(NamedTuple):
    """One timed operation and what its check needs."""

    label: str
    circuit: str
    mapper: str
    k: int
    source: str  # the source network as BLIF text
    golden: BooleanNetwork  # the same network, as generated
    candidate: Optional[LUTCircuit] = None  # prove: the circuit under proof
    expect_equal: Optional[bool] = None  # prove: known answer, when set up


class Mapped(NamedTuple):
    """A map op's output: the BLIF it wrote and the circuit it built."""

    text: str
    circuit: LUTCircuit


def fingerprint(output: object) -> object:
    """What a later pass's output is compared on (all of it, unless mapped)."""
    if isinstance(output, Mapped):
        return hash(output.text)
    return output


@dataclasses.dataclass
class PassResult:
    wall: float
    latencies: List[float]
    outputs: List[object]  # per op; None where the op raised
    errors: List[str]
    delta: Dict[str, int] = dataclasses.field(default_factory=dict)
    reports: List[object] = dataclasses.field(default_factory=list)

    def shrink(self) -> None:
        """Keep only fingerprints, so memory does not grow with the passes run."""
        self.outputs = [fingerprint(out) for out in self.outputs]


@dataclasses.dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = dataclasses.field(default_factory=list)
    luts: int = 0
    depth: int = 0

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


# -- the timed operations ----------------------------------------------------


def map_blif(text: str, mapper: str, k: int) -> Mapped:
    """The in-process body of ``chortle map in.blif -k K --mapper M -o out``."""
    net = blif.blif_to_network(blif.parse_blif(text))
    circuit = resolve_mapper(mapper, k).map(net)
    return Mapped(blif.write_lut_circuit(circuit), circuit)


def prove(op: Op) -> bool:
    """The SAT engine's verdict: True when it proves the pair equivalent."""
    try:
        verify_equivalence(op.golden, op.candidate, method="sat")
    except VerificationError:
        return False
    return True


def _timed_ops(ops: Sequence[Op], run: Callable[[Op], object]) -> PassResult:
    latencies: List[float] = []
    outputs: List[object] = []
    errors: List[str] = []
    before = metrics.counters()
    started = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            out = None
            errors.append("%s: %s: %s" % (op.label, type(exc).__name__, exc))
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    wall = time.perf_counter() - started
    return PassResult(wall, latencies, outputs, errors, metrics.counter_delta(before))


def map_pass(ops: Sequence[Op]) -> PassResult:
    return _timed_ops(ops, lambda op: map_blif(op.source, op.mapper, op.k))


def prove_pass(ops: Sequence[Op]) -> PassResult:
    return _timed_ops(ops, prove)


SUITE_MAPPERS = ("chortle", "cutmap", "binpack", "depthbounded")
SUITE_KS = (4, 6)
SUITE_JOBS = 2


def suite_pass(ops: Sequence[Op]) -> PassResult:
    """One ``chortle qor record --jobs 2 --cache`` sweep, cold worker pool."""
    nets = list({op.circuit: op.golden for op in ops}.values())
    reset_pool()
    before = metrics.counters()
    started = time.perf_counter()
    result = run_suite(
        nets, mappers=SUITE_MAPPERS, ks=SUITE_KS, jobs=SUITE_JOBS, cache=True
    )
    reset_pool()  # reaps the workers, so their peak RSS is counted
    wall = time.perf_counter() - started
    reports = list(result.reports)
    return PassResult(
        wall,
        [float(r.wall_seconds or 0.0) for r in reports],
        [(r.circuit_name, r.k, r.mapper, r.luts, r.depth) for r in reports],
        [],
        metrics.counter_delta(before),
        reports,
    )


# -- set-up ------------------------------------------------------------------


class Spec(NamedTuple):
    """The circuits and mappers one workload sweeps (full and ``--smoke``)."""

    circuits: Tuple[str, ...]
    mappers: Tuple[Tuple[str, int], ...]


def setup_ops(spec: Spec, seed: int) -> List[Op]:
    """One op per (circuit, mapper, K), each holding its source as BLIF."""
    ops = []
    for name in spec.circuits:
        net = network(name, seed)
        text = blif.write_network(net)
        for mapper, k in spec.mappers:
            ops.append(Op("%s/%s/k%d" % (name, mapper, k), name, mapper, k, text, net))
    return ops


TREE_DP = Spec(
    TABLE_CIRCUITS + EXTRA_CIRCUITS, (("chortle", 3), ("chortle", 5))
)
TREE_DP_SMOKE = Spec(
    ("count", "frg1", "c432", "apex7"),
    (("chortle", 2), ("chortle", 3), ("chortle", 4)),
)
CUT_MAPPERS = (("cutmap", 6), ("sweep,strash,cutmap_delay", 6))
# The circuit lists below are also chosen so that the median and the
# tail rank fall inside clusters of similar op latencies, not in a gap
# where a small shift between seeds moves the statistic to another op.
DAG_CUTS = Spec(
    (
        "9symml", "alu2", "alu4", "apex6", "apex7", "count", "frg1", "rot",
        "c432", "c880", "c1355",
    )
    + XOR_PRESETS,
    CUT_MAPPERS,
)
DAG_CUTS_SMOKE = Spec(("count", "frg1", "c432") + XOR_PRESETS, CUT_MAPPERS)
SUITE = Spec(
    ("9symml", "alu2", "apex7", "count", "frg1"),
    tuple((m, k) for k in SUITE_KS for m in SUITE_MAPPERS),
)
SUITE_SMOKE = Spec(("count", "frg1", "apex7"), SUITE.mappers)
#: Table stand-ins whose K=4 proofs take about a second or less.  des
#: alone would take ~40 s and pair ~5 s; apex6's proof effort swings
#: 2x from seed to seed, which would swamp the run-to-run comparison.
#: The adders' proofs do not depend on the seed, and proving them at
#: K=5 too puts the median and the tail rank among them.
PROVE = (
    Spec(
        ("9symml", "alu2", "alu4", "apex7", "count", "frg1", "k2", "rot"),
        (("chortle", 4),),
    ),
    Spec(("alu4", "apex7"), (("cutmap", 4), ("mis", 4), ("binpack", 4))),
    Spec(
        CORPUS,
        tuple((m, 4) for m in ("chortle", "cutmap", "mis", "binpack", "depthbounded")),
    ),
    Spec(
        ("adv_add10", "adv_add24"),
        tuple((m, 5) for m in ("chortle", "cutmap", "binpack", "depthbounded")),
    ),
)
PROVE_SMOKE = (
    Spec(("count", "frg1"), (("chortle", 4),)),
    Spec(tuple(c for c in CORPUS if c != "adv_add24"), (("chortle", 4),)),
)
#: Refutations need exhaustive simulation for their known answer.
EXHAUSTIVE_LIMIT = 14


def _flip_row(circuit: LUTCircuit, lut_name: str, row: int) -> LUTCircuit:
    """A copy of ``circuit`` with one truth-table row of one LUT inverted."""
    out = LUTCircuit(circuit.name + "_flipped")
    for name in circuit.inputs:
        out.add_input(name)
    for lut in circuit.luts():
        tt = lut.tt
        if lut.name == lut_name:
            tt = TruthTable(tt.nvars, tt.bits ^ (1 << row))
        out.add_lut(lut.name, lut.inputs, tt, lut.provenance)
    for port, signal in circuit.outputs.items():
        out.set_output(port, signal)
    return out


def _lut_rows(circuit: LUTCircuit):
    return [(lut.name, lut.inputs, lut.tt.bits) for lut in circuit.luts()]


def _refutation(op: Op, seed: int) -> Op:
    """``op``'s mapping with one observable truth-table row flipped.

    The flip is drawn from the seed; exhaustive simulation here, not the
    SAT engine, decides whether it changes an output.  The first flip
    that does is kept, with the known answer "not equivalent".
    """
    circuit = op.candidate
    source = checks.read_blif(op.source)
    words, width = checks.exhaustive_words(source.inputs)
    mask = (1 << width) - 1
    want = checks.evaluate(source, words, mask)
    rng = random.Random(seed ^ 0xF11F)
    tables = sorted(lut.name for lut in circuit.luts() if len(lut.inputs) >= 2)
    label = op.label + "/refute"
    for _ in range(32):
        lut_name = rng.choice(tables)
        row = rng.randrange(1 << len(circuit.lut(lut_name).inputs))
        flipped = _flip_row(circuit, lut_name, row)
        got = checks.circuit_words(_lut_rows(flipped), flipped.outputs, words, mask)
        if any(want[port] != got[port] for port in source.outputs):
            return op._replace(label=label, candidate=flipped, expect_equal=False)
    # Every flip drawn was unobservable: the last one must prove equivalent.
    return op._replace(label=label, candidate=flipped, expect_equal=True)


def setup_prove(specs: Sequence[Spec], seed: int) -> List[Op]:
    """Every mapping under proof, then one refutation per small corpus cell."""
    ops = [
        op._replace(candidate=resolve_mapper(op.mapper, op.k).map(op.golden))
        for spec in specs
        for op in setup_ops(spec, seed)
    ]
    return ops + [
        _refutation(op, seed)
        for op in ops
        if op.circuit in CORPUS
        and (op.mapper, op.k) == ("chortle", 4)
        and len(op.golden.inputs) <= EXHAUSTIVE_LIMIT
    ]


# -- checks ------------------------------------------------------------------


def _baseline() -> Dict[Tuple[str, int, str], Tuple[int, int]]:
    with open(QOR_BASELINE, encoding="utf-8") as handle:
        reports = json.load(handle)["reports"]
    return {
        (r["circuit_name"], r["k"], r["mapper"]): (r["luts"], r["depth"])
        for r in reports
    }


def _check_baseline(verdict: Verdict, cells, seed: int) -> None:
    """At seed 0, every covered (circuit, K, mapper) must match the baseline."""
    if seed != 0:
        return
    baseline = _baseline()
    for circuit, k, mapper, luts, depth in cells:
        want = baseline.get((circuit, k, mapper))
        if want is not None and (luts, depth) != want:
            verdict.fail(
                "%s/%s/k%d: luts/depth %d/%d, baseline %d/%d"
                % (circuit, mapper, k, luts, depth, want[0], want[1])
            )


def check_fixtures(verdict: Verdict, names: Sequence[str]) -> None:
    """Seed 0 of each preset must serialize to its committed fixture."""
    for name in names:
        committed = (FIXTURES / ("%s.blif" % name)).read_text(encoding="utf-8")
        if blif.write_network(preset_network(name, 0)) != committed:
            verdict.fail("%s: seed-0 preset differs from its fixture" % name)


def _sources(ops: Sequence[Op]) -> Dict[str, checks.Model]:
    """Each circuit's source, parsed once by the independent reader."""
    texts = {op.circuit: op.source for op in ops}
    return {name: checks.read_blif(text) for name, text in texts.items()}


def _repeat_failures(verdict: Verdict, ops, passes) -> List[bool]:
    """Count op errors in every pass; later passes must repeat pass one."""
    first = passes[0]
    for result in passes:
        for error in result.errors:
            verdict.fail(error)
    for result in passes[1:]:
        for op, out, ref in zip(ops, result.outputs, first.outputs):
            if out is not None and ref is not None and out != fingerprint(ref):
                verdict.fail("%s: output changed between passes" % op.label)
    return [out is not None for out in first.outputs]


def check_map(ops: Sequence[Op], passes: Sequence[PassResult], seed: int) -> Verdict:
    verdict = Verdict(attempted=len(ops) * len(passes))
    ran = _repeat_failures(verdict, ops, passes)
    sources = _sources(ops)
    cells = []
    for op, ok, out in zip(ops, ran, passes[0].outputs):
        if not ok:
            continue
        text, circuit = out
        source = sources[op.circuit]
        try:
            mapped = checks.read_blif(text)
            bad = checks.blif_mismatches(source, mapped, seed)
            counted = checks.count_luts(mapped)
        except ValueError as exc:
            bad, counted = ["unreadable output: %s" % exc], circuit.cost
        if bad:
            verdict.fail("%s: differs from source on %s" % (op.label, ", ".join(bad[:3])))
        if counted != circuit.cost:
            verdict.fail("%s: BLIF holds %d LUTs, reported %d" % (op.label, counted, circuit.cost))
        depth = circuit.depth()
        verdict.luts += circuit.cost
        verdict.depth += depth
        cells.append((op.circuit, op.k, op.mapper, circuit.cost, depth))
    _check_baseline(verdict, cells, seed)
    return verdict


def check_prove(ops: Sequence[Op], passes: Sequence[PassResult], seed: int) -> Verdict:
    verdict = Verdict(attempted=len(ops) * len(passes))
    ran = _repeat_failures(verdict, ops, passes)
    sources = _sources(ops)
    mask = (1 << checks.VECTORS) - 1
    cells = []
    for op, ok, proved in zip(ops, ran, passes[0].outputs):
        depth = op.candidate.depth()
        verdict.luts += op.candidate.cost
        verdict.depth += depth
        expected = op.expect_equal
        if expected is None:
            # A mapping is expected to be equivalent; random simulation
            # here can only refute that expectation, never confirm it.
            source = sources[op.circuit]
            words = checks.random_words(source.inputs, seed)
            want = checks.evaluate(source, words, mask)
            got = checks.circuit_words(
                _lut_rows(op.candidate), op.candidate.outputs, words, mask
            )
            expected = all(want[p] == got[p] for p in source.outputs)
            cells.append((op.circuit, op.k, op.mapper, op.candidate.cost, depth))
        if ok and proved != expected:
            verdict.fail(
                "%s: SAT says %s, simulation says %s"
                % (op.label, _word(proved), _word(expected))
            )
    _check_baseline(verdict, cells, seed)
    check_fixtures(verdict, CORPUS)
    return verdict


def _word(equal: bool) -> str:
    return "equivalent" if equal else "different"


def check_suite(ops: Sequence[Op], passes: Sequence[PassResult], seed: int) -> Verdict:
    """Each report must match a serial in-process mapping of its cell.

    Worker processes return reports, not circuits, so every cell is
    mapped once more here, serially and without the memo cache; that
    circuit is checked against its source like any other mapping, and
    the parallel report must carry its LUT count and depth.
    """
    verdict = Verdict(attempted=len(ops) * len(passes))
    by_cell = {(op.circuit, op.k, op.mapper): op for op in ops}
    sources = _sources(ops)
    expected: Dict[Tuple[str, int, str], Tuple[int, int]] = {}
    for key, op in by_cell.items():
        circuit = resolve_mapper(op.mapper, op.k).map(op.golden)
        text = blif.write_lut_circuit(circuit)
        source = sources[op.circuit]
        bad = checks.blif_mismatches(source, checks.read_blif(text), seed)
        if bad:
            verdict.fail("%s: differs from source on %s" % (op.label, ", ".join(bad[:3])))
        expected[key] = (circuit.cost, circuit.depth())
    for result in passes:
        seen = set()
        for circuit, k, mapper, luts, depth in result.outputs:
            key = (circuit, k, mapper)
            seen.add(key)
            if expected.get(key) != (luts, depth):
                verdict.fail(
                    "%s/%s/k%d: report %d/%d, serial mapping %s"
                    % (circuit, mapper, k, luts, depth, expected.get(key))
                )
        for key in set(by_cell) - seen:
            verdict.fail("%s/%s/k%d: no report" % (key[0], key[2], key[1]))
    first = passes[0].outputs
    verdict.luts = sum(row[3] for row in first)
    verdict.depth = sum(row[4] for row in first)
    _check_baseline(verdict, list(first), seed)
    return verdict


# -- per-layer metrics ---------------------------------------------------------


def traced_layers(result: PassResult, records) -> Dict[str, float]:
    """Layer metrics of one traced in-process pass."""
    values = layers.self_times(records)
    values.update(layers.counts(result.delta))
    layers.derived(values, result.delta, 1, result.wall)
    return values


def suite_layers(result: PassResult, records) -> Dict[str, float]:
    """Layer metrics of one suite pass, from what the workers send home.

    Worker spans stay in the workers, so times come from each report's
    ``timings`` (span totals inside the cell) and ``seconds``.  Forest,
    DP and emission are not separable there: ``tree_dp.self_s`` holds
    ``chortle.map`` minus its sweep, ``cutmap.cover_s`` ``cutmap.map``
    minus its sweep.
    """
    del records  # nothing comes home from the workers
    totals: Dict[str, int] = dict(result.delta)
    values = {metric: 0.0 for metric in layers.SELF_TIMES}
    for report in result.reports:
        timings = report.timings or {}
        sweep = timings.get("transform.sweep", 0.0)
        values["transform.sweep_s"] += sweep
        if report.mapper == "chortle":
            values["tree_dp.self_s"] += timings.get("chortle.map", 0.0) - sweep
        elif report.mapper == "cutmap":
            values["cutmap.cover_s"] += timings.get("cutmap.map", 0.0) - sweep
        else:
            values["%s.map_s" % report.mapper] += float(report.seconds or 0.0)
        for name, count in (report.counters or {}).items():
            if not name.startswith("perf."):
                totals[name] = totals.get(name, 0) + count
    values.update(layers.counts(totals))
    layers.derived(values, totals, SUITE_JOBS, result.wall)
    return values


class Workload(NamedTuple):
    name: str
    setup: Callable[[int, bool], List[Op]]
    run_pass: Callable[[Sequence[Op]], PassResult]
    check: Callable[[Sequence[Op], Sequence[PassResult], int], Verdict]
    layers: Callable[[PassResult, list], Dict[str, float]]
    #: False when the work runs in worker processes, whose spans stay there.
    in_process: bool = True


def _check_dag(ops, passes, seed) -> Verdict:
    verdict = check_map(ops, passes, seed)
    check_fixtures(verdict, XOR_PRESETS)
    return verdict


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tree_dp",
            lambda seed, smoke: setup_ops(TREE_DP_SMOKE if smoke else TREE_DP, seed),
            map_pass,
            check_map,
            traced_layers,
        ),
        Workload(
            "dag_cuts",
            lambda seed, smoke: setup_ops(DAG_CUTS_SMOKE if smoke else DAG_CUTS, seed),
            map_pass,
            _check_dag,
            traced_layers,
        ),
        Workload(
            "prove",
            lambda seed, smoke: setup_prove(PROVE_SMOKE if smoke else PROVE, seed),
            prove_pass,
            check_prove,
            traced_layers,
        ),
        Workload(
            "suite_jobs2",
            lambda seed, smoke: setup_ops(SUITE_SMOKE if smoke else SUITE, seed),
            suite_pass,
            check_suite,
            suite_layers,
            in_process=False,
        ),
    )
}

