"""Miter-based formal equivalence checking, whole-circuit and per-LUT.

Both granularities encode the two subjects into one CNF through a
shared :class:`~repro.sat.cnf.Encoder` (shared primary-input variables,
cross-side strashing) and ask the CDCL solver one XOR-miter question
per compared signal, under an assumption literal so learned clauses
carry across questions:

* :func:`check_equivalence` compares output ports.  A cheap bit-parallel
  random-simulation pass runs first — an inequivalent pair almost always
  falls to simulation with a concrete counterexample before any CNF is
  built; the SAT pass then *proves* the equivalent direction, which
  simulation alone never can beyond the exhaustive input limit.
* :func:`check_per_lut` is the MEC-style fine granularity: every
  candidate LUT whose name also exists in the golden subject is checked
  cone-against-cone over the primary inputs, in topological order, so
  the first mismatch names the corrupted LUT and carries a concrete
  counterexample input vector.  A cone that matches the reference with
  inverted polarity is reported (not failed): LUT mappers legally absorb
  edge inversions into tables.

Every check feeds the ``sat.*`` counter namespace and runs under a
``sat.check`` span (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.lut import LUTCircuit
from repro.errors import VerificationError
from repro.obs import metrics, span
from repro.sat.cnf import (
    Encoder,
    circuit_output_lits,
    network_output_lits,
)
from repro.sat.solver import CdclSolver
from repro.verify import Subject, check_interfaces, output_words

_SIM_WIDTH = 256
_SIM_SEED = 0x5A75


@dataclass(frozen=True)
class EquivalenceResult:
    """Verdict of one whole-circuit equivalence check."""

    equivalent: bool
    checked_outputs: int
    #: "sat" when the verdict is a proof; "sim" when a random-simulation
    #: pass refuted equivalence before any CNF was built.  Both carry a
    #: concrete counterexample on mismatch, so both are conclusive.
    method: str = "sat"
    failing_output: Optional[str] = None
    counterexample: Optional[Dict[str, int]] = None
    expected: Optional[int] = None
    actual: Optional[int] = None
    stats: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "equivalent": self.equivalent,
            "checked_outputs": self.checked_outputs,
            "method": self.method,
            "failing_output": self.failing_output,
            "counterexample": self.counterexample,
            "expected": self.expected,
            "actual": self.actual,
            "stats": dict(self.stats),
        }


@dataclass(frozen=True)
class PerLutResult:
    """Verdict of one per-LUT cone-checking pass."""

    equivalent: bool
    checked_luts: int
    skipped_luts: int
    #: Cones proved equal to the reference *complemented* — legal for a
    #: LUT mapper (polarity absorbed into downstream tables), surfaced
    #: so callers can distinguish exact from inverted matches.
    inverted_luts: Tuple[str, ...] = ()
    failing_lut: Optional[str] = None
    counterexample: Optional[Dict[str, int]] = None
    expected: Optional[int] = None
    actual: Optional[int] = None
    stats: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "equivalent": self.equivalent,
            "checked_luts": self.checked_luts,
            "skipped_luts": self.skipped_luts,
            "inverted_luts": list(self.inverted_luts),
            "failing_lut": self.failing_lut,
            "counterexample": self.counterexample,
            "expected": self.expected,
            "actual": self.actual,
            "stats": dict(self.stats),
        }


# -- subject plumbing ---------------------------------------------------------


def _encode(encoder: Encoder, subject: Subject) -> Dict[str, int]:
    if isinstance(subject, LUTCircuit):
        return encoder.encode_circuit(subject)
    return encoder.encode_network(subject)


def _encode_outputs(encoder: Encoder, subject: Subject) -> Dict[str, int]:
    lits = _encode(encoder, subject)
    if isinstance(subject, LUTCircuit):
        return circuit_output_lits(subject, lits)
    return network_output_lits(subject, lits)


def _model_vector(solver: CdclSolver, encoder: Encoder) -> Dict[str, int]:
    return {
        name: int(solver.model_value(lit))
        for name, lit in sorted(encoder.inputs.items())
    }


def _finish_stats(solver: CdclSolver, encoder: Encoder) -> Dict[str, int]:
    stats = solver.stats
    metrics.count("sat.solves", stats.solves)
    metrics.count("sat.conflicts", stats.conflicts)
    metrics.count("sat.decisions", stats.decisions)
    metrics.count("sat.propagations", stats.propagations)
    metrics.count("sat.learned", stats.learned)
    metrics.count("sat.restarts", stats.restarts)
    return {
        "vars": solver.num_vars,
        "clauses": solver.num_clauses,
        "strash_hits": encoder.strash_hits,
        **stats.to_dict(),
    }


# -- whole-circuit checking ---------------------------------------------------


def _simulation_counterexample(
    golden: Subject, candidate: Subject, ports: List[str]
) -> Optional[EquivalenceResult]:
    """A random-vector refutation, or None when simulation finds nothing."""
    inputs = golden.inputs
    if not inputs:
        return None
    rng = random.Random(_SIM_SEED)
    words = {name: rng.getrandbits(_SIM_WIDTH) for name in inputs}
    golden_words = output_words(golden, words, _SIM_WIDTH)
    cand_words = output_words(candidate, words, _SIM_WIDTH)
    mask = (1 << _SIM_WIDTH) - 1
    for port in ports:
        diff = (golden_words[port] ^ cand_words[port]) & mask
        if not diff:
            continue
        bit = (diff & -diff).bit_length() - 1
        metrics.count("sat.sim_refutations")
        return EquivalenceResult(
            equivalent=False,
            checked_outputs=len(ports),
            method="sim",
            failing_output=port,
            counterexample={n: (words[n] >> bit) & 1 for n in inputs},
            expected=(golden_words[port] >> bit) & 1,
            actual=(cand_words[port] >> bit) & 1,
        )
    return None


def check_equivalence(
    golden: Subject,
    candidate: Subject,
    use_simulation: bool = True,
    max_conflicts: Optional[int] = None,
) -> EquivalenceResult:
    """Prove or refute output-port equivalence of two subjects.

    Subjects may be networks or LUT circuits in any combination, under
    the interface rules of :func:`repro.verify.check_interfaces`.  The
    returned verdict is always conclusive: equivalence is an UNSAT proof
    per port, inequivalence carries a counterexample.
    """
    with span(
        "sat.check",
        golden=golden.name,
        candidate=candidate.name,
        granularity="whole",
    ) as sp:
        metrics.count("sat.checks")
        ports = check_interfaces(golden, candidate)
        if use_simulation:
            refuted = _simulation_counterexample(golden, candidate, ports)
            if refuted is not None:
                sp.set("result", "counterexample-sim")
                return refuted
        solver = CdclSolver()
        encoder = Encoder(solver)
        golden_out = _encode_outputs(encoder, golden)
        cand_out = _encode_outputs(encoder, candidate)
        for port in ports:
            miter = encoder.lit_xor(golden_out[port], cand_out[port])
            if encoder.is_false(miter):
                continue  # strash collapsed both sides to one literal
            if encoder.is_true(miter):
                satisfiable = True  # proven complements: all vectors differ
            else:
                satisfiable = solver.solve([miter], max_conflicts=max_conflicts)
            if satisfiable:
                if encoder.is_true(miter):
                    vector = {name: 0 for name in sorted(encoder.inputs)}
                    expected = output_words(
                        golden, {n: 0 for n in golden.inputs}, 1
                    )[port] & 1
                    actual = expected ^ 1
                else:
                    vector = _model_vector(solver, encoder)
                    expected = int(solver.model_value(golden_out[port]))
                    actual = int(solver.model_value(cand_out[port]))
                sp.set("result", "counterexample-sat")
                return EquivalenceResult(
                    equivalent=False,
                    checked_outputs=len(ports),
                    failing_output=port,
                    counterexample=vector,
                    expected=expected,
                    actual=actual,
                    stats=_finish_stats(solver, encoder),
                )
        sp.set("result", "equivalent")
        metrics.count("sat.proofs")
        return EquivalenceResult(
            equivalent=True,
            checked_outputs=len(ports),
            stats=_finish_stats(solver, encoder),
        )


# -- per-LUT cone checking ----------------------------------------------------


def check_per_lut(
    golden: Subject,
    candidate: LUTCircuit,
    max_conflicts: Optional[int] = None,
) -> PerLutResult:
    """MEC-style cone checking: localize the first mismatching LUT.

    Every candidate LUT whose name exists in the golden subject (a
    network node or a golden-circuit wire) is compared against that
    reference cone over the shared primary inputs.  LUTs with no golden
    namesake — synthetic decomposition wires — are skipped and counted.
    """
    with span(
        "sat.check",
        golden=golden.name,
        candidate=candidate.name,
        granularity="per-lut",
    ) as sp:
        metrics.count("sat.checks")
        if set(golden.inputs) != set(candidate.inputs):
            raise VerificationError(
                "input sets differ: %s vs %s"
                % (sorted(golden.inputs), sorted(candidate.inputs))
            )
        solver = CdclSolver()
        encoder = Encoder(solver)
        reference = _encode(encoder, golden)
        wires = encoder.encode_circuit(candidate)
        checked = skipped = 0
        inverted: List[str] = []
        for name in candidate.topological_order():
            ref_lit = reference.get(name)
            if ref_lit is None:
                skipped += 1
                continue
            checked += 1
            cand_lit = wires[name]
            miter = encoder.lit_xor(ref_lit, cand_lit)
            if encoder.is_false(miter):
                continue
            if encoder.is_true(miter):
                inverted.append(name)
                continue
            if not solver.solve([miter], max_conflicts=max_conflicts):
                continue  # proved equal
            vector = _model_vector(solver, encoder)
            expected = int(solver.model_value(ref_lit))
            actual = int(solver.model_value(cand_lit))
            if not solver.solve([-miter], max_conflicts=max_conflicts):
                inverted.append(name)  # proved complement
                continue
            sp.set("result", "corrupted")
            sp.set("failing_lut", name)
            metrics.count("sat.lut_mismatches")
            return PerLutResult(
                equivalent=False,
                checked_luts=checked,
                skipped_luts=skipped,
                inverted_luts=tuple(inverted),
                failing_lut=name,
                counterexample=vector,
                expected=expected,
                actual=actual,
                stats=_finish_stats(solver, encoder),
            )
        sp.set("result", "equivalent")
        sp.set("checked_luts", checked)
        metrics.count("sat.lut_cones_checked", checked)
        return PerLutResult(
            equivalent=True,
            checked_luts=checked,
            skipped_luts=skipped,
            inverted_luts=tuple(inverted),
            stats=_finish_stats(solver, encoder),
        )
