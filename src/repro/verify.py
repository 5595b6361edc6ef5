"""Functional equivalence of any two networks or LUT circuits.

:func:`verify_equivalence` is the one check: a golden subject against a
candidate, each a :class:`~repro.network.network.BooleanNetwork` or a
:class:`~repro.core.lut.LUTCircuit` (a mapping against its source, a
network pass against its input, or two mappings against each other).
Three methods, selected by the ``method`` argument:

* ``"sim"`` — the historical behavior: exhaustive simulation up to
  ``exhaustive_limit`` primary inputs, bit-parallel random vectors
  above it.  A random-vector pass is *sampling*, not proof; such runs
  are flagged on the returned :class:`VerifyResult` (``sampled``) and
  counted under ``verify.sampled`` so no caller mistakes them for an
  exhaustive verdict.
* ``"sat"`` — formal proof via the miter engine (:mod:`repro.sat`),
  independent of input count.
* ``"auto"`` — exhaustive simulation while it is affordable
  (``inputs <= exhaustive_limit``), SAT proof above that, so the
  verdict is *always* a proof — auto never silently degrades to
  sampling.

It returns a :class:`VerifyResult`, an ``int`` subclass carrying the
vector count (``2**inputs`` for proofs) plus the
``method``/``mode``/``sampled``/``proved`` verdict metadata, so code
and tests written against the historical plain-int return keep working.
:func:`check_interfaces` and :func:`output_words` are shared with the
miter engine's :func:`repro.sat.miter.check_equivalence`; they live here
so that importing this module never loads the SAT engine.
"""

from __future__ import annotations

import random
from typing import Dict, List, Union

from repro.core.lut import LUTCircuit
from repro.errors import VerificationError
from repro.network.network import BooleanNetwork
from repro.network.simulate import exhaustive_input_words, simulate
from repro.obs import metrics, span

METHODS = ("sim", "sat", "auto")

#: Input count up to which ``"sim"`` and ``"auto"`` simulate every vector.
EXHAUSTIVE_LIMIT = 14

Subject = Union[BooleanNetwork, LUTCircuit]


class VerifyResult(int):
    """The vector count of a verification run, with verdict metadata.

    An ``int`` subclass: equal to the number of input vectors the
    verdict covers (``2**inputs`` for exhaustive and SAT proofs, the
    sample size for random simulation), so arithmetic comparisons
    against the historical plain-int return still hold.
    """

    mode: str  # "exhaustive" | "random" | "sat"
    sampled: bool  # True when the verdict is a random sample, not a proof
    proved: bool

    def __new__(
        cls,
        vectors: int,
        mode: str = "exhaustive",
        sampled: bool = False,
        proved: bool = True,
    ) -> "VerifyResult":
        self = super().__new__(cls, vectors)
        self.mode = mode
        self.sampled = sampled
        self.proved = proved
        return self

    def __repr__(self) -> str:
        return "VerifyResult(%d, mode=%r, sampled=%r, proved=%r)" % (
            int(self), self.mode, self.sampled, self.proved,
        )


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise VerificationError(
            "unknown verify method %r; valid methods: %s"
            % (method, ", ".join(METHODS))
        )


def check_interfaces(golden: Subject, candidate: Subject) -> List[str]:
    """Validate shared inputs and ports; returns the ports to compare.

    The input sets must be equal and every golden port must exist in the
    candidate.  A network candidate must have exactly the golden ports: a
    network pass may not add or drop an output.
    """
    if set(golden.inputs) != set(candidate.inputs):
        raise VerificationError(
            "input sets differ: %s vs %s"
            % (sorted(golden.inputs), sorted(candidate.inputs))
        )
    if isinstance(candidate, BooleanNetwork):
        if set(golden.outputs) != set(candidate.outputs):
            raise VerificationError(
                "output port sets differ: %s vs %s"
                % (sorted(golden.outputs), sorted(candidate.outputs))
            )
    else:
        missing = set(golden.outputs) - set(candidate.outputs)
        if missing:
            raise VerificationError("missing output ports: %s" % sorted(missing))
    return sorted(golden.outputs)


def output_words(
    subject: Subject, words: Dict[str, int], width: int
) -> Dict[str, int]:
    """Bit-parallel output-port words of either subject kind."""
    if isinstance(subject, LUTCircuit):
        values = subject.simulate(words, width)
        return {port: values[wire] for port, wire in subject.outputs.items()}
    mask = (1 << width) - 1
    values = simulate(subject, words, width)
    out: Dict[str, int] = {}
    for port, sig in subject.outputs.items():
        word = values[sig.name]
        out[port] = (~word & mask) if sig.inv else word
    return out


def _format_vector(vector: Dict[str, int]) -> str:
    return " ".join("%s=%d" % (name, vector[name]) for name in sorted(vector))


def _sat_verify(golden, candidate, sp) -> VerifyResult:
    """SAT-prove equivalence; raises with the counterexample on mismatch."""
    from repro.sat.miter import check_equivalence

    sp.set("mode", "sat")
    result = check_equivalence(golden, candidate)
    metrics.count("verify.sat_runs")
    if not result.equivalent:
        raise VerificationError(
            "output %r differs (expected %d, got %d); counterexample: %s"
            % (
                result.failing_output,
                result.expected,
                result.actual,
                _format_vector(result.counterexample or {}),
            )
        )
    vectors = 1 << len(golden.inputs)
    sp.set("vectors", vectors)
    return VerifyResult(vectors, mode="sat")


def _sampled_result(width: int) -> VerifyResult:
    # A random pass that found no mismatch: record the degradation so
    # "equivalent" never silently means "equivalent on a sample".
    metrics.count("verify.sampled")
    return VerifyResult(width, mode="random", sampled=True, proved=False)


def verify_equivalence(
    golden: Subject,
    candidate: Subject,
    vectors: int = 4096,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    seed: int = 2026,
    method: str = "sim",
) -> VerifyResult:
    """Check every golden output port matches; returns the vectors covered.

    Raises :class:`VerificationError` on a mismatching port (the first
    in sorted port order) or on an interface mismatch (see
    :func:`check_interfaces`).  With ``method="sat"`` (always) or
    ``"auto"`` (above ``exhaustive_limit`` inputs) the check is a formal
    proof from the miter engine; ``"sim"`` preserves the historical
    exhaustive-or-random simulation and flags random runs as sampled.
    """
    _check_method(method)
    with span("verify.equivalence", network=golden.name) as sp:
        ports = check_interfaces(golden, candidate)
        inputs = golden.inputs
        metrics.count("verify.runs")

        if method == "sat" or (
            method == "auto" and len(inputs) > exhaustive_limit
        ):
            result = _sat_verify(golden, candidate, sp)
            metrics.count("verify.ports_checked", len(ports))
            return result

        if len(inputs) <= exhaustive_limit:
            words: Dict[str, int] = exhaustive_input_words(inputs)
            width = 1 << len(inputs)
            sp.set("mode", "exhaustive")
            sampled = False
        else:
            rng = random.Random(seed)
            width = vectors
            words = {name: rng.getrandbits(width) for name in inputs}
            sp.set("mode", "random")
            sp.set("sampled", True)
            sampled = True
        sp.set("vectors", width)

        expected = output_words(golden, words, width)
        actual = output_words(candidate, words, width)
        for port in ports:
            diff = expected[port] ^ actual[port]
            if diff:
                raise VerificationError(
                    "output %r differs on %d of %d vectors"
                    % (port, bin(diff).count("1"), width)
                )
        metrics.count("verify.vectors", width)
        metrics.count("verify.ports_checked", len(ports))
        if sampled:
            return _sampled_result(width)
        return VerifyResult(width, mode="exhaustive")
