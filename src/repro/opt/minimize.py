"""Two-level SOP minimization (the ``simplify`` step of the MIS script).

Exact Quine-McCluskey prime generation with a greedy-plus-essential
cover selection.  Exact minimization is exponential, so it is reserved
for the table sizes that occur in BLIF ``.names`` covers (bounded by
``max_inputs``); larger covers fall back to fast single-cube-containment
cleanup, which is what MIS's ``simplify`` degrades to as well.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.blif.sop import SopCover
from repro.truth.truthtable import TruthTable

# A QM implicant: (values, mask) where bit j of `mask` means "don't care"
# and, for cared positions, bit j of `values` is the literal polarity.
Implicant = Tuple[int, int]

# Covers wider than this get single-cube containment instead of exact
# minimization.
EXACT_MAX_INPUTS = 10


def _implicant_covers(imp: Implicant, minterm: int) -> bool:
    values, mask = imp
    return (minterm & ~mask) == (values & ~mask)


def prime_implicants(tt: TruthTable) -> List[Implicant]:
    """All prime implicants of the function, by iterated merging.

    Two implicants merge when they share a mask and differ in exactly one
    cared bit; the one holding a 0 there finds its partner by a set
    lookup of the implicant with that bit set, so each round is linear in
    the implicants times the variables instead of quadratic.
    """
    variables = (1 << tt.nvars) - 1
    current: Set[Implicant] = {(m, 0) for m in tt.minterms()}
    primes: Set[Implicant] = set()
    while current:
        merged: Set[Implicant] = set()
        used: Set[Implicant] = set()
        for implicant in current:
            values, mask = implicant
            zeros = variables & ~(values | mask)
            while zeros:
                bit = zeros & -zeros
                zeros ^= bit
                partner = (values | bit, mask)
                if partner in current:
                    merged.add((values, mask | bit))
                    used.add(implicant)
                    used.add(partner)
        primes |= current - used
        current = merged
    return sorted(primes)


def _select_cover(
    primes: List[Implicant], minterms: List[int]
) -> List[Implicant]:
    """Essential primes first, then greedy set cover of the rest."""
    remaining = set(minterms)
    coverage: Dict[Implicant, Set[int]] = {
        p: {m for m in minterms if _implicant_covers(p, m)} for p in primes
    }
    chosen: List[Implicant] = []

    # Essential primes: minterms covered by exactly one prime.
    for m in minterms:
        covering = [p for p in primes if m in coverage[p]]
        if len(covering) == 1 and covering[0] not in chosen:
            chosen.append(covering[0])
    for p in chosen:
        remaining -= coverage[p]

    while remaining:
        best = max(
            primes,
            key=lambda p: (len(coverage[p] & remaining), -bin(~p[1]).count("1")),
        )
        gain = coverage[best] & remaining
        if not gain:
            raise AssertionError("prime cover selection stalled")
        chosen.append(best)
        remaining -= gain
    return chosen


def minimize_truth_table(tt: TruthTable) -> List[Implicant]:
    """A small prime cover of the on-set (empty list for constant 0)."""
    minterms = list(tt.minterms())
    if not minterms:
        return []
    primes = prime_implicants(tt)
    return _select_cover(primes, minterms)


def _implicant_to_cube(imp: Implicant, width: int) -> str:
    values, mask = imp
    chars = []
    for j in range(width):
        if (mask >> j) & 1:
            chars.append("-")
        else:
            chars.append("1" if (values >> j) & 1 else "0")
    return "".join(chars)


def _single_cube_containment(cover: SopCover) -> SopCover:
    """Drop cubes contained in other cubes (cheap, any size)."""
    def contains(big: str, small: str) -> bool:
        return all(b == "-" or b == s for b, s in zip(big, small))

    kept: List[str] = []
    cubes = sorted(cover.cubes, key=lambda c: c.count("-"), reverse=True)
    for cube in cubes:
        if not any(contains(other, cube) for other in kept):
            kept.append(cube)
    return SopCover(cover.inputs, cover.output, kept, phase=cover.phase)


def minimize_cover(
    cover: SopCover, max_inputs: int = EXACT_MAX_INPUTS
) -> SopCover:
    """Minimize a BLIF cover, preserving its function exactly.

    Covers with at most ``max_inputs`` columns get exact Quine-McCluskey
    minimization (both phases are tried, keeping the smaller); wider
    covers get single-cube-containment cleanup only.
    """
    if cover.is_constant():
        value = cover.constant_value()
        if not cover.inputs:
            return SopCover.constant(cover.output, value)
        # Keep the column interface; dropping unused inputs is the
        # caller's (sweep's) job.
        width = cover.num_inputs
        return SopCover(
            cover.inputs, cover.output, ["-" * width] if value else [], phase=1
        )
    if cover.num_inputs > max_inputs:
        return _single_cube_containment(cover)
    return minimize_function(cover.inputs, cover.output, cover.truth_table())


def minimize_function(
    inputs: Sequence[str], output: str, tt: TruthTable
) -> SopCover:
    """An exact minimized cover of ``tt`` over the named inputs.

    Both phases are minimized; the cover with fewer cubes, then fewer
    literals, is kept (a constant function comes out as a cube-less
    cover of the matching phase).
    """
    on_cover = minimize_truth_table(tt)
    off_cover = minimize_truth_table(~tt)
    width = len(inputs)

    def literals(imps: List[Implicant]) -> int:
        return sum(width - bin(m[1]).count("1") for m in imps)

    use_off = (len(off_cover), literals(off_cover)) < (
        len(on_cover),
        literals(on_cover),
    )
    imps = off_cover if use_off else on_cover
    cubes = [_implicant_to_cube(i, width) for i in imps]
    return SopCover(inputs, output, cubes, phase=0 if use_off else 1)


def minimize_model_tables(model, max_inputs: int = EXACT_MAX_INPUTS):
    """Minimize every table of a parsed BLIF model in place; returns it."""
    model.tables = [minimize_cover(t, max_inputs=max_inputs) for t in model.tables]
    return model
