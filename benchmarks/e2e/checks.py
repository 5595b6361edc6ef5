"""Output checks that share no code with the program under test.

The benchmark judges the mapper's BLIF output with its own small BLIF
reader and bit-parallel evaluator, and judges the SAT engine's verdicts
against exhaustive simulation done here.  Nothing in this module imports
``repro``: a bug in the program's parser, simulator or verifier cannot
also hide itself from the check.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: Vectors per random-simulation comparison.
VECTORS = 4096


class Table(NamedTuple):
    """One ``.names`` table: output = OR of cubes (inverted when phase 0)."""

    inputs: Tuple[str, ...]
    output: str
    cubes: Tuple[str, ...]
    phase: int


class Model(NamedTuple):
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    tables: Dict[str, Table]


def read_blif(text: str) -> Model:
    """Parse one combinational BLIF model (``.names`` tables only)."""
    inputs: List[str] = []
    outputs: List[str] = []
    tables: Dict[str, Table] = {}
    current: Optional[Tuple[Tuple[str, ...], str]] = None
    cubes: List[str] = []
    phases = set()

    def close() -> None:
        if current is None:
            return
        if len(phases) > 1:
            raise ValueError("table %r mixes on-set and off-set rows" % current[1])
        phase = phases.pop() if phases else 1  # no rows: constant 0
        tables[current[1]] = Table(current[0], current[1], tuple(cubes), phase)

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0].startswith("."):
            close()
            current, cubes, phases = None, [], set()
            if words[0] == ".inputs":
                inputs.extend(words[1:])
            elif words[0] == ".outputs":
                outputs.extend(words[1:])
            elif words[0] == ".names":
                current = (tuple(words[1:-1]), words[-1])
            elif words[0] not in (".model", ".end"):
                raise ValueError("unsupported BLIF directive %r" % words[0])
            continue
        if current is None:
            raise ValueError("table row outside .names: %r" % line)
        if len(current[0]) == 0:
            cube, bit = "", words[0]
        else:
            cube, bit = words[0], words[1]
        if len(cube) != len(current[0]) or bit not in ("0", "1"):
            raise ValueError("malformed row %r in table %r" % (line, current[1]))
        cubes.append(cube)
        phases.add(int(bit))
    close()
    return Model(tuple(inputs), tuple(outputs), tables)


def _evaluate_table(table: Table, values: Dict[str, int], mask: int) -> int:
    words = [values[name] for name in table.inputs]
    result = 0
    for cube in table.cubes:
        term = mask
        for ch, word in zip(cube, words):
            if ch == "1":
                term &= word
            elif ch == "0":
                term &= mask ^ word
        result |= term
    return result if table.phase else mask ^ result


def evaluate(model: Model, words: Dict[str, int], mask: int) -> Dict[str, int]:
    """Every output's word, tables evaluated in dependency order."""
    values = {name: words[name] for name in model.inputs}
    for root in model.outputs:
        stack = [root]
        while stack:
            name = stack[-1]
            if name in values:
                stack.pop()
                continue
            table = model.tables.get(name)
            if table is None:
                raise ValueError("signal %r is never defined" % name)
            pending = [i for i in table.inputs if i not in values]
            if pending:
                if len(stack) > 4 * len(model.tables) + 8:
                    raise ValueError("combinational cycle through %r" % name)
                stack.extend(pending)
                continue
            values[name] = _evaluate_table(table, values, mask)
            stack.pop()
    return {name: values[name] for name in model.outputs}


def random_words(names: Iterable[str], seed: int, width: int = VECTORS) -> Dict[str, int]:
    rng = random.Random(seed)
    return {name: rng.getrandbits(width) for name in sorted(names)}


def exhaustive_words(names: Sequence[str]) -> Tuple[Dict[str, int], int]:
    """Input words enumerating all ``2**len(names)`` vectors, and the width."""
    width = 1 << len(names)
    words: Dict[str, int] = {}
    for i, name in enumerate(names):
        block = 1 << i
        word, span = ((1 << block) - 1) << block, 2 * block
        while span < width:
            word |= word << span
            span *= 2
        words[name] = word
    return words, width


def _port_of(port: str, outputs: Sequence[str]) -> str:
    # The writer renames a port that collides with a table name.
    if port in outputs:
        return port
    if port + "_out" in outputs:
        return port + "_out"
    raise ValueError("mapped circuit has no output port %r" % port)


def blif_mismatches(source: Model, mapped: Model, seed: int) -> List[str]:
    """Ports on which ``mapped`` differs from ``source`` over random vectors."""
    if set(mapped.inputs) != set(source.inputs):
        return ["<inputs>"]
    words = random_words(source.inputs, seed)
    mask = (1 << VECTORS) - 1
    want = evaluate(source, words, mask)
    got = evaluate(mapped, words, mask)
    bad = []
    for port in source.outputs:
        if want[port] != got[_port_of(port, mapped.outputs)]:
            bad.append(port)
    return bad


def count_luts(mapped: Model) -> int:
    """Tables with two or more inputs: the paper's LUT count."""
    return sum(1 for table in mapped.tables.values() if len(table.inputs) >= 2)


def circuit_words(
    luts: Iterable[Tuple[str, Tuple[str, ...], int]],
    outputs: Dict[str, str],
    words: Dict[str, int],
    mask: int,
) -> Dict[str, int]:
    """Evaluate a LUT circuit given as ``(name, inputs, truth bits)`` rows.

    Bit ``m`` of a table's truth bits is its value when input ``j``
    carries bit ``j`` of ``m``.
    """
    tables: Dict[str, Table] = {}
    for name, inputs, bits in luts:
        cubes = tuple(
            "".join("1" if (m >> j) & 1 else "0" for j in range(len(inputs)))
            for m in range(1 << len(inputs))
            if (bits >> m) & 1
        )
        tables[name] = Table(tuple(inputs), name, cubes, 1)
    model = Model(tuple(words), tuple(dict.fromkeys(outputs.values())), tables)
    values = evaluate(model, words, mask)
    return {port: values[signal] for port, signal in outputs.items()}
