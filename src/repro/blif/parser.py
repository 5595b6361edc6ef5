"""A BLIF parser for combinational models.

Supports ``.model``, ``.inputs``, ``.outputs``, ``.names``, ``.end``,
comments, and backslash line continuations.  Sequential and hierarchical
constructs (``.latch``, ``.subckt``, ``.gate``) are rejected with a clear
error since the paper's mapping problem is purely combinational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import BlifError
from repro.blif.sop import SopCover

_REJECTED = {".latch", ".subckt", ".gate", ".mlatch", ".clock"}
_IGNORED_PREFIXES = (".default_", ".input_arrival", ".output_required", ".area",
                     ".delay", ".wire_load", ".exdc")


@dataclass
class BlifModel:
    """A parsed combinational BLIF model."""

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    tables: List[SopCover] = field(default_factory=list)

    def table_map(self) -> Dict[str, SopCover]:
        return {t.output: t for t in self.tables}

    def validate(self) -> None:
        defined = set(self.inputs)
        for table in self.tables:
            if table.output in defined:
                raise BlifError("signal %r defined more than once" % table.output)
            defined.add(table.output)
        for table in self.tables:
            for name in table.inputs:
                if name not in defined:
                    raise BlifError(
                        "table %r reads undefined signal %r" % (table.output, name)
                    )
        for out in self.outputs:
            if out not in defined:
                raise BlifError("output %r is never defined" % out)


def _logical_lines(text: str) -> List[Tuple[int, str]]:
    """Strip comments, join continuations; returns (lineno, text) pairs."""
    lines: List[Tuple[int, str]] = []
    pending = ""
    pending_start = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        hash_pos = raw.find("#")
        if hash_pos >= 0:
            raw = raw[:hash_pos]
        raw = raw.rstrip()
        if pending:
            current = pending + " " + raw.strip()
            start = pending_start
        else:
            current = raw.strip()
            start = lineno
        if current.endswith("\\"):
            pending = current[:-1].rstrip()
            pending_start = start
            continue
        pending = ""
        if current:
            lines.append((start, current))
    if pending:
        raise BlifError("line %d: dangling line continuation" % pending_start)
    return lines


def parse_blif(text: str, validate: bool = True) -> BlifModel:
    """Parse BLIF text into a :class:`BlifModel` (first model only)."""
    model: Optional[BlifModel] = None
    current_names: Optional[Tuple[List[str], str]] = None
    cube_lines: List[Tuple[int, str]] = []
    ended = False

    def flush_names() -> None:
        nonlocal current_names, cube_lines
        if current_names is None:
            return
        inputs, output = current_names
        cubes: List[str] = []
        phase: Optional[int] = None
        for lineno, line in cube_lines:
            parts = line.split()
            if inputs:
                if len(parts) == 1 and len(parts[0]) == len(inputs) + 1:
                    # Dense form like "11-1" with output glued on.
                    in_part, out_part = parts[0][:-1], parts[0][-1]
                elif len(parts) == 2:
                    in_part, out_part = parts
                else:
                    raise BlifError(
                        "line %d: malformed cube %r for table %r"
                        % (lineno, line, output)
                    )
            else:
                if len(parts) != 1:
                    raise BlifError(
                        "line %d: malformed constant line %r" % (lineno, line)
                    )
                in_part, out_part = "", parts[0]
            if out_part not in ("0", "1"):
                raise BlifError(
                    "line %d: cube output must be 0 or 1, got %r"
                    % (lineno, out_part)
                )
            value = int(out_part)
            if phase is None:
                phase = value
            elif phase != value:
                raise BlifError(
                    "line %d: table %r mixes on-set and off-set lines"
                    % (lineno, output)
                )
            cubes.append(in_part)
        if phase is None:
            phase = 1  # empty cover: constant 0
            cubes = []
        model.tables.append(SopCover(inputs, output, cubes, phase=phase))
        current_names = None
        cube_lines = []

    for lineno, line in _logical_lines(text):
        if line.startswith("."):
            parts = line.split()
            keyword = parts[0]
            if keyword in _REJECTED:
                raise BlifError(
                    "line %d: %s is not supported (combinational models only)"
                    % (lineno, keyword)
                )
            if keyword == ".model":
                flush_names()
                if model is not None:
                    break  # only the first model is read
                model = BlifModel(parts[1] if len(parts) > 1 else "model")
                continue
            if model is None:
                raise BlifError("line %d: %s before .model" % (lineno, keyword))
            if ended:
                break
            if keyword == ".inputs":
                flush_names()
                model.inputs.extend(parts[1:])
            elif keyword == ".outputs":
                flush_names()
                model.outputs.extend(parts[1:])
            elif keyword == ".names":
                flush_names()
                if len(parts) < 2:
                    raise BlifError("line %d: .names needs an output" % lineno)
                current_names = (parts[1:-1], parts[-1])
            elif keyword == ".end":
                flush_names()
                ended = True
            elif any(keyword.startswith(p) for p in _IGNORED_PREFIXES):
                continue
            else:
                raise BlifError(
                    "line %d: unsupported construct %r" % (lineno, keyword)
                )
        else:
            if current_names is None:
                raise BlifError(
                    "line %d: cube line %r outside a .names table" % (lineno, line)
                )
            cube_lines.append((lineno, line))

    if model is None:
        raise BlifError("no .model found")
    flush_names()
    if validate:
        model.validate()
    return model


def parse_blif_file(path, validate: bool = True) -> BlifModel:
    """Parse a BLIF file from disk.

    A file that cannot be opened or decoded as UTF-8 raises
    :class:`BlifError`, like a malformed one.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BlifError("cannot read BLIF file %r: %s" % (str(path), exc)) from exc
    return parse_blif(text, validate=validate)
