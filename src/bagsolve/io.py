"""Text format for BAGs plus CSV export of solver trajectories.

The on-disk format is three statement kinds, period-terminated::

    arg(<name>,<weight>).
    att(<from>,<to>).
    sup(<from>,<to>).

Names match ``[A-Za-z_][A-Za-z0-9_]*``; weights are decimal literals (an
optional exponent is accepted so serialized values always parse back).
``#`` and ``//`` start comments that run to the end of the line. Whitespace
is insignificant, so several statements may share a line, though the
serializer emits one per line. Argument order in the parsed Bag is
declaration order.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

from .core import Bag
from .results import Trajectory

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"

_ARG_RE = re.compile(
    rf"arg\s*\(\s*(?P<name>{_NAME})\s*,\s*(?P<weight>{_NUMBER})\s*\)\s*\.")
_EDGE_RE = re.compile(
    rf"(?P<kind>att|sup)\s*\(\s*(?P<src>{_NAME})\s*,\s*(?P<dst>{_NAME})\s*\)\s*\.")
_COMMENT_RE = re.compile(r"#[^\n]*|//[^\n]*")


@dataclass
class ParseDiagnostic:
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


class BagParseError(ValueError):
    """Input text did not describe a valid BAG."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


def _blank_comments(text: str) -> str:
    # Replace comment bodies with spaces so offsets keep pointing at the
    # original line/column positions.
    return _COMMENT_RE.sub(lambda m: " " * len(m.group(0)), text)


def parse_bag(source: Union[str, IO[str]]) -> Bag:
    """Parse BAG text into a validated Bag.

    Raises BagParseError carrying one line/column-anchored diagnostic per
    problem found; parsing continues past errors so several can be reported
    at once.
    """
    text = source if isinstance(source, str) else source.read()
    clean = _blank_comments(text)
    diagnostics: list[ParseDiagnostic] = []
    line_starts: list[int] = []  # filled on the first diagnostic

    def error(offset: int, message: str) -> None:
        if not line_starts:
            line_starts.append(0)
            line_starts.extend(m.end() for m in re.finditer("\n", clean))
        line = bisect_right(line_starts, offset)
        diagnostics.append(ParseDiagnostic(
            line, offset - line_starts[line - 1] + 1, message))

    # lexical pass: collect statements, recovering at the next period
    arg_stmts: list[tuple[int, str, str]] = []   # (offset, name, weight text)
    edge_stmts: list[tuple[int, str, str, str]] = []  # (offset, kind, src, dst)
    pos = 0
    end = len(clean)
    while pos < end:
        if clean[pos].isspace():
            pos += 1
            continue
        m = _ARG_RE.match(clean, pos)
        if m:
            arg_stmts.append((pos, m.group("name"), m.group("weight")))
            pos = m.end()
            continue
        m = _EDGE_RE.match(clean, pos)
        if m:
            edge_stmts.append((pos, m.group("kind"), m.group("src"), m.group("dst")))
            pos = m.end()
            continue
        error(pos, f"malformed statement (expected arg/att/sup): "
                   f"{clean[pos:pos + 24].split(chr(10))[0].rstrip()!r}")
        skip = clean.find(".", pos)
        pos = end if skip == -1 else skip + 1

    # declaration pass
    names: list[str] = []
    weights: list[float] = []
    index: dict[str, int] = {}
    for offset, name, weight_text in arg_stmts:
        if name in index:
            error(offset, f"duplicate declaration of argument {name!r}")
            continue
        w = float(weight_text)
        if not 0.0 <= w <= 1.0:
            error(offset, f"weight {weight_text} of argument {name!r} "
                          f"outside [0,1]")
            w = min(max(w, 0.0), 1.0)  # keep the name known so edges resolve
        index[name] = len(names)
        names.append(name)
        weights.append(w)

    # edge pass
    attacks: set[tuple[int, int]] = set()
    supports: set[tuple[int, int]] = set()
    for offset, kind, src, dst in edge_stmts:
        missing = [n for n in (src, dst) if n not in index]
        if missing:
            for n in missing:
                error(offset, f"edge references undeclared argument {n!r}")
            continue
        pair = (index[src], index[dst])
        other = supports if kind == "att" else attacks
        if pair in other:
            error(offset, f"({src},{dst}) is declared both as attack and "
                          f"support; a parent must be one or the other")
            continue
        (attacks if kind == "att" else supports).add(pair)

    if diagnostics:
        raise BagParseError(diagnostics)
    return Bag(names, weights, attacks, supports)


def serialize_bag(bag: Bag) -> str:
    """Render a Bag in the text format; parse_bag(serialize_bag(b)) == b.

    Weights use Python's shortest round-trip representation, so full double
    precision survives the trip.
    """
    names = bag.names
    lines = [f"arg({name},{w!r})." for name, w in zip(names, bag.weights.tolist())]
    targets = bag.targets()
    for kind, sign in (("att", -1.0), ("sup", 1.0)):
        mask = bag.sign == sign
        src, tgt = bag.src[mask], targets[mask]
        order = np.lexsort((tgt, src))  # by source, then target
        lines += [f"{kind}({names[u]},{names[v]})."
                  for u, v in zip(src[order].tolist(), tgt[order].tolist())]
    return "\n".join(lines) + "\n"


def _format_time(t: float) -> str:
    return str(int(t)) if t == int(t) else repr(t)


def write_trajectory_csv(
    trajectory: Trajectory,
    names: Sequence[str],
    sink: Union[str, Path, IO[str], IO[bytes]],
) -> None:
    """Write one CSV row per sampled state, preceded by a ``t,<names...>`` header.

    Values carry full round-trip precision. ``sink`` may be a path or an open
    text/binary stream.
    """
    if len(trajectory) == 0:
        raise ValueError("refusing to write an empty trajectory")
    width = len(names)
    for state in trajectory.states:
        if len(state) != width:
            raise ValueError(
                f"state arity {len(state)} does not match {width} names")
    # one line at a time: the whole table as one string would take several
    # times the memory of the trajectory itself
    def rows():
        yield "t," + ",".join(names) + "\n"
        for t, state in zip(trajectory.times, trajectory.states):
            values = np.asarray(state, dtype=float).tolist()
            yield _format_time(t) + "," + ",".join(map(repr, values)) + "\n"

    lines = rows()
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as out:
            out.writelines(lines)
        return
    header = next(lines)
    try:
        sink.write(header)
    except TypeError:
        sink.write(header.encode("utf-8"))
        sink.writelines(line.encode("utf-8") for line in lines)
    else:
        sink.writelines(lines)
