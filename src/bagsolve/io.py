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

from .core import Bag, BagValidationError
from .results import Trajectory

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# ASCII digits only: \d and float() also accept other scripts' digits.
# [0-9]+(?:\.[0-9]*)? rather than [0-9]+\.?[0-9]*: the two match the same
# literals, but the second backtracks quadratically over a long digit run
# that fails.
_NUMBER = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

# One match per statement, starting at its first non-blank character. An
# argument fills groups 1-2 (name, weight), an attack groups 3-4 and a
# support groups 5-6 (source, target). A malformed statement fills none; it
# runs to the period that ends it, where a period followed by a digit is a
# decimal point, so a statement with a weight in it gives one diagnostic.
# It also ends before a line break when the next line starts with arg(,
# att( or sup(, so a missing period does not swallow the next statement.
# That lookahead stops at the next line break: the scan stays linear.
_STATEMENT_RE = re.compile(
    rf"arg\s*\(\s*({_NAME})\s*,\s*({_NUMBER})\s*\)\s*\."
    rf"|att\s*\(\s*({_NAME})\s*,\s*({_NAME})\s*\)\s*\."
    rf"|sup\s*\(\s*({_NAME})\s*,\s*({_NAME})\s*\)\s*\."
    r"|(?=\S)(?:[^.\n]|\.(?=\d)|\n(?![ \t]*(?:arg|att|sup)\())*\.?")
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

    A leading byte-order mark is ignored. Raises BagParseError carrying one
    line/column-anchored diagnostic per problem found; parsing continues
    past errors so several can be reported at once.
    """
    text = source if isinstance(source, str) else source.read()
    if text.startswith("\ufeff"):
        text = text[1:]
    if "#" in text or "//" in text:
        text = _blank_comments(text)
    # split() lists the blanks before each statement, then its six groups
    # (None if unmatched): one list of strings, not a tuple per statement
    parts = _STATEMENT_RE.split(text)
    stride = _STATEMENT_RE.groups + 1
    statements = len(parts) // stride
    names, weight_texts, att_src, att_dst, sup_src, sup_dst = (
        list(filter(None, parts[i::stride])) for i in range(1, stride))
    del parts  # freed before Bag allocates its arrays: a lower peak
    weights = list(map(float, weight_texts))
    index = dict(zip(names, range(len(names))))
    if (len(names) + len(att_src) + len(sup_src) == statements  # none malformed
            and len(index) == len(names)
            and 0.0 <= min(weights, default=0.0)
            and max(weights, default=0.0) <= 1.0):
        get = index.__getitem__
        try:
            attacks = zip(list(map(get, att_src)), list(map(get, att_dst)))
            supports = zip(list(map(get, sup_src)), list(map(get, sup_dst)))
            return Bag(names, weights, attacks, supports)
        except (KeyError, BagValidationError):
            pass  # an undeclared name, or a pair both attack and support
    raise BagParseError(_diagnose(text))


def _diagnose(text: str) -> list[ParseDiagnostic]:
    # Every problem in text (comments blanked), in the order: malformed
    # statements, then declarations, then edges. parse_bag calls this only
    # when a check failed, and each check has its diagnostic here.
    diagnostics: list[ParseDiagnostic] = []
    line_starts = [0, *(m.end() for m in re.finditer("\n", text))]

    def error(offset: int, message: str) -> None:
        line = bisect_right(line_starts, offset)
        diagnostics.append(ParseDiagnostic(
            line, offset - line_starts[line - 1] + 1, message))

    arg_stmts: list[tuple[int, str, str]] = []   # (offset, name, weight text)
    edge_stmts: list[tuple[int, str, str, str]] = []  # (offset, kind, src, dst)
    for m in _STATEMENT_RE.finditer(text):
        pos = m.start()
        name, weight, att_src, att_dst, sup_src, sup_dst = m.groups()
        if name:
            arg_stmts.append((pos, name, weight))
        elif att_src:
            edge_stmts.append((pos, "att", att_src, att_dst))
        elif sup_src:
            edge_stmts.append((pos, "sup", sup_src, sup_dst))
        else:
            error(pos, f"malformed statement (expected arg/att/sup): "
                       f"{text[pos:pos + 24].split(chr(10))[0].rstrip()!r}")

    declared: set[str] = set()
    for offset, name, weight_text in arg_stmts:
        if name in declared:
            error(offset, f"duplicate declaration of argument {name!r}")
            continue
        if not 0.0 <= float(weight_text) <= 1.0:
            error(offset, f"weight {weight_text} of argument {name!r} "
                          f"outside [0,1]")
        declared.add(name)  # known despite a bad weight, so edges resolve

    relations: dict[str, set[tuple[str, str]]] = {"att": set(), "sup": set()}
    for offset, kind, src, dst in edge_stmts:
        missing = [n for n in (src, dst) if n not in declared]
        if missing:
            for n in missing:
                error(offset, f"edge references undeclared argument {n!r}")
            continue
        if (src, dst) in relations["sup" if kind == "att" else "att"]:
            error(offset, f"({src},{dst}) is declared both as attack and "
                          f"support; a parent must be one or the other")
            continue
        relations[kind].add((src, dst))
    return diagnostics


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


def _row_text(state: np.ndarray) -> str:
    # ",".join(map(repr, values)); a row whose first 8 values repeat formats
    # each distinct bit pattern once (so 0.0 and -0.0 keep their own text)
    values = state.tolist()
    head = values[:8]
    if len(set(head)) == len(head):
        return ",".join(map(repr, values))
    bits = state.view(np.int64).tolist()
    text = {b: repr(v) for b, v in dict(zip(bits, values)).items()}
    return ",".join(map(text.__getitem__, bits))


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
            row = _row_text(np.asarray(state, dtype=float))
            yield _format_time(t) + "," + row + "\n"

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
