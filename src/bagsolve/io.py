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
from itertools import count, filterfalse
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator, Sequence, Union

import numpy as np

from .core import Bag, BagValidationError

if TYPE_CHECKING:  # an annotation only: reading a BAG loads no solver
    from .continuous import Trajectory

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
_STATEMENT_LINE = r"[ \t]*(?:arg|att|sup)\("  # at a line start: a statement
_STATEMENT_RE = re.compile(
    rf"arg\s*\(\s*({_NAME})\s*,\s*({_NUMBER})\s*\)\s*\."
    rf"|att\s*\(\s*({_NAME})\s*,\s*({_NAME})\s*\)\s*\."
    rf"|sup\s*\(\s*({_NAME})\s*,\s*({_NAME})\s*\)\s*\."
    rf"|(?=\S)(?:[^.\n]|\.(?=\d)|\n(?!{_STATEMENT_LINE}))*\.?")
_COMMENT_RE = re.compile(r"#[^\n]*|//[^\n]*")
_NAME_RE = re.compile(_NAME)
# parse_bag reads the text in chunks of about this many characters: small
# enough that one chunk's strings are a small share of a solve's memory
CHUNK = 16_384
_CUT_RE = re.compile(rf"\n(?={_STATEMENT_LINE})")


@dataclass
class ParseDiagnostic:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


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

    A leading byte-order mark is ignored. The text is read in chunks of
    about ``CHUNK`` characters, each cut before a line that starts with a
    statement (statements that share one long line stay in one chunk).
    Each chunk's names become integer indices before the next chunk is
    read, so only about one chunk's strings are alive at a time, and the
    edges reach ``Bag`` as (k, 2) index arrays. The parser itself refuses
    only a statement its grammar does not match; whether the graph is
    valid (declared names, weights in [0, 1], no duplicate argument, no
    edge both attack and support) is for ``Bag`` alone to decide. Either
    way BagParseError carries one line/column-anchored diagnostic per
    problem in the whole text, so several can be reported at once.
    """
    text = source if isinstance(source, str) else source.read()
    if text.startswith("\ufeff"):
        text = text[1:]
    if "#" in text or "//" in text:
        text = _blank_comments(text)
    ids = _Ids()
    stride = _STATEMENT_RE.groups + 1
    names: list[str] = []
    weights, declared, attacks, supports = [], [], [], []
    for chunk in _chunks(text):
        # split() lists the blanks before each statement, then its six
        # groups (None if unmatched): one list of strings, not a tuple per
        # statement
        parts = _STATEMENT_RE.split(chunk)
        decl, weight_texts, att_src, att_dst, sup_src, sup_dst = (
            list(filter(None, parts[i::stride])) for i in range(1, stride))
        if len(decl) + len(att_src) + len(sup_src) != len(parts) // stride:
            raise BagParseError(_diagnose(text))  # a malformed statement
        names += decl
        weights.append(np.fromiter(map(float, weight_texts), float,
                                   len(weight_texts)))
        declared.append(ids.declare(decl))
        attacks.append(ids.refer(att_src, att_dst))
        supports.append(ids.refer(sup_src, sup_dst))
    # provisional id -> declaration order; -1 for a name never declared,
    # an index that Bag refuses as a missing argument
    index = np.full(next(ids.counter), -1, dtype=np.intp)
    del ids  # names holds the strings: the table is not needed in Bag
    index[np.concatenate(declared)] = np.arange(len(names))
    # (k, 2) argument indices, as views of (2, k) arrays
    attacks = index[np.concatenate(attacks, axis=1)].T
    supports = index[np.concatenate(supports, axis=1)].T
    try:
        return Bag(names, np.concatenate(weights), attacks, supports)
    except BagValidationError:  # Bag refused the graph: say where and why
        raise BagParseError(_diagnose(text)) from None


class _Ids(dict):
    # name -> provisional id, each id drawn once from one counter: by
    # setdefault for a declaration (no Python call per name), and on first
    # sight for a name that an edge references before its declaration
    def __init__(self) -> None:
        super().__init__()
        self.counter = count()

    def __missing__(self, name: str) -> int:
        self[name] = i = next(self.counter)
        return i

    def declare(self, names: list[str]) -> np.ndarray:
        return np.fromiter(map(self.setdefault, names, self.counter),
                           np.intp, len(names))

    def refer(self, sources: list[str], targets: list[str]) -> np.ndarray:
        # (2, k) ids: the edges sources[j] -> targets[j], as columns
        ends = sources + targets
        return np.fromiter(map(self.__getitem__, ends), np.intp,
                           len(ends)).reshape(2, -1)


def _chunks(text: str) -> Iterator[str]:
    # Pieces of text, each cut at the first line break from CHUNK characters
    # on that starts a statement line. _STATEMENT_RE stops a malformed
    # statement before such a break and no valid statement holds one, so
    # the pieces split into the same statements as the whole text.
    start = 0
    while True:
        cut = _CUT_RE.search(text, start + CHUNK)
        if cut is None:
            yield text[start:]
            return
        yield text[start:cut.start()]
        start = cut.start()


def _diagnose(text: str) -> list[ParseDiagnostic]:
    # Every problem in text (comments blanked), in the order: malformed
    # statements, then declarations, then edges. parse_bag calls this only
    # on a malformed statement or when Bag refused the graph, and each of
    # Bag's refusals has its diagnostic here.
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
        if not 0.0 <= float(weight_text) <= 1.0:
            error(offset, f"weight {weight_text} of argument {name!r} "
                          f"outside [0,1]")
        if name in declared:
            error(offset, f"duplicate declaration of argument {name!r}")
        declared.add(name)  # known despite a bad weight, so edges resolve

    relations: dict[str, set[tuple[str, str]]] = {"att": set(), "sup": set()}
    for offset, kind, src, dst in edge_stmts:
        # an edge from an argument to itself names it once
        missing = [n for n in dict.fromkeys((src, dst)) if n not in declared]
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


def _check_names(names: Sequence[str]) -> None:
    # Written verbatim, a name outside the format's name syntax would give
    # text that reads back as another graph, or not at all
    bad = next(filterfalse(_NAME_RE.fullmatch, names), None)
    if bad is not None:
        raise ValueError(f"argument name {bad!r} does not match {_NAME}")


def serialize_bag(bag: Bag) -> str:
    """Render a Bag in the text format; parse_bag(serialize_bag(b)) == b.

    Weights use Python's shortest round-trip representation, so full double
    precision survives the trip. A name outside ``[A-Za-z_][A-Za-z0-9_]*``
    raises ValueError before anything is rendered.
    """
    names = bag.names
    _check_names(names)
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
    return str(int(t)) if float(t).is_integer() else repr(t)


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
    sink: Union[str, Path, IO[str]],
) -> None:
    """Write one CSV row per sampled state, preceded by a ``t,<names...>`` header
    (``t`` alone, and rows of the time alone, for no names).

    Values carry full round-trip precision. ``sink`` may be a path or an open
    text stream. A name outside ``[A-Za-z_][A-Za-z0-9_]*``, a state of
    another arity, or lists of times and states of unequal length raise
    ValueError before anything is written.
    """
    if len(trajectory.states) != len(trajectory):
        raise ValueError(f"{len(trajectory)} times but "
                         f"{len(trajectory.states)} states")
    if len(trajectory) == 0:
        raise ValueError("refusing to write an empty trajectory")
    _check_names(names)
    width = len(names)
    for state in trajectory.states:
        if len(state) != width:
            raise ValueError(
                f"state arity {len(state)} does not match {width} names")
    sep = "," if width else ""
    # one line at a time: the whole table as one string would take several
    # times the memory of the trajectory itself
    def rows():
        yield "t" + sep + ",".join(names) + "\n"
        for t, state in zip(trajectory.times, trajectory.states):
            row = _row_text(np.asarray(state, dtype=float))
            yield _format_time(t) + sep + row + "\n"

    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as out:
            out.writelines(rows())
    else:
        sink.writelines(rows())
