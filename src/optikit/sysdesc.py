"""Plain-text description format for optical systems and resonators.

Grammar (line oriented; '#' starts a comment; keywords are case sensitive;
key=value fields may appear in any order within a line):

    document   := header body
    header     := "[system]" | "[resonator]"
    system     := (freespace interface)* freespace
    resonator  := interface (freespace interface)+
    freespace  := "freespace" "n=" REAL "d=" REAL
    interface  := "interface" ("plane" | "spherical" "R=" REAL)
                  ["kind=" ("transmitted" | "reflected")]

A [system] alternates freespace/interface lines and ends on its terminal
freespace.  In a [resonator] the first and last interfaces are the mirrors
(implicitly reflected; kind= is rejected there), each interior (freespace,
interface) pair is an inner component (transmitted unless kind=reflected),
and the final freespace before the right mirror is the cavity space.

Unknown keys, duplicate keys, missing keys, and trailing tokens are
positioned errors, never warnings: a silently dropped physical parameter is
the costliest failure this format could allow.  `parse` returns a `Document`:
its body is the `OpticalSystem` or `Resonator` the source describes, built
as each (freespace, interface) pair completes, and `written` holds each
component interface's kind= token as written (None where there is none).
Serialization is canonical (comments dropped, keys in the order n,d / R,kind,
shortest float spelling that re-reads to the same value, 1e999 for inf) and
`parse(serialize(doc))` reproduces the document exactly; a NaN, a number
past the double range, or an int that no double equals (2**53 + 1) raises
DomainError.

Cost: `parse` is one pass over the source, O(its length).  Whenever a free
space is due it runs `_PAIR`'s scanner from there: each match takes exactly
what `serialize` writes for a free space and any interface after it, and
builds the pair; the position and counters are settled once, after the run.
A real there is a run of [-+.eE0-9] that `float` vets; one it refuses ends the
run, and its line is read as any other.  `_PLAIN` lines (an empty line, a
header alone) are read as they are; every other line is tokenized (`str.split`,
each column found with `str.index` after the previous token) and read by
`_parse_fields`, its reals by `_REAL` and `float`.  Only this route raises
`ParseError`, so every error has one source; a differential test pins that they agree.
`serialize` spells the free spaces and the interfaces with one comprehension
each, and `document_to_*` return the body as it is.  `parse` marks each
document it returns in its `_check` slot (`core.Checked`); any other (hand-built,
or a copy) is checked on every call, in one walk over its components and one
over its elements; its body's types settle alternation and the ending rules.
A real such as 1e999 parses (to inf); validation rejects it.
"""

from __future__ import annotations

import math
import re
from sys import float_info

from .core import Checked, _real
from .errors import DomainError, OptikitError
from .rayoptics import (
    FreeSpace,
    InterfaceKind,
    OpticalComponent,
    OpticalSystem,
    Plane,
    Spherical,
)
from .resonator import Resonator

__all__ = [
    "ParseError",
    "Document",
    "parse",
    "serialize",
    "document_to_system",
    "document_to_resonator",
]

_REAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# `serialize`'s free space line and, where one follows, its interface line; groups n, d,
# shape, R and kind.  Each real is a run of [-+.eE0-9], which `float` vets: over those
# characters it accepts exactly what `_REAL` matches.  The tokenizer reads any other.
_PAIR = re.compile(
    r"freespace n=([-+.eE0-9]+) d=([-+.eE0-9]+)\n"
    r"(?:interface (plane|spherical R=([-+.eE0-9]+))(?: kind=(transmitted|reflected))?\n)?"
)
_ORDER = {"system": ("freespace", "interface"), "resonator": ("interface", "freespace")}
_KINDS = {None: InterfaceKind.TRANSMITTED, **{k.value: k for k in InterfaceKind}}
_PLANE = Plane()
# lines read without `_tokenize`: the empty line, and a header alone (its one token)
_PLAIN = ("", "[system]", "[resonator]")


class ParseError(OptikitError):
    """Positioned grammar violation: 1-based line and column into the source."""

    def __init__(self, line: int, column: int, message: str, expected: str = ""):
        self.line = line
        self.column = column
        self.message = message
        self.expected = expected
        text = f"{line}:{column}: {message}"
        if expected:
            text += f" (expected {expected})"
        super().__init__(text)


class Document(Checked):
    """The OpticalSystem or Resonator a source describes, and the kind= token
    of each component interface as written: None, "transmitted" or "reflected"."""

    __slots__ = ("body", "written")

    @property
    def kind(self) -> str:
        """"system" for an OpticalSystem body, "resonator" otherwise."""
        return "system" if self.body.__class__ is OpticalSystem else "resonator"


def _tokenize(raw_line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs of a line with its comment stripped.

    Tokens are the maximal runs of non-whitespace; each column is found by
    searching from the end of the previous token, so repeated tokens get
    their own positions.
    """
    code = raw_line.partition("#")[0]
    tokens, pos = [], 0
    for text in code.split():
        pos = code.index(text, pos)
        tokens.append((text, pos + 1))
        pos += len(text)
    return tokens


def _parse_real(fields: dict[str, tuple[str, int]], key: str, line: int) -> float:
    """The real of a key in `_parse_fields`' result."""
    value, col = fields[key]
    if not _REAL.fullmatch(value):
        raise ParseError(line, col, f"invalid real for {key}: {value!r}", f"{key}=<real>")
    return float(value)


def _parse_fields(tokens: list[tuple[str, int]], line_no: int, raw_line: str,
                  required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict[str, tuple[str, int]]:
    """key -> (value, column) of a line's key=value tokens: each required key, and any optional one."""
    seen: dict[str, tuple[str, int]] = {}
    for text, col in tokens:
        key, eq, value = text.partition("=")
        if not eq or key not in required and key not in optional:
            # only here does it matter whether the token is key=value at all
            if not (eq and key.isascii() and key.isidentifier()):
                raise ParseError(line_no, col, f"trailing token {text!r}", "key=value")
            raise ParseError(line_no, col, f"unknown key {key!r}", " or ".join(sorted(required + optional)))
        if key in seen:
            raise ParseError(line_no, col, f"duplicate key {key!r}", "each key at most once")
        if not value:
            raise ParseError(line_no, col, f"empty value for {key!r}", f"{key}=<value>")
        seen[key] = (value, col)
    for key in required:
        if key not in seen:
            raise ParseError(line_no, len(raw_line) + 1, f"missing key {key!r}", f"{key}=")
    return seen


def _parse_interface(tokens: list[tuple[str, int]], line_no: int, raw_line: str) -> tuple[object, str | None]:
    """The Plane or Spherical of a line and its kind= token, None where there is none."""
    if len(tokens) < 2:
        raise ParseError(line_no, len(raw_line) + 1, "missing interface shape", "plane or spherical")
    shape, shape_col = tokens[1]
    if shape not in ("plane", "spherical"):
        raise ParseError(line_no, shape_col, f"unknown interface shape {shape!r}", "plane or spherical")
    fields = _parse_fields(tokens[2:], line_no, raw_line, ("R",) if shape == "spherical" else (), ("kind",))
    iface = Spherical(_parse_real(fields, "R", line_no)) if shape == "spherical" else _PLANE
    kind, kind_col = fields.get("kind", (None, 0))
    if kind and kind not in ("transmitted", "reflected"):
        raise ParseError(line_no, kind_col, f"invalid kind {kind!r}", "transmitted or reflected")
    return iface, kind


def parse(source: str) -> Document:
    """Parse a document, raising ParseError at the first grammar violation."""
    kind, count, comps, written = None, 0, [], []  # count: the directives read
    pos, line_no, size = 0, 0, len(source)

    while pos <= size:
        if kind and count % 2 == due:  # a free space is due: read what matches `_PAIR`
            scan, pairs, tail, done = _PAIR.scanner(source, pos).match, len(comps), 0, None
            try:  # done: the last match read; tail: 1 where it is a terminal free space
                while fast := scan():
                    n, d, shape, radius, token = fast.groups()
                    space = FreeSpace(float(n), float(d))
                    if not shape:
                        done, tail = fast, 1
                        break
                    comps.append(OpticalComponent(space, Spherical(float(radius)) if radius else _PLANE, _KINDS[token]))
                    written.append(token)
                    done = fast
            except ValueError:  # a real `float` refuses: the tokenizer reads this line
                pass
            if done:  # the position and the counters, settled once after the run
                pos, lines = done.end(), 2 * (len(comps) - pairs) + tail
                line_no, count, last = line_no + lines, count + lines, (line_no + lines, 1)
        end = source.find("\n", pos)
        if end < 0:
            end = size
        raw, pos, line_no = source[pos:end], end + 1, line_no + 1
        tokens = ([(raw, 1)] if raw else []) if raw in _PLAIN else _tokenize(raw)
        if not tokens:
            continue
        head, col = tokens[0]
        if kind is None:
            if head not in ("[system]", "[resonator]"):
                raise ParseError(line_no, col, f"unexpected token {head!r}", "[system] or [resonator]")
            if len(tokens) > 1:
                raise ParseError(line_no, tokens[1][1], f"trailing token {tokens[1][0]!r}", "end of line")
            kind, last = head[1:-1], (line_no, col)
            order, due = _ORDER[kind], _ORDER[kind].index("freespace")
            continue
        if head != order[count % 2]:
            raise ParseError(line_no, col, f"unexpected directive {head!r}", order[count % 2])
        if head == "freespace":
            fields = _parse_fields(tokens[1:], line_no, raw, ("n", "d"))
            space = FreeSpace(_parse_real(fields, "n", line_no), _parse_real(fields, "d", line_no))
        else:
            iface, token = _parse_interface(tokens, line_no, raw)
            if count:  # it completes a (freespace, interface) pair
                comps.append(OpticalComponent(space, iface, _KINDS[token]))
                written.append(token)
            else:  # a left mirror
                left, first = iface, (line_no, col, token)
        count += 1
        last = (line_no, col)  # the last line with a token

    if kind is None:
        raise ParseError(1, 1, "empty document", "[system] or [resonator]")
    if count % 2 == 0 or count < 3 and kind == "resonator":
        end = (last[0], len(source.split("\n")[last[0] - 1]) + 1)
        if kind == "system":  # an even count covers the empty body too
            raise ParseError(*end, "system must end with a freespace line", "freespace")
        if count < 3:
            raise ParseError(*end, "resonator needs two mirror interfaces with a freespace between",
                             "freespace/interface lines")
        raise ParseError(*end, "resonator must end with an interface line", "interface")
    if kind == "system":
        body = OpticalSystem(tuple(comps), space)
    else:
        for line_no, col, token in (first, (*last, written.pop())):
            if token is not None:
                raise ParseError(line_no, col, "kind is not allowed on a mirror interface",
                                 "no kind= on the first/last interface")
        right = comps.pop()
        body = Resonator(left, tuple(comps), right.space, right.iface)
    doc = Document(body, tuple(written))
    object.__setattr__(doc, "_check", True)  # its structure is checked
    return doc


def _elements(doc: Document) -> tuple[list, list, tuple]:
    """The free spaces, the interfaces and the interfaces' kind= tokens of a
    document's body, each in source order."""
    body = doc.body
    if body.__class__ is OpticalSystem:
        comps = body.components
        return [c.space for c in comps] + [body.terminal], [c.iface for c in comps], doc.written
    comps = body.inner
    ifaces = [body.left, *(c.iface for c in comps), body.right]
    return [c.space for c in comps] + [body.space], ifaces, (None, *doc.written, None)


def _check_document(doc: Document, kind: str | None = None, reals: bool = False) -> None:
    """DomainError unless doc is of the given kind and, where `parse` did not
    return it, its body is an OpticalSystem or Resonator of the element
    types the grammar spells, written names each component's kind, and (given
    reals) each real has a spelling."""
    if doc._check is None:
        body, written = doc.body, doc.written
        if body.__class__ not in (OpticalSystem, Resonator):
            raise DomainError(f"a document body is an OpticalSystem or a Resonator, got {type(body).__name__}")
        comps = body.components if body.__class__ is OpticalSystem else body.inner
        if not (isinstance(comps, (tuple, list)) and isinstance(written, tuple) and len(written) == len(comps)):
            raise DomainError("a document's written is a tuple of one kind= token per component")
        for i, (comp, token) in enumerate(zip(comps, written)):
            if not (comp.__class__ is OpticalComponent and token in (None, "transmitted", "reflected")
                    and _KINDS[token] is comp.kind):
                raise DomainError(f"component {i}: not an OpticalComponent of the kind its token {token!r} names")
        spaces, ifaces, _ = _elements(doc)
        for what, elements, types in (("free space", spaces, (FreeSpace,)),
                                      ("interface", ifaces, (Plane, Spherical))):
            for k, element in enumerate(elements):
                if element.__class__ not in types:
                    raise DomainError(f"{what} {k} is a {type(element).__name__}")
                for key in element.__slots__ if reals else ():
                    x = getattr(element, key)
                    if _real(x) is None or not (abs(x) <= float_info.max and float(x) == x or abs(x) == math.inf):
                        raise DomainError(f"{what} {k}: {key} is NaN or beyond the double range,"
                                          " or no double equals it")
    if kind and doc.kind != kind:
        raise DomainError(f"expected a {kind} document, got [{doc.kind}]")


def serialize(doc: Document) -> str:
    """Canonical text form, which parse reads back as doc exactly (spelling and errors: module docstring)."""
    _check_document(doc, reals=True)  # a parsed document holds doubles, none of them NaN
    spaces, ifaces, tokens = _elements(doc)
    first = doc.body.__class__ is Resonator  # the index of the first free space
    lines = [f"[{doc.kind}]"] + [""] * (len(spaces) + len(ifaces))
    lines[1 + first::2] = [f"freespace n={float(s.n)!r} d={float(s.d)!r}" for s in spaces]
    lines[2 - first::2] = [
        ("interface plane" if i.__class__ is Plane else f"interface spherical R={float(i.radius)!r}")
        + ("" if t is None else f" kind={t}") for i, t in zip(ifaces, tokens)]
    return ("\n".join(lines) + "\n").replace("inf", "1e999")  # repr's "inf"; no keyword holds "inf"


def document_to_system(doc: Document) -> OpticalSystem:
    """The OpticalSystem of a [system] document."""
    _check_document(doc, "system")
    return doc.body


def document_to_resonator(doc: Document) -> Resonator:
    """The Resonator of a [resonator] document."""
    _check_document(doc, "resonator")
    return doc.body
