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
the costliest failure this format could allow.  Serialization is canonical
(comments dropped, keys in the order n,d / R,kind, shortest float spelling
that re-reads to the same value, 1e999 for inf) and `parse(serialize(doc))`
reproduces the document exactly; a NaN, a number past the double range, or
an int that no double equals (2**53 + 1) raises DomainError.

Cost: `parse` is one pass over the source, O(its length).  After the header,
a canonical line (as `serialize` writes it, with any ASCII whitespace and
an optional comment) that holds the directive due next is built from one
`_FAST` match.  An empty line, and a header line that holds nothing else, are
read as they are (`_PLAIN`).  Any other line is tokenized (`str.split`, each
column found with `str.index` after the previous token) and read by
`_parse_fields`; only this path raises `ParseError`, so every error and
position has one source.
The paths agree because ASCII whitespace is split on too and both read
reals with `_R` and `float`; a differential test pins this.
`serialize` and `document_to_*` check a document in one walk, O(n) in the
directives, but only the kind of the one `parse` returned last (kept in the
module).  A real such as 1e999 parses (to inf); validation rejects it.
"""

from __future__ import annotations

import math
import re
from sys import float_info
from typing import Union

from .core import Value
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
    "FreespaceDirective",
    "InterfaceDirective",
    "Document",
    "parse",
    "serialize",
    "document_to_system",
    "document_to_resonator",
]

_R = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_REAL = re.compile(_R)
_KEYVAL = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(.*)$")
# A canonical directive line, its digits and spaces ASCII; its groups are the indent, n, d, R and kind.
_FAST = re.compile(
    rf"(?a)(\s*)(?:freespace\s+n=({_R})\s+d=({_R})"
    rf"|interface\s+(?:plane|spherical\s+R=({_R}))(?:\s+kind=(transmitted|reflected))?)\s*(?:#.*)?"
)
_ORDER = {"system": ("freespace", "interface"), "resonator": ("interface", "freespace")}
_KINDS = {None: InterfaceKind.TRANSMITTED, **{k.value: k for k in InterfaceKind}}
_SHAPES = {"plane": True, "spherical": False}  # shape -> whether its radius is None
_INTERFACE_RULE = "plane, or spherical with R=; kind= transmitted, reflected or none"
_PLANE = Plane()
# lines read without `_tokenize`: the empty line, and a header alone (its one token)
_PLAIN = ("", "[system]", "[resonator]")
# the document `parse` returned last, replaced whole: its structure is checked
_parsed = None


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


class FreespaceDirective(Value):
    """A freespace line; line and column locate it and are not compared."""

    __slots__ = ("n", "d", "line", "column")
    _defaults = (0, 0)

    def _key(self) -> tuple:
        return (self.n, self.d)


class InterfaceDirective(Value):
    """An interface line: shape "plane" or "spherical", kind "transmitted",
    "reflected" or None; line and column locate it and are not compared."""

    __slots__ = ("shape", "radius", "kind", "line", "column")
    _defaults = (None, None, 0, 0)

    def _key(self) -> tuple:
        return (self.shape, self.radius, self.kind)


Directive = Union[FreespaceDirective, InterfaceDirective]


class Document(Value):
    """Kind "system" or "resonator", and its directives in source order."""

    __slots__ = ("kind", "items")


def _tokenize(raw_line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs of a line with its comment stripped.

    Tokens are the maximal runs of non-whitespace; each column is found by
    searching from the end of the previous token, so repeated tokens get
    their own positions.
    """
    code = raw_line.partition("#")[0]
    tokens = []
    pos = 0
    for text in code.split():
        pos = code.index(text, pos)
        tokens.append((text, pos + 1))
        pos += len(text)
    return tokens


def _parse_real(value: str, line: int, col: int, key: str) -> float:
    if not _REAL.fullmatch(value):
        raise ParseError(line, col, f"invalid real for {key}: {value!r}", f"{key}=<real>")
    return float(value)


# (required keys in reporting order, allowed keys) of each field list
_FREESPACE_FIELDS = (("n", "d"), frozenset(("n", "d")))
_SPHERICAL_FIELDS = (("R",), frozenset(("R", "kind")))
_PLANE_FIELDS = ((), frozenset(("kind",)))


def _parse_fields(
    tokens: list[tuple[str, int]],
    line_no: int,
    raw_line: str,
    fields: tuple[tuple[str, ...], frozenset[str]],
) -> dict[str, tuple[str, int]]:
    """key -> (value, column) of a line's key=value tokens."""
    required, allowed = fields
    seen: dict[str, tuple[str, int]] = {}
    for text, col in tokens:
        key, eq, value = text.partition("=")
        if not eq or key not in allowed:
            # only here does it matter whether the token is key=value at all
            if not _KEYVAL.match(text):
                raise ParseError(line_no, col, f"trailing token {text!r}", "key=value")
            raise ParseError(line_no, col, f"unknown key {key!r}", " or ".join(sorted(allowed)))
        if key in seen:
            raise ParseError(line_no, col, f"duplicate key {key!r}", "each key at most once")
        if not value:
            raise ParseError(line_no, col, f"empty value for {key!r}", f"{key}=<value>")
        seen[key] = (value, col)
    for key in required:
        if key not in seen:
            raise ParseError(line_no, len(raw_line) + 1, f"missing key {key!r}", f"{key}=")
    return seen


def _parse_freespace(tokens: list[tuple[str, int]], line_no: int, raw_line: str) -> FreespaceDirective:
    fields = _parse_fields(tokens[1:], line_no, raw_line, _FREESPACE_FIELDS)
    n_text, n_col = fields["n"]
    d_text, d_col = fields["d"]
    n = _parse_real(n_text, line_no, n_col, "n")
    d = _parse_real(d_text, line_no, d_col, "d")
    return FreespaceDirective(n, d, line_no, tokens[0][1])


def _parse_interface(tokens: list[tuple[str, int]], line_no: int, raw_line: str) -> InterfaceDirective:
    if len(tokens) < 2:
        raise ParseError(line_no, len(raw_line) + 1, "missing interface shape", "plane or spherical")
    shape, shape_col = tokens[1]
    if shape == "spherical":
        fields = _parse_fields(tokens[2:], line_no, raw_line, _SPHERICAL_FIELDS)
        radius = _parse_real(fields["R"][0], line_no, fields["R"][1], "R")
    elif shape == "plane":
        fields = _parse_fields(tokens[2:], line_no, raw_line, _PLANE_FIELDS)
        radius = None
    else:
        raise ParseError(line_no, shape_col, f"unknown interface shape {shape!r}", "plane or spherical")
    kind = None
    if "kind" in fields:
        kind, kind_col = fields["kind"]
        if kind not in ("transmitted", "reflected"):
            raise ParseError(line_no, kind_col, f"invalid kind {kind!r}", "transmitted or reflected")
    return InterfaceDirective(shape, radius, kind, line_no, tokens[0][1])


def _structure_error(kind: str, items: list | tuple, head: str | None = None) -> tuple[int, str, str] | None:
    """(index, message, expected) of the first structural rule a body breaks.

    Directives alternate from a freespace in a [system] and from an interface
    in a [resonator]; each interface has a known shape, a radius exactly when
    spherical, and a known kind; then `_ending_error` applies.  index is
    len(items) when the body ends too early.  Given head, the next
    directive's name, only its place is checked, as `parse` does per line.
    """
    order = _ORDER[kind]
    if head:
        n = len(items)
        return None if head == order[n % 2] else (n, f"unexpected directive {head!r}", order[n % 2])
    for i, item in enumerate(items):
        name = "freespace" if isinstance(item, FreespaceDirective) else "interface"
        if name != order[i % 2]:
            return i, f"unexpected directive {name!r}", order[i % 2]
        if name == "interface" and (_SHAPES.get(item.shape) != (item.radius is None) or item.kind not in _KINDS):
            return i, f"invalid interface {item.shape!r}, R={item.radius!r}, kind={item.kind!r}", _INTERFACE_RULE
    return _ending_error(kind, items)


def _ending_error(kind: str, items: list | tuple) -> tuple[int, str, str] | None:
    """The ending rules, for a body whose directives are each in place: a
    system ends on a freespace; a resonator has at least three directives,
    ends on an interface, and its mirrors carry no kind=."""
    n = len(items)
    if kind == "system":  # an even count covers the empty body too
        return None if n % 2 else (n, "system must end with a freespace line", "freespace")
    if n < 3:
        return n, "resonator needs two mirror interfaces with a freespace between", "freespace/interface lines"
    if n % 2 == 0:
        return n, "resonator must end with an interface line", "interface"
    for i in (0, n - 1):
        if items[i].kind is not None:
            return i, "kind is not allowed on a mirror interface", "no kind= on the first/last interface"
    return None


def parse(source: str) -> Document:
    """Parse a document, raising ParseError at the first grammar violation."""
    global _parsed
    raw_lines = source.split("\n")
    kind: str | None = None
    items: list[Directive] = []

    for line_no, raw in enumerate(raw_lines, start=1):
        fast = kind and _FAST.fullmatch(raw)
        if fast and ("freespace" if fast[2] else "interface") == order[len(items) % 2]:
            indent, n, d, radius, iface_kind = fast.groups()
            col = len(indent) + 1
            if n:
                items.append(FreespaceDirective(float(n), float(d), line_no, col))
            else:
                shape = "spherical" if radius else "plane"
                items.append(InterfaceDirective(shape, radius and float(radius), iface_kind, line_no, col))
            continue
        tokens = ([(raw, 1)] if raw else []) if raw in _PLAIN else _tokenize(raw)
        if not tokens:
            continue
        head, head_col = tokens[0]

        if kind is None:
            if head not in ("[system]", "[resonator]"):
                raise ParseError(line_no, head_col, f"unexpected token {head!r}", "[system] or [resonator]")
            if len(tokens) > 1:
                raise ParseError(line_no, tokens[1][1], f"trailing token {tokens[1][0]!r}", "end of line")
            kind, header_line = head[1:-1], line_no
            order = _ORDER[kind]
            continue

        misplaced = _structure_error(kind, items, head)
        if misplaced:
            raise ParseError(line_no, head_col, *misplaced[1:])

        if head == "freespace":
            items.append(_parse_freespace(tokens, line_no, raw))
        else:
            items.append(_parse_interface(tokens, line_no, raw))

    if kind is None:
        raise ParseError(1, 1, "empty document", "[system] or [resonator]")

    broken = _ending_error(kind, items)
    if broken:
        i, message, expected = broken
        last = items[-1].line if items else header_line  # the last line with a token
        end = (last, len(raw_lines[last - 1]) + 1)
        raise ParseError(*((items[i].line, items[i].column) if i < len(items) else end), message, expected)
    doc = _parsed = Document(kind=kind, items=tuple(items))
    return doc


def _check_document(doc: Document, kinds: tuple[str, ...] = ("system", "resonator")) -> None:
    if doc.kind not in kinds:
        raise DomainError(f"expected a {' or '.join(kinds)} document, got [{doc.kind}]")
    broken = doc is not _parsed and _structure_error(doc.kind, doc.items)
    if broken:
        i, message, expected = broken
        where = f"directive {i}" if i < len(doc.items) else "end of document"
        raise DomainError(f"{where}: {message} (expected {expected})")


def serialize(doc: Document) -> str:
    """Canonical text form, which parse reads back as doc exactly (spelling and errors: module docstring)."""
    _check_document(doc)
    items, first = doc.items, doc.kind == "resonator"  # first: the index of the first freespace
    if doc is not _parsed:  # a parsed document holds doubles, none of them NaN
        for i, item in enumerate(items):
            for key in ("n", "d") if isinstance(item, FreespaceDirective) else ("radius",):
                x = getattr(item, key) or 0.0  # a plane's radius is None
                if not (abs(x) <= float_info.max and float(x) == x or x in (math.inf, -math.inf)):
                    raise DomainError(f"directive {i}: {key} is NaN or beyond the double range,"
                                      " or no double equals it")
    lines = [f"[{doc.kind}]"] + [""] * len(items)
    lines[1 + first::2] = [f"freespace n={float(i.n)!r} d={float(i.d)!r}" for i in items[first::2]]
    lines[2 - first::2] = [f"interface {i.shape}" + ("" if i.radius is None else f" R={float(i.radius)!r}")
                           + ("" if i.kind is None else f" kind={i.kind}") for i in items[1 - first::2]]
    return ("\n".join(lines) + "\n").replace("inf", "1e999")  # repr's "inf"; no keyword holds "inf"


def _components(items: tuple[Directive, ...], start: int, stop: int) -> tuple[OpticalComponent, ...]:
    """Components of the (freespace, interface) directive pairs in items[start:stop]."""
    return tuple([
        OpticalComponent(FreeSpace(f.n, f.d), _PLANE if i.radius is None else Spherical(i.radius),
                         _KINDS[i.kind])
        for f, i in zip(items[start:stop:2], items[start + 1:stop:2])
    ])


def document_to_system(doc: Document) -> OpticalSystem:
    """Materialize a [system] document into ray-optics types."""
    _check_document(doc, ("system",))
    items = doc.items
    return OpticalSystem(_components(items, 0, len(items) - 1), FreeSpace(items[-1].n, items[-1].d))


def document_to_resonator(doc: Document) -> Resonator:
    """Materialize a [resonator] document into resonator types."""
    _check_document(doc, ("resonator",))
    items = doc.items
    left, right = (_PLANE if i.radius is None else Spherical(i.radius) for i in (items[0], items[-1]))
    return Resonator(left, _components(items, 1, len(items) - 2), FreeSpace(items[-2].n, items[-2].d), right)
