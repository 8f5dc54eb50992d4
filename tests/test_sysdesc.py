import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optikit.errors import DomainError, InvalidSystem, OptikitError
from optikit.rayoptics import FreeSpace, InterfaceKind, Spherical, system_composition
from optikit.sysdesc import (
    Document,
    FreespaceDirective,
    InterfaceDirective,
    ParseError,
    document_to_resonator,
    document_to_system,
    parse,
    serialize,
)

FP_SOURCE = (
    "[resonator]\n"
    "interface spherical R=1.0\n"
    "freespace n=1.0 d=0.5\n"
    "interface spherical R=1.0\n"
)


def random_document(rng: random.Random) -> Document:
    def real():
        return round(rng.uniform(-5, 5), rng.randint(0, 12)) or 1.0

    def interface(mirror=False):
        kind = None
        if not mirror and rng.random() < 0.5:
            kind = rng.choice(["transmitted", "reflected"])
        if rng.random() < 0.5:
            return InterfaceDirective(shape="plane", radius=None, kind=kind)
        return InterfaceDirective(shape="spherical", radius=real(), kind=kind)

    def freespace():
        return FreespaceDirective(n=real(), d=real())

    if rng.random() < 0.5:
        items = []
        for _ in range(rng.randint(0, 4)):
            items.append(freespace())
            items.append(interface())
        items.append(freespace())
        return Document(kind="system", items=tuple(items))
    items = [interface(mirror=True)]
    for _ in range(rng.randint(0, 3)):
        items.append(freespace())
        items.append(interface())
    items.append(freespace())
    items.append(interface(mirror=True))
    return Document(kind="resonator", items=tuple(items))


class TestParse:
    def test_two_mirror_cavity(self):
        doc = parse(FP_SOURCE)
        res = document_to_resonator(doc)
        assert res.left == Spherical(1.0)
        assert res.right == Spherical(1.0)
        assert res.space == FreeSpace(1.0, 0.5)
        assert res.inner == ()

    def test_minimal_system(self):
        doc = parse("[system]\nfreespace n=1.0 d=2.0\n")
        system = document_to_system(doc)
        assert system.components == ()
        assert system.terminal == FreeSpace(1.0, 2.0)

    def test_keys_in_any_order(self):
        doc = parse("[system]\nfreespace d=2.0 n=1.0\n")
        assert doc.items[0] == FreespaceDirective(n=1.0, d=2.0)

    def test_comments_and_blank_lines_ignored(self):
        source = "# cavity description\n\n[system]\nfreespace n=1.0 d=2.0  # terminal\n"
        assert document_to_system(parse(source)).terminal == FreeSpace(1.0, 2.0)

    def test_inner_component_kinds(self):
        source = (
            "[resonator]\n"
            "interface plane\n"
            "freespace n=1.0 d=0.1\n"
            "interface spherical R=0.5 kind=reflected\n"
            "freespace n=1.0 d=0.2\n"
            "interface plane\n"
        )
        res = document_to_resonator(parse(source))
        assert len(res.inner) == 1
        assert res.inner[0].kind is InterfaceKind.REFLECTED
        assert res.space == FreeSpace(1.0, 0.2)

    def test_exponent_notation(self):
        doc = parse("[system]\nfreespace n=1.0 d=2.5e-3\n")
        assert doc.items[0].d == 2.5e-3


def error_of(source: str) -> ParseError:
    with pytest.raises(ParseError) as excinfo:
        parse(source)
    return excinfo.value


class TestParseErrors:
    def test_missing_key_with_expected_hint(self):
        err = error_of("[system]\nfreespace n=1.0\n")
        assert err.expected == "d="
        assert err.line == 2
        assert "missing key" in err.message

    def test_duplicate_key(self):
        err = error_of("[system]\nfreespace n=1.0 n=2.0 d=1.0\n")
        assert "duplicate" in err.message
        assert (err.line, err.column) == (2, 17)

    def test_unknown_key(self):
        err = error_of("[system]\nfreespace n=1.0 d=1.0 q=3\n")
        assert "unknown key" in err.message

    def test_trailing_token(self):
        err = error_of("[system]\nfreespace n=1.0 d=1.0 junk\n")
        assert "trailing" in err.message

    def test_bad_real(self):
        err = error_of("[system]\nfreespace n=abc d=1.0\n")
        assert "invalid real" in err.message

    def test_infinity_is_not_a_real_here(self):
        err = error_of("[system]\nfreespace n=inf d=1.0\n")
        assert "invalid real" in err.message

    def test_missing_header(self):
        err = error_of("freespace n=1.0 d=1.0\n")
        assert err.line == 1
        assert "[system] or [resonator]" in err.expected

    def test_empty_document(self):
        err = error_of("# nothing but comments\n\n")
        assert (err.line, err.column) == (1, 1)

    def test_header_trailing_token(self):
        err = error_of("[system] extra\n")
        assert "trailing" in err.message

    def test_wrong_alternation(self):
        err = error_of("[system]\ninterface plane\n")
        assert err.expected == "freespace"

    def test_system_must_end_with_freespace(self):
        err = error_of("[system]\nfreespace n=1.0 d=1.0\ninterface plane\n")
        assert err.expected == "freespace"
        assert err.line == 3

    def test_resonator_needs_two_mirrors(self):
        err = error_of("[resonator]\ninterface plane\n")
        assert "two mirror" in err.message

    def test_kind_rejected_on_mirror(self):
        source = (
            "[resonator]\n"
            "interface spherical R=1.0 kind=reflected\n"
            "freespace n=1.0 d=0.5\n"
            "interface spherical R=1.0\n"
        )
        err = error_of(source)
        assert "mirror" in err.message
        assert err.line == 2

    def test_bad_kind_value(self):
        err = error_of("[system]\nfreespace n=1 d=1\ninterface plane kind=up\nfreespace n=1 d=1\n")
        assert "invalid kind" in err.message

    def test_spherical_requires_radius(self):
        err = error_of("[system]\nfreespace n=1 d=1\ninterface spherical\nfreespace n=1 d=1\n")
        assert err.expected == "R="

    def test_radius_not_allowed_on_plane(self):
        err = error_of("[system]\nfreespace n=1 d=1\ninterface plane R=1.0\nfreespace n=1 d=1\n")
        assert "unknown key" in err.message


class TestErrorPositions:
    """Exact (line, column, message, expected) of errors whose column depends
    on how tokens are found."""

    @pytest.mark.parametrize(
        "line, column, message, expected",
        [
            # repeated identical tokens: each has its own column
            ("freespace n=1 n=1 d=1", 15, "duplicate key 'n'", "each key at most once"),
            ("freespace d=1 n=1 d=1", 19, "duplicate key 'd'", "each key at most once"),
            ("freespace n=1 d=1 d=1 d=1", 19, "duplicate key 'd'", "each key at most once"),
            ("freespace n=1 d=1 x x", 19, "trailing token 'x'", "key=value"),
            # tabs and other whitespace count one column each
            ("freespace\tn=1.0\t\td=abc", 18, "invalid real for d: 'abc'", "d=<real>"),
            ("\tfreespace n=1 d=1 q=2", 20, "unknown key 'q'", "d or n"),
            ("freespace\u00a0n=1 d=x", 15, "invalid real for d: 'x'", "d=<real>"),
            # a token touching a comment ends at the '#'
            ("freespace n=1.0 d=#2.0", 17, "empty value for 'd'", "d=<value>"),
            ("freespace n=1.0#d=2.0", 22, "missing key 'd'", "d="),
        ],
    )
    def test_positions(self, line, column, message, expected):
        err = error_of(f"[system]\n{line}\n")
        assert (err.line, err.column, err.message, err.expected) == (2, column, message, expected)

    def test_token_touching_comment_keeps_its_value(self):
        doc = parse("[system]\n  freespace n=1.0 d=2.0#note\n")
        assert doc.items[0] == FreespaceDirective(n=1.0, d=2.0)
        assert (doc.items[0].line, doc.items[0].column) == (2, 3)

    def test_parse_error_is_an_optikit_error(self):
        assert isinstance(error_of("[system]\n"), OptikitError)


class TestNonFiniteValues:
    """1e999 is a valid real that overflows to inf; the system rejects it."""

    @pytest.mark.parametrize(
        "source",
        [
            "[system]\nfreespace n=1e999 d=0.1\ninterface plane\nfreespace n=1.5 d=0.1\n",
            "[system]\nfreespace n=1.0 d=1e999\ninterface plane\nfreespace n=1.5 d=0.1\n",
            "[system]\nfreespace n=1.0 d=0.1\ninterface spherical R=1e-320\nfreespace n=1.5 d=0.1\n",
        ],
    )
    def test_composition_rejects(self, source):
        with pytest.raises(InvalidSystem):
            system_composition(document_to_system(parse(source)))


class TestSerialize:
    def test_round_trip_of_cavity_example(self):
        doc = parse(FP_SOURCE)
        assert parse(serialize(doc)) == doc

    def test_canonical_form_drops_comments_and_orders_keys(self):
        source = "# c\n[system]\nfreespace d=2.0 n=1.0 # tail\n"
        assert serialize(parse(source)) == "[system]\nfreespace n=1.0 d=2.0\n"

    def test_serialize_parse_is_idempotent(self):
        source = "[system]\nfreespace   d=2e0   n=0.125\n"
        once = serialize(parse(source))
        assert serialize(parse(once)) == once

    def test_shortest_float_spelling_survives(self):
        doc = Document(
            kind="system",
            items=(FreespaceDirective(n=1 + 1e-15, d=0.1),),
        )
        again = parse(serialize(doc))
        assert again.items[0].n == doc.items[0].n
        assert again.items[0].d == doc.items[0].d

    def test_round_trip_generated_documents(self):
        rng = random.Random(12)
        for _ in range(100):
            doc = random_document(rng)
            assert parse(serialize(doc)) == doc

    def test_malformed_document_rejected(self):
        bad = Document(kind="system", items=(InterfaceDirective(shape="plane"),))
        with pytest.raises(DomainError):
            serialize(bad)

    @pytest.mark.parametrize(
        "source, items",
        [
            ("[system]\nfreespace n=1 d=1\nfreespace n=1 d=1\n", ("fs", "fs")),
            ("[system]\nfreespace n=1 d=1\ninterface plane\n", ("fs", "plane")),
            ("[system]\n", ()),
            ("[resonator]\nfreespace n=1 d=1\n", ("fs",)),
            ("[resonator]\ninterface plane\nfreespace n=1 d=1\n", ("plane", "fs")),
            ("[resonator]\ninterface plane\nfreespace n=1 d=1\ninterface plane\nfreespace n=1 d=1\n",
             ("plane", "fs", "plane", "fs")),
            ("[resonator]\ninterface plane kind=reflected\nfreespace n=1 d=1\ninterface plane\n",
             ("reflected", "fs", "plane")),
            ("[resonator]\ninterface plane\nfreespace n=1 d=1\ninterface plane kind=transmitted\n",
             ("plane", "fs", "transmitted")),
        ],
    )
    def test_hand_built_document_breaks_the_rule_parse_reports(self, source, items):
        """`serialize` and `parse` state each structural rule in the same words."""
        directives = {
            "fs": FreespaceDirective(1.0, 1.0),
            "plane": InterfaceDirective("plane"),
            "reflected": InterfaceDirective("plane", kind="reflected"),
            "transmitted": InterfaceDirective("plane", kind="transmitted"),
        }
        with pytest.raises(ParseError) as parsed:
            parse(source)
        doc = Document(kind=source.split("\n")[0][1:-1], items=tuple(directives[i] for i in items))
        with pytest.raises(DomainError) as built:
            serialize(doc)
        assert parsed.value.message in str(built.value)
        assert parsed.value.expected in str(built.value)


def _check_positions(source: str, err: ParseError) -> None:
    lines = source.split("\n")
    assert 1 <= err.line <= max(1, len(lines))
    assert err.column >= 1
    assert err.column <= len(lines[err.line - 1]) + 1


class TestFuzz:
    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_never_crashes(self, source):
        try:
            parse(source)
        except ParseError as err:
            _check_positions(source, err)

    def test_token_soup_never_crashes(self):
        rng = random.Random(99)
        vocab = [
            "[system]", "[resonator]", "freespace", "interface", "plane",
            "spherical", "n=1.0", "d=0.5", "R=1.0", "kind=transmitted",
            "kind=reflected", "n=", "=", "#", "R=x", "1.0", "freespace=2",
        ]
        for _ in range(2000):
            lines = []
            for _ in range(rng.randint(0, 6)):
                lines.append(" ".join(rng.choices(vocab, k=rng.randint(0, 5))))
            source = "\n".join(lines)
            try:
                parse(source)
            except ParseError as err:
                _check_positions(source, err)

    def test_truncation_before_error_fails_no_later(self):
        rng = random.Random(100)
        printable = string.printable
        checked = 0
        for _ in range(3000):
            source = "".join(rng.choices(printable, k=rng.randint(0, 120)))
            try:
                parse(source)
                continue
            except ParseError as exc:
                first = exc
            _check_positions(source, first)
            lines = source.split("\n")
            prefix_lines = lines[: first.line - 1] + [lines[first.line - 1][: first.column - 1]]
            prefix = "\n".join(prefix_lines)
            try:
                parse(prefix)
            except ParseError as exc:
                assert (exc.line, exc.column) <= (first.line, first.column)
            checked += 1
        assert checked > 100
