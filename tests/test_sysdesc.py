import copy
import hashlib
import itertools
import math
import random
import re
import string
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EDGE_FLOATS, EDGE_INTS, outcome
from optikit import sysdesc
from optikit.errors import DomainError, InvalidSystem, OptikitError
from optikit.rayoptics import (
    FreeSpace,
    InterfaceKind,
    OpticalComponent,
    OpticalSystem,
    Plane,
    Spherical,
    system_composition,
)
from optikit.resonator import Resonator
from optikit.sysdesc import (
    Document,
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


def written_document(comps_and_tokens, end) -> Document:
    """A hand-built document: a system of the components and terminal free
    space end, or, given end as (left, space, right), a resonator."""
    comps = tuple(comp for comp, _ in comps_and_tokens)
    body = Resonator(end[0], comps, *end[1:]) if isinstance(end, tuple) else OpticalSystem(comps, end)
    return Document(body, tuple(token for _, token in comps_and_tokens))


def component(space, iface, token=None):
    """(component, its kind= token as written)."""
    return OpticalComponent(space, iface, InterfaceKind(token or "transmitted")), token


def random_document(rng: random.Random) -> Document:
    def real():
        return round(rng.uniform(-5, 5), rng.randint(0, 12)) or 1.0

    def interface(mirror=False):
        kind = None
        if not mirror and rng.random() < 0.5:
            kind = rng.choice(["transmitted", "reflected"])
        return (Plane() if rng.random() < 0.5 else Spherical(real())), kind

    def freespace():
        return FreeSpace(n=real(), d=real())

    def pair():
        space = freespace()
        return component(space, *interface())

    if rng.random() < 0.5:
        pairs = [pair() for _ in range(rng.randint(0, 4))]
        return written_document(pairs, freespace())
    left = interface(mirror=True)[0]
    pairs = [pair() for _ in range(rng.randint(0, 3))]
    space = freespace()
    return written_document(pairs, (left, space, interface(mirror=True)[0]))


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
        assert doc.body.terminal == FreeSpace(n=1.0, d=2.0)

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

    def test_body_is_built_from_the_pairs(self):
        """Each (freespace, interface) pair is a component; its kind= token
        is kept as written, so the canonical text keeps kind=transmitted."""
        transmitted, reflected = InterfaceKind.TRANSMITTED, InterfaceKind.REFLECTED
        source = (
            "[resonator]\ninterface spherical R=2.0\nfreespace n=1.0 d=0.1\ninterface plane kind=transmitted\n"
            "freespace n=1.5 d=0.2\ninterface spherical R=0.5 kind=reflected\nfreespace n=1.0 d=0.3\ninterface plane\n"
        )
        doc = parse(source)
        assert doc.body == Resonator(Spherical(2.0), (
            OpticalComponent(FreeSpace(1.0, 0.1), Plane(), transmitted),
            OpticalComponent(FreeSpace(1.5, 0.2), Spherical(0.5), reflected),
        ), FreeSpace(1.0, 0.3), Plane())
        assert doc.written == ("transmitted", "reflected")
        assert serialize(doc) == source
        assert document_to_resonator(doc) is doc.body

    def test_system_components_and_terminal(self):
        source = "[system]\nfreespace n=1.0 d=0.1\ninterface plane\nfreespace n=1.5 d=0.2\n"
        doc = parse(source)
        component = OpticalComponent(FreeSpace(1.0, 0.1), Plane(), InterfaceKind.TRANSMITTED)
        assert doc.body == OpticalSystem((component,), FreeSpace(1.5, 0.2))
        assert doc.written == (None,)
        assert serialize(doc) == source
        assert document_to_system(doc) is doc.body

    def test_exponent_notation(self):
        doc = parse("[system]\nfreespace n=1.0 d=2.5e-3\n")
        assert doc.body.terminal.d == 2.5e-3


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
        # with kind= on both mirrors, the first one is reported
        err = error_of(source + "freespace n=1.0 d=0.5\ninterface plane kind=transmitted\n")
        assert (err.line, err.column) == (2, 1)
        err = error_of(source.replace(" kind=reflected", "") + "freespace n=1 d=1\n  interface plane kind=reflected\n")
        assert (err.line, err.column) == (6, 3)

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

    @pytest.mark.parametrize(
        "token, message",
        [
            # a key is an ASCII identifier; any other token before an "=" is not key=value
            ("q=2", "unknown key 'q'"),
            ("_Q9=2", "unknown key '_Q9'"),
            ("q==2", "unknown key 'q'"),
            ("q=", "unknown key 'q'"),
            ("=2", "trailing token '=2'"),
            ("9q=2", "trailing token '9q=2'"),
            ("q-r=2", "trailing token 'q-r=2'"),
            ("\u00e9=2", "trailing token '\u00e9=2'"),
            ("\uff4e=2", "trailing token '\uff4e=2'"),
            ("q\u0301=2", "trailing token 'q\u0301=2'"),
            ("q2", "trailing token 'q2'"),
        ],
    )
    def test_key_value_tokens(self, token, message):
        err = error_of(f"[system]\nfreespace n=1 d=1 {token}\n")
        assert (err.line, err.column, err.message) == (2, 19, message)

    def test_token_touching_comment_keeps_its_value(self):
        doc = parse("[system]\n  freespace n=1.0 d=2.0#note\n")
        assert doc.body.terminal == FreeSpace(n=1.0, d=2.0)
        # a directive's own column, as a mirror error reports it
        err = error_of("[resonator]\n  interface plane kind=reflected#note\nfreespace n=1 d=1\ninterface plane\n")
        assert (err.line, err.column, err.message) == (2, 3, "kind is not allowed on a mirror interface")

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
        doc = written_document((), FreeSpace(n=1 + 1e-15, d=0.1))
        again = parse(serialize(doc))
        assert again.body.terminal.n == doc.body.terminal.n
        assert again.body.terminal.d == doc.body.terminal.d

    def test_round_trip_generated_documents(self):
        rng = random.Random(12)
        for _ in range(100):
            doc = random_document(rng)
            assert parse(serialize(doc)) == doc

    def test_kind_follows_the_body(self):
        assert parse("[system]\nfreespace n=1 d=1\n").kind == "system"
        assert parse(FP_SOURCE).kind == "resonator"
        doc = written_document((), FreeSpace(1.0, 1.0))
        with pytest.raises(DomainError, match=r"expected a resonator document, got \[system\]"):
            document_to_resonator(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            # element types the grammar has no line for
            (Document(FreeSpace(1.0, 1.0), ()), "a document body is an OpticalSystem or a Resonator, got FreeSpace"),
            (written_document((), Plane()), "free space 0 is a Plane"),
            (written_document([component(FreeSpace(1.0, 0.1), FreeSpace(1.0, 0.1))], FreeSpace(1.0, 0.1)),
             "interface 0 is a FreeSpace"),
            (written_document([component(Plane(), Plane())], FreeSpace(1.0, 0.1)),
             "free space 0 is a Plane"),
            (written_document((), (FreeSpace(1.0, 0.1), FreeSpace(1.0, 0.1), Plane())),
             "interface 0 is a FreeSpace"),
            (written_document((), (Plane(), Plane(), Plane())), "free space 0 is a Plane"),
            (written_document((), (Plane(), FreeSpace(1.0, 0.1), None)),
             "interface 1 is a NoneType"),
            (Document(OpticalSystem(((FreeSpace(1.0, 0.1), Plane()),), FreeSpace(1.0, 0.1)), (None,)),
             "component 0: not an OpticalComponent"),
            (Document(OpticalSystem(None, FreeSpace(1.0, 0.1)), ()), "one kind= token per component"),
            # kind= tokens that do not match the components
            (Document(OpticalSystem((), FreeSpace(1.0, 0.1)), (None,)), "one kind= token per component"),
            (Document(OpticalSystem((component(FreeSpace(1.0, 0.1), Plane())[0],), FreeSpace(1.0, 0.1)), [None]),
             "one kind= token per component"),
            (Document(OpticalSystem((component(FreeSpace(1.0, 0.1), Plane(), "reflected")[0],), FreeSpace(1.0, 0.1)),
                      (None,)), "component 0: not an OpticalComponent of the kind its token None names"),
            (Document(OpticalSystem((component(FreeSpace(1.0, 0.1), Plane())[0],), FreeSpace(1.0, 0.1)),
                      ("sideways",)), "its token 'sideways' names"),
            (Document(OpticalSystem((OpticalComponent(FreeSpace(1.0, 0.1), Plane(), "reflected"),),
                                    FreeSpace(1.0, 0.1)), ("reflected",)), "its token 'reflected' names"),
        ],
    )
    def test_hand_built_document_outside_the_grammar_rejected(self, doc, message):
        """A body the grammar cannot spell, or kind= tokens that do not name
        its kinds: `serialize` once wrote an unknown shape as text that `parse`
        rejects, and both conversions once built values from it."""
        for call in (serialize, document_to_system, document_to_resonator):
            with pytest.raises(DomainError, match=re.escape(message)):
                call(doc)


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


# Whitespace that str.split() splits on, next to the ASCII space that
# canonical text uses; the zeros of some other decimal-digit scripts; and
# characters that look like spaces or digits but are neither.
_SPACES = " " * 8 + "\t\x0b\x0c\r\x1c\x1f\x85\xa0\u2028\u3000"
_ZEROS = ("\u0660", "\u0966", "\uff10", "\U0001d7ce")
_NOISE = "fi=.e+-#[]R019 nd\u00b2\u200b\u180e" + _SPACES


def _decorated(rng: random.Random) -> str:
    """A generated document that keeps its meaning: any indent, separators,
    trailing space, comments and blank lines."""
    def gap(least):
        return "".join(rng.choices(_SPACES, k=rng.randint(least, 2)))

    lines = []
    for line in serialize(random_document(rng)).split("\n"):
        if rng.random() < 0.2:
            lines.append(gap(0) + rng.choice(["", "# note", "#"]))
        comment = rng.choice(["", "", "#", "# c", "#freespace n=1 d=1"])
        lines.append(gap(0) + "".join(t + gap(1) for t in line.split(" "))[:-1] + gap(0) + comment)
    return "\n".join(lines)


def _mutated(source: str, rng: random.Random) -> str:
    lines = source.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        j = rng.randint(0, len(line))
        op = rng.randrange(6)
        if op == 0:  # insert a character
            line = line[:j] + rng.choice(_NOISE) + line[j:]
        elif op == 1:  # delete one
            line = line[:j] + line[j + 1:]
        elif op == 2:  # replace one, a separator half the time
            j = rng.choice([k for k, c in enumerate(line) if c.isspace() and rng.random() < 0.5] or [j])
            line = line[:j] + rng.choice(_NOISE) + line[j + 1:]
        elif op == 3:  # permute the fields after the keyword
            head, *fields = line.split(" ")
            rng.shuffle(fields)
            line = " ".join([head, *fields])
        elif op == 4:  # a comment touching whatever precedes it
            line = line[:j] + rng.choice(["#", "#x", "# R=1"])
        else:  # an ASCII digit spelled in another decimal script
            digits = [k for k, c in enumerate(line) if c in string.digits]
            if digits:
                k = rng.choice(digits)
                line = line[:k] + chr(ord(rng.choice(_ZEROS)) + int(line[k])) + line[k + 1:]
        lines[i] = line
    return "\n".join(lines)


def _outcome(source: str) -> tuple:
    try:
        doc = parse(source)
    except ParseError as err:
        return "error", err.line, err.column, err.message, err.expected
    return "document", doc


def _digest_sources(rng: random.Random):
    """Generated, decorated, mutated and random printable sources, four per round."""
    generated = serialize(random_document(rng))
    decorated = _decorated(rng)
    yield generated
    yield decorated
    yield _mutated(decorated, rng)
    yield "".join(rng.choices(string.printable, k=rng.randint(0, 120)))


class TestOutcomeDigest:
    def test_outcomes_are_pinned(self):
        """Every ParseError (line, column, message, expected) and every
        canonical text of 20,000 seeded sources, hashed: a change to any
        error position or message, or to the canonical form, moves the digest."""
        rng = random.Random(2021)
        digest = hashlib.sha256()
        for _ in range(5000):
            for source in _digest_sources(rng):
                try:
                    out = serialize(parse(source))
                except ParseError as err:
                    out = (err.line, err.column, err.message, err.expected)
                digest.update(repr(out).encode() + b"\n")
        assert digest.hexdigest() == "5207e418e3f558081fec364c2efd2b4782865baef9411fc73ef00c8adf5fd7b5"


# a system of three pairs, one of them a plane, and a resonator of two inner pairs:
# the fast pattern reads every real of their canonical texts but the left mirror's R
_REFUSAL_DOCUMENTS = [
    written_document([component(FreeSpace(1.5, 0.1), Spherical(0.5)),
                      component(FreeSpace(1.25, 0.3), Plane(), "reflected"),
                      component(FreeSpace(1.0, 0.2), Spherical(-0.75), "transmitted")], FreeSpace(1.0, 0.4)),
    written_document([component(FreeSpace(1.5, 0.1), Spherical(0.5)), component(FreeSpace(1.25, 0.3), Plane())],
                     (Spherical(2.0), FreeSpace(1.0, 0.2), Spherical(-2.5))),
]


class TestRealRuns:
    """`_PAIR` reads each real as a run of [-+.eE0-9] and lets `float` vet it,
    which holds only while `float` accepts exactly what `_REAL` matches there."""

    def test_float_accepts_exactly_the_real_pattern_to_length_5(self):
        for size in range(6):
            for chars in itertools.product("09.eE+-", repeat=size):
                text = "".join(chars)
                assert _float_accepts(text) == bool(sysdesc._REAL.fullmatch(text)), text

    @settings(max_examples=1000, deadline=None)
    @given(st.text("0123456789.eE+-", min_size=6, max_size=40)
           | st.from_regex(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?", fullmatch=True))
    def test_float_accepts_exactly_the_real_pattern(self, text):
        assert _float_accepts(text) == bool(sysdesc._REAL.fullmatch(text))

    def test_fast_pattern_reads_runs_of_that_alphabet(self):
        assert sysdesc._PAIR.pattern.count("([-+.eE0-9]+)") == 3


def _float_accepts(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class TestFastPath:
    """`parse` builds canonical lines from one regex match; every other line,
    and every error, goes through the tokenizer.  Both must read a source alike."""

    def test_agrees_with_the_tokenizer_alone(self, monkeypatch):
        rng = random.Random(2013)
        sources = []
        for _ in range(1500):
            source = _decorated(rng)
            sources += [source, _mutated(source, rng), serialize(random_document(rng))]
        both = [_outcome(s) for s in sources]
        monkeypatch.setattr(sysdesc, "_PAIR", re.compile(r"(?!)"))
        monkeypatch.setattr(sysdesc, "_PLAIN", ())  # the empty line and a header alone
        alone = [_outcome(s) for s in sources]
        for source, fast, slow in zip(sources, both, alone):
            assert fast == slow, source
        parsed = sum(o[0] == "document" for o in both)
        assert 1500 < parsed < len(sources) - 500  # many of each outcome

    @pytest.mark.parametrize("respell", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace(" ", "\t"),
        lambda text: text.replace("\n", "\n \t"),
        lambda text: text.replace("\n", " # freespace n=1 d=1\n"),
        lambda text: text.replace(" ", "  "),
        lambda text: text.rstrip("\n"),
        lambda text: re.sub(r"^(interface (?:plane|spherical R=\S+))$", r"\1 kind=transmitted", text, flags=re.M),
    ], ids=["crlf", "tabs", "indented", "comments", "double_spaces", "no_final_newline", "kind_everywhere"])
    def test_other_spellings_read_as_the_tokenizer_reads_them(self, respell, monkeypatch):
        rng = random.Random(2024)
        docs = [random_document(rng) for _ in range(400)]
        sources = [respell(serialize(doc)) for doc in docs]
        both = [_outcome(s) for s in sources]
        monkeypatch.setattr(sysdesc, "_PAIR", re.compile(r"(?!)"))
        monkeypatch.setattr(sysdesc, "_PLAIN", ())
        assert [_outcome(s) for s in sources] == both
        for doc, out in zip(docs, both):
            if out[0] == "error":  # only kind= on a mirror
                assert out[3] == "kind is not allowed on a mirror interface" and doc.kind == "resonator"
            else:
                assert out[1].body == doc.body
                assert out[1].written in (doc.written, tuple(t or "transmitted" for t in doc.written))

    def test_canonical_lines_out_of_place_read_as_the_tokenizer_reads_them(self, monkeypatch):
        # canonical lines where another directive, or the end, is due: a line
        # dropped, repeated or swapped with the next, or the text cut after it
        rng = random.Random(2025)
        sources = []
        for _ in range(300):
            lines = serialize(random_document(rng)).split("\n")[:-1]
            i = rng.randrange(1, len(lines))
            for edited in (lines[:i] + lines[i + 1:], lines[:i + 1] + lines[i:], lines[:i + 1],
                           lines[:i] + lines[i + 1:i + 2] + lines[i:i + 1] + lines[i + 2:]):
                sources.append("\n".join(edited) + "\n")
        both = [_outcome(s) for s in sources]
        monkeypatch.setattr(sysdesc, "_PAIR", re.compile(r"(?!)"))
        monkeypatch.setattr(sysdesc, "_PLAIN", ())
        assert [_outcome(s) for s in sources] == both
        assert 300 < sum(o[0] == "error" for o in both) < len(sources) - 100  # many of each outcome

    @pytest.mark.parametrize("refused", ["1..5", "1e", ".", "+", "1e5e5"])
    def test_real_that_float_refuses_reads_as_the_tokenizer_reads_it(self, refused, monkeypatch):
        # Each real of a canonical system and resonator in turn (the first pair,
        # a middle pair, a sphere's R, the terminal or cavity space) spelled as
        # a run of the fast pattern's characters that `float` refuses; each
        # text whole, and cut right after that line, where a fallback that
        # skipped the line would reach the ending rules, which read `last`.
        sources = []
        for doc in _REFUSAL_DOCUMENTS:
            lines = serialize(doc).split("\n")
            for i, line in enumerate(lines):
                for real in re.finditer(r"(?<==)[-+.eE0-9]+", line):
                    lines[i] = line[:real.start()] + refused + line[real.end():]
                    sources += ["\n".join(lines), "\n".join(lines[:i + 1]) + "\n"]
                    lines[i] = line
        assert len(sources) == 2 * (10 + 9)  # every real of the two texts
        both = [_outcome(s) for s in sources]
        monkeypatch.setattr(sysdesc, "_PAIR", re.compile(r"(?!)"))
        monkeypatch.setattr(sysdesc, "_PLAIN", ())
        assert [_outcome(s) for s in sources] == both
        assert {o[:1] + o[3:4] for o in both} <= {("error", f"invalid real for {key}: {refused!r}") for key in "ndR"}

    def test_regex_whitespace_is_split_whitespace(self):
        # The fast pattern separates fields with ASCII \s and the tokenizer
        # with str.split(); a Python whose tables differ must fail here.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        kept = re.sub(r"\s", "", every)
        assert kept == "".join(every.split())
        assert kept == "".join(itertools.filterfalse(str.isspace, every))
        assert all(map(str.isspace, re.findall(r"(?a)\s", every)))


# 2**53 + 1 is an int inside the double range that no double equals
_EDGE_REALS = st.sampled_from(
    EDGE_FLOATS + EDGE_INTS + [2**53 + 1, -(2**53 + 1), math.inf, -math.inf, math.nan]) | st.floats(-1e3, 1e3)
_TOKENS = st.sampled_from((None, "transmitted", "reflected"))
_FREESPACES = st.builds(FreeSpace, _EDGE_REALS, _EDGE_REALS)
_MIRRORS = st.just(Plane()) | st.builds(Spherical, _EDGE_REALS)
_PAIRS = st.lists(st.builds(component, _FREESPACES, _MIRRORS, _TOKENS), max_size=4)
_EDGE_DOCUMENTS = st.builds(written_document, _PAIRS, _FREESPACES | st.tuples(_MIRRORS, _FREESPACES, _MIRRORS))


def _reals(doc: Document) -> list:
    """The reals of a document's free spaces and spherical interfaces."""
    body = doc.body
    if isinstance(body, OpticalSystem):
        elements = [e for c in body.components for e in (c.space, c.iface)] + [body.terminal]
    else:
        elements = [body.left, *(e for c in body.inner for e in (c.space, c.iface)), body.space, body.right]
    return [getattr(e, key) for e in elements for key in e.__slots__]


class TestEdgeReals:
    """Hand-built documents with edge reals: every call returns or raises an
    OptikitError, and any text `serialize` writes parses back to an equal document."""

    def test_infinity_is_spelled_as_a_real_that_reads_back(self):
        doc = parse("[system]\nfreespace n=1e999 d=1.0\n")
        assert serialize(doc) == "[system]\nfreespace n=1e999 d=1.0\n"
        negative = written_document((), (Spherical(-math.inf), FreeSpace(1.0, math.inf), Plane()))
        text = serialize(negative)
        assert text == "[resonator]\ninterface spherical R=-1e999\nfreespace n=1.0 d=1e999\ninterface plane\n"
        assert parse(text) == negative

    @pytest.mark.parametrize(
        "pairs, end, message",
        [
            ((), FreeSpace(10**400, 1.0), "free space 0: n is"),
            ((), FreeSpace(math.nan, 1.0), "free space 0: n is"),
            ([component(FreeSpace(1.0, 0.5), Plane())], FreeSpace(1.0, -(2**1024)), "free space 1: d is"),
            ([component(FreeSpace(1.0, 0.5), Spherical(math.nan))], FreeSpace(1.0, 1.0), "interface 0: radius is"),
            ((), FreeSpace(2**53 + 1, 1.0), "free space 0: n is"),
            ([component(FreeSpace(1.0, 0.5), Spherical(-(2**53 + 1)))], FreeSpace(1.0, 1.0), "interface 0: radius is"),
            ((), (Spherical(math.nan), FreeSpace(1.0, 1.0), Plane()), "interface 0: radius is"),
            ((), (Plane(), FreeSpace(1.0, 10**400), Plane()), "free space 0: d is"),
            ([component(FreeSpace(2**53 + 1, 1.0), Plane(), "reflected")], (Plane(), FreeSpace(1.0, 1.0), Plane()),
             "free space 0: n is"),
        ],
    )
    def test_real_without_spelling_is_a_domain_error(self, pairs, end, message):
        # 10**400 made float() raise OverflowError, NaN serialized to n=nan,
        # which parse rejects, and 2**53 + 1 to n=9007199254740992.0, which
        # parses to another number
        with pytest.raises(DomainError, match=f"{message} NaN or beyond the double range"):
            serialize(written_document(pairs, end))

    @pytest.mark.parametrize("real", ["1.5", 1j, None, complex(0.5, 0.0), [1.0]])
    @pytest.mark.parametrize("where", ["n", "d", "R"])
    def test_non_real_field_is_a_domain_error(self, real, where):
        # `abs` or `float` of the field raised TypeError
        space = FreeSpace(real, 1.0) if where == "n" else FreeSpace(1.0, real) if where == "d" else FreeSpace(1.0, 1.0)
        doc = written_document([component(space, Spherical(real if where == "R" else 0.5))], FreeSpace(1.0, 1.0))
        key = {"R": "radius"}.get(where, where)
        with pytest.raises(DomainError, match=f": {key} is NaN or beyond the double range, or no double equals it"):
            serialize(doc)
        assert document_to_system(doc) is doc.body  # its structure is that of the grammar

    @given(doc=_EDGE_DOCUMENTS)
    @settings(max_examples=400, deadline=None)
    def test_finite_or_optikit_error(self, doc):
        for call in (serialize, document_to_system, document_to_resonator):
            try:
                out = call(doc)
            except OptikitError:
                out = None
            if call is serialize:
                spellable = all(abs(x) <= sys.float_info.max and float(x) == x
                                or x in (math.inf, -math.inf) for x in _reals(doc))
                assert (out is not None) == spellable
                if spellable:
                    assert parse(out) == doc


_CALLS = (serialize, document_to_system, document_to_resonator)


class TestParsedMemo:
    """`parse` vouches for every document it returns; on such a document,
    every call gives what it gives on a copy that `parse` never returned."""

    @given(seed=st.integers(0, 2**32), mutate=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_parsed_document_equals_fresh_copy(self, seed, mutate):
        rng = random.Random(seed)
        source = _decorated(rng)
        try:
            doc = parse(_mutated(source, rng) if mutate else source)
        except ParseError:
            return
        fresh = [outcome(call, copy.copy(doc)) for call in _CALLS]
        assert [outcome(call, doc) for call in _CALLS] == fresh

    @given(seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
           order=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_alternating_documents(self, seeds, order):
        docs = [parse(serialize(random_document(random.Random(seed)))) for seed in seeds]
        fresh = [[outcome(call, copy.copy(doc)) for call in _CALLS] for doc in docs]
        for which, i in order:
            assert outcome(_CALLS[i], docs[which]) == fresh[which][i]

    def test_earlier_document_takes_no_walk(self, monkeypatch):
        """A document `parse` returned before another is still vouched for:
        `serialize` forms its elements once, to spell them, and `document_to_*`
        not at all; a copy of it is walked on every call."""
        walks, other = [], serialize(random_document(random.Random(3)))
        elements = sysdesc._elements
        monkeypatch.setattr(sysdesc, "_elements", lambda doc: walks.append(doc) or elements(doc))
        first, second = parse(FP_SOURCE), parse(other)
        assert second.kind == "system" and walks == []
        for _ in range(2):
            assert parse(serialize(first)) == first
            assert document_to_resonator(first) is first.body
            with pytest.raises(DomainError, match="expected a system document"):
                document_to_system(first)
        assert len(walks) == 2
        walks.clear()
        serialize(copy.copy(first))
        assert len(walks) == 2

    def test_hand_built_document_is_checked_on_every_call(self):
        doc = parse(FP_SOURCE)
        built = Document(doc.body, doc.written)
        assert [outcome(call, built) for call in _CALLS] == [outcome(call, doc) for call in _CALLS]
        broken = Document(doc.body, ("reflected",))  # a token for a mirror
        for _ in range(2):
            parse(FP_SOURCE)
            for call in (serialize, document_to_resonator):
                with pytest.raises(DomainError, match="one kind= token per component"):
                    call(broken)

    def test_threads_get_the_results_of_their_own_documents(self):
        """Four threads on two cores parse their own documents; each call must
        see its own document's check, whatever the other threads parse."""
        rng = random.Random(19)
        sources = [serialize(random_document(rng)) for _ in range(4)]
        expected = [[outcome(call, copy.copy(parse(source))) for call in _CALLS] for source in sources]
        broken = written_document((), Plane())
        wrong = []

        def work(i):
            for _ in range(300):
                doc = parse(sources[i])
                got = [outcome(call, doc) for call in _CALLS]
                if got != expected[i] or outcome(serialize, broken)[0] is not DomainError:
                    wrong.append(i)
                    return

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
