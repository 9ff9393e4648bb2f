"""`fileformat.parse` and `parse_word` against the positioned parser in
`tests/parse_reference.py`: on every text, an equal result or a `ParseError`
with the same line, column and message."""

import importlib
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markedpcp.fileformat import ParseError, parse, serialize_instance
from markedpcp.instances import SetInstance
from markedpcp.words import GROUP, MONOID, Alphabet, parse_word

import parse_reference as reference
from support import random_group_instance, random_monoid_instance

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

# every message `parse` can raise, by its first words
KINDS = {
    "empty file": "empty file",
    "expected 'mode'": "expected 'mode' directive",
    "expected 'sigma'": "expected 'sigma' directive",
    "expected 'delta'": "expected 'delta' directive",
    "expected 'map'": "expected 'map' directive",
    "mode must": "mode must be 'monoid' or 'group'",
    "missing 'sigma'": "missing 'sigma' line",
    "missing 'delta'": "missing 'delta' line",
    "malformed symbol": r"malformed (sigma|delta) symbol",
    "reserved": r"reserved word .* cannot be a (sigma|delta) symbol",
    "duplicate symbol": r"duplicate (sigma|delta) symbol",
    "map name": "map needs exactly one morphism name",
    "duplicate map": "duplicate map name",
    "unknown generator": "unknown generator",
    "duplicate mapping": "duplicate mapping for",
    "expected '='": "expected '=' after the generator",
    "missing image": "missing image for",
    "missing generator": r"map .* is missing generator",
    "no map blocks": "file contains no map blocks",
    "eps": "'eps' must stand alone",
    "inverse": r"inverse letter .* in monoid mode",
    "malformed letter": "malformed letter token",
    "unknown letter": "unknown letter",
    "unreduced": "image is not freely reduced here",
}

RESERVED = ("eps", "map", "mode", "sigma", "delta")
JUNK = ("w", "1x", "x^-1^-1", "a-b", "=", "^-1", "#")
SPACES = (" ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000")


def _kind(message: str) -> str:
    kinds = [k for k, pattern in KINDS.items() if re.match(pattern, message)]
    assert len(kinds) == 1, message
    return kinds[0]


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        assert str(exc) == f"line {exc.line}, column {exc.column}: {exc.bare_message}"
        return (exc.line, exc.column, exc.bare_message)


def _agree(text):
    """The outcome of both parsers on `text`, which must be the same."""
    got = _outcome(parse, text)
    want = _outcome(reference.parse, text)
    assert got == want, repr(text)
    return got


def _base_texts() -> list[str]:
    rng = random.Random(2)
    # named, not globbed: the seeded draws below pick from this list, so a
    # new fixture file would change which mutations the error kinds rest on
    texts = [
        (FIXTURES / f"{name}.pcp").read_text(encoding="utf-8")
        for name in ("immersed_pair", "marked_pair", "unfoldable_map")
    ]
    for _ in range(4):
        texts.append(serialize_instance(random_monoid_instance(rng)))
        group = random_group_instance(rng)
        texts.append(serialize_instance(group))
    texts.append(serialize_instance(SetInstance((group.g, group.h, group.g), ("f", "g", "h"))))
    return texts


BASES = _base_texts()


def _mutate_tokens(rng: random.Random, tokens: list[str], pool: list[str]) -> None:
    i = rng.randrange(len(tokens))
    op = rng.randrange(8)
    if op == 0:
        del tokens[i]
    elif op == 1:
        tokens.insert(i, tokens[i])
    elif op == 2 and i + 1 < len(tokens):
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    elif op == 3:
        tokens[i] += "^-1"
    elif op == 4:
        # the inverse of a letter right after it
        tokens.insert(i + 1, tokens[i] + "^-1")
    elif op == 5:
        tokens.insert(i, "eps")
    elif op == 6:
        tokens[i] = rng.choice(RESERVED + JUNK)
    else:
        tokens[i] = rng.choice(pool)


def _mutate(rng: random.Random, text: str) -> str:
    """`text` after one to three random token, line or whitespace edits."""
    pool = text.split()
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        j = rng.randrange(len(lines))
        op = rng.randrange(9)
        if op <= 2 and lines[j].split():
            tokens = lines[j].split()
            _mutate_tokens(rng, tokens, pool)
            lines[j] = " ".join(tokens)
        elif op == 3:
            del lines[j]
        elif op == 4:
            lines.insert(j, lines[j])
        elif op == 5:
            k = rng.randrange(len(lines))
            lines[j], lines[k] = lines[k], lines[j]
        elif op == 6:
            # cut the file short, down to nothing
            lines = lines[: rng.randrange(5)]
        elif op == 7:
            cut = rng.randrange(len(lines[j]) + 1)
            lines[j] = lines[j][:cut] + "# " + rng.choice(pool + ["comment"]) + lines[j][cut:]
        else:
            line = lines[j]
            spots = [p for p, c in enumerate(line) if c == " "] or [0]
            p = rng.choice(spots)
            blank = "".join(rng.choice(SPACES) for _ in range(rng.randint(1, 2)))
            if line[p : p + 1] == " ":
                lines[j] = line[:p] + blank + line[p + 1 :]
            else:
                lines[j] = blank + line
            if rng.random() < 0.5:
                lines[j] += "\r"
        text = "\n".join(lines)
    return text


def _image_texts(text: str) -> list[str]:
    """The image part of every `sym = ...` line of `text`."""
    return [line.split("=", 1)[1] for line in text.split("\n") if "=" in line]


def test_workload_texts_parse_alike(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name in ("small-mixed", "group-large", "planted-families"):
        for seed in (0, 1, 2):
            for call in workloads.build(name, seed).calls:
                assert parse(call.text) == reference.parse(call.text)


def test_seeded_mutations_agree_and_hit_every_error():
    kinds = {}
    accepted = 0
    for i in range(3000):
        rng = random.Random(i)
        text = _mutate(rng, rng.choice(BASES))
        got = _agree(text)
        if isinstance(got, tuple):
            kinds.setdefault(_kind(got[2]), text)
        else:
            accepted += 1
    assert set(kinds) == set(KINDS), set(KINDS) - set(kinds)
    assert accepted >= 100


PAIR = """mode monoid
sigma a b
delta x y
map g
a = x y
b = y
map h
a = x
b = y y
"""


def _edit(old: str, new: str, text: str = PAIR) -> str:
    assert old in text
    return text.replace(old, new, 1)


# one text per error kind, each made to raise that kind
BY_KIND = {
    "empty file": "# nothing but a comment\n",
    "expected 'mode'": _edit("mode monoid\n", ""),
    "expected 'sigma'": _edit("sigma a b\n", ""),
    "expected 'delta'": _edit("delta x y\n", ""),
    "expected 'map'": _edit("map g\n", ""),
    "mode must": _edit("mode monoid", "mode free"),
    "missing 'sigma'": "mode monoid\n",
    "missing 'delta'": "mode monoid\nsigma a b\n",
    "malformed symbol": _edit("sigma a b", "sigma a 1b"),
    "reserved": _edit("delta x y", "delta x eps"),
    "duplicate symbol": _edit("sigma a b", "sigma a b a"),
    "map name": _edit("map h", "map h k"),
    "duplicate map": PAIR + "map g\na = x\nb = y\n",
    "unknown generator": _edit("b = y y", "c = y y"),
    "duplicate mapping": _edit("b = y\n", "b = y\nb = y\n"),
    "expected '='": _edit("b = y y", "b y y"),
    "missing image": _edit("b = y y", "b ="),
    "missing generator": _edit("b = y y\n", ""),
    "no map blocks": "mode monoid\nsigma a b\ndelta x y\n",
    "eps": _edit("a = x y", "a = x eps"),
    "inverse": _edit("a = x y", "a = x y^-1"),
    "malformed letter": _edit("a = x y", "a = x y-"),
    "unknown letter": _edit("a = x y", "a = x z"),
    "unreduced": _edit("mode monoid", "mode group", _edit("a = x y", "a = x y y^-1")),
}


def test_every_error_kind_by_construction():
    assert set(BY_KIND) == set(KINDS)
    assert not isinstance(_agree(PAIR), tuple)  # the unedited text parses
    for kind, text in BY_KIND.items():
        got = _agree(text)
        assert isinstance(got, tuple), kind
        assert _kind(got[2]) == kind, (kind, got)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(BASES))
def test_mutations_agree(rng, base):
    text = _mutate(rng, base)
    _agree(text)
    mode = GROUP if "mode group" in base else MONOID
    delta = Alphabet(("x", "y", "z"), mode)
    for image in _image_texts(text):
        got = _outcome(lambda t: parse_word(delta, t), image)
        assert got == _outcome(lambda t: reference.parse_word(delta, t), image)


@pytest.mark.parametrize("mode", [MONOID, GROUP])
def test_library_alphabets_parse_alike(mode):
    # symbols the file format rejects still parse as words where the table has them
    lib = Alphabet(("a-b", "eps", "x", "y"), mode)
    rng = random.Random(7)
    tokens = ["x", "y", "x^-1", "y^-1", "eps", "eps^-1", "a-b", "w", " ", "\t", "\x85"]
    for _ in range(500):
        text = " ".join(rng.choice(tokens) for _ in range(rng.randint(0, 5)))
        got = _outcome(lambda t: parse_word(lib, t), text)
        assert got == _outcome(lambda t: reference.parse_word(lib, t), text)


def test_split_is_the_token_regex():
    """`str.split()` and `\\S+` cut at the same code points, so the tokens of
    `str.split()` and the positioned tokens of an error are the same list."""
    token = re.compile(r"\S+")
    for cp in range(0x110000):
        s = "a" + chr(cp) + "b"
        assert s.split() == token.findall(s), hex(cp)
