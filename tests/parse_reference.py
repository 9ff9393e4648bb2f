"""The positioned instance-file parser, kept as the judge of
`markedpcp.fileformat.parse`.

Every token here carries its `(line, column, text)` from `re.finditer`,
and every image letter is looked up and checked for cancellation one at a
time.  The parser in `src/` splits lines with `str.split()` and finds a
position only when it raises, so on every text it must return an equal
instance or raise a `ParseError` with the same line, column and message.
"""

from __future__ import annotations

import re

from markedpcp.instances import Instance, SetInstance
from markedpcp.morphisms import Morphism
from markedpcp.words import GROUP, MONOID, Alphabet, Letter, ParseError, Word

_SYMBOL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"\S+")
_RESERVED = frozenset(("eps", "map", "mode", "sigma", "delta"))

Token = tuple[int, int, str]  # line, column (1-based), text


def tokenize_line(text: str, line: int = 1) -> list[Token]:
    return [(line, m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(text)]


def _token_error(alphabet: Alphabet, tok: str) -> str:
    if tok == "eps":
        return "'eps' must stand alone"
    sym = tok
    if tok.endswith("^-1"):
        sym = tok[:-3]
        if alphabet.mode == MONOID:
            return f"inverse letter {tok!r} in monoid mode"
    if not _SYMBOL_RE.match(sym):
        return f"malformed letter token {tok!r}"
    return f"unknown letter {sym!r}"


def parse_letters(alphabet: Alphabet, tokens: list[Token]) -> Word:
    if len(tokens) == 1 and tokens[0][2] == "eps":
        return Word._trusted(alphabet, ())
    table = alphabet._token_letters
    group = alphabet.mode == GROUP
    letters: list[Letter] = []
    for line, col, tok in tokens:
        letter = table.get(tok)
        if letter is None:
            raise ParseError(_token_error(alphabet, tok), line, col)
        if group and letters and letters[-1].index == letter.index and letters[-1] != letter:
            raise ParseError("image is not freely reduced here", line, col)
        letters.append(letter)
    return Word._trusted(alphabet, tuple(letters))


def parse_word(alphabet: Alphabet, text: str) -> Word:
    return parse_letters(alphabet, tokenize_line(text))


def _tokenize(text: str) -> list[list[Token]]:
    lines: list[list[Token]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        hash_pos = line.find("#")
        if hash_pos != -1:
            line = line[:hash_pos]
        tokens = tokenize_line(line, lineno)
        if tokens:
            lines.append(tokens)
    return lines


def _expect_directive(line: list[Token], name: str) -> list[Token]:
    lineno, col, word = line[0]
    if word != name:
        raise ParseError(f"expected '{name}' directive, found {word!r}", lineno, col)
    return line[1:]


def _parse_symbols(tokens: list[Token], what: str) -> tuple[str, ...]:
    symbols: list[str] = []
    for lineno, col, tok in tokens:
        if not _SYMBOL_RE.match(tok):
            raise ParseError(f"malformed {what} symbol {tok!r}", lineno, col)
        if tok in _RESERVED:
            raise ParseError(f"reserved word {tok!r} cannot be a {what} symbol", lineno, col)
        if tok in symbols:
            raise ParseError(f"duplicate {what} symbol {tok!r}", lineno, col)
        symbols.append(tok)
    return tuple(symbols)


def parse(text: str) -> Instance | SetInstance:
    lines = _tokenize(text)
    if not lines:
        raise ParseError("empty file", 1, 1)
    pos = 0

    rest = _expect_directive(lines[pos], "mode")
    if len(rest) != 1 or rest[0][2] not in (MONOID, GROUP):
        lineno, col = lines[pos][0][0], lines[pos][0][1]
        raise ParseError("mode must be 'monoid' or 'group'", lineno, col)
    mode = rest[0][2]
    pos += 1

    if pos >= len(lines):
        raise ParseError("missing 'sigma' line", lines[-1][0][0], 1)
    sigma = Alphabet(_parse_symbols(_expect_directive(lines[pos], "sigma"), "sigma"), mode)
    pos += 1

    if pos >= len(lines):
        raise ParseError("missing 'delta' line", lines[-1][0][0], 1)
    delta = Alphabet(_parse_symbols(_expect_directive(lines[pos], "delta"), "delta"), mode)
    pos += 1

    names: list[str] = []
    morphisms: list[Morphism] = []
    while pos < len(lines):
        line = lines[pos]
        lineno, col, word = line[0]
        if word != "map":
            raise ParseError(f"expected 'map' directive, found {word!r}", lineno, col)
        if len(line) != 2 or not _SYMBOL_RE.match(line[1][2]):
            raise ParseError("map needs exactly one morphism name", lineno, col)
        name = line[1][2]
        if name in names:
            raise ParseError(f"duplicate map name {name!r}", lineno, col)
        pos += 1
        mapping: dict[str, Word] = {}
        while pos < len(lines) and lines[pos][0][2] != "map":
            entry = lines[pos]
            la, ca, sym = entry[0]
            if sym not in sigma:
                raise ParseError(f"unknown generator {sym!r}", la, ca)
            if sym in mapping:
                raise ParseError(f"duplicate mapping for {sym!r}", la, ca)
            if len(entry) < 2 or entry[1][2] != "=":
                raise ParseError("expected '=' after the generator", la, ca)
            if len(entry) < 3:
                raise ParseError(f"missing image for {sym!r}", la, ca)
            mapping[sym] = parse_letters(delta, entry[2:])
            pos += 1
        for sym in sigma.symbols:
            if sym not in mapping:
                raise ParseError(f"map {name!r} is missing generator {sym!r}", lineno, col)
        names.append(name)
        morphisms.append(Morphism(sigma, delta, tuple(mapping[s] for s in sigma.symbols)))

    if not morphisms:
        raise ParseError("file contains no map blocks", lines[-1][0][0], 1)
    if len(morphisms) == 2:
        return Instance(morphisms[0], morphisms[1], (names[0], names[1]))
    return SetInstance(tuple(morphisms), tuple(names))
