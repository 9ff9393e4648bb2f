"""Line-oriented text format for instances, morphism families, and results.

    mode (monoid|group)
    sigma <sym> <sym> ...
    delta <sym> <sym> ...
    map <morphname>
    <sym> = <word-or-eps>
    ...

Comments start with '#', blank lines are ignored, symbols match
[A-Za-z][A-Za-z0-9_]* and are none of the reserved words eps, map, mode,
sigma and delta.  Images are words in the syntax of `words.parse_letters`:
whitespace-separated letters, inverses with the ^-1 suffix, `eps` for the
empty word.  Group images must arrive freely reduced; unreduced input is
an error with a position rather than something to fix silently, so files
stay unambiguous.
"""

from __future__ import annotations

from .instances import EqualiserResult, Instance, SetInstance
from .morphisms import Morphism
from .words import _SYMBOL_RE, GROUP, MONOID, Alphabet, Token, Word, format_word
from .words import ParseError, parse_letters, tokenize_line  # ParseError is re-exported

# words the format gives a meaning of their own; as symbols they would be
# misread as directives or as the empty word
_RESERVED = frozenset(("eps", "map", "mode", "sigma", "delta"))


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
    """Parse an instance file.

    Exactly two map blocks give an Instance; any other number a SetInstance
    (a single block is a degenerate but accepted file, as produced when a
    result morphism is written back out).
    """
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
        morphisms.append(
            Morphism(sigma, delta, tuple(mapping[s] for s in sigma.symbols))
        )

    if not morphisms:
        raise ParseError("file contains no map blocks", lines[-1][0][0], 1)
    if len(morphisms) == 2:
        return Instance(morphisms[0], morphisms[1], (names[0], names[1]))
    return SetInstance(tuple(morphisms), tuple(names))


def serialize_instance(problem: Instance | SetInstance) -> str:
    pairs = zip(problem.names, problem.morphisms)
    sigma, delta = problem.sigma, problem.delta
    lines = [
        f"mode {problem.mode}",
        "sigma" + "".join(f" {s}" for s in sigma.symbols),
        "delta" + "".join(f" {s}" for s in delta.symbols),
    ]
    for name, f in pairs:
        lines.append(f"map {name}")
        for sym, img in zip(sigma.symbols, f.images):
            lines.append(f"{sym} = {format_word(img)}")
    return "\n".join(lines) + "\n"


def serialize(result: EqualiserResult) -> str:
    """Result format: the termination case, the basis size, then one line
    per basis generator in canonical order."""
    lines = [f"case {result.case}", f"basis {len(result.basis)}"]
    for name, w in zip(result.embedding.domain.symbols, result.basis):
        lines.append(f"{name} = {format_word(w)}")
    return "\n".join(lines) + "\n"
