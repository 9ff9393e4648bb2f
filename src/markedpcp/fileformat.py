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

Each line is read once and split with `str.split()`; the line and column
of a token are found only when an error is raised there.  The symbols are
checked on every parse; the `sigma` and `delta` alphabets then come from
the shared cache of `words._alphabet`, so every file over the same symbols
and mode gets the same `Alphabet` objects.
"""

from __future__ import annotations

from .instances import EqualiserResult, Instance, SetInstance
from .morphisms import Morphism
from .words import _SYMBOL_RE, GROUP, MONOID, Word, _alphabet, format_word
from .words import ParseError, parse_letters, tokenize_line  # ParseError is re-exported

# words the format gives a meaning of their own; as symbols they would be
# misread as directives or as the empty word
_RESERVED = frozenset(("eps", "map", "mode", "sigma", "delta"))

Line = tuple[int, str, list[str]]  # line number, text, its tokens


def _lines(text: str) -> list[Line]:
    """The lines that hold a token, with comments cut (a `\r` before the
    `\n` is whitespace to `str.split()`)."""
    lines: list[Line] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.partition("#")[0]
        tokens = line.split()
        if tokens:
            lines.append((lineno, line, tokens))
    return lines


def _error(message: str, line: Line, k: int = 0) -> ParseError:
    """The error at token `k` of `line`, positioned by re-reading the line."""
    lineno, text, _ = line
    _, col, _ = tokenize_line(text, lineno)[k]
    return ParseError(message, lineno, col)


def _expect_directive(line: Line, name: str) -> list[str]:
    word = line[2][0]
    if word != name:
        raise _error(f"expected '{name}' directive, found {word!r}", line)
    return line[2][1:]


def _parse_symbols(line: Line, what: str) -> tuple[str, ...]:
    symbols = _expect_directive(line, what)
    for k, tok in enumerate(symbols, start=1):
        if not _SYMBOL_RE.match(tok):
            raise _error(f"malformed {what} symbol {tok!r}", line, k)
        if tok in _RESERVED:
            raise _error(f"reserved word {tok!r} cannot be a {what} symbol", line, k)
        if tok in symbols[: k - 1]:
            raise _error(f"duplicate {what} symbol {tok!r}", line, k)
    return tuple(symbols)


def parse(text: str) -> Instance | SetInstance:
    """Parse an instance file.

    Exactly two map blocks give an Instance; any other number a SetInstance
    (a single block is a degenerate but accepted file, as produced when a
    result morphism is written back out).
    """
    lines = _lines(text)
    if not lines:
        raise ParseError("empty file", 1, 1)
    pos = 0

    rest = _expect_directive(lines[pos], "mode")
    if len(rest) != 1 or rest[0] not in (MONOID, GROUP):
        raise _error("mode must be 'monoid' or 'group'", lines[pos])
    mode = rest[0]
    pos += 1

    if pos >= len(lines):
        raise ParseError("missing 'sigma' line", lines[-1][0], 1)
    sigma = _alphabet(_parse_symbols(lines[pos], "sigma"), mode)
    pos += 1

    if pos >= len(lines):
        raise ParseError("missing 'delta' line", lines[-1][0], 1)
    delta = _alphabet(_parse_symbols(lines[pos], "delta"), mode)
    pos += 1

    names: list[str] = []
    morphisms: list[Morphism] = []
    while pos < len(lines):
        line = lines[pos]
        rest = _expect_directive(line, "map")
        if len(rest) != 1 or not _SYMBOL_RE.match(rest[0]):
            raise _error("map needs exactly one morphism name", line)
        name = rest[0]
        if name in names:
            raise _error(f"duplicate map name {name!r}", line)
        pos += 1
        mapping: dict[str, Word] = {}
        while pos < len(lines) and lines[pos][2][0] != "map":
            entry = lines[pos]
            lineno, entry_text, entry_tokens = entry
            sym = entry_tokens[0]
            if sym not in sigma:
                raise _error(f"unknown generator {sym!r}", entry)
            if sym in mapping:
                raise _error(f"duplicate mapping for {sym!r}", entry)
            if len(entry_tokens) < 2 or entry_tokens[1] != "=":
                raise _error("expected '=' after the generator", entry)
            if len(entry_tokens) < 3:
                raise _error(f"missing image for {sym!r}", entry)
            mapping[sym] = parse_letters(delta, entry_text, entry_tokens, 2, lineno)
            pos += 1
        for sym in sigma.symbols:
            if sym not in mapping:
                raise _error(f"map {name!r} is missing generator {sym!r}", line)
        names.append(name)
        morphisms.append(
            Morphism(sigma, delta, tuple(mapping[s] for s in sigma.symbols))
        )

    if not morphisms:
        raise ParseError("file contains no map blocks", lines[-1][0], 1)
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
