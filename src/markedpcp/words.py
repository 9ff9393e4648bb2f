"""Alphabets, monoid words, and freely reduced group words.

Letters are (index, sign) pairs into an ordered alphabet, so multi-character
symbol names and alphabets of any size work uniformly.  Group-mode words are
kept freely reduced at all times: the `Word` constructor rejects a sequence
containing an adjacent cancelling pair, and `free_reduce` is the constructor
for raw letter sequences.  Equality is therefore plain sequence equality.
Solver code that has just built a word correctly uses `Word._trusted`,
which skips these checks.

The word text syntax lives here only: `parse_letters` reads it from the
plain tokens of `str.split()`, for `parse_word` and for the instance file
format, and finds a token's line and column only to report an error there.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

MONOID = "monoid"
GROUP = "group"

_SYMBOL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"\S+")

Token = tuple[int, int, str]  # line, column (1-based), text


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.bare_message = message


class Letter(NamedTuple):
    index: int
    sign: int

    def inverse(self) -> "Letter":
        return Letter(self.index, -self.sign)

    def sort_key(self) -> tuple[int, int]:
        # positive before negative, then alphabet order
        return (self.index, 0 if self.sign > 0 else 1)


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of generator symbols with a monoid/group mode flag."""

    symbols: tuple[str, ...]
    mode: str = MONOID
    _pos: dict = field(init=False, repr=False, compare=False)
    # One `Letter` per signed generator, held by every word over the alphabet:
    # by sign, letter to inverse (keys in `Letter.sort_key` order, as the walk
    # reads them), and token text to letter (`x`, and `x^-1` in group mode).
    _positive_letters: tuple = field(init=False, repr=False, compare=False)
    _negative_letters: tuple = field(init=False, repr=False, compare=False)
    _inverse_letters: dict = field(init=False, repr=False, compare=False)
    _token_letters: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if self.mode not in (MONOID, GROUP):
            raise ValueError(f"unknown mode {self.mode!r}")
        for s in self.symbols:
            if not isinstance(s, str) or not s:
                raise ValueError(f"alphabet symbols must be nonempty strings, got {s!r}")
        pos = {s: i for i, s in enumerate(self.symbols)}
        if len(pos) != len(self.symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")
        positive = tuple([Letter(i, 1) for i in range(len(pos))])
        negative = tuple([Letter(i, -1) for i in range(len(pos))])
        inverse, tokens = {}, {}
        for s, p, n in zip(self.symbols, positive, negative):
            inverse[p], inverse[n] = n, p
            if _SYMBOL_RE.match(s):
                tokens[s] = p
                if self.mode == GROUP:
                    tokens[s + "^-1"] = n
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_positive_letters", positive)
        object.__setattr__(self, "_negative_letters", negative)
        object.__setattr__(self, "_inverse_letters", inverse)
        object.__setattr__(self, "_token_letters", tokens)

    def __eq__(self, other: object) -> bool:
        # Interned alphabets are shared, so identity settles most
        # comparisons; otherwise the fields decide, as the dataclass's
        # generated `__eq__` would, and `__hash__` is still generated.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.symbols == other.symbols and self.mode == other.mode

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._pos

    def index(self, symbol: str) -> int:
        try:
            return self._pos[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet {self.symbols}") from None

    def positive_letters(self) -> list[Letter]:
        return list(self._positive_letters)

    def signed_letters(self) -> list[Letter]:
        """All generator letters, including inverses in group mode."""
        if self.mode == GROUP:
            return [*self._positive_letters, *self._negative_letters]
        return list(self._positive_letters)


@functools.lru_cache(maxsize=256)
def _alphabet(symbols: tuple[str, ...], mode: str) -> Alphabet:
    """The one shared alphabet of `symbols` in `mode`, so that every parsed
    file, solve and word over the same symbols shares its position and
    letter tables.  Bounded: past 256 alphabets the least recently used
    one is dropped.  Parsing and solving build their alphabets here;
    `Alphabet(...)` itself always builds a new one."""
    return Alphabet(symbols, mode)


@dataclass(frozen=True)
class Word:
    """A word over one alphabet; freely reduced by construction in group mode."""

    alphabet: Alphabet
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        letters = _own_letters(self.alphabet, self.letters)
        object.__setattr__(self, "letters", letters)
        if self.alphabet.mode == GROUP:
            for pos, (a, b) in enumerate(zip(letters, letters[1:])):
                if a is self.alphabet._inverse_letters[b]:
                    raise ValueError(
                        f"group word not freely reduced at position {pos}"
                        " (use free_reduce for raw sequences)"
                    )

    @classmethod
    def _trusted(cls, alphabet: Alphabet, letters: tuple[Letter, ...]) -> "Word":
        """A word the caller has built correctly: `letters` is a tuple of
        `Letter`s over `alphabet`, freely reduced in group mode.  Nothing is
        checked, so this is for solver-internal values only."""
        w = object.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    @property
    def first(self) -> Letter:
        return self.letters[0]

    @property
    def last(self) -> Letter:
        return self.letters[-1]

    def prefix(self, length: int) -> "Word":
        return Word._trusted(self.alphabet, self.letters[:length])

    def sort_key(self) -> tuple:
        """Shortlex key: length first, then letter order."""
        return (len(self.letters), tuple(l.sort_key() for l in self.letters))


def _own_letters(alphabet: Alphabet, raw: Iterable[tuple[int, int]]) -> tuple[Letter, ...]:
    """The (index, sign) pairs of `raw` as the alphabet's own letters.  The
    first pair with an index out of range, a bad sign, or a negative sign
    in monoid mode raises, named by its position in `raw`."""
    n = len(alphabet)
    positive, negative = alphabet._positive_letters, alphabet._negative_letters
    out = []
    for pos, (i, s) in enumerate(raw):
        if not 0 <= i < n:
            raise ValueError(f"letter index {i} out of range at position {pos}")
        if s not in (1, -1):
            raise ValueError(f"bad letter sign {s} at position {pos}")
        if s < 0 and alphabet.mode == MONOID:
            raise ValueError(f"monoid word contains inverse letter at position {pos}")
        out.append(positive[i] if s > 0 else negative[i])
    return tuple(out)


def free_reduce(alphabet: Alphabet, letters: Iterable[Letter]) -> Word:
    """Freely reduce a raw letter sequence over a group-mode alphabet.

    Idempotent; rejects monoid-mode alphabets, where reduction is undefined.
    Letters are checked as `Word` checks them, at raw positions, before any cancel.
    """
    if alphabet.mode != GROUP:
        raise ValueError("free reduction is only defined in group mode")
    inverse = alphabet._inverse_letters
    out: list[Letter] = []
    for l in _own_letters(alphabet, letters):
        if out and out[-1] is inverse[l]:
            out.pop()
        else:
            out.append(l)
    return Word._trusted(alphabet, tuple(out))


def concat(u: Word, v: Word) -> Word:
    """Concatenate two words; in group mode the junction is freely reduced."""
    if u.alphabet != v.alphabet:
        raise ValueError("cannot concatenate words over different alphabets")
    if u.alphabet.mode == MONOID:
        return Word._trusted(u.alphabet, u.letters + v.letters)
    # both already reduced, so cancellation only happens at the junction
    inverse = u.alphabet._inverse_letters
    left = list(u.letters)
    i = 0
    while left and i < len(v.letters) and left[-1] == inverse[v.letters[i]]:
        left.pop()
        i += 1
    return Word._trusted(u.alphabet, tuple(left) + v.letters[i:])


def invert(w: Word) -> Word:
    """Group inverse; an involution with concat(w, invert(w)) empty."""
    if w.alphabet.mode != GROUP:
        raise ValueError("inversion is only defined in group mode")
    inverse = w.alphabet._inverse_letters
    return Word._trusted(w.alphabet, tuple([inverse[l] for l in reversed(w.letters)]))


def proper_prefixes(w: Word) -> set[Word]:
    """All nonempty strict prefixes of w (the empty word is excluded)."""
    return {w.prefix(i) for i in range(1, len(w.letters))}


def longest_common_prefix(u: Word, v: Word) -> Word:
    if u.alphabet != v.alphabet:
        raise ValueError("words lie over different alphabets")
    n = 0
    for a, b in zip(u.letters, v.letters):
        if a != b:
            break
        n += 1
    return u.prefix(n)


def ball(alphabet: Alphabet, radius: int) -> Iterator[Word]:
    """Yield every word of length <= radius in shortlex order.

    In group mode only freely reduced words are produced.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    inverse = alphabet._inverse_letters
    letters = sorted(alphabet.signed_letters(), key=Letter.sort_key)
    level: list[tuple[Letter, ...]] = [()]
    yield Word(alphabet, ())
    for _ in range(radius):
        nxt = []
        for stem in level:
            for l in letters:
                if alphabet.mode == GROUP and stem and stem[-1] is inverse[l]:
                    continue
                seq = stem + (l,)
                nxt.append(seq)
                yield Word(alphabet, seq)
        level = nxt


def tokenize_line(text: str, line: int = 1) -> list[Token]:
    """The tokens of `text.split()` with their positions, read as line
    `line`: found only to name where an error is."""
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


def parse_letters(
    alphabet: Alphabet, text: str, tokens: Sequence[str], start: int = 0, line: int = 1
) -> Word:
    """The word spelled by `tokens[start:]`, where `tokens` is `text.split()`
    and `text` is line `line` of the input: letters, inverses written with
    the suffix ^-1 (group mode only), the empty word spelled `eps` standing
    alone.  Group words must arrive freely reduced.  Every error is a
    `ParseError` at the offending token."""
    toks = tokens[start:]
    if len(toks) == 1 and toks[0] == "eps":
        return Word._trusted(alphabet, ())
    table = alphabet._token_letters
    try:
        letters = tuple(map(table.__getitem__, toks))
    except KeyError:
        pass
    else:
        # the tables share the alphabet's letters, so identity finds a cancelling pair
        if alphabet.mode != GROUP or not any(
            map(operator.is_, map(alphabet._inverse_letters.__getitem__, letters), letters[1:])
        ):
            return Word._trusted(alphabet, letters)
    # an unknown token or a cancelling pair: name the first in token order
    group = alphabet.mode == GROUP
    previous = None
    for ln, col, tok in tokenize_line(text, line)[start:]:
        letter = table.get(tok)
        if letter is None:
            raise ParseError(_token_error(alphabet, tok), ln, col)
        if group and previous is not None and previous.index == letter.index and previous != letter:
            raise ParseError("image is not freely reduced here", ln, col)
        previous = letter
    raise AssertionError(f"parse_letters: no error found in {text!r} after the fast path failed")


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse `text`, read as line 1, in the syntax of `parse_letters`."""
    return parse_letters(alphabet, text, text.split())


def format_letter(alphabet: Alphabet, l: Letter) -> str:
    sym = alphabet.symbols[l.index]
    return sym if l.sign > 0 else sym + "^-1"


def format_word(w: Word) -> str:
    if not w.letters:
        return "eps"
    return " ".join(format_letter(w.alphabet, l) for l in w.letters)
