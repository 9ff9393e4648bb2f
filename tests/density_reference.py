"""The exact density fractions by enumeration, kept as the judge of
`markedpcp.density`.

`words_up_to` walks `markedpcp.words.ball`, and the two fractions tally the
first and last letters of every word it yields, once per (m, n, kind).
`measure_density` in exact mode counts the same words with
`reduced_word_count` and closed sums, so on every input it must return an
equal `Fraction`.  `permutation_immersion_fraction` counts the words as
`measure_density` does but still enumerates the first- and last-letter
assignments, as exact mode did before its closed sum; it judges that sum
at ranks the word walk cannot reach.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from functools import lru_cache
from fractions import Fraction
from itertools import permutations
from math import prod

from markedpcp.density import _inverse, _signed_letters, reduced_word_count
from markedpcp.words import GROUP, MONOID, Alphabet, ball


def words_up_to(m: int, n: int, group: bool) -> Iterator[tuple]:
    """Every word of length <= n over m generators (every freely reduced
    word, if `group`), as a tuple of `(index, sign)` letters."""
    alphabet = Alphabet(tuple(f"x{i}" for i in range(m)), GROUP if group else MONOID)
    for w in ball(alphabet, n):
        yield w.letters


@lru_cache(maxsize=None)
def _tally(m: int, n: int, group: bool) -> tuple[int, Counter]:
    """The number of words of length <= n, and the nonempty ones by their
    (first, last) letters: one walk for every k."""
    total = 0
    by_ends: Counter = Counter()
    for w in words_up_to(m, n, group):
        total += 1
        if w:
            by_ends[(w[0], w[-1])] += 1
    return total, by_ends


def exact_marked_fraction(k: int, m: int, n: int) -> Fraction:
    total, by_ends = _tally(m, n, group=False)
    by_first: Counter = Counter()
    for (first, _), count in by_ends.items():
        by_first[first] += count
    letters = [(i, 1) for i in range(m)]
    count = sum(prod(by_first[f] for f in firsts) for firsts in permutations(letters, k))
    return Fraction(count, total**k)


def _immersion_count(k: int, m: int, by_ends) -> int:
    """The immersions among the image tuples, given the nonempty images by
    (first, last) letter: a sum over the P(2m, k) * P(2m - k, k) admissible
    first letters and inverses of last letters."""
    letters = _signed_letters(m)
    count = 0
    for firsts in permutations(letters, k):
        rest = [l for l in letters if l not in firsts]
        for lam in permutations(rest, k):
            count += prod(by_ends[(firsts[i], _inverse(lam[i]))] for i in range(k))
    return count


def exact_immersion_fraction(k: int, m: int, n: int) -> Fraction:
    total, by_ends = _tally(m, n, group=True)
    return Fraction(_immersion_count(k, m, by_ends), total**k)


def permutation_immersion_fraction(k: int, m: int, n: int) -> Fraction:
    """The same fraction with the words counted by `reduced_word_count`, not
    listed, and the assignments still enumerated: fast enough at m = 4, and
    past the reach of `exact_immersion_fraction`'s word walk."""
    lengths = range(1, n + 1)
    total = 1 + sum(reduced_word_count(m, j, (), ()) for j in lengths)
    letters = _signed_letters(m)
    others = {l: [o for o in letters if o != l] for l in letters}
    by_ends = {
        (a, b): sum(reduced_word_count(m, j, others[a], others[b]) for j in lengths)
        for a in letters
        for b in letters
    }
    return Fraction(_immersion_count(k, m, by_ends), total**k)
