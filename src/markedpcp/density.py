"""How common marked morphisms and immersions are among all morphisms with
bounded image length: exact finite counts, Monte-Carlo estimates, and the
closed-form limits they approach."""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, perm

MARKED_MONOID = "marked-monoid"
IMMERSION_GROUP = "immersion-group"

RawLetter = tuple[int, int]


@dataclass(frozen=True)
class DensityParams:
    k: int  # number of domain generators
    m: int  # number of codomain generators
    n: int  # maximum image length
    samples: int = 0  # 0 means exact count

    def __post_init__(self) -> None:
        if self.k < 1 or self.m < 1:
            raise ValueError("alphabet sizes must be positive")
        if self.k > self.m:
            raise ValueError("k <= m is required; larger k admits no marked morphisms")
        if self.n < 1:
            raise ValueError("maximum image length must be at least 1")
        if self.samples < 0:
            raise ValueError("sample count must be nonnegative")


def marked_density_limit(k: int, m: int) -> Fraction:
    """Limit of the marked fraction as image length grows: m!/(m^k (m-k)!).

    Zero for k > m, where no marked morphism exists.
    """
    if k > m:
        return Fraction(0)
    return Fraction(perm(m, k), m**k)


def immersion_density_limit(k: int, m: int) -> Fraction:
    """Limit of the immersion fraction as image length grows.

    First and last letters of long random reduced words equidistribute, so
    the limit is the fraction of admissible first/last assignments:
    P(2m,k) * P(2m-k,k) / (2m)^(2k).  The rank-one codomain is degenerate
    (every nonempty image is an immersion) and the limit is 1 there.
    """
    if k > m:
        return Fraction(0)
    if m == 1:
        return Fraction(1)
    return Fraction(perm(2 * m, k) * perm(2 * m - k, k), (2 * m) ** (2 * k))


def _inverse(l: RawLetter) -> RawLetter:
    return (l[0], -l[1])


def reduced_word_count(m: int, n: int, A, B) -> int:
    """Number of freely reduced words of length n over m generators that do
    not start with a letter of A and do not end with a letter of B.

    Closed form:
    ((2m-|A|)(2m-|B|)(2m-1)^(n-1) + x m + (-1)^n (|A||B| - y m)) / 2m
    with x = |A n B| - |A^-1 n B| and y = |A n B| + |A^-1 n B|.
    """
    if n < 1:
        raise ValueError("word length must be at least 1")
    A = frozenset((i, s) for (i, s) in A)
    B = frozenset((i, s) for (i, s) in B)
    for l in A | B:
        if not (0 <= l[0] < m and l[1] in (1, -1)):
            raise ValueError(f"letter {l} is not over an alphabet of size {m}")
    a, b = len(A), len(B)
    inv_a = frozenset(_inverse(l) for l in A)
    x = len(A & B) - len(inv_a & B)
    y = len(A & B) + len(inv_a & B)
    numerator = (
        (2 * m - a) * (2 * m - b) * (2 * m - 1) ** (n - 1)
        + x * m
        + (-1) ** n * (a * b - y * m)
    )
    count, rem = divmod(numerator, 2 * m)
    if rem != 0:
        raise AssertionError("closed form must produce an integer")
    return count


def _signed_letters(m: int) -> list[RawLetter]:
    return [(i, 1) for i in range(m)] + [(i, -1) for i in range(m)]


def _exact_marked_fraction(k: int, m: int, n: int) -> Fraction:
    total = sum(m**j for j in range(n + 1))
    # each letter starts (total - 1)/m of the nonempty words
    return Fraction(perm(m, k) * ((total - 1) // m) ** k, total**k)


def _exact_immersion_fraction(k: int, m: int, n: int) -> Fraction:
    """Count immersions by first letters F_i and last letters L_i: the F_i
    and the L_i^-1 are 2k distinct letters.  By symmetry image i has `same`
    words if L_i = F_i and `other` if not (L_i = F_i^-1 is excluded).
    Expanding same = (same - other) + other sums over the sets T of t images
    set to L_i = F_i; the other L_i^-1 are any k - t of the 2m - k - t
    letters left.  If the F_i hold c inverse pairs, T lies among the other
    k - 2c images."""
    lengths = range(1, n + 1)
    total = 1 + sum(reduced_word_count(m, j, (), ()) for j in lengths)
    letters = _signed_letters(m)
    not_x, not_y = ([o for o in letters if o != l] for l in ((0, 1), (1, 1)))
    same = sum(reduced_word_count(m, j, not_x, not_x) for j in lengths)
    other = sum(reduced_word_count(m, j, not_x, not_y) for j in lengths) if m > 1 else 0
    count = 0
    for c in range(k // 2 + 1):
        free = k - 2 * c
        assignments = factorial(k) * comb(m, c) * comb(m - c, free) * 2**free
        count += assignments * sum(
            comb(free, t) * (same - other) ** t * other ** (k - t) * perm(2 * m - k - t, k - t)
            for t in range(free + 1)
        )
    return Fraction(count, total**k)


def _sample_words(
    rng: random.Random, m: int, n: int, group: bool
) -> Iterator[tuple[RawLetter, ...]]:
    """Words drawn without end, uniformly from the words (reduced words, in
    group mode) of length <= n; the length weights and letter lists are built once."""
    if group:
        weights = [1] + [2 * m * (2 * m - 1) ** (j - 1) for j in range(1, n + 1)]
    else:
        weights = [m**j for j in range(n + 1)]
    cum_weights = list(accumulate(weights))
    try:
        float(cum_weights[-1])  # `Random.choices` takes the total as a float
    except OverflowError:
        raise ValueError(
            "sampling counts the words of length <= n as a float, which holds fewer than"
            f" 2^1024; m = {m}, n = {n} give at least 2^{cum_weights[-1].bit_length() - 1}"
        ) from None
    letters = _signed_letters(m) if group else [(i, 1) for i in range(m)]
    # the letters that may follow each letter: all but its inverse in group mode
    after = {l: [o for o in letters if o != _inverse(l)] if group else letters for l in letters}
    while True:
        word: list[RawLetter] = []
        options = letters
        for _ in range(rng.choices(range(n + 1), cum_weights=cum_weights)[0]):
            word.append(rng.choice(options))
            options = after[word[-1]]
        yield tuple(word)


def _is_marked_tuple(images: list[tuple[RawLetter, ...]]) -> bool:
    if any(not w for w in images):
        return False
    firsts = [w[0] for w in images]
    return len(set(firsts)) == len(firsts)


def _is_immersion_tuple(images: list[tuple[RawLetter, ...]]) -> bool:
    if any(not w for w in images):
        return False
    firsts = {w[0] for w in images}
    lam = {_inverse(w[-1]) for w in images}
    k = len(images)
    return len(firsts) == k and len(lam) == k and not (firsts & lam)


def measure_density(
    params: DensityParams, kind: str, seed: int = 0
) -> tuple[Fraction, Fraction]:
    """Measured fraction of marked morphisms / immersions among all
    morphisms with images of length <= n, next to the predicted limit.

    With samples == 0 the fraction is exact over the whole tuple space (the
    empty image counts in the denominator), counted by first letter, and in
    group mode by first and last letter with `reduced_word_count`, without
    listing a word; otherwise image tuples are sampled uniformly with a
    seeded generator.
    """
    k, m, n = params.k, params.m, params.n
    if kind == MARKED_MONOID:
        predicted = marked_density_limit(k, m)
        group = False
    elif kind == IMMERSION_GROUP:
        predicted = immersion_density_limit(k, m)
        group = True
    else:
        raise ValueError(f"unknown density kind {kind!r}")

    if params.samples == 0:
        empirical = (
            _exact_immersion_fraction(k, m, n) if group else _exact_marked_fraction(k, m, n)
        )
        return empirical, predicted

    rng = random.Random(seed)
    words = _sample_words(rng, m, n, group)
    test = _is_immersion_tuple if group else _is_marked_tuple
    hits = 0
    for _ in range(params.samples):
        images = [next(words) for _ in range(k)]
        if test(images):
            hits += 1
    return Fraction(hits, params.samples), predicted
