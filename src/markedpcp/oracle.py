"""Brute-force ground truth for solver outputs.

Everything here re-derives word arithmetic from scratch on raw (index, sign)
tuples; the solver modules are never called, so an agreement between the two
sides is a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .instances import EqualiserResult, Instance, SetInstance
from .morphisms import Morphism
from .words import GROUP, MONOID, Alphabet, Word

RawWord = tuple[tuple[int, int], ...]

# enumerate_equaliser and image_ball both recurse once per letter of the
# domain word they extend, at most radius letters, so the radius must stay
# well inside the interpreter's default recursion limit of 1000 frames,
# leaving room for the frames of their callers
MAX_RADIUS = 500


@dataclass(frozen=True)
class BallSpec:
    radius: int
    mode: str

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")
        if self.radius > MAX_RADIUS:
            raise ValueError(f"ball radius {self.radius} exceeds the maximum of {MAX_RADIUS}")
        if self.mode not in (MONOID, GROUP):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class CheckReport:
    failures: tuple[str, ...]
    summary: str

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = [f"{'PASS' if self.passed else 'FAIL'}: {self.summary}"]
        out.extend(f"  violation: {f}" for f in self.failures)
        return out


def _raw_table(f: Morphism) -> list[RawWord]:
    return [tuple((l.index, l.sign) for l in img.letters) for img in f.images]


def _raw_invert(w: RawWord) -> RawWord:
    return tuple((i, -s) for (i, s) in reversed(w))


def _signed_table(f: Morphism) -> dict[tuple[int, int], RawWord]:
    """Raw image of each signed domain generator: the positive letters
    first, then their inverses in group mode."""
    raw = _raw_table(f)
    table = {(i, 1): img for i, img in enumerate(raw)}
    if f.mode == GROUP:
        table.update({(i, -1): _raw_invert(img) for i, img in enumerate(raw)})
    return table


def _raw_join(u: RawWord, v: RawWord) -> RawWord:
    """The reduced product of two reduced raw words: letters cancel only
    where the words meet, so two positive words are simply concatenated."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == (v[k][0], -v[k][1]):
        k += 1
    return u[: len(u) - k] + v[k:]


def _domain_letters(alphabet: Alphabet) -> list[tuple[int, int]]:
    letters = [(i, 1) for i in range(len(alphabet))]
    if alphabet.mode == GROUP:
        letters += [(i, -1) for i in range(len(alphabet))]
    letters.sort(key=lambda l: (l[0], 0 if l[1] > 0 else 1))
    return letters


def _raw_sort_key(w: RawWord) -> tuple:
    return (len(w), tuple((i, 0 if s > 0 else 1) for (i, s) in w))


def enumerate_equaliser(morphisms: list[Morphism], ball: BallSpec) -> list[Word]:
    """All words of length <= radius on which every morphism agrees, in
    shortlex order; freely reduced words only in group mode.

    Walks the ball depth-first, carrying each morphism's image of the
    prefix and joining it with the image of the next letter.  A branch
    whose images already disagree on their overlap is pruned in monoid mode,
    and in group mode when every morphism passes `_decode_table`: the images
    of a reduced word under an immersion never cancel, so like monoid images
    they only grow on the right.  Other group inputs walk the whole ball.
    """
    if not morphisms:
        raise ValueError("need at least one morphism")
    sigma = morphisms[0].domain
    for f in morphisms[1:]:
        if f.domain != sigma or f.codomain != morphisms[0].codomain:
            raise ValueError("morphisms must share domain and codomain")
    if ball.mode != sigma.mode:
        raise ValueError("ball mode does not match the morphisms")
    prune = True
    if sigma.mode == GROUP:
        try:
            for f in morphisms:
                _decode_table(f)
        except ValueError:
            prune = False
    tables = [_signed_table(f) for f in morphisms]
    steps = [(l, [t[l] for t in tables]) for l in _domain_letters(sigma)]
    hits: list[RawWord] = []

    def walk(word: RawWord, images: list[RawWord]) -> None:
        if all(other == images[0] for other in images[1:]):
            hits.append(word)
        if len(word) == ball.radius:
            return
        for l, imgs in steps:
            if word and word[-1] == (l[0], -l[1]):
                continue
            joined = [_raw_join(image, img) for image, img in zip(images, imgs)]
            first = joined[0]
            if prune and any(first[: len(o)] != o[: len(first)] for o in joined[1:]):
                continue
            walk(word + (l,), joined)

    walk((), [()] * len(tables))
    hits.sort(key=_raw_sort_key)
    return [Word(sigma, raw) for raw in hits]


def _decode_table(psi: Morphism) -> dict[tuple[int, int], tuple[tuple[int, int], RawWord]]:
    """First raw letter of each image to (generator letter, raw image);
    rejects morphisms that are not marked / not immersions."""
    index: dict[tuple[int, int], tuple[tuple[int, int], RawWord]] = {}
    for gen, img in _signed_table(psi).items():
        if not img:
            raise ValueError("image of a generator is empty: not marked")
        if img[0] in index:
            raise ValueError("two images share a first letter: not marked")
        index[img[0]] = (gen, img)
    return index


def image_ball(psi: Morphism, ball: BallSpec) -> list[Word]:
    """Elements of the image of a marked morphism / immersion of length at
    most the radius, in shortlex order.

    Such a map never cancels between the images of a reduced word's letters,
    so distinct reduced words have distinct images, each the concatenation
    of its letters' raw images; the walk extends reduced domain words and
    stops a branch once its image outgrows the radius.
    """
    if ball.mode != psi.mode:
        raise ValueError("ball mode does not match the morphism")
    gens = list(_decode_table(psi).values())
    out: list[RawWord] = []

    def walk(last: tuple[int, int] | None, image: RawWord) -> None:
        out.append(image)
        for gen, img in gens:
            if last != (gen[0], -gen[1]) and len(image) + len(img) <= ball.radius:
                walk(gen, image + img)

    walk(None, ())
    out.sort(key=_raw_sort_key)
    return [Word(psi.codomain, raw) for raw in out]


def check_result(
    problem: Instance | SetInstance, result: EqualiserResult, ball: BallSpec
) -> CheckReport:
    """Cross-examine a solver result against enumeration on a ball."""
    morphisms = list(problem.morphisms)
    sigma = morphisms[0].domain
    failures: list[str] = []
    psi = result.embedding

    decodable = True
    try:
        _decode_table(psi)
    except ValueError as exc:
        decodable = False
        failures.append(f"embedding is not marked/immersed: {exc}")

    if len(result.basis) > len(sigma):
        failures.append(
            f"basis has {len(result.basis)} elements, more than the {len(sigma)} generators"
        )

    tables = [_signed_table(f) for f in morphisms]
    for w in result.basis:
        images = {reduce(_raw_join, [t[l] for l in w.letters], ()) for t in tables}
        if len(images) > 1:
            failures.append(f"basis word {w!r} is not an equaliser element")

    eq = enumerate_equaliser(morphisms, ball)
    if decodable:
        img = image_ball(psi, ball)
        if eq != img:
            missing = sorted(set(eq) - set(img), key=Word.sort_key)
            extra = sorted(set(img) - set(eq), key=Word.sort_key)
            if missing:
                failures.append(f"image misses equaliser element {missing[0]!r}")
            if extra:
                failures.append(f"image contains non-solution {extra[0]!r}")
    summary = (
        f"radius-{ball.radius} ball: {len(eq)} equaliser elements,"
        f" basis size {len(result.basis)}"
    )
    return CheckReport(tuple(failures), summary)
