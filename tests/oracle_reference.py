"""Full-ball oracle walks, kept as the judge of `markedpcp.oracle`.

`image_ball` here filters the whole codomain ball by greedy decoding, and
`enumerate_equaliser` walks the whole freely reduced ball in group mode
(pruning only in monoid mode).  Neither relies on images not cancelling, so
the domain-side walks of the oracle must return exactly these lists.
"""

from __future__ import annotations

from markedpcp.morphisms import Morphism
from markedpcp.oracle import (
    BallSpec,
    RawWord,
    _decode_table,
    _domain_letters,
    _raw_invert,
    _raw_sort_key,
    _raw_table,
)
from markedpcp.words import GROUP, Alphabet, Word


def _ball_raw(alphabet: Alphabet, radius: int) -> list[RawWord]:
    letters = _domain_letters(alphabet)
    group = alphabet.mode == GROUP
    out: list[RawWord] = [()]
    level: list[RawWord] = [()]
    for _ in range(radius):
        nxt = []
        for stem in level:
            for l in letters:
                if group and stem and stem[-1] == (l[0], -l[1]):
                    continue
                nxt.append(stem + (l,))
        out.extend(nxt)
        level = nxt
    return out


def _decodes(index: dict, w: RawWord) -> bool:
    rest = w
    while rest:
        hit = index.get(rest[0])
        if hit is None:
            return False
        _, img = hit
        if rest[: len(img)] != img:
            return False
        rest = rest[len(img) :]
    return True


def image_ball(psi: Morphism, ball: BallSpec) -> list[Word]:
    """Image elements of length at most the radius, found by greedily
    decoding every word in the codomain ball."""
    if ball.mode != psi.mode:
        raise ValueError("ball mode does not match the morphism")
    index = _decode_table(psi)
    out = [raw for raw in _ball_raw(psi.codomain, ball.radius) if _decodes(index, raw)]
    out.sort(key=_raw_sort_key)
    return [Word(psi.codomain, raw) for raw in out]


def enumerate_equaliser(morphisms: list[Morphism], ball: BallSpec) -> list[Word]:
    """All words of length <= radius on which every morphism agrees, in
    shortlex order; the whole reduced ball is walked in group mode."""
    if not morphisms:
        raise ValueError("need at least one morphism")
    sigma = morphisms[0].domain
    for f in morphisms[1:]:
        if f.domain != sigma or f.codomain != morphisms[0].codomain:
            raise ValueError("morphisms must share domain and codomain")
    if ball.mode != sigma.mode:
        raise ValueError("ball mode does not match the morphisms")
    group = sigma.mode == GROUP
    tables = [_raw_table(f) for f in morphisms]
    letters = _domain_letters(sigma)
    stacks: list[list[tuple[int, int]]] = [[] for _ in morphisms]
    hits: list[RawWord] = []
    prefix: list[tuple[int, int]] = []

    def push(stack: list, table: list[RawWord], letter: tuple[int, int]) -> tuple[int, list]:
        seq = table[letter[0]] if letter[1] > 0 else _raw_invert(table[letter[0]])
        popped = []
        added = 0
        for x in seq:
            if group and stack and stack[-1] == (x[0], -x[1]):
                popped.append(stack.pop())
            else:
                stack.append(x)
                added += 1
        return added, popped

    def undo(stack: list, added: int, popped: list) -> None:
        if added:
            del stack[len(stack) - added :]
        stack.extend(reversed(popped))

    def diverged() -> bool:
        if group:
            return False
        first = stacks[0]
        for other in stacks[1:]:
            n = min(len(first), len(other))
            if first[:n] != other[:n]:
                return True
        return False

    def walk() -> None:
        if all(s == stacks[0] for s in stacks[1:]):
            hits.append(tuple(prefix))
        if len(prefix) == ball.radius:
            return
        for l in letters:
            if group and prefix and prefix[-1] == (l[0], -l[1]):
                continue
            undos = [push(stacks[i], tables[i], l) for i in range(len(tables))]
            prefix.append(l)
            if not diverged():
                walk()
            prefix.pop()
            for stack, (added, popped) in zip(stacks, undos):
                undo(stack, added, popped)

    walk()
    hits.sort(key=_raw_sort_key)
    return [Word(sigma, raw) for raw in hits]
