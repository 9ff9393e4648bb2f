"""Blocks, instance reduction, and the full equaliser solver for marked
free-monoid morphisms, including finite families of them."""

from __future__ import annotations

from .group import _trail_exceeds_bound
from .instances import (
    CASE_CYCLE,
    CASE_EMPTY,
    CASE_LENGTH_ONE,
    CASE_SINGLE,
    Block,
    EqualiserResult,
    Instance,
    ReductionStep,
    canonical_form,
)
from .morphisms import Morphism, apply, is_marked, require_marked
from .words import MONOID, Alphabet, Letter, Word


def _first_letter_map(f: Morphism) -> dict[Letter, Letter]:
    return {f.images[i].first: Letter(i, 1) for i in range(len(f.images))}


def _search_block(
    g: Morphism,
    h: Morphism,
    g_first: dict[Letter, Letter],
    h_first: dict[Letter, Letter],
    start: Letter,
) -> tuple[list[Letter], list[Letter]] | None:
    """Overhang-following search for the minimal pair with a given first letter.

    One image word leads the other by an overhang; markedness makes the next
    generator on the lagging side unique, so the pair grows deterministically
    until the overhang empties (a block) or a (side, overhang) state repeats
    (no block).  Overhang length stays below the longest image, so the state
    space is finite and the search always halts.
    """
    x = g_first.get(start)
    y = h_first.get(start)
    if x is None or y is None:
        return None
    u = [x]
    v = [y]
    gu = list(g.images[x.index].letters)
    hv = list(h.images[y.index].letters)
    for a, b in zip(gu, hv):
        if a != b:
            return None
    seen: set[tuple[str, tuple[Letter, ...]]] = set()
    while True:
        if len(gu) == len(hv):
            return u, v
        if len(gu) < len(hv):
            state = ("g", tuple(hv[len(gu) :]))
            if state in seen:
                return None
            seen.add(state)
            nxt = g_first.get(hv[len(gu)])
            if nxt is None:
                return None
            img = g.images[nxt.index].letters
            for off, l in enumerate(img):
                p = len(gu) + off
                if p < len(hv) and hv[p] != l:
                    return None
            u.append(nxt)
            gu.extend(img)
        else:
            state = ("h", tuple(gu[len(hv) :]))
            if state in seen:
                return None
            seen.add(state)
            nxt = h_first.get(gu[len(hv)])
            if nxt is None:
                return None
            img = h.images[nxt.index].letters
            for off, l in enumerate(img):
                p = len(hv) + off
                if p < len(gu) and gu[p] != l:
                    return None
            v.append(nxt)
            hv.extend(img)


def compute_blocks(g: Morphism, h: Morphism) -> tuple[Block, ...]:
    """At most one block per codomain letter, in codomain letter order.

    The morphisms need not share a domain; they must be marked and share a
    codomain.
    """
    if g.mode != MONOID or h.mode != MONOID:
        raise ValueError("blocks are a monoid-mode construction")
    if g.codomain != h.codomain:
        raise ValueError("blocks need a common codomain")
    require_marked(g, "g")
    require_marked(h, "h")
    g_first = _first_letter_map(g)
    h_first = _first_letter_map(h)
    blocks = []
    for a in g.codomain.positive_letters():
        found = _search_block(g, h, g_first, h_first, a)
        if found is None:
            continue
        u, v = found
        blocks.append(Block(a, Word(g.domain, tuple(u)), Word(h.domain, tuple(v))))
    return tuple(blocks)


def reduce_instance(instance: Instance) -> ReductionStep:
    """Replace the pair by the pair of block maps.

    The reduced instance's codomain is the previous domain; keeping the
    alphabets explicit avoids any symbol capture between levels.  Fresh
    generators are named p0, p1, ... in block order.
    """
    if instance.mode != MONOID:
        raise ValueError("monoid reduction needs a monoid-mode instance")
    blocks = compute_blocks(instance.g, instance.h)
    sigma2 = Alphabet(tuple(f"p{i}" for i in range(len(blocks))), MONOID)
    g_prime = Morphism(sigma2, instance.sigma, tuple(b.u for b in blocks))
    h_prime = Morphism(sigma2, instance.sigma, tuple(b.v for b in blocks))
    assert is_marked(g_prime) and is_marked(h_prime), "block maps must be marked"
    assert len(sigma2) <= len(instance.sigma), "reduction cannot grow the alphabet"
    after = Instance(g_prime, h_prime)
    return ReductionStep(instance, after, g_prime, h_prime, blocks)


def _terminal_case(instance: Instance) -> str | None:
    if len(instance.sigma) == 0:
        return CASE_EMPTY
    if len(instance.sigma) == 1:
        return CASE_SINGLE
    if all(len(w) == 1 for w in instance.g.images) and all(
        len(w) == 1 for w in instance.h.images
    ):
        return CASE_LENGTH_ONE
    return None


def _agreeing_letters(instance: Instance) -> list[Letter]:
    return [
        Letter(i, 1)
        for i in range(len(instance.sigma))
        if instance.g.images[i] == instance.h.images[i]
    ]


def _compose_trail(
    start: Instance, final: Instance, trail: list[ReductionStep], case: str
) -> EqualiserResult:
    letters = _agreeing_letters(final)
    names = tuple(final.sigma.symbols[l.index] for l in letters)
    domain = Alphabet(names, start.mode)
    images = []
    for l in letters:
        w = Word(final.sigma, (l,))
        for step in reversed(trail):
            w = apply(step.g_prime, w)
        images.append(w)
    embedding = Morphism(domain, start.sigma, tuple(images))
    assert is_marked(embedding), "equaliser embedding must be marked"
    assert len(images) <= len(start.sigma), "rank bound violated"
    for w in images:
        assert apply(start.g, w) == apply(start.h, w), "basis word is not a solution"
    return EqualiserResult(embedding, embedding.images, tuple(trail), case)


def solve_pair(instance: Instance) -> EqualiserResult:
    """Reduce until a solved shape appears, then read the basis off it.

    Stops on an empty alphabet, a single generator, all images of length
    one, or a repeat of an earlier instance up to renaming; the composed
    trail restricted to the basis letters is the returned embedding.
    """
    if instance.mode != MONOID:
        raise ValueError("this solver handles monoid-mode instances")
    require_marked(instance.g, instance.names[0])
    require_marked(instance.h, instance.names[1])
    cur = instance
    trail: list[ReductionStep] = []
    seen: set[tuple] = set()
    while True:
        case = _terminal_case(cur)
        if case is not None:
            break
        key = canonical_form(cur)
        if key in seen:
            case = CASE_CYCLE
            break
        seen.add(key)
        step = reduce_instance(cur)
        trail.append(step)
        cur = step.after
        if _trail_exceeds_bound(instance, len(trail)):
            raise AssertionError("iteration bound exceeded: reduction did not cycle")
    return _compose_trail(instance, cur, trail, case)


def _intersect(psi1: Morphism, psi2: Morphism) -> Morphism:
    """Marked morphism whose image is the intersection of the two images."""
    blocks = compute_blocks(psi1, psi2)
    domain = Alphabet(tuple(f"p{i}" for i in range(len(blocks))), MONOID)
    images = tuple(apply(psi1, b.u) for b in blocks)
    other = tuple(apply(psi2, b.v) for b in blocks)
    assert images == other, "intersection maps disagree"
    k = Morphism(domain, psi1.codomain, images)
    assert is_marked(k)
    return k


def solve_set(
    morphisms: list[Morphism], sigma: Alphabet, delta: Alphabet
) -> EqualiserResult:
    """Equaliser of a finite family: solve consecutive pairs, then intersect
    their images.  Agreement on consecutive pairs chains to the whole family.
    """
    if len(morphisms) < 2:
        raise ValueError("a set solve needs at least two morphisms")
    for i, f in enumerate(morphisms):
        if f.domain != sigma or f.codomain != delta:
            raise ValueError(f"morphism {i} does not map the given alphabets")
        require_marked(f, f"morphism {i}")
    if sigma.mode != MONOID:
        raise ValueError("this solver handles monoid-mode morphisms")
    pair_results = [
        solve_pair(Instance(morphisms[i], morphisms[i + 1]))
        for i in range(len(morphisms) - 1)
    ]
    psi = pair_results[0].embedding
    for res in pair_results[1:]:
        psi = _intersect(psi, res.embedding)
    assert len(psi.images) <= len(sigma), "rank bound violated"
    for w in psi.images:
        first = apply(morphisms[0], w)
        assert all(apply(f, w) == first for f in morphisms[1:])
    trail = tuple(step for res in pair_results for step in res.trail)
    return EqualiserResult(psi, psi.images, trail, pair_results[0].case)
