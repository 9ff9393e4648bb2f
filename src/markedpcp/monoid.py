"""Blocks, instance reduction, and the equaliser solver for marked
free-monoid morphisms, including finite families of them.

The reduce and intersect steps live here; the loop, the trail pull-back
and the family solve are the shared driver in `instances`.
"""

from __future__ import annotations

from .instances import (
    Block,
    EqualiserResult,
    Instance,
    ReductionStep,
    reduce_to_basis,
    solve_family,
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
        blocks.append(
            Block(a, Word._trusted(g.domain, tuple(u)), Word._trusted(h.domain, tuple(v)))
        )
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
    g_prime = Morphism._trusted(sigma2, instance.sigma, tuple(b.u for b in blocks))
    h_prime = Morphism._trusted(sigma2, instance.sigma, tuple(b.v for b in blocks))
    assert is_marked(g_prime) and is_marked(h_prime), "block maps must be marked"
    assert len(sigma2) <= len(instance.sigma), "reduction cannot grow the alphabet"
    after = Instance(g_prime, h_prime)
    return ReductionStep(instance, after, g_prime, h_prime, blocks)


def solve_pair(instance: Instance) -> EqualiserResult:
    """Reduce a marked pair through blocks until a solved shape appears,
    then pull the basis back through the trail."""
    if instance.mode != MONOID:
        raise ValueError("this solver handles monoid-mode instances")
    require_marked(instance.g, instance.names[0])
    require_marked(instance.h, instance.names[1])
    return reduce_to_basis(instance, reduce_instance, is_marked)


def _intersect(psi1: Morphism, psi2: Morphism) -> Morphism:
    """Marked morphism whose image is the intersection of the two images."""
    blocks = compute_blocks(psi1, psi2)
    domain = Alphabet(tuple(f"p{i}" for i in range(len(blocks))), MONOID)
    images = tuple(apply(psi1, b.u) for b in blocks)
    other = tuple(apply(psi2, b.v) for b in blocks)
    assert images == other, "intersection maps disagree"
    k = Morphism._trusted(domain, psi1.codomain, images)
    assert is_marked(k), "intersection map must be marked"
    return k


def solve_set(
    morphisms: list[Morphism], sigma: Alphabet, delta: Alphabet
) -> EqualiserResult:
    """Equaliser of a finite family of marked morphisms: solve consecutive
    pairs, then intersect their images through blocks."""
    if sigma.mode != MONOID:
        raise ValueError("this solver handles monoid-mode morphisms")
    return solve_family(morphisms, sigma, delta, require_marked, solve_pair, _intersect)
