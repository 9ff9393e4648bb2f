"""Blocks, instance reduction, and the equaliser solver for marked
free-monoid morphisms, including finite families of them.

The mode and marking checks live here; the block walk, the reduce and
intersect steps, the loop, the trail pull-back and the family solve are the
shared driver in `instances`.
"""

from __future__ import annotations

from .instances import (
    Block,
    EqualiserResult,
    Instance,
    ReductionStep,
    chain_blocks,
    intersect,
    reduce_step,
    reduce_to_basis,
    solve_family,
)
from .morphisms import Morphism, is_marked, require_marked
from .words import MONOID, Alphabet


def compute_blocks(g: Morphism, h: Morphism) -> tuple[Block, ...]:
    """At most one block per codomain letter, in codomain letter order: the
    agreeing chains of the pair.

    The morphisms need not share a domain; they must be marked and share a
    codomain.
    """
    if g.mode != MONOID or h.mode != MONOID:
        raise ValueError("blocks are a monoid-mode construction")
    if g.codomain != h.codomain:
        raise ValueError("blocks need a common codomain")
    require_marked(g, "g")
    require_marked(h, "h")
    return chain_blocks(g, h)


def reduce_instance(instance: Instance) -> ReductionStep:
    """Replace the pair by the pair of block maps, with fresh generators
    p0, p1, ... in block order.

    A map that is not marked raises `require_marked`'s error under its
    name in `instance.names`, found by the walk's first-letter index rather
    than a separate check."""
    if instance.mode != MONOID:
        raise ValueError("monoid reduction needs a monoid-mode instance")
    return reduce_step(instance, is_marked, "block maps must be marked")


def solve_pair(instance: Instance) -> EqualiserResult:
    """Reduce a marked pair through blocks until a solved shape appears,
    then pull the basis back through the trail."""
    if instance.mode != MONOID:
        raise ValueError("this solver handles monoid-mode instances")
    require_marked(instance.g, instance.names[0])
    require_marked(instance.h, instance.names[1])
    return _solve_marked_pair(instance)


def _solve_marked_pair(instance: Instance) -> EqualiserResult:
    """`solve_pair` for two maps already checked to be marked."""
    return reduce_to_basis(instance, reduce_instance, is_marked)


def _intersect(psi1: Morphism, psi2: Morphism) -> Morphism:
    """Marked morphism whose image is the intersection of the two images;
    both are embeddings that passed `is_marked` when they were built."""
    return intersect(psi1, psi2, is_marked, "intersection map must be marked")


def solve_set(
    morphisms: list[Morphism], sigma: Alphabet, delta: Alphabet
) -> EqualiserResult:
    """Equaliser of a finite family of marked morphisms: solve consecutive
    pairs, then intersect their images through blocks."""
    if sigma.mode != MONOID:
        raise ValueError("this solver handles monoid-mode morphisms")
    return solve_family(morphisms, sigma, delta, require_marked, _solve_marked_pair, _intersect)
