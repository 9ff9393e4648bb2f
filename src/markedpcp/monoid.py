"""The equaliser solver for marked free-monoid morphisms, including finite
families, and their blocks.  Each entry point checks the mode and the
marking of its inputs and makes one call of the shared driver in
`instances`, which does the rest and picks the marking self-checks by the
maps' mode.
"""

from __future__ import annotations

from .instances import Block, EqualiserResult, Instance, ReductionStep
from .instances import chain_blocks, reduce_step, reduce_to_basis, solve_family
from .morphisms import Morphism, require_marked
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
    return reduce_step(instance)


def solve_pair(instance: Instance) -> EqualiserResult:
    """Reduce a marked pair through blocks until a solved shape appears,
    then pull the basis back through the trail."""
    if instance.mode != MONOID:
        raise ValueError("this solver handles monoid-mode instances")
    require_marked(instance.g, instance.names[0])
    require_marked(instance.h, instance.names[1])
    return reduce_to_basis(instance, reduce_instance)


def solve_set(morphisms: list[Morphism], sigma: Alphabet, delta: Alphabet) -> EqualiserResult:
    """Equaliser of a finite family of marked morphisms: solve consecutive
    pairs, then intersect their images through blocks."""
    if sigma.mode != MONOID:
        raise ValueError("this solver handles monoid-mode morphisms")
    return solve_family(morphisms, sigma, delta, reduce_instance)
