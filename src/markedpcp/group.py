"""Instance reduction through pair cores and the equaliser solver for
free-group immersions, including finite families.

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

# Not used here: the tests and the benchmark's tracing (`SPANNED`) look
# these up as `group.prefix_complexity` and `group.iteration_bound`.
from .instances import iteration_bound, prefix_complexity  # noqa: F401
from .morphisms import Morphism, compose, is_immersion, require_immersion
from .stallings import StallingsGraph, core_of_pair, petals_to_morphisms
from .words import GROUP, Alphabet, Letter


def _petal_blocks(core: StallingsGraph, g_prime: Morphism, h_prime: Morphism) -> tuple[Block, ...]:
    # g is an immersion, so core petal i spells g(g_prime(p_i)) reduced, and
    # the block's label letter is the label of the petal's first step
    blocks = []
    for (_, path), u, v in zip(core.petals, g_prime.images, h_prime.images):
        e, d = path[0]
        blocks.append(Block(Letter(core.edges[e][2], d), u, v))
    return tuple(blocks)


def reduce_group_instance(instance: Instance) -> ReductionStep:
    """Replace an immersed pair by the pair of petal maps of its core."""
    if instance.mode != GROUP:
        raise ValueError("group reduction needs a group-mode instance")
    require_immersion(instance.g, instance.names[0])
    require_immersion(instance.h, instance.names[1])
    core, g_edges, h_edges = core_of_pair(instance.g, instance.h)
    g_prime, h_prime = petals_to_morphisms(core, g_edges, h_edges, instance.g, instance.h)
    assert is_immersion(g_prime) and is_immersion(h_prime), "petal maps must be immersions"
    assert len(g_prime.domain) <= len(instance.sigma), "reduction cannot grow the alphabet"
    after = Instance(g_prime, h_prime)
    return ReductionStep(
        instance, after, g_prime, h_prime, _petal_blocks(core, g_prime, h_prime), core
    )


def solve_pair(instance: Instance) -> EqualiserResult:
    """Reduce an immersed pair through pair cores until a solved shape
    appears, then pull the basis back through the trail."""
    if instance.mode != GROUP:
        raise ValueError("this solver handles group-mode instances")
    require_immersion(instance.g, instance.names[0])
    require_immersion(instance.h, instance.names[1])
    return reduce_to_basis(instance, reduce_group_instance, is_immersion)


def _intersect(psi1: Morphism, psi2: Morphism) -> Morphism:
    """Immersion whose image is the intersection of the two image subgroups."""
    core, e1, e2 = core_of_pair(psi1, psi2)
    g_prime, h_prime = petals_to_morphisms(core, e1, e2, psi1, psi2)
    k = compose(psi1, g_prime)
    assert k == compose(psi2, h_prime), "intersection maps disagree"
    assert is_immersion(k), "intersection map must be an immersion"
    return k


def solve_set(
    morphisms: list[Morphism], sigma: Alphabet, delta: Alphabet
) -> EqualiserResult:
    """Equaliser of a finite family of immersions: solve consecutive pairs,
    then intersect the image subgroups through their pair cores."""
    if sigma.mode != GROUP:
        raise ValueError("this solver handles group-mode morphisms")
    return solve_family(morphisms, sigma, delta, require_immersion, solve_pair, _intersect)
