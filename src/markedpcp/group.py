"""Instance reduction through pair cores and the equaliser solver for
free-group immersions, including finite families.

The mode and immersion checks live here; the petal walk, the reduce and
intersect steps, the loop, the trail pull-back and the family solve are the
shared driver in `instances`.  The petals are read off the images by that
walk, so solving builds no graph.
"""

from __future__ import annotations

from .instances import (
    EqualiserResult,
    Instance,
    ReductionStep,
    intersect,
    reduce_step,
    reduce_to_basis,
    solve_family,
)

# Not used here: the tests and the benchmark's tracing (`SPANNED`) look
# these up as `group.prefix_complexity` and `group.iteration_bound`.
from .instances import iteration_bound, prefix_complexity  # noqa: F401
from .morphisms import Morphism, is_immersion, require_immersion
from .words import GROUP, Alphabet


def reduce_group_instance(instance: Instance) -> ReductionStep:
    """Replace an immersed pair by the pair of petal maps of its core.

    A map that is not an immersion raises `require_immersion`'s error,
    found by the walk's first-letter index rather than a separate check."""
    if instance.mode != GROUP:
        raise ValueError("group reduction needs a group-mode instance")
    return reduce_step(instance, is_immersion, "petal maps must be immersions")


def solve_pair(instance: Instance) -> EqualiserResult:
    """Reduce an immersed pair through pair cores until a solved shape
    appears, then pull the basis back through the trail."""
    if instance.mode != GROUP:
        raise ValueError("this solver handles group-mode instances")
    require_immersion(instance.g, instance.names[0])
    require_immersion(instance.h, instance.names[1])
    return _solve_immersed_pair(instance)


def _solve_immersed_pair(instance: Instance) -> EqualiserResult:
    """`solve_pair` for two maps already checked to be immersions."""
    return reduce_to_basis(instance, reduce_group_instance, is_immersion)


def _intersect(psi1: Morphism, psi2: Morphism) -> Morphism:
    """Immersion whose image is the intersection of the two image subgroups."""
    return intersect(psi1, psi2, is_immersion, "intersection map must be an immersion")


def solve_set(
    morphisms: list[Morphism], sigma: Alphabet, delta: Alphabet
) -> EqualiserResult:
    """Equaliser of a finite family of immersions: solve consecutive pairs,
    then intersect the image subgroups through the petals of their pair cores."""
    if sigma.mode != GROUP:
        raise ValueError("this solver handles group-mode morphisms")
    return solve_family(
        morphisms, sigma, delta, require_immersion, _solve_immersed_pair, _intersect
    )
