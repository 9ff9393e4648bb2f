"""The equaliser solver for free-group immersions, including finite
families.  Each entry point checks the mode and the immersion of its inputs
and makes one call of the shared driver in `instances`, which does the rest
and picks the immersion self-checks by the maps' mode.  The petals are read
off the images by the driver's walk, so solving builds no graph.
"""

from __future__ import annotations

from .instances import EqualiserResult, Instance, ReductionStep
from .instances import reduce_step, reduce_to_basis, solve_family

# Not used here: the tests and the benchmark's tracing (`SPANNED`) look
# these up as `group.prefix_complexity` and `group.iteration_bound`.
from .instances import iteration_bound, prefix_complexity  # noqa: F401
from .morphisms import Morphism, require_immersion
from .words import GROUP, Alphabet


def reduce_group_instance(instance: Instance) -> ReductionStep:
    """Replace an immersed pair by the pair of petal maps of its core.

    A map that is not an immersion raises `require_immersion`'s error,
    found by the walk's first-letter index rather than a separate check."""
    if instance.mode != GROUP:
        raise ValueError("group reduction needs a group-mode instance")
    return reduce_step(instance)


def solve_pair(instance: Instance) -> EqualiserResult:
    """Reduce an immersed pair through pair cores until a solved shape
    appears, then pull the basis back through the trail."""
    if instance.mode != GROUP:
        raise ValueError("this solver handles group-mode instances")
    require_immersion(instance.g, instance.names[0])
    require_immersion(instance.h, instance.names[1])
    return reduce_to_basis(instance, reduce_group_instance)


def solve_set(morphisms: list[Morphism], sigma: Alphabet, delta: Alphabet) -> EqualiserResult:
    """Equaliser of a finite family of immersions: solve consecutive pairs,
    then intersect the image subgroups through the petals of their pair cores."""
    if sigma.mode != GROUP:
        raise ValueError("this solver handles group-mode morphisms")
    return solve_family(morphisms, sigma, delta, reduce_group_instance)
