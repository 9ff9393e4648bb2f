"""Prefix complexity, instance reduction through pair cores, and the full
equaliser solver for free-group immersions, including finite families."""

from __future__ import annotations

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
from .morphisms import Morphism, apply, compose, is_immersion, require_immersion
from .stallings import core_of_pair, petals_to_morphisms
from .words import GROUP, Alphabet, Letter, Word


def prefix_complexity(instance: Instance) -> int:
    """Number of distinct nonempty proper prefixes of generator images,
    counted separately for the two morphisms and added.

    Group mode ranges over generators and their inverses; monoid mode over
    the generators.
    """

    def side(f: Morphism) -> int:
        words = [img.letters for img in f.images]
        if f.mode == GROUP:
            words += [tuple(l.inverse() for l in reversed(w)) for w in words]
        # one trie node per distinct prefix, keyed by (parent node, letter)
        nodes: dict[tuple[int, Letter], int] = {}
        for w in words:
            node = 0
            for l in w[:-1]:
                node = nodes.setdefault((node, l), len(nodes) + 1)
        return len(nodes)

    return side(instance.g) + side(instance.h)


def iteration_bound(instance: Instance) -> int:
    """Hard backstop on the reduction trail length.

    Counts the instances whose prefix complexity cannot exceed the input's:
    (|Delta|+1)^(2|Sigma|(s+1)) in monoid mode, (2|Delta|)^(2|Sigma|(s+1))
    in group mode, where s is the prefix complexity.  The cycle detector
    normally fires long before this.
    """
    s = prefix_complexity(instance)
    exponent = 2 * len(instance.sigma) * (s + 1)
    return _bound_base(instance) ** exponent


def _bound_base(instance: Instance) -> int:
    if instance.mode == GROUP:
        return 2 * len(instance.delta)
    return len(instance.delta) + 1


def _trail_exceeds_bound(instance: Instance, steps: int) -> bool:
    """Is a trail of `steps` reductions from `instance` longer than its
    iteration bound?

    The bound at prefix complexity zero is a floor of the bound and costs
    nothing, so the prefix complexity is only counted once a trail outgrows
    the floor.
    """
    if steps <= _bound_base(instance) ** (2 * len(instance.sigma)):
        return False
    return steps > iteration_bound(instance)


def _petal_blocks(instance: Instance, g_prime: Morphism, h_prime: Morphism) -> tuple[Block, ...]:
    blocks = []
    for u, v in zip(g_prime.images, h_prime.images):
        label = apply(instance.g, u)
        blocks.append(Block(label.first, u, v))
    return tuple(blocks)


def reduce_group_instance(instance: Instance) -> ReductionStep:
    """Replace an immersed pair by the pair of petal maps of its core."""
    if instance.mode != GROUP:
        raise ValueError("group reduction needs a group-mode instance")
    require_immersion(instance.g, instance.names[0])
    require_immersion(instance.h, instance.names[1])
    core, g_edges, h_edges = core_of_pair(instance.g, instance.h)
    g_prime, h_prime = petals_to_morphisms(core, g_edges, h_edges, instance.g, instance.h)
    assert is_immersion(g_prime) and is_immersion(h_prime)
    assert len(g_prime.domain) <= len(instance.sigma), "reduction cannot grow the alphabet"
    after = Instance(g_prime, h_prime)
    return ReductionStep(
        instance, after, g_prime, h_prime, _petal_blocks(instance, g_prime, h_prime)
    )


def _terminal_case(instance: Instance) -> str | None:
    if len(instance.sigma) == 0:
        return CASE_EMPTY
    if len(instance.sigma) == 1:
        return CASE_SINGLE
    # for immersions this is exactly prefix complexity zero
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
    assert is_immersion(embedding), "equaliser embedding must immerse"
    assert len(images) <= len(start.sigma), "rank bound violated"
    for w in images:
        assert apply(start.g, w) == apply(start.h, w), "basis word is not a solution"
    return EqualiserResult(embedding, embedding.images, tuple(trail), case)


def solve_pair(instance: Instance) -> EqualiserResult:
    """Reduce an immersed pair until a solved shape appears.

    Stops on an empty alphabet, a single generator, all images of length
    one, or a repeat of an earlier instance up to renaming.  The embedding
    is the composed trail restricted to the letters on which the final pair
    agrees.
    """
    if instance.mode != GROUP:
        raise ValueError("this solver handles group-mode instances")
    require_immersion(instance.g, instance.names[0])
    require_immersion(instance.h, instance.names[1])
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
        step = reduce_group_instance(cur)
        trail.append(step)
        cur = step.after
        if _trail_exceeds_bound(instance, len(trail)):
            raise AssertionError("iteration bound exceeded: reduction did not cycle")
    return _compose_trail(instance, cur, trail, case)


def _intersect(psi1: Morphism, psi2: Morphism) -> Morphism:
    """Immersion whose image is the intersection of the two image subgroups."""
    core, e1, e2 = core_of_pair(psi1, psi2)
    g_prime, h_prime = petals_to_morphisms(core, e1, e2, psi1, psi2)
    k = compose(psi1, g_prime)
    assert k == compose(psi2, h_prime), "intersection maps disagree"
    assert is_immersion(k)
    return k


def solve_set(
    morphisms: list[Morphism], sigma: Alphabet, delta: Alphabet
) -> EqualiserResult:
    """Equaliser of a finite family of immersions: solve consecutive pairs,
    then intersect the image subgroups through their pair cores."""
    if len(morphisms) < 2:
        raise ValueError("a set solve needs at least two morphisms")
    for i, f in enumerate(morphisms):
        if f.domain != sigma or f.codomain != delta:
            raise ValueError(f"morphism {i} does not map the given alphabets")
        require_immersion(f, f"morphism {i}")
    if sigma.mode != GROUP:
        raise ValueError("this solver handles group-mode morphisms")
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
