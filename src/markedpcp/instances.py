"""Shared solver data types (instances, reduction steps, results) and the
reduction driver that both solvers run.

The monoid and group solvers follow one scheme: reduce the pair until it
reaches a solved shape or repeats, read the basis off the final pair, and
pull it back through the trail; a family is solved pair by pair and the
images are intersected.  Both modes reduce and intersect through one walk,
`agreeing_chains`, and the driver picks the marked or immersion checks by
the maps' mode (`_checks`); `monoid` and `group` add only entry points with
their mode checks and preconditions.  The signed images f(x) and f(x^-1)
are spelt out in `morphisms` only: the walk indexes `first_letters` and
reads its inverse runs off `inverse_image`.  That index is the step
precondition: the named marking / immersion check runs only on a clash.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from .morphisms import Morphism, apply, first_letters, inverse_image
from .morphisms import is_immersion, is_marked, require_immersion, require_marked
from .words import GROUP, Alphabet, Letter, Word, _alphabet

if TYPE_CHECKING:
    from .stallings import StallingsGraph

CASE_EMPTY = "empty-alphabet"
CASE_SINGLE = "alphabet-size-1"
CASE_LENGTH_ONE = "all-length-1"
CASE_CYCLE = "cycle"

TERMINATION_CASES = (CASE_EMPTY, CASE_SINGLE, CASE_LENGTH_ONE, CASE_CYCLE)


@dataclass(frozen=True)
class Instance:
    """A pair of morphisms with shared domain and codomain."""

    g: Morphism
    h: Morphism
    names: tuple[str, str] = ("g", "h")

    def __post_init__(self) -> None:
        if self.g.domain != self.h.domain:
            raise ValueError("instance morphisms must share a domain")
        if self.g.codomain != self.h.codomain:
            raise ValueError("instance morphisms must share a codomain")

    @property
    def sigma(self) -> Alphabet:
        return self.g.domain

    @property
    def delta(self) -> Alphabet:
        return self.g.codomain

    @property
    def mode(self) -> str:
        return self.g.mode

    @property
    def morphisms(self) -> tuple[Morphism, Morphism]:
        return (self.g, self.h)


@dataclass(frozen=True)
class SetInstance:
    """A finite family of morphisms with shared domain and codomain."""

    morphisms: tuple[Morphism, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "morphisms", tuple(self.morphisms))
        if not self.morphisms:
            raise ValueError("a set instance needs at least one morphism")
        names = self.names or tuple(f"f{i}" for i in range(len(self.morphisms)))
        object.__setattr__(self, "names", tuple(names))
        if len(self.names) != len(self.morphisms):
            raise ValueError("one name per morphism")
        first = self.morphisms[0]
        for f in self.morphisms[1:]:
            if f.domain != first.domain or f.codomain != first.codomain:
                raise ValueError("set instance morphisms must share alphabets")

    @property
    def sigma(self) -> Alphabet:
        return self.morphisms[0].domain

    @property
    def delta(self) -> Alphabet:
        return self.morphisms[0].codomain

    @property
    def mode(self) -> str:
        return self.morphisms[0].mode


@dataclass(frozen=True)
class Block:
    """A minimal agreeing pair: apply(g, u) = apply(h, v), starting with `letter`."""

    letter: Letter
    u: Word
    v: Word


@dataclass(frozen=True)
class ReductionStep:
    """One instance reduction; g_prime and h_prime carry the new generators
    to words over the previous domain, and g o g_prime = h o h_prime."""

    before: Instance
    after: Instance
    g_prime: Morphism
    h_prime: Morphism
    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        # g g' = h h' generator by generator: g(u) = h(v) for the images
        # u, v of each new generator, compared as letters
        g, h, g_prime, h_prime = self.before.g, self.before.h, self.g_prime, self.h_prime
        if g_prime.codomain != g.domain or h_prime.codomain != h.domain:
            raise ValueError("codomain of the inner morphism must equal the outer domain")
        pairs = zip(g_prime.images, h_prime.images)
        if g_prime.domain != h_prime.domain or any(
            apply(g, u).letters != apply(h, v).letters for u, v in pairs
        ):
            raise AssertionError("reduction step is inconsistent: g g' != h h'")

    @functools.cached_property
    def core(self) -> StallingsGraph | None:
        """The pair core of a group step's pair, whose petals are the step's
        chains; built on first access, for `solve --trace`.  None in monoid
        mode."""
        if self.before.mode != GROUP:
            return None
        from . import stallings  # deferred: loaded only to fold or draw a graph

        return stallings.core_of_pair(self.before.g, self.before.h)[0]


@dataclass(frozen=True)
class EqualiserResult:
    """Output of a solve: a marked morphism / immersion whose image is the
    equaliser, its generator images as the basis, and the trail that built it."""

    embedding: Morphism
    basis: tuple[Word, ...]
    trail: tuple[ReductionStep, ...]
    case: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "trail", tuple(self.trail))
        if self.case not in TERMINATION_CASES:
            raise ValueError(f"unknown termination case {self.case!r}")
        if self.basis != self.embedding.images:
            raise ValueError("basis must list the embedding's generator images")


def canonical_form(instance: Instance) -> tuple:
    """Structural key for cycle detection: generator names erased on both
    sides, letters encoded by alphabet position.  Two instances get the same
    key exactly when they agree up to renaming of generators."""

    def encode(f: Morphism) -> tuple:
        return tuple(tuple(img.letters) for img in f.images)

    return (
        instance.mode,
        len(instance.sigma),
        len(instance.delta),
        encode(instance.g),
        encode(instance.h),
    )


def _shape(instance: Instance) -> tuple:
    """What every instance with one canonical form shares: the mode, both
    alphabet sizes and the image lengths, g's and then h's.  O(|Sigma|),
    where `canonical_form` is O(total image length)."""
    g = instance.g
    return (
        g.domain.mode,
        len(g.domain.symbols),
        len(g.codomain.symbols),
        tuple([len(img.letters) for img in g.images + instance.h.images]),
    )


def prefix_complexity(instance: Instance) -> int:
    """Number of distinct nonempty proper prefixes of generator images,
    counted separately for the two morphisms and added.

    Group mode ranges over generators and their inverses; monoid mode over
    the generators.
    """

    def side(f: Morphism) -> int:
        words = [img.letters for img in f.images]
        if f.mode == GROUP:
            words += [inverse_image(f, i) for i in range(len(words))]
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

    Counts the instances of prefix complexity at most the input's, s:
    (2|Delta|)^(2|Sigma|(s+1)) in group mode, where reductions never grow
    it; (|Delta|+1)^(2|Sigma|(s+1)) in monoid mode, where they can, so
    there it is a backstop only.  Cycle detection normally fires first.
    """
    s = prefix_complexity(instance)
    exponent = 2 * len(instance.sigma) * (s + 1)
    return _bound_base(instance) ** exponent


def _bound_base(instance: Instance) -> int:
    if instance.mode == GROUP:
        return 2 * len(instance.delta)
    return len(instance.delta) + 1


def _terminal_case(shape: tuple) -> str | None:
    """The solved shape an instance of this `_shape` has, if any."""
    _, size, _, lengths = shape
    if size == 0:
        return CASE_EMPTY
    if size == 1:
        return CASE_SINGLE
    # for marked maps and immersions this is exactly prefix complexity zero
    if lengths.count(1) == len(lengths):
        return CASE_LENGTH_ONE
    return None


Chain = tuple[tuple[Letter, ...], Word, Word]  # label, u, v: g(u) = label = h(v)


def agreeing_chains(
    g: Morphism, h: Morphism, names: tuple[str, str] = ("g", "h")
) -> list[Chain]:
    """The minimal agreeing pairs of two marked maps or two immersions into
    one codomain: each (label, u, v) with g(u) = label = h(v), u and v
    nonempty and no shorter nonempty prefixes agreeing, and the label given
    as its letters.  There is at most one per first letter of the label,
    and they come in the order of that letter (`Letter.sort_key`).

    The images of a reduced word's letters never cancel, so the two sides
    grow on the right only.  One side leads by an overhang, a proper suffix
    of its last image, and the marking makes the lagging side's next
    generator the one whose signed image starts with the overhang.  The walk
    ends in a chain when both sides have the same length, and in none on a
    mismatch, a missing generator, or a repeated (leading side, last
    generator, offset) state, which immersions never reach.

    In group mode each chain is also found read backwards, as its inverse;
    only the one whose label is shortlex-smaller than its inverse is kept.
    These are the petals of the pair core, oriented as the petal
    extraction of the tests' graph path (`_extract_petals` in
    `tests/reduction_reference.py`) orients them; `stallings.core_of_pair`
    reads the core off them.

    The walk indexes the signed images by first letter, and that index is
    the marked / immersion precondition: when g or h is not marked (not an
    immersion in group mode), the precondition's `NotMarkedError` is
    raised for the first of them, under its name in `names`.
    """
    codomain = g.codomain
    inverse = codomain._inverse_letters  # its keys, in `Letter.sort_key` order, are the starts
    # per side: first letter -> signed generator, and signed generator ->
    # the letters of its image, each image added when the walk first needs it
    maps, firsts, runs = (g, h), [], ({}, {})
    for f in maps:
        fl = first_letters(f)
        index = dict(zip(fl, f.domain.signed_letters()))
        if None in index or len(index) < len(fl):
            _name_the_clash(g, h, names)
        firsts.append(index)
    g_firsts, h_firsts = firsts
    g_runs = runs[0]

    chains: list[Chain] = []
    for a in inverse:
        x, y = g_firsts.get(a), h_firsts.get(a)
        if x is None or y is None:
            continue
        # Most starts end at the two runs' second letters: read them off the
        # images, so that no inverse run is built for a walk that stops there.
        gx, hy = g.images[x.index].letters, h.images[y.index].letters
        if len(gx) > 1 and len(hy) > 1:
            if (gx[1] if x.sign > 0 else inverse[gx[-2]]) != (
                hy[1] if y.sign > 0 else inverse[hy[-2]]
            ):
                continue
        words: tuple[list[Letter], list[Letter]] = ([x], [])
        lead, last, off = 0, x, 0
        lead_run = g_runs.get(x) or g_runs.setdefault(x, g.image(x).letters)
        seen: set[tuple[int, Letter, int]] = set()
        while True:
            lag = 1 - lead
            nxt = firsts[lag].get(lead_run[off])
            if nxt is None:
                break
            r = runs[lag].get(nxt) or runs[lag].setdefault(nxt, maps[lag].image(nxt).letters)
            words[lag].append(nxt)
            over = len(lead_run) - off
            if len(r) < over:  # the lagging side stays behind
                if r != lead_run[off : off + len(r)]:
                    break
                off += len(r)
            elif r[:over] != lead_run[off:]:
                break
            elif len(r) > over:  # the lagging side takes the lead
                lead, last, lead_run, off = lag, nxt, r, over
            else:
                u, v = words
                label = tuple([l for y in u for l in g_runs[y]])
                if codomain.mode != GROUP or _below_inverse(label, inverse):
                    chains.append(
                        (label, Word._trusted(g.domain, tuple(u)), Word._trusted(h.domain, tuple(v)))
                    )
                break
            # the walk's first state, at offset 0, never recurs
            if (lead, last, off) in seen:
                break
            seen.add((lead, last, off))
    return chains


class _Checks(NamedTuple):
    require: Callable[[Morphism, str], None]  # the precondition
    embeds: Callable[[Morphism], bool]  # the self-check
    step_failure: str  # its message for a reduce step's maps
    intersect_failure: str  # and for an intersection map


def _checks(mode: str) -> _Checks:
    """The checks of maps of `mode`: immersions in group mode, marked maps
    in monoid mode.  They are read by their module-level names on every
    call, not kept in a table, since the benchmark's tracing and the tests
    patch those names."""
    if mode == GROUP:
        return _Checks(
            require_immersion,
            is_immersion,
            "petal maps must be immersions",
            "intersection map must be an immersion",
        )
    return _Checks(
        require_marked, is_marked, "block maps must be marked", "intersection map must be marked"
    )


def _name_the_clash(g: Morphism, h: Morphism, names: tuple[str, str]) -> None:
    """Raise the precondition's `NotMarkedError` for the first of g and h
    that is not marked (not an immersion), as the solvers' entry check does."""
    require = _checks(g.mode).require
    require(g, names[0])
    require(h, names[1])
    raise AssertionError("first-letter index and marking check disagree")


def _below_inverse(label: tuple[Letter, ...], inverse: dict[Letter, Letter]) -> bool:
    """Is the reduced word shortlex-smaller than its inverse?  Both have one
    length, so the first letter where they differ decides."""
    for a, b in zip(label, reversed(label)):
        b = inverse[b]
        if a != b:
            return a.sort_key() < b.sort_key()
    return False


def chain_blocks(
    g: Morphism, h: Morphism, names: tuple[str, str] = ("g", "h")
) -> tuple[Block, ...]:
    """The chains of the pair as blocks, each named by its label's first letter."""
    return tuple([Block(label[0], u, v) for label, u, v in agreeing_chains(g, h, names)])


def _fresh_alphabet(size: int, mode: str) -> Alphabet:
    """The alphabet p0, ..., p{size-1}, from the shared cache of
    `words._alphabet`, so that its letter tables are shared by every step
    and solve."""
    return _alphabet(tuple([f"p{i}" for i in range(size)]), mode)


def reduce_step(instance: Instance) -> ReductionStep:
    """Replace the pair by the pair of chain maps.

    Fresh generators are named p0, p1, ... in chain order; g' maps p_i to
    the chain's u and h' to its v.  The reduced instance's codomain is the
    previous domain; keeping the alphabets explicit avoids any symbol
    capture between levels.  The new maps get the mode's self-check.  The
    walk checks the marking of the pair (`agreeing_chains`); a clash is
    reported under `instance.names`.
    """
    sigma = instance.g.domain
    blocks = chain_blocks(instance.g, instance.h, instance.names)
    sigma2 = _fresh_alphabet(len(blocks), sigma.mode)
    g_prime = Morphism._trusted(sigma2, sigma, tuple([b.u for b in blocks]))
    h_prime = Morphism._trusted(sigma2, sigma, tuple([b.v for b in blocks]))
    checks = _checks(sigma.mode)
    if not (checks.embeds(g_prime) and checks.embeds(h_prime)):
        raise AssertionError(checks.step_failure)
    if len(sigma2.symbols) > len(sigma.symbols):
        raise AssertionError("reduction cannot grow the alphabet")
    return ReductionStep(instance, Instance(g_prime, h_prime), g_prime, h_prime, blocks)


def intersect(psi1: Morphism, psi2: Morphism) -> Morphism:
    """A marked map / immersion whose image is the intersection of the two
    images: fresh generators p0, p1, ... map to the chains' labels.  Both
    are embeddings that passed the mode's self-check when they were built."""
    chains = agreeing_chains(psi1, psi2)
    for label, u, v in chains:
        if not apply(psi1, u).letters == label == apply(psi2, v).letters:
            raise AssertionError("intersection maps disagree")
    domain = _fresh_alphabet(len(chains), psi1.mode)
    images = tuple(Word._trusted(psi1.codomain, label) for label, _, _ in chains)
    k = Morphism._trusted(domain, psi1.codomain, images)
    checks = _checks(psi1.mode)
    if not checks.embeds(k):
        raise AssertionError(checks.intersect_failure)
    return k


def reduce_to_basis(
    instance: Instance, reduce: Callable[[Instance], ReductionStep]
) -> EqualiserResult:
    """Reduce a pair until a solved shape appears, then read the basis off it.

    Stops on an empty alphabet, a single generator, all images of length
    one, or a repeat of an earlier instance up to renaming.  The embedding
    is the composed trail restricted to the letters on which the final pair
    agrees, and it gets the mode's self-check.

    A repeat is looked for by shape first (`_shape`): the canonical form is
    computed only for instances whose shape recurs in the trail, each at
    most once, when a second instance of that shape arrives.
    """
    cur = instance
    trail: list[ReductionStep] = []
    # shape -> (instances of that shape not keyed yet, canonical forms)
    by_shape: dict[tuple, tuple[list[Instance], set[tuple]]] = {}
    # The bound at prefix complexity zero is a floor of `iteration_bound`
    # and costs nothing, so the prefix complexity is only counted once a
    # trail outgrows the floor.
    floor = _bound_base(instance) ** (2 * len(instance.sigma))
    while True:
        shape = _shape(cur)
        case = _terminal_case(shape)
        if case is not None:
            break
        if shape not in by_shape:
            by_shape[shape] = ([cur], set())
        else:
            pending, keys = by_shape[shape]
            keys.update(map(canonical_form, pending))
            pending.clear()
            key = canonical_form(cur)
            if key in keys:
                case = CASE_CYCLE
                break
            keys.add(key)
        step = reduce(cur)
        trail.append(step)
        cur = step.after
        if len(trail) > floor and len(trail) > iteration_bound(instance):
            raise AssertionError("iteration bound exceeded: reduction did not cycle")

    sigma = cur.sigma
    letters = [l for l, u, v in zip(sigma._positive_letters, cur.g.images, cur.h.images) if u == v]
    domain = _alphabet(tuple([sigma.symbols[l.index] for l in letters]), instance.mode)
    images = []
    for l in letters:
        w = Word._trusted(sigma, (l,))
        for step in reversed(trail):
            w = apply(step.g_prime, w)
        images.append(w)
    embedding = Morphism._trusted(domain, instance.sigma, tuple(images))
    if not _checks(instance.mode).embeds(embedding):
        raise AssertionError("equaliser embedding fails its marked / immersion check")
    if len(images) > len(instance.sigma):
        raise AssertionError("rank bound violated")
    for w in images:
        if apply(instance.g, w) != apply(instance.h, w):
            raise AssertionError("basis word is not a solution")
    return EqualiserResult(embedding, embedding.images, tuple(trail), case)


def solve_family(
    morphisms: list[Morphism],
    sigma: Alphabet,
    delta: Alphabet,
    reduce: Callable[[Instance], ReductionStep],
) -> EqualiserResult:
    """Equaliser of a finite family: solve consecutive pairs, then intersect
    their images.  Agreement on consecutive pairs chains to the whole family.

    Each morphism gets the mode's precondition once; the pairs are reduced
    by `reduce` and checked no more.
    """
    if len(morphisms) < 2:
        raise ValueError("a set solve needs at least two morphisms")
    require = _checks(sigma.mode).require
    for i, f in enumerate(morphisms):
        if f.domain != sigma or f.codomain != delta:
            raise ValueError(f"morphism {i} does not map the given alphabets")
        require(f, f"morphism {i}")
    pair_results = [
        reduce_to_basis(Instance(morphisms[i], morphisms[i + 1]), reduce)
        for i in range(len(morphisms) - 1)
    ]
    psi = pair_results[0].embedding
    for res in pair_results[1:]:
        psi = intersect(psi, res.embedding)
    if len(psi.images) > len(sigma):
        raise AssertionError("rank bound violated")
    for w in psi.images:
        first = apply(morphisms[0], w)
        if not all(apply(f, w) == first for f in morphisms[1:]):
            raise AssertionError("basis word is not a solution of the whole family")
    trail = tuple(step for res in pair_results for step in res.trail)
    return EqualiserResult(psi, psi.images, trail, pair_results[0].case)
