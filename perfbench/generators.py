"""Seeded instance generators for the benchmark workloads.

The random generators are a copy of the ones the tests use, kept here so
that an edit to the test helpers cannot silently change a workload; the
digests in `digests.json` pin the generated texts per seed.  Planting and
mining build the workload with non-trivial equalisers and long trails.
"""

from __future__ import annotations

import random

from markedpcp import group, monoid
from markedpcp.instances import Instance, SetInstance
from markedpcp.morphisms import Morphism, is_immersion, is_marked
from markedpcp.words import GROUP, MONOID, Alphabet, Letter, Word


def random_marked_morphism(
    rng: random.Random, sigma: Alphabet, delta: Alphabet, max_len: int
) -> Morphism:
    firsts = rng.sample(range(len(delta)), len(sigma))
    images = []
    for f in firsts:
        tail = [Letter(rng.randrange(len(delta)), 1) for _ in range(rng.randint(0, max_len - 1))]
        images.append(Word(delta, tuple([Letter(f, 1)] + tail)))
    out = Morphism(sigma, delta, tuple(images))
    if not is_marked(out):
        raise AssertionError("generated monoid morphism is not marked")
    return out


def _immersed_image(
    rng: random.Random, delta: Alphabet, first: Letter, lam: Letter, max_len: int
) -> Word:
    """Reduced word of length 1..max_len starting with `first` whose inverse
    starts with `lam`."""
    letters = delta.signed_letters()
    beta = lam.inverse()
    length = rng.randint(1, max_len)
    if length == 1 and first != beta:
        length = 2
    word = [first]
    for i in range(length - 2):
        banned = {word[-1].inverse()}
        if i == length - 3:
            banned.add(beta.inverse())
        word.append(rng.choice([l for l in letters if l not in banned]))
    if length >= 2:
        word.append(beta)
    return Word(delta, tuple(word))


def random_immersion(
    rng: random.Random, sigma: Alphabet, delta: Alphabet, max_len: int
) -> Morphism:
    """Immersion with image lengths in 1..max_len (max_len >= 2): distinct
    first letters and distinct inverse-of-last letters, the two sets disjoint."""
    letters = delta.signed_letters()
    k = len(sigma)
    firsts = rng.sample(letters, k)
    rest = [l for l in letters if l not in firsts]
    lams = rng.sample(rest, k)
    images = tuple(_immersed_image(rng, delta, f, lam, max_len) for f, lam in zip(firsts, lams))
    out = Morphism(sigma, delta, images)
    if not is_immersion(out, "marked"):
        raise AssertionError("generated group morphism is not an immersion")
    return out


def _alphabets(rng: random.Random, mode: str, max_rank: int) -> tuple[Alphabet, Alphabet]:
    k = rng.randint(1, max_rank)
    m = rng.randint(k, max_rank)
    sigma = Alphabet(tuple(f"a{i}" for i in range(k)), mode)
    delta = Alphabet(tuple(f"x{i}" for i in range(m)), mode)
    return sigma, delta


def random_monoid_instance(rng: random.Random, max_rank: int = 3, max_len: int = 4) -> Instance:
    sigma, delta = _alphabets(rng, MONOID, max_rank)
    return Instance(
        random_marked_morphism(rng, sigma, delta, max_len),
        random_marked_morphism(rng, sigma, delta, max_len),
    )


def random_group_instance(rng: random.Random, max_rank: int = 3, max_len: int = 4) -> Instance:
    sigma, delta = _alphabets(rng, GROUP, max_rank)
    return Instance(
        random_immersion(rng, sigma, delta, max_len),
        random_immersion(rng, sigma, delta, max_len),
    )


def _planted_images(
    rng: random.Random,
    base: Morphism,
    shared: list[int],
    max_len: int,
) -> Morphism:
    """A marked morphism / immersion that agrees with `base` on the
    generators in `shared` and is random elsewhere."""
    sigma, delta = base.domain, base.codomain
    free = [i for i in range(len(sigma)) if i not in shared]
    images = list(base.images)
    if sigma.mode == MONOID:
        used = {base.images[i].first for i in shared}
        firsts = rng.sample([l for l in delta.positive_letters() if l not in used], len(free))
        for i, f in zip(free, firsts):
            tail = [Letter(rng.randrange(len(delta)), 1) for _ in range(rng.randint(0, max_len - 1))]
            images[i] = Word(delta, tuple([f] + tail))
    else:
        used = set()
        for i in shared:
            used |= {base.images[i].first, base.images[i].last.inverse()}
        rest = [l for l in delta.signed_letters() if l not in used]
        firsts = rng.sample(rest, len(free))
        lams = rng.sample([l for l in rest if l not in firsts], len(free))
        for i, f, lam in zip(free, firsts, lams):
            images[i] = _immersed_image(rng, delta, f, lam, max_len)
    out = Morphism(sigma, delta, tuple(images))
    ok = is_marked(out) if sigma.mode == MONOID else is_immersion(out, "marked")
    if not ok:
        raise AssertionError("planted morphism lost markedness")
    return out


def planted_family(
    rng: random.Random, mode: str, size: int = 3, max_rank: int = 3, max_len: int = 5
) -> SetInstance:
    """`size` maps that share their images on a non-empty proper subset of
    the generators, so the family equaliser has rank at least that subset's size."""
    k = rng.randint(2, max_rank)
    m = rng.randint(k, max_rank)
    sigma = Alphabet(tuple(f"a{i}" for i in range(k)), mode)
    delta = Alphabet(tuple(f"x{i}" for i in range(m)), mode)
    shared = sorted(rng.sample(range(k), rng.randint(1, k - 1)))
    if mode == MONOID:
        base = random_marked_morphism(rng, sigma, delta, max_len)
    else:
        base = random_immersion(rng, sigma, delta, max_len)
    maps = [base] + [_planted_images(rng, base, shared, max_len) for _ in range(size - 1)]
    return SetInstance(tuple(maps), tuple(f"f{i}" for i in range(size)))


def mine_long_trails(
    rng: random.Random,
    mode: str,
    want: int,
    min_trail: int = 4,
    max_rank: int = 3,
    max_len: int = 5,
    max_tries: int = 50_000,
) -> list[Instance]:
    """The first `want` random pairs whose reduction trail has at least
    `min_trail` steps.  Deterministic for a given rng state and solver;
    since it depends on the solver, the workload uses a pool mined once
    (`mine_trails.py`) rather than calling this."""
    make = random_monoid_instance if mode == MONOID else random_group_instance
    solver = monoid if mode == MONOID else group
    found: list[Instance] = []
    for _ in range(max_tries):
        if len(found) == want:
            break
        inst = make(rng, max_rank, max_len)
        if len(solver.solve_pair(inst).trail) >= min_trail:
            found.append(inst)
    return found


def _word_text(w: Word) -> str:
    if not w.letters:
        return "eps"
    syms = w.alphabet.symbols
    return " ".join(syms[l.index] if l.sign > 0 else syms[l.index] + "^-1" for l in w.letters)


def to_text(problem: Instance | SetInstance) -> str:
    """The instance as `.pcp` text, written here rather than by the library
    so that the workload bytes do not depend on the code under test."""
    if isinstance(problem, Instance):
        maps = list(zip(problem.names, (problem.g, problem.h)))
    else:
        maps = list(zip(problem.names, problem.morphisms))
    lines = [
        f"mode {problem.mode}",
        "sigma " + " ".join(problem.sigma.symbols),
        "delta " + " ".join(problem.delta.symbols),
    ]
    for name, f in maps:
        lines.append(f"map {name}")
        lines += [f"{sym} = {_word_text(img)}" for sym, img in zip(f.domain.symbols, f.images)]
    return "\n".join(lines) + "\n"
