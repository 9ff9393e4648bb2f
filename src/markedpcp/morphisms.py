"""Generator-to-word tables: application, composition, and the marked and
immersion predicates that make the solvers work.  The signed images of a
map, f(x) and in group mode f(x^-1), are spelt out here only, by
`inverse_image` and `first_letters`."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .words import GROUP, Alphabet, Letter, Word, _junction, ball, format_letter


class NotMarkedError(ValueError):
    """A morphism fails the marked/immersion precondition of a solver.

    Carries the offending generator so callers can report it.
    """

    def __init__(self, message: str, morphism_name: str = "morphism", generator: str = "") -> None:
        super().__init__(message)
        self.morphism_name = morphism_name
        self.generator = generator


@dataclass(frozen=True)
class Morphism:
    """A morphism of free monoids or free groups, stored as the list of
    generator images."""

    domain: Alphabet
    codomain: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        if self.domain.mode != self.codomain.mode:
            raise ValueError("domain and codomain must share a mode")
        if len(self.images) != len(self.domain):
            raise ValueError(
                f"expected {len(self.domain)} images, got {len(self.images)}"
            )
        for sym, img in zip(self.domain.symbols, self.images):
            if img.alphabet != self.codomain:
                raise ValueError(f"image of {sym} does not lie over the codomain")

    @classmethod
    def _trusted(
        cls, domain: Alphabet, codomain: Alphabet, images: tuple[Word, ...]
    ) -> "Morphism":
        """A morphism the caller has built correctly: alphabets of one mode
        and a tuple of one image per generator, each over the codomain.
        Nothing is checked, so this is for solver-internal values only."""
        f = object.__new__(cls)
        object.__setattr__(f, "domain", domain)
        object.__setattr__(f, "codomain", codomain)
        object.__setattr__(f, "images", images)
        return f

    @property
    def mode(self) -> str:
        return self.domain.mode

    def image(self, l: Letter) -> Word:
        """Image of a single (possibly inverse) generator letter."""
        if l.sign > 0:
            return self.images[l.index]
        return Word._trusted(self.codomain, inverse_image(self, l.index))


def inverse_image(f: Morphism, i: int) -> tuple[Letter, ...]:
    """The letters of f(x^-1) for the generator x of index i: the inverses
    of the letters of f(x), last first."""
    # through a list, which sizes the tuple: a tuple grown from the bare
    # map is resized as it fills, and that raised peak RSS run over run
    return tuple([*map(f.codomain._inverse_letters.__getitem__, reversed(f.images[i].letters))])


def first_letters(f: Morphism) -> list[Letter | None]:
    """The first letter of each signed image, in `Alphabet.signed_letters`
    order: f(x) for every generator x, then in group mode f(x^-1), which
    starts with the inverse of the last letter of f(x).  None for an empty
    image."""
    firsts, lasts = [], []
    for img in f.images:
        # an empty image reads as (None,): None first, and None from `.get`
        w = img.letters or (None,)
        firsts.append(w[0])
        lasts.append(w[-1])
    if f.domain.mode == GROUP:
        firsts += map(f.codomain._inverse_letters.get, lasts)
    return firsts


def identity(alphabet: Alphabet) -> Morphism:
    return Morphism._trusted(
        alphabet,
        alphabet,
        tuple(Word._trusted(alphabet, (l,)) for l in alphabet.positive_letters()),
    )


def apply(f: Morphism, w: Word) -> Word:
    """Homomorphic image of w: the signed images of its letters (x^-1 maps
    to f(x)^-1) joined in order, each join cancelling the `words._junction`
    letters where the two meet, none for monoid words."""
    if w.alphabet != f.domain:
        raise ValueError("word does not lie over the morphism's domain")
    out: list[Letter] = []
    for l in w.letters:
        img = f.images[l.index].letters if l.sign > 0 else inverse_image(f, l.index)
        # only a last letter that cancels the image's first starts a junction
        if out and img and out[-1].index == img[0].index and out[-1].sign != img[0].sign:
            c = _junction(out, img)
            del out[-c:]
            out += img[c:]
        else:
            out += img
    return Word._trusted(f.codomain, tuple(out))


def compose(f: Morphism, g: Morphism) -> Morphism:
    """The composite f after g, defined by a -> f(g(a))."""
    if g.codomain != f.domain:
        raise ValueError("codomain of the inner morphism must equal the outer domain")
    return Morphism._trusted(g.domain, f.codomain, tuple(apply(f, img) for img in g.images))


def _first_letter_clash(f: Morphism) -> tuple[str, str] | None:
    """Return the offending generator description if f is not marked.

    Monoid mode looks at the generator images; group mode at the images of
    all generators and their inverses.  The arity bound (at most one image
    per codomain letter) is a consequence of the distinctness check, so no
    separate size test is needed.  A set of first letters decides marked
    maps; only a clash or an empty image walks the letters to name it.
    """
    if not f.images:  # as a rank-0 step's maps are: nothing to compare
        return None
    firsts = first_letters(f)
    if len(set(firsts)) == len(firsts) and None not in firsts:
        return None
    return _name_clash(f, firsts)


def _name_clash(f: Morphism, firsts: list[Letter | None]) -> tuple[str, str] | None:
    """The first empty image or first-letter clash, given `first_letters(f)`."""
    seen: dict[Letter, Letter] = {}
    for l, first in zip(f.domain.signed_letters(), firsts):
        if first is None:
            return (format_letter(f.domain, l), "")
        if first in seen:
            return (format_letter(f.domain, seen[first]), format_letter(f.domain, l))
        seen[first] = l
    return None


def is_marked(f: Morphism) -> bool:
    """True iff the generator images (and their inverses, in group mode) are
    nonempty and start with pairwise distinct letters."""
    return _first_letter_clash(f) is None


def _report_clash(f: Morphism, name: str, noun: str) -> None:
    """Raise `NotMarkedError` naming the first clash, if f is not `noun`."""
    clash = _first_letter_clash(f)
    if clash is None:
        return
    a, b = clash
    if not b:
        raise NotMarkedError(f"{name} is not {noun}: image of {a} is empty", name, a)
    raise NotMarkedError(
        f"{name} is not {noun}: images of {a} and {b} share a first letter", name, b
    )


def require_marked(f: Morphism, name: str = "morphism") -> None:
    _report_clash(f, name, "marked")


def _immersion_by_lengths(f: Morphism) -> bool:
    if not f.images:  # as a rank-0 step's maps are: no pairs to look at
        return True
    # Empty images satisfy the length identity vacuously but are never
    # immersions (an immersion is injective), so guard them out; this keeps
    # the three characterisations in agreement.
    firsts = first_letters(f)
    if None in firsts:
        return False
    # Free reduction of f(x) f(y) only cancels at the junction, so
    # |f(xy)| = |f(x)| + |f(y)| - 2c exactly, with c the junction count of
    # the two reduced images, and the identity holds iff c = 0: f is applied
    # to no word xy.  A junction needs the last letter of f(x) to cancel the
    # first of f(y), that is f(y) to start as f(x^-1) does, so only the
    # pairs (x^-1, y) of signed images with one first letter are looked at;
    # y = x^-1 is not, since f(x) f(x^-1) always cancels.
    starting: dict[Letter, list[Letter]] = {}
    for y, a in zip(f.domain.signed_letters(), firsts):
        starting.setdefault(a, []).append(y)
    inverse = f.domain._inverse_letters
    for same_start in starting.values():
        for x_inv, y in permutations(same_start, 2):
            if _junction(f.image(inverse[x_inv]).letters, f.image(y).letters):
                return False
    return True


def _immersion_by_folding(f: Morphism) -> bool:
    if not f.images:  # the bouquet is the base vertex alone, which is folded
        return True
    if any(not img for img in f.images):
        return False
    from .stallings import bouquet, is_folded_both_ways  # deferred: only this leg folds

    return is_folded_both_ways(bouquet(f))


def is_immersion(f: Morphism, method: str = "all") -> bool:
    """Decide whether a free group morphism is an immersion.

    Three equivalent characterisations are available:
      `marked`  - the images of all generators and inverses form a marked set;
      `folded`  - the bouquet graph is deterministic and co-deterministic;
      `lengths` - no cancellation, |f(xy)| = |f(x)| + |f(y)| whenever xy != 1.
    `lengths` decides the 4k^2 - 2k ordered pairs of signed generators with
    y != x^-1 (k generators).  It reads |f(xy)| off the two reduced images
    as |f(x)| + |f(y)| minus twice the number of letters cancelling at their
    junction; that is exact, because a product of two reduced words cancels
    only there.  An index of the signed images by first letter finds the
    pairs whose junction letters cancel, so it looks at O(k) pairs, not all.
    `all` computes the three and insists that they agree.  The `marked` and
    `lengths` legs agree by construction: a junction of f(x) and f(y),
    y != x^-1, cancels exactly when two signed images share a first letter.
    So `all` cross-checks the `folded` leg against what is in effect one
    first-letter test.  A map with no generators is an immersion by all
    three legs at once, with nothing built: its bouquet would be the base
    vertex alone, which is folded.
    """
    if f.mode != GROUP:
        raise ValueError("immersions are a free-group notion; morphism is monoid-mode")
    if method == "marked":
        return is_marked(f)
    if method == "folded":
        return _immersion_by_folding(f)
    if method == "lengths":
        return _immersion_by_lengths(f)
    if method == "all":
        answers = {
            is_marked(f),
            _immersion_by_folding(f),
            _immersion_by_lengths(f),
        }
        if len(answers) != 1:
            raise AssertionError("immersion characterisations disagree")
        return answers.pop()
    raise ValueError(f"unknown method {method!r}")


def require_immersion(f: Morphism, name: str = "morphism") -> None:
    if f.mode != GROUP:
        raise ValueError("immersions are a free-group notion; morphism is monoid-mode")
    _report_clash(f, name, "an immersion")


def is_injective_witness(f: Morphism, radius: int) -> tuple[Word, Word] | None:
    """Search all words of length <= radius for a collision f(u) = f(v), u != v.

    Returns the first collision in shortlex enumeration order, or None.  For
    marked morphisms and immersions no witness exists.
    """
    seen: dict[Word, Word] = {}
    for w in ball(f.domain, radius):
        img = apply(f, w)
        if img in seen:
            return (seen[img], w)
        seen[img] = w
    return None


def greedy_decode(f: Morphism, w: Word) -> Word | None:
    """Preimage of w under a marked morphism / immersion, or None.

    The first letter of the remaining suffix determines the only generator
    whose image can be a prefix; strip it and repeat.  Sound and complete
    because marked images are prefix-discriminated and immersed images
    concatenate without cancellation.
    """
    if w.alphabet != f.codomain:
        raise ValueError("word does not lie over the morphism's codomain")
    if f.mode == GROUP:
        require_immersion(f)
    else:
        require_marked(f)
    table = {
        first: (l, f.image(l).letters)
        for l, first in zip(f.domain.signed_letters(), first_letters(f))
    }
    rest = w.letters
    out: list[Letter] = []
    while rest:
        hit = table.get(rest[0])
        if hit is None:
            return None
        gen, img = hit
        if rest[: len(img)] != img:
            return None
        out.append(gen)
        rest = rest[len(img) :]
    return Word(f.domain, tuple(out))
