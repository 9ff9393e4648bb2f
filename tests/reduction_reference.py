"""The graph walks the solvers used before `instances.agreeing_chains`,
kept as its judge, and the graph helpers only the tests use.

`_search_block` is the monoid overhang search, one block per codomain
letter.  `_image_pullback` reads the base component of the product of two
bouquets off the images (`_image_steps`); coring it and decoding its petals
gave the group reduction.  `core_at` and `membership` are the plain graph
operations that the Stallings tests check the pair core against.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable

from markedpcp.instances import Block
from markedpcp.morphisms import Morphism
from markedpcp.stallings import (
    StallingsGraph,
    _core_with_maps,
    _petal_offsets,
    is_folded_both_ways,
)
from markedpcp.words import Letter, Word


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


def reference_blocks(g: Morphism, h: Morphism) -> tuple[Block, ...]:
    """The blocks of a marked pair by the overhang search, in codomain
    letter order."""
    g_first = _first_letter_map(g)
    h_first = _first_letter_map(h)
    blocks = []
    for a in g.codomain.positive_letters():
        found = _search_block(g, h, g_first, h_first, a)
        if found is not None:
            u, v = found
            blocks.append(Block(a, Word(g.domain, tuple(u)), Word(h.domain, tuple(v))))
    return tuple(blocks)


def _image_steps(f: Morphism) -> Callable[[int], dict[Letter, tuple[int, int]]]:
    """The steps of the bouquet of an immersion f, read off its images:
    vertex id -> {letter: (edge id, next vertex id)}.

    Interior vertex v is position q of the image of generator gi; reading
    letter L steps forward when the image has L at q and backward when it
    has L^-1 at q-1.  From the base, L enters the image of the signed
    generator whose image starts with L, unique because f is marked.
    Reading L crosses its edge forward exactly when L is positive.
    """
    images = [img.letters for img in f.images]
    first_edge, first_vertex = _petal_offsets(f)

    def vertex(gi: int, q: int) -> int:
        return 0 if q in (0, len(images[gi])) else first_vertex[gi] + q - 1

    from_base = {}
    for gi, im in enumerate(images):
        last = im[-1]
        from_base[im[0]] = (first_edge[gi], vertex(gi, 1))
        from_base[Letter(last.index, -last.sign)] = (
            first_edge[gi] + len(im) - 1,
            vertex(gi, len(im) - 1),
        )

    def steps(v: int) -> dict[Letter, tuple[int, int]]:
        if v == 0:
            return from_base
        # generators with one-letter images own no interior vertex, so the
        # last generator starting at or before v is the one holding it
        gi = bisect_right(first_vertex, v) - 1
        q = v - first_vertex[gi] + 1
        im = images[gi]
        back = im[q - 1]
        e = first_edge[gi] + q
        return {
            im[q]: (e, vertex(gi, q + 1)),
            Letter(back.index, -back.sign): (e - 1, vertex(gi, q - 1)),
        }

    return steps


def _image_pullback(g: Morphism, h: Morphism) -> tuple[StallingsGraph, list[tuple[int, int]]]:
    """`_pullback(bouquet(g), bouquet(h))` for two immersions, read off their
    images without building either bouquet: the same search, vertex
    numbering and edge order."""
    g_steps = _image_steps(g)
    h_steps = _image_steps(h)
    base = (0, 0)
    found = {base}
    queue = [base]
    # each edge is recorded once, when crossed forward from its source
    crossed: dict[tuple[int, int], tuple[tuple[int, int], tuple[int, int], int]] = {}
    for v1, v2 in queue:
        at2 = h_steps(v2)
        for l, (i, w1) in g_steps(v1).items():
            hit = at2.get(l)
            if hit is None:
                continue
            j, w2 = hit
            if l.sign > 0:
                crossed[(i, j)] = ((v1, v2), (w1, w2), l.index)
            if (w1, w2) not in found:
                found.add((w1, w2))
                queue.append((w1, w2))
    new_id = {v: k for k, v in enumerate(sorted(found))}
    pairs = sorted(crossed)
    edges = []
    for p in pairs:
        s, t, lab = crossed[p]
        edges.append((new_id[s], new_id[t], lab))
    graph = StallingsGraph._trusted(g.codomain, len(found), tuple(edges), new_id[base], None)
    return graph, pairs


def core_at(graph: StallingsGraph, v: int) -> StallingsGraph:
    """Maximal subgraph through v with no degree-1 vertices other than
    possibly v itself, restricted to v's connected component."""
    return _core_with_maps(graph, v)[0]


def membership(graph: StallingsGraph, w: Word) -> bool:
    """Does w label a reduced closed circuit at the base?

    Requires the graph folded both ways, so traversal is deterministic.
    """
    if w.alphabet != graph.alphabet:
        raise ValueError("word does not lie over the graph's label alphabet")
    if not is_folded_both_ways(graph):
        raise ValueError("membership requires a graph folded both ways")
    forward = {}
    backward = {}
    for s, t, lab in graph.edges:
        forward[(s, lab)] = t
        backward[(t, lab)] = s
    cur = graph.base
    for l in w.letters:
        nxt = forward.get((cur, l.index)) if l.sign > 0 else backward.get((cur, l.index))
        if nxt is None:
            return False
        cur = nxt
    return cur == graph.base
