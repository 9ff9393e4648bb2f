"""The graph walks the solvers used before `instances.agreeing_chains`,
kept as its judge, and the graph helpers only the tests use.

`_search_block` is the monoid overhang search, one block per codomain
letter.  `_pullback` searches the base component of the product of two
bouquets, `_core_with_maps` prunes it to its core and `_extract_petals`
splits and orients the petals: `reference_core_of_pair` chains the three,
and `stallings.core_of_pair`, read off the chains, is judged against it.
`_image_pullback` reads the same component off the images
(`_image_steps`); coring it and decoding its petals gave the group
reduction.  `core_at` and `membership` are the plain graph operations that
the Stallings tests check the pair core against.  `reference_reduce_to_basis`
is the reduction loop that keys every trail instance by its canonical form;
`instances.reduce_to_basis`, which keys only instances whose shape recurs,
is judged against it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, deque
from typing import Callable

from markedpcp.instances import (
    CASE_CYCLE,
    Block,
    Instance,
    ReductionStep,
    _shape,
    _terminal_case,
    canonical_form,
)
from markedpcp.morphisms import Morphism, apply
from markedpcp.stallings import (
    Petal,
    StallingsGraph,
    _first_edges,
    bouquet,
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


def _edge_head(edge: tuple[int, int, int], direction: int) -> int:
    return edge[1] if direction > 0 else edge[0]


def _pullback(
    g1: StallingsGraph, g2: StallingsGraph
) -> tuple[StallingsGraph, list[tuple[int, int]]]:
    """The component of the base pair in the product of two graphs folded
    both ways, built by search from the base pair.

    Folding makes every (vertex, label, direction) step of g2 unique, so the
    search visits only that component.  Vertices are numbered in the order
    of their ids in the full product and edges sorted by their pair of
    edge ids, so this is exactly the subgraph that the full product has on
    the component, renumbered.
    """
    steps1: list[list[tuple[int, int, int, int]]] = [[] for _ in range(g1.num_vertices)]
    for i, (s, t, lab) in enumerate(g1.edges):
        steps1[s].append((lab, 1, i, t))
        steps1[t].append((lab, -1, i, s))
    steps2: dict[tuple[int, int, int], tuple[int, int]] = {}
    for j, (s, t, lab) in enumerate(g2.edges):
        steps2[(s, lab, 1)] = (j, t)
        steps2[(t, lab, -1)] = (j, s)
    base = (g1.base, g2.base)
    found = {base}
    queue = [base]
    crossed: set[tuple[int, int]] = set()  # each edge is crossed from both ends
    for v1, v2 in queue:
        for lab, d, i, w1 in steps1[v1]:
            hit = steps2.get((v2, lab, d))
            if hit is None:
                continue
            j, w2 = hit
            crossed.add((i, j))
            if (w1, w2) not in found:
                found.add((w1, w2))
                queue.append((w1, w2))
    new_id = {v: k for k, v in enumerate(sorted(found))}
    pairs = sorted(crossed)
    edges = []
    for i, j in pairs:
        s1, t1, lab = g1.edges[i]
        s2, t2, _ = g2.edges[j]
        edges.append((new_id[(s1, s2)], new_id[(t1, t2)], lab))
    graph = StallingsGraph._trusted(g1.alphabet, len(found), tuple(edges), new_id[base], None)
    return graph, pairs


def _core_with_maps(
    graph: StallingsGraph, v: int
) -> tuple[StallingsGraph, list[int], list[int]]:
    """Core of the graph at v plus the surviving old vertex/edge ids."""
    if not 0 <= v < graph.num_vertices:
        raise ValueError("core vertex not in graph")
    alive_edge = [True] * len(graph.edges)
    incident: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    degree = [0] * graph.num_vertices
    for i, (s, t, _) in enumerate(graph.edges):
        incident[s].append(i)
        incident[t].append(i)
        degree[s] += 1
        degree[t] += 1
    queue = deque(u for u in range(graph.num_vertices) if u != v and degree[u] == 1)
    dead = [False] * graph.num_vertices
    while queue:
        u = queue.popleft()
        if dead[u] or degree[u] != 1:
            continue
        dead[u] = True
        for i in incident[u]:
            if not alive_edge[i]:
                continue
            alive_edge[i] = False
            s, t, _ = graph.edges[i]
            for w in (s, t):
                degree[w] -= 1
            other = t if s == u else s
            if other != v and not dead[other] and degree[other] == 1:
                queue.append(other)
    # restrict to the connected component of v; pruning alone can leave
    # stray components of a product graph
    neighbours: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    for i, (s, t, _) in enumerate(graph.edges):
        if alive_edge[i]:
            neighbours[s].append(t)
            neighbours[t].append(s)
    reachable = [False] * graph.num_vertices
    reachable[v] = True
    stack = [v]
    while stack:
        u = stack.pop()
        for w in neighbours[u]:
            if not reachable[w]:
                reachable[w] = True
                stack.append(w)
    kept_vertices = [u for u in range(graph.num_vertices) if reachable[u] and not dead[u]]
    new_id = {u: i for i, u in enumerate(kept_vertices)}
    kept_edges = [
        i
        for i, (s, t, _) in enumerate(graph.edges)
        if alive_edge[i] and reachable[s] and reachable[t]
    ]
    edges = tuple(
        (new_id[graph.edges[i][0]], new_id[graph.edges[i][1]], graph.edges[i][2])
        for i in kept_edges
    )
    core = StallingsGraph._trusted(graph.alphabet, len(kept_vertices), edges, new_id[v], None)
    return core, kept_vertices, kept_edges


def _petal_label(graph: StallingsGraph, path: tuple[tuple[int, int], ...]) -> list[Letter]:
    return [Letter(graph.edges[e][2], d) for e, d in path]


def _label_key(label: list[Letter]) -> tuple:
    return (len(label), tuple(l.sort_key() for l in label))


def _extract_petals(graph: StallingsGraph) -> tuple[Petal, ...]:
    """Split the graph into closed petal paths at the base.

    Requires a bouquet: every non-base vertex of degree two and all edges
    covered by pairwise disjoint base-to-base circuits.  Each petal is
    oriented so that its label is shortlex-minimal against its inverse, and
    petals are sorted by (first letter, shortlex of label), then named
    p0, p1, ... in that order.
    """
    leaving: dict[int, list[tuple[int, int]]] = {}
    for i, (s, t, _) in enumerate(graph.edges):
        leaving.setdefault(s, []).append((i, 1))
        leaving.setdefault(t, []).append((i, -1))
    unused = sorted(leaving.get(graph.base, []))
    unused_set = set(unused)

    paths: list[tuple[tuple[int, int], ...]] = []
    total_steps = 0
    for start in unused:
        if start not in unused_set:
            continue
        unused_set.discard(start)
        path = [start]
        e, d = start
        cur = _edge_head(graph.edges[e], d)
        while cur != graph.base:
            arrived_back = (e, -d)
            options = [x for x in leaving.get(cur, []) if x != arrived_back]
            if len(options) != 1:
                raise ValueError("graph is not a bouquet at its base")
            e, d = options[0]
            path.append((e, d))
            cur = _edge_head(graph.edges[e], d)
            total_steps += 1
            if total_steps > len(graph.edges) + 1:
                raise ValueError("graph is not a bouquet at its base")
        closing = (e, -d)
        if closing not in unused_set:
            raise ValueError("graph is not a bouquet at its base")
        unused_set.discard(closing)
        paths.append(tuple(path))

    used = Counter(e for path in paths for e, _ in path)
    if len(used) != len(graph.edges) or any(c != 1 for c in used.values()):
        raise ValueError("graph is not a bouquet at its base")

    oriented = []
    for path in paths:
        label = _petal_label(graph, path)
        flipped = tuple((e, -d) for e, d in reversed(path))
        flipped_label = [l.inverse() for l in reversed(label)]
        if _label_key(flipped_label) < _label_key(label):
            path, label = flipped, flipped_label
        oriented.append((path, label))
    oriented.sort(key=lambda pl: (pl[1][0].sort_key(), _label_key(pl[1])))
    return tuple((f"p{i}", path) for i, (path, _) in enumerate(oriented))


def reference_core_of_pair(
    g: Morphism, h: Morphism
) -> tuple[StallingsGraph, tuple[int, ...], tuple[int, ...]]:
    """The pair core by the graph path: the base component of the product of
    the two bouquets, cored at its base, its petals split off and attached,
    and its edges projected onto the bouquets' edges."""
    component, pairs = _pullback(bouquet(g), bouquet(h))
    core, _, kept_edges = _core_with_maps(component, component.base)
    g_edges = tuple(pairs[i][0] for i in kept_edges)
    h_edges = tuple(pairs[i][1] for i in kept_edges)
    petals = _extract_petals(core)
    core = StallingsGraph(core.alphabet, core.num_vertices, core.edges, core.base, petals)
    return core, g_edges, h_edges


def _petal_offsets(f: Morphism) -> tuple[list[int], list[int]]:
    """First edge id and first interior vertex id of each generator's
    petal, numbered as `bouquet` numbers them."""
    first_vertex: list[int] = []
    v = 1
    for img in f.images:
        first_vertex.append(v)
        v += len(img) - 1
    return _first_edges(f), first_vertex


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


def reference_reduce_to_basis(
    instance: Instance, reduce: Callable[[Instance], ReductionStep]
) -> tuple[str, tuple[ReductionStep, ...], tuple[Word, ...]]:
    """The termination case, trail and basis of `instances.reduce_to_basis`,
    from a loop that keys every instance of the trail by its canonical form
    and stops at the first repeat."""
    cur = instance
    trail: list[ReductionStep] = []
    seen: set[tuple] = set()
    while True:
        case = _terminal_case(_shape(cur))
        if case is not None:
            break
        key = canonical_form(cur)
        if key in seen:
            case = CASE_CYCLE
            break
        seen.add(key)
        trail.append(reduce(cur))
        cur = trail[-1].after
    basis = []
    for i in range(len(cur.sigma)):
        if cur.g.images[i] == cur.h.images[i]:
            w = Word(cur.sigma, (Letter(i, 1),))
            for step in reversed(trail):
                w = apply(step.g_prime, w)
            basis.append(w)
    return case, tuple(trail), tuple(basis)
