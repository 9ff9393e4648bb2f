"""Base-pointed labeled graphs: bouquets of morphisms, label-synchronised
products, core graphs, and petal extraction.

Edges always carry positive labels; traversing a negative letter means
walking an edge against its direction.  Petal paths are stored as sequences
of (edge id, direction) pairs with direction +1 (forward) or -1 (reversed).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .morphisms import Morphism, is_marked
from .words import GROUP, Alphabet, Letter, Word

Petal = tuple[str, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class StallingsGraph:
    alphabet: Alphabet
    num_vertices: int
    edges: tuple[tuple[int, int, int], ...]  # (source, target, label index)
    base: int = 0
    petals: tuple[Petal, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if self.num_vertices < 1:
            raise ValueError("a graph has at least its base vertex")
        if not 0 <= self.base < self.num_vertices:
            raise ValueError("base vertex out of range")
        for s, t, lab in self.edges:
            if not (0 <= s < self.num_vertices and 0 <= t < self.num_vertices):
                raise ValueError("edge endpoint out of range")
            if not 0 <= lab < len(self.alphabet):
                raise ValueError("edge label out of range")

    @classmethod
    def _trusted(
        cls,
        alphabet: Alphabet,
        num_vertices: int,
        edges: tuple[tuple[int, int, int], ...],
        base: int = 0,
        petals: tuple[Petal, ...] | None = None,
    ) -> "StallingsGraph":
        """A graph the caller has built correctly: a tuple of edge triples
        with endpoints and labels in range, and the base a vertex.  Nothing
        is checked, so this is for solver-internal values only."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "alphabet", alphabet)
        object.__setattr__(graph, "num_vertices", num_vertices)
        object.__setattr__(graph, "edges", edges)
        object.__setattr__(graph, "base", base)
        object.__setattr__(graph, "petals", petals)
        return graph


def _edge_head(edge: tuple[int, int, int], direction: int) -> int:
    return edge[1] if direction > 0 else edge[0]


def bouquet(f: Morphism) -> StallingsGraph:
    """One petal per generator, spelling its image as a path from the base
    back to the base; negative letters become reversed edges."""
    if f.mode != GROUP:
        raise ValueError("bouquets are built from group-mode morphisms")
    edges: list[tuple[int, int, int]] = []
    petals: list[Petal] = []
    num_vertices = 1
    for sym, img in zip(f.domain.symbols, f.images):
        if not img:
            raise ValueError(f"image of {sym} is empty: petal would be degenerate")
        path = []
        prev = 0
        for pos, l in enumerate(img.letters):
            nxt = 0 if pos == len(img.letters) - 1 else num_vertices
            if pos < len(img.letters) - 1:
                num_vertices += 1
            if l.sign > 0:
                edges.append((prev, nxt, l.index))
                path.append((len(edges) - 1, 1))
            else:
                edges.append((nxt, prev, l.index))
                path.append((len(edges) - 1, -1))
            prev = nxt
        petals.append((sym, tuple(path)))
    return StallingsGraph._trusted(f.codomain, num_vertices, tuple(edges), 0, tuple(petals))


def is_folded_both_ways(graph: StallingsGraph) -> bool:
    """Deterministic in both directions: no two outgoing edges from a vertex
    share a label, and no two incoming edges share one."""
    n = len(graph.edges)
    return (
        len({(s, lab) for s, _, lab in graph.edges}) == n
        and len({(t, lab) for _, t, lab in graph.edges}) == n
    )


def _product_with_pairs(
    g1: StallingsGraph, g2: StallingsGraph
) -> tuple[StallingsGraph, list[tuple[int, int]]]:
    if g1.alphabet != g2.alphabet:
        raise ValueError("product requires a common label alphabet")
    n2 = g2.num_vertices

    def vid(v1: int, v2: int) -> int:
        return v1 * n2 + v2

    by_label: dict[int, list[int]] = {}
    for j, (_, _, lab) in enumerate(g2.edges):
        by_label.setdefault(lab, []).append(j)
    edges: list[tuple[int, int, int]] = []
    pairs: list[tuple[int, int]] = []
    for i, (s1, t1, lab) in enumerate(g1.edges):
        for j in by_label.get(lab, ()):
            s2, t2, _ = g2.edges[j]
            edges.append((vid(s1, s2), vid(t1, t2), lab))
            pairs.append((i, j))
    prod = StallingsGraph._trusted(
        g1.alphabet,
        g1.num_vertices * n2,
        tuple(edges),
        vid(g1.base, g2.base),
        None,
    )
    return prod, pairs


def product(g1: StallingsGraph, g2: StallingsGraph) -> StallingsGraph:
    """Label-synchronised product on all vertex pairs, based at the pair of
    base vertices."""
    return _product_with_pairs(g1, g2)[0]


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


def _petal_offsets(f: Morphism) -> tuple[list[int], list[int]]:
    """First edge id and first interior vertex id of each generator's
    petal, numbered as `bouquet` numbers them."""
    first_edge: list[int] = []
    first_vertex: list[int] = []
    e, v = 0, 1
    for img in f.images:
        first_edge.append(e)
        first_vertex.append(v)
        e += len(img)
        v += len(img) - 1
    return first_edge, first_vertex


def core_of_pair(
    g: Morphism, h: Morphism
) -> tuple[StallingsGraph, tuple[int, ...], tuple[int, ...]]:
    """Core of the product of the two bouquets at the paired base vertices.

    Returns the core (with petal structure attached) and the projections of
    its edges onto the edges of the two bouquets.  Only the component of
    the base pair is built (`_pullback`); the result is the same as coring
    the full `product`.  For immersions the core is always a bouquet;
    anything else is rejected.  The solvers read the same petals off the
    images (`instances.agreeing_chains`); this graph serves `export-dot`
    and `solve --trace`.
    """
    if g.codomain != h.codomain:
        raise ValueError("core of a pair needs a common codomain")
    gb, hb = bouquet(g), bouquet(h)
    # `bouquet` rejects monoid maps and empty images; past that, a bouquet
    # is folded both ways exactly when its map is marked
    if not (is_marked(g) and is_marked(h)):
        raise ValueError("core of a pair is only defined for immersions")
    component, pairs = _pullback(gb, hb)
    core, _, kept_edges = _core_with_maps(component, component.base)
    g_edges = tuple(pairs[i][0] for i in kept_edges)
    h_edges = tuple(pairs[i][1] for i in kept_edges)
    petals = _extract_petals(core)
    core = StallingsGraph._trusted(core.alphabet, core.num_vertices, core.edges, core.base, petals)
    return core, g_edges, h_edges


def _decode_paths(paths: list[list[tuple[int, int]]], f: Morphism) -> list[Word]:
    """Read closed base-to-base paths of the bouquet of f as words in its
    generators.

    A generator's petal is the run of edge ids from its first edge, each
    crossed in the direction of its letter's sign; its inverse is that run
    reversed, crossed against those signs.
    """
    first_edge, _ = _petal_offsets(f)
    petals = [(gi, e, img) for gi, (e, img) in enumerate(zip(first_edge, f.images)) if img]
    starts = {e: gi for gi, e, _ in petals}
    ends = {e + len(img) - 1: gi for gi, e, img in petals}
    words = []
    for path in paths:
        out: list[Letter] = []
        i = 0
        while i < len(path):
            e, d = path[i]
            gi = starts.get(e)
            if gi is not None and d == f.images[gi].first.sign:
                sign = 1
            else:
                gi = ends.get(e)
                if gi is None or d != -f.images[gi].last.sign:
                    raise ValueError("path is not a concatenation of petal traversals")
                sign = -1
            im = f.images[gi].letters
            e0 = first_edge[gi]
            expected = [(e0 + p, l.sign) for p, l in enumerate(im)]
            if sign < 0:
                expected = [(e, -d) for e, d in reversed(expected)]
            if path[i : i + len(im)] != expected:
                raise ValueError("path is not a concatenation of petal traversals")
            out.append(Letter(gi, sign))
            i += len(im)
        words.append(Word._trusted(f.domain, tuple(out)))
    return words


def petals_to_morphisms(
    core: StallingsGraph,
    g_edges: tuple[int, ...],
    h_edges: tuple[int, ...],
    g: Morphism,
    h: Morphism,
) -> tuple[Morphism, Morphism]:
    """Turn the petals of a pair core into morphisms onto the two domains.

    Each core petal, pushed through a projection, traverses whole petals of
    the underlying bouquet; collapsing those traversals to generator letters
    gives the images of a fresh generator per petal.
    """
    if core.petals is None:
        raise ValueError("core carries no petal structure")
    sigma2 = Alphabet(tuple(name for name, _ in core.petals), GROUP)
    g_paths = [[(g_edges[e], d) for e, d in path] for _, path in core.petals]
    h_paths = [[(h_edges[e], d) for e, d in path] for _, path in core.petals]
    g_prime = Morphism._trusted(sigma2, g.domain, tuple(_decode_paths(g_paths, g)))
    h_prime = Morphism._trusted(sigma2, h.domain, tuple(_decode_paths(h_paths, h)))
    return g_prime, h_prime


def export_dot(graph: StallingsGraph) -> str:
    """Deterministic DOT rendering; the base vertex is drawn doubled."""
    lines = ["digraph stallings {"]
    for v in range(graph.num_vertices):
        if v == graph.base:
            lines.append(f"  v{v} [shape=doublecircle];")
        else:
            lines.append(f"  v{v};")
    for s, t, lab in graph.edges:
        lines.append(f'  v{s} -> v{t} [label="{graph.alphabet.symbols[lab]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
