"""Base-pointed labeled graphs: bouquets of morphisms, label-synchronised
products, and the core of an immersed pair with its petals.

Edges always carry positive labels; traversing a negative letter means
walking an edge against its direction.  Petal paths are stored as sequences
of (edge id, direction) pairs with direction +1 (forward) or -1 (reversed).
The pair core is read off the chains of `instances.agreeing_chains`, which
are its petals; no pullback is searched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import agreeing_chains
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


def _first_edges(f: Morphism) -> list[int]:
    """First edge id of each generator's petal, numbered as `bouquet`
    numbers them."""
    first_edge: list[int] = []
    e = 0
    for img in f.images:
        first_edge.append(e)
        e += len(img)
    return first_edge


def _edge_run(f: Morphism, first_edge: list[int], w: Word) -> list[int]:
    """The edge ids of the bouquet of f that the path of w crosses, in
    order: a generator's petal forwards, its inverse's backwards."""
    run: list[int] = []
    for x in w.letters:
        e = first_edge[x.index]
        petal = range(e, e + len(f.images[x.index]))
        run.extend(petal if x.sign > 0 else reversed(petal))
    return run


def core_of_pair(
    g: Morphism, h: Morphism
) -> tuple[StallingsGraph, tuple[int, ...], tuple[int, ...]]:
    """Core of the product of the two bouquets at the paired base vertices.

    Returns the core (with petal structure attached) and the projections of
    its edges onto the edges of the two bouquets.  For immersions the core
    is a bouquet whose petals are the chains of `instances.agreeing_chains`,
    so it is read off them and no pullback is searched: chain (label, u, v)
    walks u's petals in g's bouquet and v's in h's, and its k-th letter
    crosses the product edge of the k-th pair of bouquet edges, in the
    direction of the letter's sign.  Vertices are numbered in the order of
    their pairs of bouquet vertices and edges in the order of their pairs of
    edge ids, as in the core of the full `product`; petals p0, p1, ... come
    in chain order.  Anything but a pair of immersions is rejected.  The
    solvers use the chains directly; this graph serves `export-dot` and
    `solve --trace`.
    """
    if g.codomain != h.codomain:
        raise ValueError("core of a pair needs a common codomain")
    gb, hb = bouquet(g), bouquet(h)
    # `bouquet` rejects monoid maps and empty images; past that, a bouquet
    # is folded both ways exactly when its map is marked
    if not (is_marked(g) and is_marked(h)):
        raise ValueError("core of a pair is only defined for immersions")
    g_first, h_first = _first_edges(g), _first_edges(h)
    walks = [
        (label, list(zip(_edge_run(g, g_first, u), _edge_run(h, h_first, v))))
        for label, u, v in agreeing_chains(g, h)
    ]
    pairs = sorted({p for _, walk in walks for p in walk})
    ends = [
        ((gb.edges[i][0], hb.edges[j][0]), (gb.edges[i][1], hb.edges[j][1])) for i, j in pairs
    ]
    vertex_id = {v: k for k, v in enumerate(sorted({(0, 0), *(v for e in ends for v in e)}))}
    edges = tuple(
        (vertex_id[s], vertex_id[t], gb.edges[i][2]) for (s, t), (i, _) in zip(ends, pairs)
    )
    edge_id = {p: k for k, p in enumerate(pairs)}
    petals = tuple(
        (f"p{n}", tuple((edge_id[p], l.sign) for l, p in zip(label, walk)))
        for n, (label, walk) in enumerate(walks)
    )
    core = StallingsGraph._trusted(g.codomain, len(vertex_id), edges, 0, petals)
    return core, tuple(i for i, _ in pairs), tuple(j for _, j in pairs)


def _decode_paths(paths: list[list[tuple[int, int]]], f: Morphism) -> list[Word]:
    """Read closed base-to-base paths of the bouquet of f as words in its
    generators.

    A generator's petal is the run of edge ids from its first edge, each
    crossed in the direction of its letter's sign; its inverse is that run
    reversed, crossed against those signs.
    """
    first_edge = _first_edges(f)
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
                letter = f.domain._positive_letters[gi]
            else:
                gi = ends.get(e)
                if gi is None or d != -f.images[gi].last.sign:
                    raise ValueError("path is not a concatenation of petal traversals")
                letter = f.domain._negative_letters[gi]
            im = f.images[gi].letters
            e0 = first_edge[gi]
            expected = [(e0 + p, l.sign) for p, l in enumerate(im)]
            if letter.sign < 0:
                expected = [(e, -d) for e, d in reversed(expected)]
            if path[i : i + len(im)] != expected:
                raise ValueError("path is not a concatenation of petal traversals")
            out.append(letter)
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
