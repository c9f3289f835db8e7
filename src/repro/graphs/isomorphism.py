"""Canonical labelling, automorphism groups and orbits for small graphs.

The empirical study in Section 5 of the paper enumerates all connected
topologies on a fixed vertex set *up to isomorphism* and analyses each one.
Two pieces of symmetry machinery make that affordable, and both live here:

1. **Canonical forms.**  The classic individualisation–refinement scheme:
   colour vertices by degree, iteratively refine colours by the multiset of
   neighbouring colours (1-dimensional Weisfeiler–Leman refinement), and when
   the colouring is not discrete, individualise each vertex of the first
   non-singleton colour class in turn and recurse.  Every discrete colouring
   induces a vertex ordering; the canonical form is the lexicographically
   smallest adjacency bitstring over all such leaves.  This is exact (not a
   hash).

2. **Automorphisms and orbits, discovered for free.**  Whenever two leaves of
   the search produce the *same* minimal bitstring, the permutation between
   their orderings is an automorphism of the graph.  The search records these
   generators as it runs and uses them to prune its own backtracking
   (McKay-style: a sibling branch whose vertex lies in the orbit of an
   already-explored sibling under the automorphisms fixing the individualised
   prefix would only reproduce known leaves).  The complete result — canonical
   bitstring, canonical ordering, automorphism generators and vertex orbits —
   is packaged as a :class:`CanonicalRecord` and memoised on the
   :class:`~repro.graphs.graph.Graph` instance, so censuses and sweeps that
   revisit a graph never re-run the search.

The orbits feed canonical-augmentation enumeration
(:mod:`repro.graphs.enumeration` extends only along orbit representatives and
accepts a child only if the new vertex lies in the canonical last-vertex
orbit).  The stability engines never read a record: their answers depend on
the graph alone.

The enumeration does not run this search per candidate: it labels whole
blocks of candidate children in lock-step NumPy
(:mod:`repro.graphs._lockstep`), which reproduces the search's refinement,
target cells and minimum bitstring exactly and reads the whole group off the
tying leaves.  The search here serves :func:`canonical_record` on arbitrary
graphs and the block labelling's fallback for graphs with very wide search
trees (``K_n``, stars, empty graphs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import Edge, Graph, iter_bits, normalize_edge

CanonicalForm = Tuple[int, int]
Permutation = Tuple[int, ...]


def _refine_colors(adj: Sequence[Tuple[int, ...]], colors: List[int]) -> List[int]:
    """Run 1-WL colour refinement until the partition stabilises.

    Colours are renumbered after every round by sorting the flattened
    ``(old colour, *sorted neighbour colours)`` keys, which keeps the
    refinement isomorphism-invariant.  The flat-tuple keys compare exactly
    like the nested ``(old colour, multiset)`` keys, so the refinement (and
    therefore every canonical form) is unchanged from earlier revisions while
    hashing and sorting measurably less data per round.
    """
    n = len(colors)
    num = len(set(colors))
    while True:
        keys: List[Tuple[int, ...]] = []
        append = keys.append
        for v in range(n):
            row = sorted([colors[u] for u in adj[v]])
            row.insert(0, colors[v])
            append(tuple(row))
        order: Dict[Tuple[int, ...], int] = {}
        for key in sorted(set(keys)):
            order[key] = len(order)
        refined = len(order)
        if refined == num:
            return [order[key] for key in keys]
        colors = [order[key] for key in keys]
        if refined == n:
            # Discrete: a further round would renumber the distinct colours
            # by rank, which they already are — the fixed point is reached.
            return colors
        num = refined


def _degree_colors(adj: Sequence[Tuple[int, ...]]) -> List[int]:
    """Initial colouring by degree (ascending: larger degree, larger colour)."""
    degrees = [len(neighbors) for neighbors in adj]
    order = {d: i for i, d in enumerate(sorted(set(degrees)))}
    return [order[d] for d in degrees]


def _stable_colors(adj: Sequence[Tuple[int, ...]]) -> List[int]:
    """The stable 1-WL partition refined from the degree colouring.

    Both refinement and individualisation preserve the relative order of
    colour cells, so every discrete leaf colouring of the canonical search
    refines this partition *in order* — in particular the vertex at the last
    canonical position always carries the maximal stable colour.  The
    canonical-augmentation generator relies on that fact for its cheap
    accept/reject tests.
    """
    return _refine_colors(adj, _degree_colors(adj))


def _cells(colors: Sequence[int]) -> Dict[int, List[int]]:
    """Group vertices by colour, vertices sorted within each cell."""
    cells: Dict[int, List[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return cells


def _is_discrete(colors: Sequence[int]) -> bool:
    return len(set(colors)) == len(colors)


def _bitstring_for_ordering(adj: Sequence[Tuple[int, ...]], ordering: Sequence[int]) -> int:
    """Adjacency bitstring of the graph relabelled so that ``ordering[i] -> i``."""
    n = len(ordering)
    position = [0] * n
    for new, old in enumerate(ordering):
        position[old] = new
    bits = 0
    for u, neighbors in enumerate(adj):
        pu = position[u]
        for v in neighbors:
            pv = position[v]
            if pu < pv:
                bits |= 1 << (pu * n + pv)
    return bits


class _CanonicalSearch:
    """Backtracking search for the minimal adjacency bitstring.

    Besides the canonical ordering, the search harvests automorphisms: every
    leaf whose bitstring ties the current best yields the permutation mapping
    the best ordering onto the leaf ordering, which is an automorphism of the
    graph.  Discovered automorphisms prune the remaining search — a sibling
    vertex lying in the orbit of an already-explored sibling (under the
    subgroup fixing the individualised prefix pointwise) generates only
    images of leaves that were already visited.
    """

    def __init__(self, adj: Sequence[Tuple[int, ...]]) -> None:
        # Neighbour tuples (decoded from the bitset rows by the caller):
        # tuple iteration is the fastest option for the refinement loops.
        self.adj = adj
        self.n = len(adj)
        self.best: Optional[int] = None
        self.best_ordering: Optional[List[int]] = None
        self.automorphisms: List[Permutation] = []

    def run(
        self, stable_colors: Optional[Sequence[int]] = None
    ) -> Tuple[int, List[int], List[Permutation]]:
        colors = (
            _stable_colors(self.adj)
            if stable_colors is None
            else list(stable_colors)
        )
        self._search(colors, ())
        assert self.best is not None and self.best_ordering is not None
        return self.best, self.best_ordering, self.automorphisms

    def _search(self, colors: List[int], fixed: Tuple[int, ...]) -> None:
        if _is_discrete(colors):
            ordering = [0] * self.n
            for v, c in enumerate(colors):
                ordering[c] = v
            bits = _bitstring_for_ordering(self.adj, ordering)
            if self.best is None or bits < self.best:
                self.best = bits
                self.best_ordering = ordering
            elif bits == self.best:
                # Equal bitstrings mean the two relabelled graphs are the
                # same labelled graph, so position-wise composition of the
                # orderings is an automorphism of the original graph.
                base = self.best_ordering
                automorphism = [0] * self.n
                for position in range(self.n):
                    automorphism[base[position]] = ordering[position]
                self.automorphisms.append(tuple(automorphism))
            return

        cells = _cells(colors)
        # Target the smallest non-singleton cell (ties broken by colour id):
        # an isomorphism-invariant choice.
        target_color = min(
            (c for c, members in cells.items() if len(members) > 1),
            key=lambda c: (len(cells[c]), c),
        )
        tried: List[int] = []
        prefix_fixing: List[Permutation] = []
        absorbed = 0
        for v in cells[target_color]:
            # Absorb automorphisms discovered while exploring earlier
            # siblings, keeping those fixing the individualised prefix
            # pointwise (each automorphism is filtered once per node).
            automorphisms = self.automorphisms
            while absorbed < len(automorphisms):
                g = automorphisms[absorbed]
                absorbed += 1
                if all(g[f] == f for f in fixed):
                    prefix_fixing.append(g)
            if tried and prefix_fixing and self._already_explored(
                v, tried, prefix_fixing
            ):
                continue
            new_colors = _refine_colors(self.adj, self._individualize(colors, v))
            self._search(new_colors, fixed + (v,))
            tried.append(v)

    @staticmethod
    def _already_explored(
        vertex: int, tried: List[int], generators: List[Permutation]
    ) -> bool:
        """Whether ``vertex`` lies in the orbit of an explored sibling.

        Only automorphisms fixing the individualised prefix pointwise may be
        applied: they map the subtree rooted at an explored sibling onto the
        subtree rooted at ``vertex`` leaf-for-leaf, so exploring it again can
        neither lower the minimum nor reveal new generators that are not
        products of known ones.
        """
        seen = set(tried)
        stack = list(tried)
        while stack:
            x = stack.pop()
            for g in generators:
                y = g[x]
                if y == vertex:
                    return True
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    @staticmethod
    def _individualize(colors: Sequence[int], vertex: int) -> List[int]:
        """Split ``vertex`` out of its cell by giving it a strictly smaller colour.

        All colours are doubled so that the individualised vertex can take
        ``2c`` while every other vertex keeps ``2c + 1``; relative order of
        all cells is preserved, keeping the operation isomorphism-invariant.
        """
        return [2 * c if u == vertex else 2 * c + 1 for u, c in enumerate(colors)]


# --------------------------------------------------------------------------- #
# Canonical records (memoised per Graph instance)
# --------------------------------------------------------------------------- #


def _orbit_ids(n: int, generators: Sequence[Permutation]) -> Permutation:
    """Union-find over the generator action: ``ids[v]`` = smallest orbit member."""
    ids = list(range(n))

    def find(x: int) -> int:
        while ids[x] != x:
            ids[x] = ids[ids[x]]
            x = ids[x]
        return x

    for g in generators:
        for v in range(n):
            a, b = find(v), find(g[v])
            if a < b:
                ids[b] = a
            elif b < a:
                ids[a] = b
    return tuple(find(v) for v in range(n))


@dataclass
class CanonicalRecord:
    """The full, memoised result of one canonical search.

    Attributes
    ----------
    n:
        Number of vertices.
    bits:
        The canonical adjacency bitstring; ``(n, bits)`` is the canonical
        form, equal exactly for isomorphic graphs.
    ordering:
        A canonical vertex ordering: ``ordering[i]`` is the original vertex
        at canonical position ``i``.
    generators:
        A generating set of the full automorphism group (empty when the
        group is trivial).  The per-graph search harvests them from
        equal-bitstring leaves; the lock-step block labelling of the
        enumeration stores a strong generating set for the base
        ``0 … n - 1`` instead.  Which set is stored is not part of the
        record's meaning: every consumer (the enumeration's subset orbits
        and acceptance test, the UCG orbit plan, the orbit and group-order
        queries) reads only the group they generate.
    orbit_ids:
        ``orbit_ids[v]`` is the smallest vertex in ``v``'s automorphism
        orbit (so equal ids mean same orbit).
    """

    n: int
    bits: int
    ordering: Permutation
    generators: Tuple[Permutation, ...]
    orbit_ids: Permutation
    _group_order: Optional[int] = field(default=None, repr=False, compare=False)

    @property
    def form(self) -> CanonicalForm:
        """The canonical form ``(n, bits)``."""
        return (self.n, self.bits)

    def vertex_orbits(self) -> List[List[int]]:
        """The vertex orbits as sorted lists, ordered by smallest member."""
        orbits: Dict[int, List[int]] = {}
        for v, root in enumerate(self.orbit_ids):
            orbits.setdefault(root, []).append(v)
        return [orbits[root] for root in sorted(orbits)]

    def group_order(self) -> int:
        """Order of the automorphism group (orbit-stabilizer recursion)."""
        if self._group_order is None:
            self._group_order = _schreier_order(self.n, self.generators)
        return self._group_order


def _compose(outer: Permutation, inner: Sequence[int]) -> Permutation:
    """``outer ∘ inner`` (apply ``inner`` first)."""
    return tuple(outer[i] for i in inner)


def _invert(perm: Permutation) -> Permutation:
    inverse = [0] * len(perm)
    for i, image in enumerate(perm):
        inverse[image] = i
    return tuple(inverse)


def _schreier_order(n: int, generators: Sequence[Permutation]) -> int:
    """Order of the permutation group generated by ``generators``.

    Orbit-stabilizer recursion with Schreier generators: pick a moved point
    ``v``, build its orbit with a transversal, derive generators of the
    stabilizer of ``v`` (Schreier's lemma) and recurse — polynomial in the
    degree, never materialising the group (a plain closure would need
    ``11! ≈ 4·10^7`` elements for the star on 12 vertices).
    """
    generators = [g for g in generators if any(g[i] != i for i in range(n))]
    if not generators:
        return 1
    base_point = next(
        i for i in range(n) if any(g[i] != i for g in generators)
    )
    identity = tuple(range(n))
    # transversal[x] maps base_point to x.
    transversal: Dict[int, Permutation] = {base_point: identity}
    queue = [base_point]
    while queue:
        x = queue.pop()
        for g in generators:
            y = g[x]
            if y not in transversal:
                transversal[y] = _compose(g, transversal[x])
                queue.append(y)
    stabilizer_generators = set()
    for x, t_x in transversal.items():
        for g in generators:
            t_y_inverse = _invert(transversal[g[x]])
            schreier = _compose(t_y_inverse, _compose(g, t_x))
            if schreier != identity:
                stabilizer_generators.add(schreier)
    return len(transversal) * _schreier_order(n, list(stabilizer_generators))


_EMPTY_RECORD = CanonicalRecord(0, 0, (), (), ())


def _compute_record(
    graph: Optional[Graph] = None,
    adj: Optional[Sequence[Tuple[int, ...]]] = None,
    stable_colors: Optional[Sequence[int]] = None,
) -> CanonicalRecord:
    """Run the canonical search and package the result (no caching)."""
    if adj is None:
        assert graph is not None
        if graph.n == 0:
            return _EMPTY_RECORD
        adj = tuple(tuple(iter_bits(row)) for row in graph.adjacency_rows())
    n = len(adj)
    if n == 0:
        return _EMPTY_RECORD
    search = _CanonicalSearch(adj)
    bits, ordering, automorphisms = search.run(stable_colors)
    generators = tuple(dict.fromkeys(automorphisms))
    return CanonicalRecord(
        n=n,
        bits=bits,
        ordering=tuple(ordering),
        generators=generators,
        orbit_ids=_orbit_ids(n, generators),
    )


def canonical_record(graph: Graph) -> CanonicalRecord:
    """The graph's :class:`CanonicalRecord`, computed once per instance.

    The record is memoised on the (immutable) graph object, so repeated
    canonical-form, orbit or automorphism queries — censuses, sweeps,
    enumeration — pay for the search exactly once per instance.
    """
    record = graph._canon
    if record is None:
        record = _compute_record(graph)
        graph._canon = record
    return record


def clear_canonical_record(graph: Graph) -> None:
    """Drop the memoised record (e.g. to release memory on long-lived graphs).

    Safe at any time — the record is a pure cache of the immutable graph's
    symmetry data and will simply be recomputed on the next query.
    """
    graph._canon = None


def canonical_labeling(graph: Graph) -> List[int]:
    """A canonical vertex ordering: ``ordering[i]`` is the original vertex at position ``i``."""
    if graph.n == 0:
        return []
    return list(canonical_record(graph).ordering)


def canonical_form(graph: Graph) -> CanonicalForm:
    """A canonical form ``(n, bitstring)``: equal for isomorphic graphs only.

    Two graphs are isomorphic if and only if their canonical forms compare
    equal.  The underlying search result is memoised per instance, so
    repeated calls are free.
    """
    if graph.n == 0:
        return (0, 0)
    return canonical_record(graph).form


def canonical_graph(graph: Graph) -> Graph:
    """The canonical representative of ``graph``'s isomorphism class.

    The returned graph inherits a conjugated copy of the canonical record
    (identity ordering, relabelled generators and orbits), so later orbit
    and automorphism queries on it — e.g. the enumerator's augmentation
    step — need no other search.
    """
    if graph.n == 0:
        return graph
    record = canonical_record(graph)
    if record.ordering == tuple(range(graph.n)):
        # Already canonical (as every enumerated class is): a new instance
        # sharing the rows and the record, so clearing one leaves the other.
        canon = Graph._from_rows(graph.n, graph.adjacency_rows(), graph.num_edges)
        canon._canon = record
        return canon
    position = [0] * graph.n
    for new, old in enumerate(record.ordering):
        position[old] = new
    canon = graph.relabel(position)
    if canon._canon is None:
        canon._canon = _conjugate_record(record, position)
    return canon


def _conjugate_record(record: CanonicalRecord, position: Sequence[int]) -> CanonicalRecord:
    """The record of the canonically relabelled graph (generators conjugated)."""
    n = record.n
    generators = tuple(
        tuple(position[g[record.ordering[i]]] for i in range(n))
        for g in record.generators
    )
    # Orbits relabel along with the vertices: the new id of a relabelled
    # orbit is the smallest new label among its members (no need to re-run
    # union-find over the conjugated generators).
    smallest: Dict[int, int] = {}
    for old_vertex, root in enumerate(record.orbit_ids):
        new_label = position[old_vertex]
        if root not in smallest or new_label < smallest[root]:
            smallest[root] = new_label
    orbit_ids = tuple(
        smallest[record.orbit_ids[record.ordering[i]]] for i in range(n)
    )
    return CanonicalRecord(
        n=n,
        bits=record.bits,
        ordering=tuple(range(n)),
        generators=generators,
        orbit_ids=orbit_ids,
        _group_order=record._group_order,
    )


# --------------------------------------------------------------------------- #
# Orbit and automorphism queries
# --------------------------------------------------------------------------- #


def automorphism_generators(graph: Graph) -> List[Permutation]:
    """Generators of the automorphism group (empty for rigid graphs)."""
    return list(canonical_record(graph).generators)


def automorphism_group_order(graph: Graph) -> int:
    """Order of the automorphism group (orbit-stabilizer over the generators)."""
    return canonical_record(graph).group_order()


def vertex_orbits(graph: Graph) -> List[List[int]]:
    """The automorphism orbits of the vertex set, as sorted lists."""
    return canonical_record(graph).vertex_orbits()


def _orbits_of_pairs(
    pairs: Sequence[Tuple[int, int]],
    generators: Sequence[Permutation],
    ordered: bool,
) -> List[List[Tuple[int, int]]]:
    """Orbits of vertex pairs under the generator action (BFS closure)."""
    if not generators:
        return [[pair] for pair in pairs]
    orbits: List[List[Tuple[int, int]]] = []
    seen = set()
    for pair in pairs:
        if pair in seen:
            continue
        seen.add(pair)
        orbit = [pair]
        stack = [pair]
        while stack:
            u, v = stack.pop()
            for g in generators:
                image = (g[u], g[v]) if ordered else normalize_edge(g[u], g[v])
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
                    stack.append(image)
        orbit.sort()
        orbits.append(orbit)
    return orbits


def edge_orbits(graph: Graph) -> List[List[Edge]]:
    """The automorphism orbits of the edge set (unordered pairs)."""
    return _orbits_of_pairs(
        graph.sorted_edges(), canonical_record(graph).generators, ordered=False
    )


def nonedge_orbits(graph: Graph) -> List[List[Edge]]:
    """The automorphism orbits of the non-edges (unordered pairs)."""
    return _orbits_of_pairs(
        graph.non_edges(), canonical_record(graph).generators, ordered=False
    )


def ordered_pair_orbits(graph: Graph) -> List[List[Tuple[int, int]]]:
    """Orbits of *ordered* vertex pairs ``(u, v)``, ``u != v``.

    This is the granularity of the stability probes: the deviation payoff of
    endpoint ``u`` toggling the pair ``{u, v}`` is constant on each orbit.
    Orbits never mix edges with non-edges.
    """
    n = graph.n
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return _orbits_of_pairs(pairs, canonical_record(graph).generators, ordered=True)


def are_isomorphic(first: Graph, second: Graph) -> bool:
    """Exact isomorphism test via canonical forms (with cheap pre-checks)."""
    if first.n != second.n or first.num_edges != second.num_edges:
        return False
    if first.degree_sequence() != second.degree_sequence():
        return False
    return canonical_form(first) == canonical_form(second)


def automorphism_count_brute_force(graph: Graph) -> int:
    """Number of automorphisms, by brute force over permutations.

    Only intended for very small graphs (``n <= 8``); used in tests to
    sanity-check the canonical labelling machinery.
    """
    from itertools import permutations

    n = graph.n
    edges = graph.edges
    count = 0
    for perm in permutations(range(n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in edges for u, v in edges):
            count += 1
    return count
