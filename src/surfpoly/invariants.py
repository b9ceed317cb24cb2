"""Combinatorial invariants of spanning subgraphs of a marked graph.

For a spanning subgraph H of the marked graph G inside the host surface Σ,
computes the tuple (c, v, e, n, bc, s, s_perp, k, l):

* c, v, e — components, vertices, edges of H (isolated vertices included);
* n = e - v + c — nullity, the rank of H's first homology;
* bc — boundary circles of a regular neighborhood of H, the cycles that
  H's ribbons make of the corners at its vertices;
* s = 2c - v + e - bc — twice the genus of that neighborhood;
* s_perp — twice the genus of the complement surface, from the Euler count
  of the complement cell structure (faces, unused edges, unmarked vertices);
* k = n - g + (s_perp - s)/2 — kernel dimension of H's homology in Σ;
* l = (2g - s - s_perp)/2 — dimension of V(H) ∩ V(H)^perp.

k and l are derived from the exact identities s + s_perp + 2l = 2g and
k + l + s = n; the independent linear-algebra computation lives in
:mod:`surfpoly.homology` and serves as the oracle.

Every state sum over the 2^e spanning subgraphs goes through the engine at
the end of this module: :func:`scan` yields each subgraph with its
invariants from one :func:`walk` over all 2^e masks, and :func:`histogram`
counts the invariant tuples with a frontier (transfer-matrix) DP that never
visits a mask; P, BR and P' are read off that count as projections.  The
engine owns the size cap, the DP's state limit and :func:`walk`, the one
depth-first mask walker, which the homology layer's state sums use too.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import count
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    InternalInvariantError,
    NotCellulation,
    NotSpanning,
    TooManyEdges,
    TooManyStates,
)
from .maps import CombinatorialMap, EmbeddedSubgraph

DEFAULT_CAP = 20
MAX_STATES = 1 << 17  # frontier partitions per DP step; well past this memory runs out

Step = tuple[int, list[tuple[int, int, int]]]  # (code added, links (a, b, weight)), see _link


class SubgraphInvariants(NamedTuple):
    c: int
    v: int
    e: int
    n: int
    bc: int
    s: int
    s_perp: int
    k: int
    l: int


class SubgraphScanner:
    """Link tables for evaluating every spanning subgraph of one marked graph.

    c, c_perp and bc are class counts of one union-find over three node
    ranges.  c: the marked vertices; an edge in H links its ends.  c_perp:
    the faces and unmarked vertices; a host edge not in H links its two
    faces and its unmarked ends (an edge cell always joins a face).  bc:
    the corners kappa(d), between dart d and sigma(d) at marked vertices; a
    dart x links kappa(sigma^-1 x) to kappa(alpha x) if its edge is in H,
    else to kappa(x), so every corner has degree 2 and the classes are the
    boundary circles.  The links of unmarked host edges are applied here
    once, giving ``base``; ``steps[i]`` holds the out and the in
    :data:`Step` of marked edge i, the in one adding 1 to the code's e(H)
    field, with its links lifted to the classes of ``base`` and the links
    inside one class dropped.
    """

    def __init__(self, graph: EmbeddedSubgraph):
        host = graph.host
        self.isolated = host.isolated_vertices
        self.g_total = host.total_genus
        self.chi_sigma = host.euler_characteristic()
        self.edges = graph.sorted_edges
        self.eidx = {e: i for i, e in enumerate(self.edges)}

        marked = graph.g_vertices
        face_of, vertex_of = host.face_of, host.vertex_of
        alpha, sigma_inv = host.alpha, host.sigma_inv
        # node numbers, range after range: c, c_perp (the faces, then the
        # unmarked vertices), bc; a vertex is in c or in c_perp, never both
        number = count()
        vnode = {v: next(number) for v in sorted(marked)}
        fnode = {f: next(number) for f in host.face_ids}
        vnode.update({v: next(number) for v in host.vertex_ids if v not in marked})
        knode = {d: next(number) for d in host.darts if vertex_of[d] in marked}
        self.sizes = (len(marked), len(fnode) + len(vnode) - len(marked), len(knode))
        # a code's fields, low to high: e(H), then the merges of each range
        widths = [n.bit_length() for n in (len(self.edges), *self.sizes)]
        self.shifts = tuple(sum(widths[:i]) for i in range(4))
        self.masks = tuple((1 << width) - 1 for width in widths)
        w_c, w_perp, w_bc = (1 << shift for shift in self.shifts[1:])

        def in_links(e: int) -> list[tuple[int, int, int]]:
            d = alpha[e]
            return [
                (vnode[vertex_of[e]], vnode[vertex_of[d]], w_c),
                (knode[sigma_inv[e]], knode[d], w_bc),
                (knode[sigma_inv[d]], knode[e], w_bc),
            ]

        def out_links(e: int) -> list[tuple[int, int, int]]:
            links = [(fnode[face_of[e]], fnode[face_of[alpha[e]]], w_perp)]
            for x in (e, alpha[e]):
                if x in knode:
                    links.append((knode[sigma_inv[x]], knode[x], w_bc))
                else:
                    links.append((fnode[face_of[x]], vnode[vertex_of[x]], w_perp))
            return links

        parent = list(range(next(number)))
        unmarked = [link for e in host.edge_ids if e not in self.eidx for link in out_links(e)]
        self.base_code = _link(parent, 0, (0, unmarked))
        self.base = tuple(parent)

        self.steps: tuple[tuple[Step, Step], ...] = tuple(
            (_lift(parent, 0, out_links(e)), _lift(parent, 1, in_links(e))) for e in self.edges
        )

    def codes(self) -> array:
        """Codes of all 2^e subgraphs, in increasing mask order, from one
        :func:`walk` of the union-find ``base`` over ``steps``."""
        return array("q", walk(list(self.base), self.base_code, self.steps, _link))

    def code_counts(self) -> dict[int, int]:
        """How many subgraphs have each code: ``Counter(self.codes())``, by the DP."""
        return frontier_counts(self.base_code, self.steps)

    def pinned(self, ins: Iterable[int], outs: Iterable[int], free: Iterable[int]) -> tuple:
        """The base code and steps over the marked edges ``free`` (indices,
        in that order) of the subgraphs with the edges ``ins`` in and
        ``outs`` out: their :func:`frontier_counts` counts ``codes()`` over
        those masks.  Free links are lifted to the pinned classes."""
        parent, code, steps = list(self.base), self.base_code, self.steps
        for i in ins:
            code = _link(parent, code, steps[i][1])
        for i in outs:
            code = _link(parent, code, steps[i][0])
        return code, tuple((_lift(parent, *steps[i][0]), _lift(parent, *steps[i][1])) for i in free)

    def decode(self, code: int) -> SubgraphInvariants:
        """Invariants of the subgraph with this code, range-checked; each
        field is read at its fixed shift."""
        _, s_c, s_perp, s_bc = self.shifts
        m_e, m_c, m_perp, m_bc = self.masks
        n_c, n_perp, n_bc = self.sizes
        iso = self.isolated
        e_count = code & m_e
        c = n_c - (code >> s_c & m_c) + iso
        c_perp = n_perp - (code >> s_perp & m_perp) + iso
        bc = n_bc - (code >> s_bc & m_bc) + iso
        v_count = n_c + iso
        s = 2 * c - v_count + e_count - bc
        chi_perp = self.chi_sigma - (v_count - e_count)
        s_perp = 2 * c_perp - chi_perp - bc
        n = e_count - v_count + c
        g = self.g_total
        if (s_perp - s) % 2 or (2 * g - s - s_perp) % 2:
            raise InternalInvariantError("parity violation in s/s_perp")
        k = n - g + (s_perp - s) // 2
        l = (2 * g - s - s_perp) // 2
        if min(s, s_perp, k, l) < 0 or s % 2 or s_perp % 2:
            raise InternalInvariantError(
                f"invariant out of range: s={s} s_perp={s_perp} k={k} l={l}"
            )
        return SubgraphInvariants(c, v_count, e_count, n, bc, s, s_perp, k, l)

    def invariants_of_mask(self, mask: int) -> SubgraphInvariants:
        parent, code = list(self.base), self.base_code
        for i, step in enumerate(self.steps):
            code = _link(parent, code, step[mask >> i & 1])
        return self.decode(code)

    def mask_of(self, h_edges: Iterable[int]) -> int:
        mask = 0
        for e in h_edges:
            if e not in self.eidx:
                raise NotSpanning(f"edge {e} is not an edge of the marked graph")
            mask |= 1 << self.eidx[e]
        return mask


# -- the subgraph-enumeration engine --------------------------------------------

def check_cap(n_edges: int, cap: int | None) -> None:
    """Refuse a 2^n_edges state sum above ``cap`` (None means no cap)."""
    if cap is not None and n_edges > cap:
        raise TooManyEdges(f"{n_edges} edges exceeds cap {cap}")


def walk(uf: list, acc: Any, steps: Sequence, apply: Callable) -> Iterator[Any]:
    """The ``acc`` of every mask over ``steps``, in increasing mask order.

    A mask's bit i picks ``steps[i][1]`` (set) or ``steps[i][0]`` (clear);
    ``apply(uf, acc, branch)`` applies a branch to the list ``uf`` in place
    and returns the new acc.  The walk goes depth first from the top bit,
    out child before in child: the out child works on a copy ``uf[:]`` and
    the in child on ``uf`` itself, so nothing is undone.  It descends along
    the out children and keeps only the pending in children, one per bit at
    most, and it yields each leaf as it reaches it.
    """
    pending = [(uf, acc, len(steps))]
    while pending:
        uf, acc, i = pending.pop()
        while i:
            i -= 1
            out = uf[:]
            pending.append((uf, apply(uf, acc, steps[i][1]), i))
            uf, acc = out, apply(out, acc, steps[i][0])
        yield acc


def frontier_counts(base_code: int, steps: Sequence[tuple[Step, Step]]) -> dict[int, int]:
    """How many masks over ``steps`` reach each code from ``base_code``, the
    Counter of a :func:`walk`, built one step at a time without visiting a
    mask (the transfer-matrix method of Sekine, Imai and Tani, ISAAC 1995);
    each link joins two classes of the union-find the walk starts from.

    Edges go in greedy order, each next the one sharing
    most classes with those done (lowest index on ties).  The frontier
    is the classes that both a done and a later edge touch; a state is
    their partition, each position holding the first position of its
    block, and it carries a dict from partial code to count.  A step
    applies the edge's out or in links to a copy of the state's
    union-find, adds the merge weights (and 1 for in), and drops the
    classes no later edge touches.  A state's counts are a shift and a
    dict, each code in the dict standing for code + shift: a branch
    onto a new state passes its parent's dict on with a larger shift,
    and the dict is copied only when a second branch lands on that
    state, to merge the two.  One state, the empty one, remains; its
    counts are returned as a fresh dict.
    """
    todo = dict(enumerate(steps))
    touch = {
        i: {x for _, links in pair for a, b, _ in links for x in (a, b)}
        for i, pair in todo.items()
    }
    order, done = [], set()
    while todo:
        i = max(todo, key=lambda j: len(touch[j] & done))  # first max: lowest index
        order.append((i, todo.pop(i)))
        done |= touch[i]
    last = {x: t for t, (i, _) in enumerate(order) for x in touch[i]}

    states = {(): (base_code, {0: 1})}
    frontier: list[int] = []
    for t, (i, pair) in enumerate(order):
        pos = {x: p for p, x in enumerate(frontier)}
        fresh = []
        for x in touch[i]:
            if x not in pos:
                fresh.append(len(pos))
                pos[x] = len(pos)
        branches = [(plus, [(pos[a], pos[b], w) for a, b, w in links]) for plus, links in pair]
        keep = [p for p, x in enumerate(pos) if last[x] > t]
        frontier = [x for x in pos if last[x] > t]
        nxt: dict[tuple[int, ...], tuple[int, dict[int, int]]] = {}
        merged = set()  # the states whose dict is their own
        for state, (shift, counts) in states.items():
            for branch in branches:
                parent = [*state, *fresh]
                gained = _link(parent, shift, branch)
                first = {}
                key = []
                for j, p in enumerate(keep):
                    while parent[p] != p:
                        p = parent[p]
                    key.append(first.setdefault(p, j))
                key = tuple(key)
                into = nxt.get(key)
                if into is None:
                    if len(nxt) == MAX_STATES:
                        raise TooManyStates(
                            f"frontier DP needs more than {MAX_STATES} states at edge "
                            f"{t + 1} of {len(order)}"
                        )
                    nxt[key] = (gained, counts)
                    continue
                if key in merged:
                    into = into[1]
                else:
                    into = {code + into[0]: cnt for code, cnt in into[1].items()}
                    nxt[key] = (0, into)
                    merged.add(key)
                for code, cnt in counts.items():
                    into[code + gained] = into.get(code + gained, 0) + cnt
        states = nxt
    shift, counts = states[()]
    return {code + shift: cnt for code, cnt in counts.items()}


def _link(parent: list[int], code: int, step: Step) -> int:
    """Apply a :data:`Step` (plus, links) to the union-find ``parent``;
    returns ``code + plus`` plus the weights of the links (a, b, weight)
    that merged two classes."""
    plus, links = step
    code += plus
    for a, b, weight in links:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]  # path halving
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
            code += weight
    return code


def _lift(parent: list[int], plus: int, links: list[tuple[int, int, int]]) -> Step:
    """The step (plus, links) with each link lifted to the classes of the
    union-find ``parent`` (only read), and dropped inside one class."""
    lifted = []
    for a, b, weight in links:
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            lifted.append((a, b, weight))
    return plus, lifted


def scan(
    graph: EmbeddedSubgraph, cap: int | None = DEFAULT_CAP
) -> Iterator[tuple[int, SubgraphInvariants]]:
    """(mask, invariants) for every spanning subgraph of ``graph``, where bit
    i of the mask is ``graph.sorted_edges[i]``.  The cap is checked, and the
    subgraphs swept, at the call."""
    check_cap(len(graph.sorted_edges), cap)
    sc = SubgraphScanner(graph)
    codes = sc.codes()
    decoded = {code: sc.decode(code) for code in set(codes)}
    return enumerate(map(decoded.__getitem__, codes))


def histogram(graph: EmbeddedSubgraph, cap: int | None = DEFAULT_CAP) -> Counter:
    """How many spanning subgraphs of ``graph`` have each invariant tuple,
    counted by the frontier DP of :meth:`SubgraphScanner.code_counts`;
    raises :class:`TooManyStates` past ``MAX_STATES`` frontier states."""
    check_cap(len(graph.sorted_edges), cap)
    sc = SubgraphScanner(graph)
    return Counter({sc.decode(code): cnt for code, cnt in sc.code_counts().items()})


def invariants(graph: EmbeddedSubgraph, h_edges: Iterable[int]) -> SubgraphInvariants:
    """Invariant tuple of the spanning subgraph of ``graph`` on ``h_edges``."""
    sc = SubgraphScanner(graph)
    return sc.invariants_of_mask(sc.mask_of(h_edges))


def dual_subgraph(
    m: CombinatorialMap | EmbeddedSubgraph, h_edges: Iterable[int]
) -> frozenset[int]:
    """Edge set of the dual subgraph H*: the duals of the edges absent
    from H, under the shared-dart correspondence e <-> e*."""
    if isinstance(m, EmbeddedSubgraph):
        if not m.is_cellulation:
            raise NotCellulation("dual subgraph needs the full cellulation as graph")
        m = m.host
    h = frozenset(h_edges)
    universe = frozenset(m.edge_ids)
    if not h <= universe:
        raise NotSpanning(f"unknown edges {sorted(h - universe)}")
    return universe - h

