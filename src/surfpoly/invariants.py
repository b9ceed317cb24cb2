"""Combinatorial invariants of spanning subgraphs of a marked graph.

For a spanning subgraph H of the marked graph G inside the host surface Σ,
computes the tuple (c, v, e, n, bc, s, s_perp, k, l):

* c, v, e — components, vertices, edges of H (isolated vertices included);
* n = e - v + c — nullity, the rank of H's first homology;
* bc — boundary circles of a regular neighborhood of H, traced in the
  rotation system restricted to H;
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
invariants, and :func:`histogram` counts the invariant tuples, from which
P, BR and P' are read off as projections.  The engine owns the size cap and
the optional process-pool split.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InternalInvariantError, NotCellulation, NotSpanning, TooManyEdges
from .maps import CombinatorialMap, EmbeddedSubgraph

DEFAULT_CAP = 20
_PARALLEL_THRESHOLD = 1 << 15


@dataclass(frozen=True)
class SubgraphInvariants:
    c: int
    v: int
    e: int
    n: int
    bc: int
    s: int
    s_perp: int
    k: int
    l: int

    def as_tuple(self) -> tuple[int, ...]:
        return (self.c, self.v, self.e, self.n, self.bc, self.s, self.s_perp, self.k, self.l)


class SubgraphScanner:
    """Precomputed indexes for evaluating many spanning subgraphs of one
    marked graph; all 2^e subgraph queries share this work."""

    def __init__(self, graph: EmbeddedSubgraph):
        host = graph.host
        self.graph = graph
        self.host = host
        self.isolated = host.isolated_vertices
        self.g_total = host.total_genus
        self.chi_sigma = host.euler_characteristic()

        self.verts = tuple(sorted(graph.g_vertices))
        vidx = {v: i for i, v in enumerate(self.verts)}
        self.edges = graph.sorted_edges
        self.eidx = {e: i for i, e in enumerate(self.edges)}
        self.edge_ends = tuple(
            (vidx[host.edge_endpoints(e)[0]], vidx[host.edge_endpoints(e)[1]])
            for e in self.edges
        )
        # rotation at each marked vertex: darts paired with their marked-edge
        # index (None when the dart's edge is not in the marked graph)
        rot = []
        for v in self.verts:
            cyc = next(c for c in host.vertex_cycles if c[0] == v)
            rot.append(tuple((d, self.eidx.get(host.edge_of(d))) for d in cyc))
        self.rotations = tuple(rot)

        # complement elements: faces, all host edges, unmarked vertices
        host_edges = host.edge_ids
        self.heidx = {e: i for i, e in enumerate(host_edges)}
        n_faces = len(host.face_cycles)
        n_hedges = len(host_edges)
        unmarked = [v for v in host.vertex_ids if v not in graph.g_vertices]
        uidx = {v: n_faces + n_hedges + i for i, v in enumerate(unmarked)}
        self.n_elements = n_faces + n_hedges + len(unmarked)
        face_edge_joins = []   # (face element, host-edge element, marked-edge idx or None)
        face_vertex_joins = []  # (face element, unmarked-vertex element)
        for fi, cyc in enumerate(host.face_cycles):
            edge_seen = set()
            vert_seen = set()
            for d in cyc:
                e = host.edge_of(d)
                if e not in edge_seen:
                    edge_seen.add(e)
                    face_edge_joins.append((fi, n_faces + self.heidx[e], self.eidx.get(e)))
                v = host.vertex_of[d]
                if v in uidx and v not in vert_seen:
                    vert_seen.add(v)
                    face_vertex_joins.append((fi, uidx[v]))
        self.face_edge_joins = tuple(face_edge_joins)
        self.face_vertex_joins = tuple(face_vertex_joins)
        edge_vertex_joins = []
        for e in host_edges:
            elem = n_faces + self.heidx[e]
            for v in host.edge_endpoints(e):
                if v in uidx:
                    edge_vertex_joins.append((elem, uidx[v], self.eidx.get(e)))
        self.edge_vertex_joins = tuple(edge_vertex_joins)
        # marked-edge index of each element, None for faces/vertices/unmarked edges
        self.elem_marked: tuple = tuple(
            self.eidx.get(host_edges[x - n_faces]) if n_faces <= x < n_faces + n_hedges else None
            for x in range(self.n_elements)
        )

    @staticmethod
    def _find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def invariants_of_mask(self, mask: int) -> SubgraphInvariants:
        host = self.host
        find = self._find
        e_count = bin(mask).count("1")
        v_count = len(self.verts) + self.isolated

        parent = list(range(len(self.verts)))
        for i, (u, w) in enumerate(self.edge_ends):
            if mask >> i & 1:
                ru, rw = find(parent, u), find(parent, w)
                if ru != rw:
                    parent[rw] = ru
        c = sum(1 for i, p in enumerate(parent) if p == i) + self.isolated

        # boundary circles: faces of the sub-map induced on H's darts
        sub_sigma: dict[int, int] = {}
        bc = self.isolated
        for rot in self.rotations:
            kept = [d for d, ei in rot if ei is not None and mask >> ei & 1]
            if not kept:
                bc += 1
            else:
                for i, d in enumerate(kept):
                    sub_sigma[d] = kept[(i + 1) % len(kept)]
        seen: set[int] = set()
        alpha = host.alpha
        for d0 in sub_sigma:
            if d0 in seen:
                continue
            bc += 1
            d = d0
            while d not in seen:
                seen.add(d)
                d = sub_sigma[alpha[d]]

        s = 2 * c - v_count + e_count - bc

        # complement components: faces + edges not in H + unmarked vertices
        cp = list(range(self.n_elements))
        for fa, el, ei in self.face_edge_joins:
            if ei is None or not mask >> ei & 1:
                ra, rb = find(cp, fa), find(cp, el)
                if ra != rb:
                    cp[rb] = ra
        for fa, ve in self.face_vertex_joins:
            ra, rb = find(cp, fa), find(cp, ve)
            if ra != rb:
                cp[rb] = ra
        for el, ve, ei in self.edge_vertex_joins:
            if ei is None or not mask >> ei & 1:
                ra, rb = find(cp, el), find(cp, ve)
                if ra != rb:
                    cp[rb] = ra
        c_perp = self.isolated
        for x, ei in enumerate(self.elem_marked):
            if ei is not None and mask >> ei & 1:
                continue  # ribbons of H-edges are not complement cells
            if cp[x] == x:
                c_perp += 1

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


def scan(
    graph: EmbeddedSubgraph, cap: int | None = DEFAULT_CAP
) -> Iterator[tuple[int, SubgraphInvariants]]:
    """(mask, invariants) for every spanning subgraph of ``graph``, where bit
    i of the mask is ``graph.sorted_edges[i]``.  The cap is checked at the
    call, before the first subgraph is asked for."""
    n = len(graph.sorted_edges)
    check_cap(n, cap)
    sc = SubgraphScanner(graph)
    return ((mask, sc.invariants_of_mask(mask)) for mask in range(1 << n))


def _count(graph: EmbeddedSubgraph, start: int, stop: int) -> Counter:
    sc = SubgraphScanner(graph)
    return Counter(map(sc.invariants_of_mask, range(start, stop)))


def histogram(
    graph: EmbeddedSubgraph, cap: int | None = DEFAULT_CAP, threads: int = 1
) -> Counter:
    """How many spanning subgraphs of ``graph`` have each invariant tuple.

    With ``threads`` > 1 on large inputs the masks are split into chunks
    over a process pool; the counts, and so every projection, are the same
    as the sequential ones.
    """
    n = len(graph.sorted_edges)
    check_cap(n, cap)
    total = 1 << n
    if threads < 2 or total < _PARALLEL_THRESHOLD:
        return _count(graph, 0, total)
    chunk = -(-total // (4 * threads))
    starts = range(0, total, chunk)
    stops = [min(start + chunk, total) for start in starts]
    hist: Counter = Counter()
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for part in pool.map(_count, [graph] * len(starts), starts, stops):
            hist.update(part)
    return hist


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

