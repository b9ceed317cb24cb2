import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfpoly.corpus import alternating_diagrams
from surfpoly.errors import InternalInvariantError, NotSpanning
from surfpoly.invariants import (
    SubgraphScanner,
    dual_subgraph,
    frontier_counts,
    invariants,
    scan,
    walk,
)
from surfpoly.links import tait_graph
from surfpoly.maps import CombinatorialMap, EmbeddedSubgraph, find, random_map, standard_alpha


class ReferenceScanner:
    """The face-tracing scanner the union-find sweep replaced, kept as the
    reference it is compared against: bc traces the faces of the sub-map on
    H's darts, and c_perp is a second union-find over the complement cells
    (faces, host edges not in H, unmarked vertices)."""

    def __init__(self, graph: EmbeddedSubgraph):
        host = graph.host
        self.host = host
        self.isolated = host.isolated_vertices
        self.g_total = host.total_genus
        self.chi_sigma = host.euler_characteristic()
        self.verts = tuple(sorted(graph.g_vertices))
        vidx = {v: i for i, v in enumerate(self.verts)}
        self.edges = graph.sorted_edges
        eidx = {e: i for i, e in enumerate(self.edges)}
        self.edge_ends = tuple(
            (vidx[host.edge_endpoints(e)[0]], vidx[host.edge_endpoints(e)[1]])
            for e in self.edges
        )
        rot = []
        for v in self.verts:
            cyc = next(c for c in host.vertex_cycles if c[0] == v)
            rot.append(tuple((d, eidx.get(host.edge_of(d))) for d in cyc))
        self.rotations = tuple(rot)

        host_edges = host.edge_ids
        heidx = {e: i for i, e in enumerate(host_edges)}
        n_faces = len(host.face_cycles)
        n_hedges = len(host_edges)
        unmarked = [v for v in host.vertex_ids if v not in graph.g_vertices]
        uidx = {v: n_faces + n_hedges + i for i, v in enumerate(unmarked)}
        self.n_elements = n_faces + n_hedges + len(unmarked)
        face_edge_joins = []
        face_vertex_joins = []
        for fi, cyc in enumerate(host.face_cycles):
            edge_seen = set()
            vert_seen = set()
            for d in cyc:
                e = host.edge_of(d)
                if e not in edge_seen:
                    edge_seen.add(e)
                    face_edge_joins.append((fi, n_faces + heidx[e], eidx.get(e)))
                v = host.vertex_of[d]
                if v in uidx and v not in vert_seen:
                    vert_seen.add(v)
                    face_vertex_joins.append((fi, uidx[v]))
        self.face_edge_joins = tuple(face_edge_joins)
        self.face_vertex_joins = tuple(face_vertex_joins)
        edge_vertex_joins = []
        for e in host_edges:
            elem = n_faces + heidx[e]
            for v in host.edge_endpoints(e):
                if v in uidx:
                    edge_vertex_joins.append((elem, uidx[v], eidx.get(e)))
        self.edge_vertex_joins = tuple(edge_vertex_joins)
        self.elem_marked = tuple(
            eidx.get(host_edges[x - n_faces]) if n_faces <= x < n_faces + n_hedges else None
            for x in range(self.n_elements)
        )

    @staticmethod
    def _find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def invariants_of_mask(self, mask: int) -> tuple[int, ...]:
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

        sub_sigma = {}
        bc = self.isolated
        for rot in self.rotations:
            kept = [d for d, ei in rot if ei is not None and mask >> ei & 1]
            if not kept:
                bc += 1
            else:
                for i, d in enumerate(kept):
                    sub_sigma[d] = kept[(i + 1) % len(kept)]
        seen = set()
        alpha = self.host.alpha
        for d0 in sub_sigma:
            if d0 in seen:
                continue
            bc += 1
            d = d0
            while d not in seen:
                seen.add(d)
                d = sub_sigma[alpha[d]]

        s = 2 * c - v_count + e_count - bc

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
                continue
            if cp[x] == x:
                c_perp += 1

        chi_perp = self.chi_sigma - (v_count - e_count)
        s_perp = 2 * c_perp - chi_perp - bc
        n = e_count - v_count + c
        g = self.g_total
        k = n - g + (s_perp - s) // 2
        l = (2 * g - s - s_perp) // 2
        return (c, v_count, e_count, n, bc, s, s_perp, k, l)


def assert_matches_reference(graph: EmbeddedSubgraph) -> None:
    """Every mask of the sweep, of ``scan`` and of the one-mask path equals
    the reference, and the frontier DP counts exactly the sweep's codes."""
    ref = ReferenceScanner(graph)
    sc = SubgraphScanner(graph)
    expected = [ref.invariants_of_mask(mask) for mask in range(1 << len(graph.sorted_edges))]
    assert [tuple(inv) for _, inv in scan(graph, cap=None)] == expected, graph
    assert [tuple(sc.invariants_of_mask(mask)) for mask in range(len(expected))] == expected
    assert sc.code_counts() == Counter(sc.codes()), graph


def random_marking(m: CombinatorialMap, rng: random.Random) -> EmbeddedSubgraph:
    verts = frozenset(v for v in m.vertex_ids if rng.random() < 0.7)
    edges = frozenset(
        e for e in m.edge_ids if set(m.edge_endpoints(e)) <= verts and rng.random() < 0.8
    )
    return EmbeddedSubgraph(m, verts, edges)


def test_sweep_matches_reference_on_every_map_up_to_4_edges(maps_up_to_4):
    for m in maps_up_to_4:
        assert_matches_reference(EmbeddedSubgraph.full(m))


def test_sweep_matches_reference_on_marked_subgraphs():
    # not cellulations: some vertices and edges unmarked, some isolated vertices
    rng = random.Random(23)
    for _ in range(300):
        m = random_map(rng.randint(1, 9), rng)
        if rng.random() < 0.3:
            m = CombinatorialMap(dict(m.sigma), dict(m.alpha), rng.randint(1, 2))
        assert_matches_reference(random_marking(m, rng))


def test_sweep_matches_reference_on_disconnected_hosts():
    # the frontier DP must not carry a class across host components
    rng = random.Random(41)
    for _ in range(60):
        m = random_map(rng.randint(1, 5), rng).disjoint_union(random_map(rng.randint(1, 5), rng))
        if rng.random() < 0.5:
            m = CombinatorialMap(dict(m.sigma), dict(m.alpha), rng.randint(1, 2))
        assert_matches_reference(random_marking(m, rng))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 2))
def test_frontier_dp_matches_sweep_up_to_14_edges(n_edges, seed, marked, isolated):
    rng = random.Random(seed)
    m = random_map(n_edges, rng)
    if isolated:
        m = CombinatorialMap(dict(m.sigma), dict(m.alpha), isolated)
    sc = SubgraphScanner(random_marking(m, rng) if marked else EmbeddedSubgraph.full(m))
    assert sc.code_counts() == Counter(sc.codes())


def test_code_counts_returns_a_fresh_dict(tb2, octagon):
    # a state passes its parent's dict on and copies it only on a merge, so
    # the dict returned must still be the caller's own
    path = CombinatorialMap({1: 1, 2: 3, 3: 2, 4: 5, 5: 4, 6: 6}, standard_alpha(3))
    graphs = [
        EmbeddedSubgraph(tb2, frozenset(tb2.vertex_ids), frozenset()),  # no step
        EmbeddedSubgraph.full(path),  # both branches of each bridge land on one state
        EmbeddedSubgraph.full(octagon),  # genus 2: some steps merge, some pass dicts on
    ]
    for graph in graphs:
        sc = SubgraphScanner(graph)
        counts = sc.code_counts()
        for code in counts:
            counts[code] += 1
        counts[-1] = 1
        assert sc.code_counts() == Counter(sc.codes()), graph


def test_pinned_counts_match_the_forced_masks_of_the_walk():
    # pinning edges in or out of H and counting over the rest is the walk's
    # count over the masks with those bits forced; some pinned-in sets
    # close a cycle, so a pinned link can fall inside one class
    rng = random.Random(61)
    seen = set()
    for trial in range(120):
        m = random_map(rng.randint(1, 8), rng)
        if trial % 3 == 1:
            m = m.disjoint_union(random_map(rng.randint(1, 4), rng))
        if trial % 4 == 2:
            m = CombinatorialMap(dict(m.sigma), dict(m.alpha), rng.randint(1, 2))
        graph = EmbeddedSubgraph.full(m) if trial % 2 else random_marking(m, rng)
        sc = SubgraphScanner(graph)
        codes = sc.codes()
        n = len(sc.edges)
        for _ in range(4):
            picks = [rng.choice("io.") for _ in range(n)]
            ins = [i for i, x in enumerate(picks) if x == "i"]
            outs = [i for i, x in enumerate(picks) if x == "o"]
            free = [i for i, x in enumerate(picks) if x == "."]
            fixed, forced = sum(1 << i for i in (*ins, *outs)), sum(1 << i for i in ins)
            want = Counter(code for mask, code in enumerate(codes) if mask & fixed == forced)
            assert frontier_counts(*sc.pinned(ins, outs, free)) == want, graph
            joined = {v: v for v in m.vertex_ids}
            for i in ins:
                u, w = (find(joined, v) for v in m.edge_endpoints(sc.edges[i]))
                if u == w:
                    seen.add("ins close a cycle")
                joined[w] = u
        seen.update(
            name
            for name, hit in (
                ("unmarked edge", n < m.n_edges),
                ("isolated vertex", m.isolated_vertices > 0),
                ("disconnected", len(m.dart_components) + m.isolated_vertices > 1),
            )
            if hit
        )
    assert len(seen) == 4, seen


def test_decode_catches_a_parity_violation(tb2):
    sc = SubgraphScanner(EmbeddedSubgraph.full(tb2))
    code = sc.codes()[0]
    sc.decode(code)
    sc.chi_sigma += 1
    with pytest.raises(InternalInvariantError, match="parity violation"):
        sc.decode(code)


def test_sweep_matches_reference_on_minor_residues():
    rng = random.Random(29)
    for _ in range(40):
        g = random_marking(random_map(rng.randint(2, 7), rng), rng)
        for e in g.sorted_edges:
            assert_matches_reference(g.delete_edge(e))
            if not g.is_loop(e):
                assert_matches_reference(g.contract_edge(e))


def test_sweep_matches_reference_on_tait_graphs():
    for genus in (0, 1, 2):
        for diagram in alternating_diagrams(6, genus, 7, seed=31 + genus):
            assert_matches_reference(tait_graph(diagram).graph)


def test_sweep_codes_fit_more_than_1024_corners():
    # 1200 corners at one vertex: a merge count above 1023 needs an 11-bit field
    rng = random.Random(37)
    darts = list(range(1, 1201))
    rng.shuffle(darts)
    host = CombinatorialMap(dict(zip(darts, darts[1:] + darts[:1])), standard_alpha(600))
    marked = frozenset(rng.sample(host.edge_ids, 3))
    assert_matches_reference(EmbeddedSubgraph(host, frozenset(host.vertex_ids), marked))


def test_tb2_marked_loop_examples(tb2):
    g = EmbeddedSubgraph(tb2, frozenset({1}), frozenset({1}))
    empty = invariants(g, [])
    assert (empty.c, empty.n, empty.bc, empty.s, empty.s_perp, empty.k, empty.l) == (
        1, 0, 1, 0, 2, 0, 0,
    )
    loop = invariants(g, [1])
    assert (loop.c, loop.n, loop.bc, loop.s, loop.s_perp, loop.k, loop.l) == (
        1, 1, 2, 0, 0, 0, 1,
    )


def test_sl_trivial_loop(sl):
    g = EmbeddedSubgraph.full(sl)
    inv = invariants(g, [1])
    assert (inv.c, inv.n, inv.s, inv.s_perp, inv.k, inv.l) == (1, 1, 0, 0, 1, 0)


def test_not_spanning_rejected(tb2):
    g = EmbeddedSubgraph(tb2, frozenset({1}), frozenset({1}))
    with pytest.raises(NotSpanning):
        invariants(g, [3])


def test_identities_on_random_corpus():
    rng = random.Random(13)
    for _ in range(40):
        m = random_map(rng.randint(1, 7), rng)
        g = EmbeddedSubgraph.full(m)
        sc = SubgraphScanner(g)
        two_g = 2 * m.total_genus
        for mask in range(1 << len(g.sorted_edges)):
            inv = sc.invariants_of_mask(mask)
            assert inv.n == inv.e - inv.v + inv.c
            assert inv.k >= 0 and inv.l >= 0
            assert inv.s % 2 == 0 and inv.s_perp % 2 == 0
            assert inv.s + inv.s_perp + 2 * inv.l == two_g
            assert inv.k + inv.l + inv.s == inv.n
            assert inv.s == 2 * inv.c - inv.v + inv.e - inv.bc


def test_dual_subgraph_complement(tb2, theta):
    assert dual_subgraph(tb2, [1]) == frozenset({3})
    assert dual_subgraph(tb2, [1, 3]) == frozenset()
    assert dual_subgraph(theta, [1]) == frozenset({3, 5})


def test_dual_subgraph_pairing_equalities():
    rng = random.Random(17)
    for _ in range(30):
        m = random_map(rng.randint(1, 6), rng)
        g = EmbeddedSubgraph.full(m)
        dual = m.dual()
        gd = EmbeddedSubgraph.full(dual)
        c_g = g.components_count()
        c_gs = gd.components_count()
        for mask in range(1 << m.n_edges):
            h = [g.sorted_edges[i] for i in range(m.n_edges) if mask >> i & 1]
            hs = dual_subgraph(m, h)
            a = invariants(g, h)
            b = invariants(gd, hs)
            assert a.s == b.s_perp and a.s_perp == b.s
            assert b.c - c_gs == a.k
            assert a.c - c_g == b.k


def test_isolated_vertices_enter_counts():
    from surfpoly.maps import parse_map_file

    g = parse_map_file("sigma: (1 2)\nalpha: (1 2)\nisolated: 2\n")
    inv = invariants(g, [])
    assert inv.c == 3 and inv.v == 3 and inv.bc == 3
    inv = invariants(g, [1])
    assert inv.c == 3 and inv.n == 1 and inv.k == 1


def _decide(uf, acc, branch):
    """A walk step that records bit i in ``uf`` and ORs it into ``acc``; a
    bit is decided once on each path, so a list shared between two children
    trips the assert."""
    i, bit = branch
    assert uf[i] is None
    uf[i] = bit
    return acc | bit << i


def _bits(n):
    return [((i, 0), (i, 1)) for i in range(n)]


@pytest.mark.parametrize("n", range(7))
def test_walk_yields_every_mask_in_order(n):
    assert list(walk([None] * n, 0, _bits(n), _decide)) == list(range(1 << n))


def test_walk_without_steps_yields_the_root_once():
    assert list(walk([], 5, [], _decide)) == [5]


def test_walk_streams():
    assert list(islice(walk([None] * 40, 0, _bits(40), _decide), 5)) == [0, 1, 2, 3, 4]
