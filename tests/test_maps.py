import random
from collections import Counter
from itertools import permutations, product
from math import factorial, prod

import pytest

from surfpoly.corpus import all_maps
from test_invariants import random_marking

from surfpoly.errors import (
    AlphaNotInvolution,
    DanglingDart,
    EdgeNotInGraph,
    LoopContraction,
    MalformedPermutation,
    MapFormatError,
)
from surfpoly.maps import (
    CombinatorialMap,
    EmbeddedSubgraph,
    canonical_code,
    parse_map,
    parse_map_file,
    random_map,
    serialize_map,
    UnionFind,
    standard_alpha,
)


def test_parse_tb2_counts(tb2):
    assert (tb2.n_vertices, tb2.n_edges, tb2.n_faces) == (1, 2, 1)
    assert tb2.genus() == ([1], 1)


def test_parse_sl_counts(sl):
    assert (sl.n_vertices, sl.n_edges, sl.n_faces) == (1, 1, 2)
    assert sl.total_genus == 0


def test_parse_sb_counts(sb):
    assert (sb.n_vertices, sb.n_edges, sb.n_faces) == (2, 1, 1)
    assert sb.total_genus == 0


def test_parse_rejects_bad_input():
    with pytest.raises(MalformedPermutation):
        parse_map("sigma: (1 2)(2 3)\nalpha: (1 2)(3 4)\n")
    with pytest.raises(AlphaNotInvolution):
        parse_map("sigma: (1 2 3)\nalpha: (1 2 3)\n")
    with pytest.raises(DanglingDart):
        parse_map("sigma: (1 2)(3 4)\nalpha: (1 2)\n")
    with pytest.raises(MapFormatError):
        parse_map("sigma: (1 3)\nalpha: (1 3)\n")  # gap in dart ids
    with pytest.raises(MapFormatError):
        parse_map("alpha: (1 2)\n")  # missing sigma


def reference_chain(m, darts):
    """The per-caller loop that `CombinatorialMap.chain` replaced."""
    chain = {}
    for d in darts:
        e = min(d, m.alpha[d])
        chain[e] = chain.get(e, 0) + (1 if d == e else -1)
    return {e: c for e, c in chain.items() if c}


def test_chain_matches_reference_loop():
    rng = random.Random(17)
    for _ in range(300):
        m = random_map(rng.randint(1, 8), rng)
        darts = [rng.choice(m.darts) for _ in range(rng.randint(0, 12))]
        if darts and rng.random() < 0.5:
            # a dart and its alpha-partner cancel
            darts.insert(rng.randrange(len(darts) + 1), m.alpha[rng.choice(darts)])
        chain = m.chain(darts)
        assert chain == reference_chain(m, darts)
        assert all(chain.values())
        # a path taken in reverse is its darts under alpha
        assert m.chain(m.alpha[d] for d in reversed(darts)) == {e: -c for e, c in chain.items()}
    m = random_map(3, rng)  # standard alpha: (1 2)(3 4)(5 6)
    assert m.chain([1, 2]) == {} and m.chain([]) == {}
    assert m.chain([2, 5, 2, 3, 4]) == {1: -2, 5: 1}


def reference_dart_components(m):
    uf = UnionFind(m.sigma)
    for d in m.sigma:
        uf.union(d, m.sigma[d])
        uf.union(d, m.alpha[d])
    groups = {}
    for d in m.sigma:
        groups.setdefault(uf.find(d), set()).add(d)
    return tuple(frozenset(g) for _, g in sorted(groups.items(), key=lambda kv: min(kv[1])))


def reference_genus(m):
    """Per-component genera from the vertex and face sets of each dart
    component, and the total."""
    genera = []
    for comp in reference_dart_components(m):
        v = len({m.vertex_of[d] for d in comp})
        e = sum(1 for d in comp if d < m.alpha[d])
        f = len({m.face_of[d] for d in comp})
        genera.append((2 - (v - e + f)) // 2)
    genera.extend([0] * m.isolated_vertices)
    return genera, sum(genera)


def test_dart_components_match_union_find_reference(tb2, theta):
    rng = random.Random(19)
    maps = [tb2.disjoint_union(theta), theta.disjoint_union(tb2).disjoint_union(tb2)]
    maps += [random_map(rng.randint(1, 8), rng) for _ in range(40)]
    maps += [maps[i].disjoint_union(maps[i + 1]) for i in range(2, 20)]
    maps += [CombinatorialMap(dict(m.sigma), dict(m.alpha), rng.randint(1, 3)) for m in maps[42:]]
    maps.append(CombinatorialMap({}, {}, 2))
    assert sum(m.isolated_vertices > 0 and len(m.dart_components) > 1 for m in maps) >= 18
    for m in maps:
        assert m.dart_components == reference_dart_components(m)
        assert m.genus() == reference_genus(m)


def test_faces_examples(tb2, sl, theta):
    assert tb2.faces() == ((1, 4, 2, 3),)
    assert len(sl.faces()) == 2
    assert len(theta.faces()) == 3
    assert theta.n_vertices - theta.n_edges + theta.n_faces == 2


def test_genus_additive_over_disjoint_union(tb2):
    two = tb2.disjoint_union(tb2)
    assert two.genus() == ([1, 1], 2)


def test_dual_examples(tb2, sl, sb, theta):
    d = tb2.dual()
    assert (d.n_vertices, d.n_edges, d.n_faces) == (1, 2, 1)
    assert canonical_code(d) == canonical_code(tb2)  # self-dual
    dt = theta.dual()
    assert (dt.n_vertices, dt.n_edges, dt.n_faces) == (3, 3, 2)
    assert canonical_code(sb.dual()) == canonical_code(sl)


def test_dual_is_involution(tb2, theta):
    rng = random.Random(1)
    for m in [tb2, theta] + [random_map(rng.randint(1, 6), rng) for _ in range(20)]:
        assert m.dual().dual() == m
        assert m.dual().total_genus == m.total_genus


def test_delete_edge_keeps_host(tb2):
    g = EmbeddedSubgraph.full(tb2)
    g2 = g.delete_edge(1)
    assert g2.host is tb2
    assert g2.g_edges == frozenset({3})
    g3 = g2.delete_edge(3)
    assert g3.g_edges == frozenset()
    assert g3.host.total_genus == 1
    with pytest.raises(EdgeNotInGraph):
        g3.delete_edge(1)


def test_contract_bridge_gives_isolated_vertex(sb):
    g = EmbeddedSubgraph.full(sb).contract_edge(1)
    assert g.host.n_edges == 0
    assert g.host.isolated_vertices == 1
    assert g.host.genus() == ([0], 0)


def test_contract_theta_edge(theta):
    g = EmbeddedSubgraph.full(theta).contract_edge(1)
    host = g.host
    assert (host.n_vertices, host.n_edges, host.n_faces) == (1, 2, 3)
    assert host.genus()[1] == 0
    # the two remaining loops are non-interleaved (trivial)
    assert all(g.is_loop(e) for e in g.sorted_edges)


def test_contract_loop_rejected(tb2):
    with pytest.raises(LoopContraction):
        EmbeddedSubgraph.full(tb2).contract_edge(1)


def test_contraction_preserves_genus_random():
    rng = random.Random(7)
    checked = 0
    while checked < 25:
        m = random_map(rng.randint(2, 12), rng)
        g = EmbeddedSubgraph.full(m)
        non_loops = [e for e in g.sorted_edges if not g.is_loop(e)]
        if not non_loops:
            continue
        e = rng.choice(non_loops)
        g2 = g.contract_edge(e)
        assert g2.host.genus()[1] == m.total_genus
        assert g2.host.n_faces == m.n_faces
        checked += 1


def reference_contract_edge(m, e):
    """The retired single-edge contraction: splice the two vertex rotations
    of a non-loop edge into one."""

    def cycle_from(d):
        cyc = [d]
        x = m.sigma[d]
        while x != d:
            cyc.append(x)
            x = m.sigma[x]
        return cyc

    d1, d2 = e, m.alpha[e]
    cyc_u, cyc_w = cycle_from(d1), cycle_from(d2)
    merged = cyc_u[1:] + cyc_w[1:]
    sigma = {d: x for d, x in m.sigma.items() if d not in cyc_u and d not in cyc_w}
    alpha = {d: x for d, x in m.alpha.items() if d not in (d1, d2)}
    for i, d in enumerate(merged):
        sigma[d] = merged[(i + 1) % len(merged)]
    return CombinatorialMap(sigma, alpha, m.isolated_vertices + (not merged))


def bridges(g):
    """Marked non-loop edges whose removal raises the component count, one
    union-find per edge (the retired ``EmbeddedSubgraph.bridges``)."""
    out = set()
    for e in g.g_edges:
        if g.is_loop(e):
            continue
        uf = UnionFind(g.g_vertices)
        for e2 in g.g_edges - {e}:
            uf.union(*g.host.edge_endpoints(e2))
        u, w = g.host.edge_endpoints(e)
        if uf.find(u) != uf.find(w):
            out.add(e)
    return frozenset(out)


def random_forest(m, rng):
    """Some edges of m, in random order, that close no cycle."""
    uf = UnionFind(m.vertex_ids)
    forest = []
    for e in rng.sample(m.edge_ids, len(m.edge_ids)):
        u, w = (uf.find(v) for v in m.edge_endpoints(e))
        if u != w and rng.random() < 0.7:
            uf.union(u, w)
            forest.append(e)
    return forest


def assert_contract_matches_reference(m, forest):
    expected = m
    for e in forest:  # edge ids survive contraction
        expected = reference_contract_edge(expected, e)
    got = m.contract(forest)
    assert got == expected, (serialize_map(m), forest)
    return got


def test_contract_matches_sequential_splices_up_to_4_edges(maps_up_to_4):
    rng = random.Random(41)
    for m in maps_up_to_4:
        for _ in range(3):
            assert_contract_matches_reference(m, random_forest(m, rng))


def test_contract_matches_sequential_splices_random():
    # hosts with isolated vertices and several components; counts the
    # forests that leave a whole tree without darts
    rng = random.Random(43)
    new_isolated = 0
    for _ in range(400):
        m = random_map(rng.randint(1, 14), rng)
        if rng.random() < 0.3:
            m = CombinatorialMap(dict(m.sigma), dict(m.alpha), rng.randint(1, 2))
        if rng.random() < 0.3:
            m = m.disjoint_union(random_map(rng.randint(1, 3), rng))
        forest = random_forest(m, rng)
        got = assert_contract_matches_reference(m, forest)
        new_isolated += got.isolated_vertices > m.isolated_vertices
        assert got.genus()[1] == m.total_genus
        assert got.n_vertices == m.n_vertices - len(forest)
    assert new_isolated > 10


def test_contract_edge_keeps_marks():
    rng = random.Random(47)
    checked = 0
    for _ in range(300):
        m = random_map(rng.randint(1, 9), rng)
        if rng.random() < 0.3:
            m = CombinatorialMap(dict(m.sigma), dict(m.alpha), rng.randint(1, 2))
        g = random_marking(m, rng)
        for e in g.sorted_edges:
            if g.is_loop(e):
                continue
            u, w = m.edge_endpoints(e)
            spliced = [d for d in m.sigma if m.vertex_of[d] in (u, w) and d not in (e, m.alpha[e])]
            marks = set(g.g_vertices - {u, w})
            if spliced:
                marks.add(min(spliced))  # id of the spliced vertex
            assert g.contract_edge(e) == EmbeddedSubgraph(
                reference_contract_edge(m, e), frozenset(marks), g.g_edges - {e}
            ), (serialize_map(g), e)
            checked += 1
    assert checked > 250


def test_contract_rejects_unknown_edges_and_cycles(tb2, theta):
    for m, forest in ((tb2, [2]), (tb2, [99]), (theta, [theta.edge_ids[0], 99])):
        with pytest.raises(EdgeNotInGraph):
            m.contract(forest)
    with pytest.raises(LoopContraction):
        tb2.contract([1])
    with pytest.raises(LoopContraction):
        theta.contract(theta.edge_ids[:2])
    e = theta.edge_ids[0]
    with pytest.raises(LoopContraction):
        theta.contract([e, e])
    assert theta.contract([]) == theta
    partial = EmbeddedSubgraph(theta, frozenset(theta.vertex_ids), frozenset(theta.edge_ids[1:]))
    with pytest.raises(EdgeNotInGraph):
        partial.contract_edge(e)


def test_canonical_code_isomorphism_invariance(tb2, sl):
    rng = random.Random(3)
    for _ in range(20):
        m = random_map(rng.randint(1, 6), rng)
        darts = list(m.darts)
        images = darts[:]
        rng.shuffle(images)
        relabeled = m.relabeled(dict(zip(darts, images)))
        assert canonical_code(relabeled) == canonical_code(m)
    assert canonical_code(tb2) != canonical_code(sl)


def test_canonical_code_sees_marks(tb2):
    g_a = EmbeddedSubgraph(tb2, frozenset({1}), frozenset({1}))
    g_b = EmbeddedSubgraph(tb2, frozenset({1}), frozenset({3}))
    # swapping the two loops is a map automorphism
    assert g_a.canonical_code() == g_b.canonical_code()
    g_none = EmbeddedSubgraph(tb2, frozenset({1}), frozenset())
    assert g_a.canonical_code() != g_none.canonical_code()


def test_serialize_round_trip(tb2, sl, sb, theta, fig2):
    rng = random.Random(11)
    graphs = [EmbeddedSubgraph.full(m) for m in (tb2, sl, sb, theta)] + [fig2]
    graphs += [EmbeddedSubgraph.full(random_map(rng.randint(1, 6), rng)) for _ in range(10)]
    for g in graphs:
        text = serialize_map(g, canonical=True)
        again = parse_map_file(text)
        assert serialize_map(again, canonical=True) == text
        # parse∘serialize is the identity on canonical forms, bit-exact
        assert serialize_map(again) == text


def test_serialize_partial_marks(fig2, tb2):
    text = serialize_map(fig2)
    assert "graph_edges: 1 3" in text
    back = parse_map_file(text)
    assert back.g_edges == fig2.g_edges
    partial = EmbeddedSubgraph(fig2.host, frozenset({1}), frozenset({1}))
    text = serialize_map(partial)
    assert "graph_vertices: 1" in text and "graph_edges: 1" in text
    assert parse_map_file(text).g_vertices == frozenset({1})


def test_random_map_is_valid_cellulation():
    rng = random.Random(5)
    for _ in range(30):
        m = random_map(rng.randint(1, 10), rng)
        genera, total = m.genus()
        assert all(g >= 0 for g in genera)
        comp_counts = m.n_vertices - m.n_edges + m.n_faces
        assert comp_counts == sum(2 - 2 * g for g in genera)


def test_isolated_vertices_parse_and_dual():
    g = parse_map_file("sigma: (1 2)\nalpha: (1 2)\nisolated: 2\n")
    assert g.host.n_components == 3
    assert g.host.genus() == ([0, 0, 0], 0)
    d = g.host.dual()
    assert d.isolated_vertices == 2


def test_empty_map():
    g = parse_map_file("sigma: ()\nalpha: ()\n")
    assert g.host.n_components == 0
    assert g.host.genus() == ([], 0)


def reference_all_maps(max_edges):
    """The retired enumeration: every rotation system, deduplicated by
    canonical code."""
    out = [CombinatorialMap({}, {})]
    for m in range(1, max_edges + 1):
        darts = list(range(1, 2 * m + 1))
        seen = set()
        for images in permutations(darts):
            cm = CombinatorialMap(dict(zip(darts, images)), standard_alpha(m))
            code = canonical_code(cm)
            if code not in seen:
                seen.add(code)
                out.append(cm)
    return out


def _isomorphism_classes(m):
    """Burnside: the number of conjugacy orbits of rotation systems on 2m
    darts under the 2^m m! relabelings that commute with the pairing, as
    the mean size of their centralizers in the symmetric group."""
    total = 0
    for order in permutations(range(m)):
        for flips in product((0, 1), repeat=m):
            psi = {}
            for k, (i, f) in enumerate(zip(order, flips)):
                psi[2 * k + 1], psi[2 * k + 2] = 2 * i + 1 + f, 2 * i + 2 - f
            lengths = Counter()
            seen = set()
            for d in psi:
                n = 0
                while d not in seen:
                    seen.add(d)
                    d = psi[d]
                    n += 1
                if n:
                    lengths[n] += 1
            total += prod(k ** c * factorial(c) for k, c in lengths.items())
    return total // (2 ** m * factorial(m))


def test_all_maps_matches_canonical_code_dedupe():
    assert all_maps(3) == reference_all_maps(3)
    four = [m for m in all_maps(4) if m.n_edges == 4]
    codes = {canonical_code(m) for m in four}
    assert len(codes) == len(four) == _isomorphism_classes(4)
    assert [_isomorphism_classes(m) for m in (1, 2, 3)] == [
        sum(1 for x in all_maps(3) if x.n_edges == m) for m in (1, 2, 3)
    ]
