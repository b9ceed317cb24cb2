import random

import pytest

from surfpoly.errors import NotSpanning
from surfpoly.invariants import SubgraphScanner, dual_subgraph, invariants
from surfpoly.maps import EmbeddedSubgraph, random_map


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
