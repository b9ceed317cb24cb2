import random
from fractions import Fraction

import pytest

from surfpoly.errors import DimensionMismatch
from surfpoly.homology import (
    Subspace,
    SurfaceHomology,
    fundamental_cycles,
    image_subspace,
    intersection_form,
    orthogonal_complement,
    radial_map,
    symplectic_invariants,
    tilde_p,
    tilde_p_specialized,
    verify_subgroup_duality,
)
from surfpoly.invariants import SubgraphScanner
from surfpoly.maps import EmbeddedSubgraph, random_map
from surfpoly.polynomials import p_bruteforce


def test_h1_dimensions(tb2, sl, octagon):
    assert SurfaceHomology(tb2).dim == 2
    assert SurfaceHomology(sl).dim == 0
    assert SurfaceHomology(octagon).dim == 4


def test_h1_dim_equals_twice_genus_random():
    rng = random.Random(23)
    for _ in range(25):
        m = random_map(rng.randint(1, 8), rng)
        assert SurfaceHomology(m).dim == 2 * m.total_genus


def test_basis_cycles_project_to_identity():
    rng = random.Random(24)
    for _ in range(15):
        m = random_map(rng.randint(1, 7), rng)
        hom = SurfaceHomology(m)
        basis = hom.basis_cycles()
        assert len(basis) == hom.dim
        for i, chain in enumerate(basis):
            coords = hom.project_chain(chain)
            assert [int(x) for x in coords] == [
                1 if j == i else 0 for j in range(hom.dim)
            ]


def test_intersection_form_tb2(tb2):
    sp = intersection_form(tb2)
    assert sp.dimension == 2
    assert sp.gram in (((0, 1), (-1, 0)), ((0, -1), (1, 0)))


def test_intersection_form_octagon(octagon):
    sp = intersection_form(octagon)
    assert sp.dimension == 4
    # nondegenerate and skew
    for i in range(4):
        assert sp.gram[i][i] == 0
        for j in range(4):
            assert sp.gram[i][j] == -sp.gram[j][i]


def test_image_subspace_examples(tb2, sl):
    g = EmbeddedSubgraph.full(tb2)
    v, k = image_subspace(g, [1])
    assert v.dim == 1 and k == 0
    v, k = image_subspace(EmbeddedSubgraph.full(sl), [1])
    assert v.dim == 0 and k == 1


def test_orthogonal_complement_properties(tb2):
    hom = SurfaceHomology(tb2)
    zero = Subspace.from_vectors([], 2)
    assert orthogonal_complement(zero, hom.form).dim == 2
    va, _ = image_subspace(EmbeddedSubgraph.full(tb2), [1], hom)
    assert orthogonal_complement(va, hom.form) == va  # isotropic line
    with pytest.raises(DimensionMismatch):
        orthogonal_complement(Subspace.from_vectors([], 4), hom.form)


def test_double_complement_random():
    rng = random.Random(29)
    for _ in range(20):
        m = random_map(rng.randint(1, 6), rng)
        hom = SurfaceHomology(m)
        g = EmbeddedSubgraph.full(m)
        edges = g.sorted_edges
        h = [e for e in edges if rng.random() < 0.5]
        v, _ = image_subspace(g, h, hom)
        perp = orthogonal_complement(v, hom.form)
        assert v.dim + perp.dim == hom.dim
        assert orthogonal_complement(perp, hom.form) == v


def test_cross_oracle_symplectic_vs_combinatorial():
    rng = random.Random(31)
    for _ in range(30):
        m = random_map(rng.randint(1, 6), rng)
        g = EmbeddedSubgraph.full(m)
        hom = SurfaceHomology(m)
        sc = SubgraphScanner(g)
        for mask in range(1 << m.n_edges):
            h = [g.sorted_edges[i] for i in range(m.n_edges) if mask >> i & 1]
            inv = sc.invariants_of_mask(mask)
            v, k = image_subspace(g, h, hom)
            s, s_perp, l = symplectic_invariants(v, hom.form)
            assert k == inv.k
            assert (s, s_perp, l) == (inv.s, inv.s_perp, inv.l)


def test_fundamental_cycles_are_cycles(theta):
    g = EmbeddedSubgraph.full(theta)
    cycles = fundamental_cycles(g, g.sorted_edges)
    assert len(cycles) == 2  # nullity of theta
    host = theta
    for chain in cycles:
        boundary: dict[int, Fraction] = {}
        for e, coeff in chain.items():
            t, h = host.edge_endpoints(e)
            boundary[h] = boundary.get(h, Fraction(0)) + coeff
            boundary[t] = boundary.get(t, Fraction(0)) - coeff
        assert all(x == 0 for x in boundary.values())


def test_tilde_p_tb2(tb2):
    parts = tilde_p(EmbeddedSubgraph.full(tb2))
    # four subgraphs, four distinct subgroups: 0, <a>, <b>, H1
    assert len(parts) == 4
    assert sorted(v.dim for v, _ in parts) == [0, 1, 1, 2]
    assert all(str(poly) == "1" for _, poly in parts)
    spec = tilde_p_specialized(parts, SurfaceHomology(tb2).form)
    assert spec == p_bruteforce(tb2)


def test_tilde_p_sl(sl):
    parts = tilde_p(EmbeddedSubgraph.full(sl))
    assert len(parts) == 1
    v, poly = parts[0]
    assert v.dim == 0 and str(poly) == "1 + Y"


def test_tilde_p_distinguishes_embeddings(tb2, sl):
    # same abstract one-loop graph, trivial vs essential embedding
    trivial = tilde_p(EmbeddedSubgraph.full(sl))
    essential = tilde_p(EmbeddedSubgraph(tb2, frozenset({1}), frozenset({1})))
    dims_t = sorted(v.dim for v, _ in trivial)
    dims_e = sorted(v.dim for v, _ in essential)
    assert dims_t == [0] and dims_e == [0, 1]


def test_tilde_p_specialization_random():
    rng = random.Random(37)
    for _ in range(12):
        m = random_map(rng.randint(1, 5), rng)
        parts = tilde_p(EmbeddedSubgraph.full(m))
        assert tilde_p_specialized(parts, SurfaceHomology(m).form) == p_bruteforce(m)


def test_radial_map_structure(tb2, sl, theta):
    rng = random.Random(41)
    for m in [tb2, sl, theta] + [random_map(rng.randint(1, 6), rng) for _ in range(10)]:
        radial, primal, dual_chains = radial_map(m)
        assert radial.n_vertices == m.n_vertices + m.n_faces - 2 * m.isolated_vertices
        assert radial.n_edges == 2 * m.n_edges
        assert all(len(f) == 4 for f in radial.face_cycles)
        assert radial.total_genus == m.total_genus
        assert set(primal) == set(m.edge_ids) and set(dual_chains) == set(m.edge_ids)


def test_subgroup_duality_examples(tb2, theta):
    assert verify_subgroup_duality(tb2).all_passed
    rep = verify_subgroup_duality(theta)  # sphere: all subspaces 0-dimensional
    assert rep.all_passed


def test_subgroup_duality_random():
    rng = random.Random(43)
    for _ in range(10):
        m = random_map(rng.randint(1, 5), rng)
        assert verify_subgroup_duality(m).all_passed
