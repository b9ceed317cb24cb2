import importlib
import random
from collections import Counter
from fractions import Fraction

import pytest

import surfpoly.homology as homology_module
from surfpoly.corpus import alternating_diagrams, random_maps, random_maps_of_genus
from surfpoly.errors import DimensionMismatch, InternalInvariantError
from surfpoly.homology import (
    Subspace,
    SurfaceHomology,
    _cycle_span,
    _insert,
    _integral,
    _pack,
    _radial_links,
    _Spans,
    _subgroup_walk,
    fundamental_cycles,
    image_subspace,
    intersection_form,
    nullspace,
    orthogonal_complement,
    radial_map,
    rref,
    symplectic_invariants,
    tilde_p,
    tilde_p_specialized,
    verify_subgroup_duality,
)
from surfpoly.invariants import SubgraphScanner, scan
from surfpoly.laurent import LaurentPolynomial
from surfpoly.links import states, tait_cycle_classes, tait_graph
from surfpoly.maps import CombinatorialMap, EmbeddedSubgraph, UnionFind, random_map
from surfpoly.polynomials import p_bruteforce
from test_invariants import random_marking
from test_links import reference_tait


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


# -- the per-chain Fraction route that per-edge integer classes replaced --------

def reference_project(hom: SurfaceHomology, chain) -> tuple[Fraction, ...]:
    """The retired reduction of one chain: its unit vector over the loops of
    the contracted map, minus the boundary-RREF rows at its pivots, read off
    at the free columns."""
    vec = [Fraction(0)] * len(hom.loops)
    for e, coeff in chain.items():
        if e in hom.loop_index:
            vec[hom.loop_index[e]] += Fraction(coeff)
        elif e not in hom.forest:
            raise InternalInvariantError(f"unknown edge {e} in chain")
    for row, pc in zip(hom.boundary_rref, hom.boundary_pivots):
        f = vec[pc]
        if f:
            for i in range(len(hom.loops)):
                if row[i]:
                    vec[i] -= f * row[i]
    return tuple(vec[c] for c in hom.free_cols)


def reference_fundamental_cycles(graph: EmbeddedSubgraph, h_edges):
    """The retired fundamental cycles: root a spanning forest of H, then
    close each non-forest edge through the two paths to the root."""
    host = graph.host
    h = sorted(set(h_edges))
    parent = {v: None for v in graph.g_vertices}
    uf = UnionFind(graph.g_vertices)
    rest = []
    adj = {v: [] for v in graph.g_vertices}
    for e in h:
        u, w = host.edge_endpoints(e)
        if uf.find(u) != uf.find(w):
            uf.union(u, w)
            adj[u].append((w, e))
            adj[w].append((u, e))
        else:
            rest.append(e)
    depth = {}
    for root in sorted(graph.g_vertices):
        if root in depth:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w, e in adj[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    parent[w] = (v, e, +1 if host.edge_endpoints(e)[0] == v else -1)
                    stack.append(w)

    def path_to_root(v):
        chain = {}
        while parent[v] is not None:
            up, e, sign_down = parent[v]
            chain[e] = chain.get(e, Fraction(0)) - sign_down
            v = up
        return chain

    cycles = []
    for e in rest:
        u, w = host.edge_endpoints(e)
        chain = {e: Fraction(1)}
        for ee, c in path_to_root(w).items():
            chain[ee] = chain.get(ee, Fraction(0)) + c
        for ee, c in path_to_root(u).items():
            chain[ee] = chain.get(ee, Fraction(0)) - c
        cycles.append({ee: c for ee, c in chain.items() if c})
    return cycles


def reference_image(graph, h, hom):
    cycles = reference_fundamental_cycles(graph, h)
    v = Subspace.from_vectors([reference_project(hom, c) for c in cycles], hom.dim)
    return v, len(cycles) - v.dim


def reference_curves(diagram, choices):
    """The retired state tracing: a union-find over darts per state, curves
    in order of their orbits' least darts, each traced from that dart."""
    base = diagram.base
    tau = {}
    for choice, v in zip(choices, diagram.crossings):
        o1, o2 = sorted(diagram.over[v])
        if choice:
            pairs = ((o1, base.sigma[o1]), (o2, base.sigma[o2]))
        else:
            pairs = ((o1, base.sigma[o2]), (o2, base.sigma[o1]))
        for x, y in pairs:
            tau[x] = y
            tau[y] = x
    uf = UnionFind(base.darts)
    for d in base.darts:
        uf.union(d, base.alpha[d])
        uf.union(d, tau[d])
    orbits = {}
    for d in base.darts:
        orbits.setdefault(uf.find(d), set()).add(d)
    curves = []
    for _, orbit in sorted(orbits.items(), key=lambda kv: min(kv[1])):
        start = min(orbit)
        cycle = [start]
        d = tau[base.alpha[start]]
        while d != start:
            cycle.append(d)
            d = tau[base.alpha[d]]
        curves.append(tuple(cycle))
    return tuple(curves)


def _maps_of_genus_0_to_3():
    maps = []
    for genus in range(4):
        maps += random_maps_of_genus(4, genus, 9, seed=300 + genus, min_edges=2)
    return maps


def test_project_chain_matches_reference_reduction():
    rng = random.Random(301)
    maps = _maps_of_genus_0_to_3()
    maps += [a.disjoint_union(b) for a, b in zip(maps[::2], maps[1::2])]
    for m in maps:
        hom = SurfaceHomology(m)
        assert all(not any(hom.edge_class[e]) for e in hom.forest)
        for _ in range(20):
            chain = {}
            for e in rng.sample(m.edge_ids, rng.randint(1, m.n_edges)):
                if rng.random() < 0.3:
                    chain[e] = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
                else:
                    chain[e] = rng.choice([-2, -1, 1, 3, Fraction(-1), Fraction(2)])
            assert hom.project_chain(chain) == reference_project(hom, chain)
        with pytest.raises(InternalInvariantError):
            hom.project_chain({max(m.darts) + 1: 1})


def _marked_subgraphs():
    """Graphs that are not cellulations: unmarked vertices and edges, and
    1-2 isolated vertices in the host."""
    rng = random.Random(310)
    return [
        random_marking(CombinatorialMap(dict(m.sigma), dict(m.alpha), rng.randint(1, 2)), rng)
        for m in random_maps(40, 6, 3)
    ]


def test_image_subspace_and_tilde_p_match_reference_route(maps_up_to_4):
    maps = list(maps_up_to_4) + random_maps_of_genus(4, 2, 7, seed=302, min_edges=5)
    marked = _marked_subgraphs()
    assert any(len(g.g_vertices) < len(g.host.vertex_ids) for g in marked)
    assert any(len(g.g_edges) < len(g.host.edge_ids) for g in marked)
    for g in [EmbeddedSubgraph.full(m) for m in maps] + marked:
        hom = SurfaceHomology(g.host)
        c_g = g.components_count()
        grouped: dict = {}
        for mask, inv in scan(g, 20):
            h = [e for i, e in enumerate(g.sorted_edges) if mask >> i & 1]
            assert fundamental_cycles(g, h) == reference_fundamental_cycles(g, h)
            v, k = reference_image(g, h, hom)
            assert image_subspace(g, h, hom) == (v, k)
            grouped.setdefault(v, Counter())[(inv.c - c_g, k)] += 1
        expected = sorted(
            ((v, LaurentPolynomial(("X", "Y"), dict(b))) for v, b in grouped.items()),
            key=lambda vp: (vp[0].dim, vp[0].basis),
        )
        assert tilde_p(g) == expected


def test_states_and_tait_classes_match_reference_route():
    diagrams = alternating_diagrams(5, 1, 6, seed=303) + alternating_diagrams(
        4, 2, 7, seed=304, min_crossings=4
    )
    for d in diagrams:
        hom = SurfaceHomology(d.surface_map)
        tait = tait_graph(d)
        edge_chain = reference_tait(d)[3]
        for st in states(d):
            assert st.curves == reference_curves(d, st.choices)
            v = Subspace.from_vectors(
                [reference_project(hom, d.base.chain(c)) for c in st.curves], hom.dim
            )
            assert (st.subspace, st.r, st.k) == (v, v.dim, st.c - v.dim)
            h = [tait.crossing_edge[x] for x, chosen in zip(d.crossings, st.choices) if chosen]
            pushed = []
            for cycle in reference_fundamental_cycles(tait.graph, h):
                chain: dict = {}
                for e, coeff in cycle.items():
                    for be, bc in edge_chain[e].items():
                        chain[be] = chain.get(be, Fraction(0)) + coeff * bc
                pushed.append(reference_project(hom, chain))
            assert tait_cycle_classes(d, tait, h, hom) == Subspace.from_vectors(pushed, hom.dim)


# -- the Fraction elimination and the per-mask spans that integer
# elimination and the class walk replaced ------------------------------------

def reference_rref(rows):
    """The retired reduced row echelon form over Fraction: normalise each
    pivot row, then clear its column in every other row."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col]
        if inv != 1:
            mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _random_matrix(rng):
    """Rows drawn from the span of a few random rational generators (so the
    rank is often below the row count), with zero rows mixed in, and with
    integral rows often given as ints."""
    nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
    gens = [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ncols)]
        for _ in range(rng.randint(0, min(nrows, ncols)))
    ]
    rows = []
    for _ in range(nrows):
        if not gens or rng.random() < 0.15:
            rows.append([0] * ncols)
            continue
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in gens]
        row = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(ncols)]
        if all(x.denominator == 1 for x in row) and rng.random() < 0.5:
            row = [int(x) for x in row]
        rows.append(row)
    return rows, ncols


def test_integer_elimination_matches_fraction_reference():
    rng = random.Random(305)
    deficient = 0
    for _ in range(400):
        rows, ncols = _random_matrix(rng)
        red, pivots = reference_rref(rows)
        deficient += len(red) < len(rows)
        assert rref(rows) == (red, pivots)
        # the same rows inserted one at a time, into canonical rows and into
        # a span table: after every step the rows are the prefix's RREF, and
        # a row already in the span changes nothing
        spans = _Spans(ncols)
        done, done_pivots, span = [], [], 0
        for k, x in enumerate(_integral(rows)):
            before, interned = [*done], len(spans.spaces)
            grew = _insert(done, done_pivots, x)
            ref, ref_pivots = reference_rref(rows[: k + 1])
            assert grew == (len(ref) > len(before))
            assert done_pivots == ref_pivots
            assert [[Fraction(a, row[p]) for a in row] for row, p in zip(done, done_pivots)] == ref
            grown = spans.extend(span, _pack(x))
            if grew:
                assert spans.spaces[grown] == Subspace.from_vectors(rows[: k + 1], ncols)
            else:
                assert done == before
                assert grown == span and len(spans.spaces) == interned
            span = grown
        v = Subspace.from_vectors(rows, ncols)
        assert v.basis == tuple(map(tuple, red))
        assert v == Subspace.from_vectors(red, ncols)
        kernel = nullspace(rows, ncols)
        assert all(type(x) is int for vec in kernel for x in vec)
        assert len(kernel) == ncols - len(pivots)
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows for vec in kernel)
        free = [c for c in range(ncols) if c not in pivots]
        for vec, c in zip(kernel, free):
            assert vec[c] != 0 and not any(vec[f] for f in free if f != c)
    assert deficient > 100


def test_intersection_dimension_formula():
    rng = random.Random(306)
    for _ in range(150):
        n = rng.randint(1, 6)
        a, b = (
            Subspace.from_vectors(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))], n
            )
            for _ in range(2)
        )
        both = a.intersection(b)
        total = Subspace.from_vectors([*a.basis, *b.basis], n)
        assert both.dim == a.dim + b.dim - total.dim
        assert Subspace.from_vectors([*a.basis, *both.basis], n) == a
        assert Subspace.from_vectors([*b.basis, *both.basis], n) == b


def _genus_1_to_3_maps():
    return [
        m for g in (1, 2, 3) for m in random_maps_of_genus(3, g, 7, seed=306 + g, min_edges=2 * g)
    ]


def test_class_walk_matches_per_mask_cycle_spans(maps_up_to_4):
    for m in list(maps_up_to_4) + _genus_1_to_3_maps():
        hom, primal, dual = _radial_links(m, m.dual())
        spans = _Spans(hom.dim)
        masks = 0
        walk = _subgroup_walk(primal, dual, spans)
        for mask, ((v_h, n_h), (v_hs, n_hs)) in enumerate(walk):
            h = [link for i, link in enumerate(primal) if mask >> i & 1]
            hs = [link for i, link in enumerate(dual) if not mask >> i & 1]
            assert (spans.spaces[v_h], n_h) == _cycle_span(h, hom.dim)
            assert (spans.spaces[v_hs], n_hs) == _cycle_span(hs, hom.dim)
            masks += 1
        assert masks == 1 << m.n_edges


def first_failing_mask(m):
    """Subgroup duality checked one mask at a time, each V(H) and V(H*) from
    its own union-find pass: the least mask that fails, or None."""
    dual_m = m.dual()
    hom, primal, dual = _radial_links(m, dual_m)
    g, g_dual = EmbeddedSubgraph.full(m), EmbeddedSubgraph.full(dual_m)
    dual_invs = [inv for _, inv in scan(g_dual, 20)]
    full = (1 << m.n_edges) - 1
    for mask, inv_h in scan(g, 20):
        v_h, _ = _cycle_span([x for i, x in enumerate(primal) if mask >> i & 1], hom.dim)
        v_hs, _ = _cycle_span([y for i, y in enumerate(dual) if not mask >> i & 1], hom.dim)
        inv_hs = dual_invs[full ^ mask]
        if (
            v_hs != orthogonal_complement(v_h, hom.form)
            or v_h.dim + v_hs.dim != hom.dim
            or inv_hs.c - g_dual.components_count() != inv_h.k
            or inv_h.c - g.components_count() != inv_hs.k
        ):
            return mask
    return None


def test_subgroup_duality_detects_swapped_dual_chains(tb2, octagon, monkeypatch):
    real = homology_module.radial_map

    def swapped(m):
        radial, primal, dual = real(m)
        a, b = sorted(dual)[:2]
        return radial, primal, {**dual, a: dual[b], b: dual[a]}

    monkeypatch.setattr(homology_module, "radial_map", swapped)
    for m in (tb2, octagon, *random_maps_of_genus(2, 2, 7, seed=307, min_edges=6)):
        rep = verify_subgroup_duality(m)
        first = first_failing_mask(m)
        assert not rep.all_passed and first is not None
        assert rep.verdicts[0].witness == f"map={m!r} mask={first}"


def test_subgroup_duality_builds_no_scanner(tb2, octagon, monkeypatch):
    # the package attribute ``surfpoly.invariants`` is the function of that
    # name, so the module is fetched by its full name
    engine = importlib.import_module("surfpoly.invariants")

    def refuse(*args, **kwargs):
        raise AssertionError("subgroup duality swept the subgraphs with the scanner")

    for module, name in [(engine, "SubgraphScanner"), (engine, "scan")]:
        monkeypatch.setattr(module, name, refuse)
    for m in (tb2, octagon, *random_maps_of_genus(2, 2, 7, seed=308, min_edges=6)):
        assert verify_subgroup_duality(m).all_passed


@pytest.mark.parametrize(
    "pick, side",
    [(0, 1), (1, 1), (-1, 1), (0, 0), (1, 0), (-1, 0)],
    ids=["empty H", "first edge", "all edges", "n(H) empty H", "n(H) first edge", "n(H) all edges"],
)
def test_subgroup_duality_fails_on_a_miscounted_dual_nullity(tb2, octagon, monkeypatch, pick, side):
    """n(H), or n(H*), one too large at one mask: the spans still agree
    there, so only the exponent swaps can catch it.  Each side is its own
    walk, so a miscount on either side must fail at the chosen mask."""
    real = homology_module._subgroup_walk
    chosen = {}

    def miscount(primal, dual, spans):
        for mask, pair in enumerate(real(primal, dual, spans)):
            if mask == chosen["mask"]:
                (v_h, _), (v_hs, _) = pair
                chosen["spans"] = spans.spaces[v_h], spans.spaces[v_hs]
                v, n = pair[side]
                pair = (*pair[:side], (v, n + 1), *pair[side + 1:])
            yield pair

    monkeypatch.setattr(homology_module, "_subgroup_walk", miscount)
    for m in (tb2, octagon, *random_maps_of_genus(2, 2, 7, seed=309, min_edges=6)):
        chosen["mask"] = pick & ((1 << m.n_edges) - 1)
        rep = verify_subgroup_duality(m)
        assert not rep.all_passed
        assert rep.verdicts[0].witness == f"map={m!r} mask={chosen['mask']}"
        v_h, v_hs = chosen["spans"]
        assert v_hs == orthogonal_complement(v_h, _radial_links(m, m.dual())[0].form)


@pytest.mark.parametrize(
    "count", ["n_faces", "n_vertices"], ids=["c(H*) - c(G*) = k(H)", "c(H) - c(G) = k(H*)"]
)
def test_subgroup_duality_fails_on_one_side_miscounted_vertices(tb2, octagon, count):
    """G* (the faces of m) or G with one vertex too many: n(G*), or n(G), is
    one too small, which only the exponent swap c(H*) - c(G*) = k(H), or
    c(H) - c(G) = k(H*), reads.  Every mask fails it, so the witness is
    mask 0."""
    for source in (tb2, octagon, *random_maps_of_genus(2, 2, 7, seed=310, min_edges=6)):
        m = CombinatorialMap(dict(source.sigma), dict(source.alpha), source.isolated_vertices)
        vars(m)[count] = getattr(m, count) + 1
        rep = verify_subgroup_duality(m)
        assert not rep.all_passed
        assert rep.verdicts[0].witness == f"map={m!r} mask=0"


def _tilde_p_inputs(tb2, octagon):
    maps = (tb2, octagon, *random_maps_of_genus(2, 2, 7, seed=309, min_edges=6))
    return [EmbeddedSubgraph.full(m) for m in maps]


def test_tilde_p_sweeps_no_scanner(tb2, octagon, monkeypatch):
    """tilde-P's one pass over the masks is its walk; the scanner is built
    only for the frontier DP's counts."""
    engine = importlib.import_module("surfpoly.invariants")
    graphs = _tilde_p_inputs(tb2, octagon)
    expected = [tilde_p(g) for g in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("tilde_p swept the subgraphs with the scanner")

    monkeypatch.setattr(engine, "scan", refuse)
    monkeypatch.setattr(SubgraphScanner, "codes", refuse)
    assert [tilde_p(g) for g in graphs] == expected


def test_tilde_p_catches_a_dp_count_moved_between_exponents(tb2, octagon, monkeypatch):
    real = homology_module.histogram

    def moved(graph, cap):
        """One subgraph of the first tuple moved to the same tuple with k + 1:
        tb2 and octagon have one (c, k) only."""
        hist = real(graph, cap)
        a = next(iter(hist))
        hist[a] -= 1
        hist[a._replace(k=a.k + 1)] += 1
        return hist

    monkeypatch.setattr(homology_module, "histogram", moved)
    for g in _tilde_p_inputs(tb2, octagon):
        with pytest.raises(InternalInvariantError, match="frontier DP"):
            tilde_p(g)


@pytest.mark.parametrize("pick", [0, 1, -1], ids=["empty H", "first edge", "all edges"])
def test_tilde_p_catches_a_miscounted_walk_nullity(tb2, octagon, monkeypatch, pick):
    real = homology_module._walk
    chosen = {}

    def miscount(*args, **kwargs):
        for mask, (v, nullity) in enumerate(real(*args, **kwargs)):
            yield v, nullity + (mask == chosen["mask"])

    monkeypatch.setattr(homology_module, "_walk", miscount)
    for g in _tilde_p_inputs(tb2, octagon):
        chosen["mask"] = pick & ((1 << len(g.sorted_edges)) - 1)
        with pytest.raises(InternalInvariantError, match="frontier DP"):
            tilde_p(g)
