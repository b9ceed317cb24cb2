import gc
import importlib
import itertools
import math
import random
import sys
import weakref
from collections import Counter

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from test_invariants import random_marking
from test_maps import bridges

from surfpoly.cli import main
from surfpoly.corpus import random_maps
from surfpoly.errors import TooManyEdges, TooManyStates
from surfpoly.homology import SurfaceHomology
from surfpoly.invariants import SubgraphScanner, histogram
from surfpoly.laurent import LaurentPolynomial as L
from surfpoly.maps import CombinatorialMap, EmbeddedSubgraph, UnionFind, random_map, serialize_map
from surfpoly.polynomials import (
    _exponents,
    _p_key,
    abstract_graph,
    bollobas_riordan,
    component_maps,
    p_bruteforce,
    p_prime,
    p_recursive,
    tutte,
    verify_duality,
    verify_specializations,
)
from surfpoly.report import PolynomialReport, Verdict


def test_p_figure2_values(tb2, fig2):
    # single essential loop marked on the torus
    g1 = EmbeddedSubgraph(tb2, frozenset({1}), frozenset({1}))
    assert p_bruteforce(g1).to_canonical_string() == "1 + B"
    # two disjoint essential loops on one torus
    assert p_bruteforce(fig2).to_canonical_string() == "2 + B + Y"


def test_p_tb2_by_hand(tb2):
    assert p_bruteforce(tb2).to_canonical_string() == "2 + A + B"


def test_cap_enforced():
    from surfpoly.homology import tilde_p, verify_subgroup_duality
    from surfpoly.multivariate import p_bar, verify_multivariate_duality

    rng = random.Random(0)
    m = random_map(6, rng)
    entry_points = [
        p_bruteforce,
        bollobas_riordan,
        p_prime,
        lambda m, cap: tutte(*abstract_graph(m), cap=cap),
        p_bar,
        lambda m, cap: tilde_p(EmbeddedSubgraph.full(m), cap=cap),
        verify_multivariate_duality,
        verify_subgroup_duality,
        p_recursive,
    ]
    for fn in entry_points:
        with pytest.raises(TooManyEdges):
            fn(m, cap=5)


def test_bruteforce_releases_its_graph():
    rng = random.Random(1)
    g = EmbeddedSubgraph.full(random_map(5, rng))
    p_bruteforce(g)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_p_recursive_base_cases(sb, sl, tb2):
    assert p_recursive(sb).to_canonical_string() == "1 + X"
    assert p_recursive(sl).to_canonical_string() == "1 + Y"
    assert p_recursive(tb2) == p_bruteforce(tb2)


def test_p_recursive_matches_bruteforce_random():
    rng = random.Random(51)
    for _ in range(25):
        m = random_map(rng.randint(1, 8), rng)
        assert p_recursive(m) == p_bruteforce(m)


def reference_p_recursive(graph: EmbeddedSubgraph) -> L:
    """Contraction-deletion that builds a new host map for every minor with
    ``EmbeddedSubgraph.contract_edge`` and ``delete_edge``: the reference
    for the one-host ``p_recursive``."""
    residues: Counter = Counter()
    stack = [(graph, 0)]
    while stack:
        graph, bridges = stack.pop()
        edge = next((e for e in graph.sorted_edges if not graph.is_loop(e)), None)
        if edge is None:
            for exps, cnt in _exponents(histogram(graph, None), _p_key).items():
                residues[bridges, exps] += cnt
            continue
        rest = UnionFind(graph.g_vertices)  # G - e
        for f in graph.g_edges - {edge}:
            rest.union(*graph.host.edge_endpoints(f))
        u, w = graph.host.edge_endpoints(edge)
        if rest.find(u) != rest.find(w):  # a bridge
            stack.append((graph.contract_edge(edge), bridges + 1))
        else:
            stack.append((graph.delete_edge(edge), bridges))
            stack.append((graph.contract_edge(edge), bridges))
    terms: Counter = Counter()
    for (bridges, (x, *yab)), cnt in residues.items():
        for j in range(bridges + 1):
            terms[(x + j, *yab)] += math.comb(bridges, j) * cnt
    return L(("X", "Y", "A", "B"), terms)


def marked_subgraphs(fig2, sb) -> list[EmbeddedSubgraph]:
    """Seeded markings with unmarked host edges, on hosts that may have
    isolated vertices or several components."""
    rng = random.Random(59)
    graphs = [fig2, EmbeddedSubgraph.full(sb.disjoint_union(random_map(3, rng)))]
    for _ in range(80):
        m = random_map(rng.randint(1, 7), rng)
        if rng.random() < 0.3:
            m = CombinatorialMap(dict(m.sigma), dict(m.alpha), rng.randint(1, 2))
        if rng.random() < 0.3:
            m = m.disjoint_union(random_map(rng.randint(1, 3), rng))
        graphs.append(random_marking(m, rng))
    return graphs


def test_p_recursive_on_marked_subgraphs(fig2, sb):
    seen = set()
    for g in marked_subgraphs(fig2, sb):
        non_loops = [e for e in g.sorted_edges if not g.is_loop(e)]
        seen.update(
            name
            for name, hit in (
                ("unmarked edge", len(g.g_edges) < g.host.n_edges),
                ("isolated vertex", g.host.isolated_vertices > 0),
                ("disconnected", len(g.host.dart_components) + g.host.isolated_vertices > 1),
                ("lowest non-loop is a bridge", non_loops and non_loops[0] in bridges(g)),
                ("lowest non-loop is not a bridge", non_loops and non_loops[0] not in bridges(g)),
            )
            if hit
        )
        assert p_recursive(g) == p_bruteforce(g), serialize_map(g.host)
    assert len(seen) == 5, seen


def test_p_recursive_matches_the_minor_by_minor_reference(fig2, sb):
    for g in marked_subgraphs(fig2, sb):
        assert p_recursive(g) == reference_p_recursive(g), serialize_map(g.host)


def test_p_recursive_pins_once_per_leaf(monkeypatch):
    # the leaves are the maximal spanning forests, which the Tutte
    # polynomial counts at X = Y = 0; each pins the input's scanner once
    calls = []
    real = SubgraphScanner.pinned

    def counted(self, ins, outs, free):
        calls.append(ins)
        return real(self, ins, outs, free)

    monkeypatch.setattr(SubgraphScanner, "pinned", counted)
    for m in random_maps(60, 9, 3):
        calls.clear()
        p_recursive(m)
        t = tutte(*abstract_graph(m))
        assert len(calls) == t.terms.get((0,) * len(t.variables), 0), serialize_map(m)


def test_p_recursive_builds_one_scanner_and_no_minor(monkeypatch):
    # the work stack carries each minor's union-find as a parent dict, and
    # every leaf pins the input's one scanner: no UnionFind, no contracted
    # map and no map or marked graph beyond the input's full ribbon graph
    built = Counter()

    def counting(cls, name):
        real = getattr(cls, name)

        def counted(self, *args):
            built[cls.__name__, name] += 1
            return real(self, *args)

        monkeypatch.setattr(cls, name, counted)

    counting(SubgraphScanner, "__init__")
    counting(UnionFind, "__init__")
    counting(CombinatorialMap, "contract")
    counting(CombinatorialMap, "__post_init__")
    counting(EmbeddedSubgraph, "__post_init__")
    for m in random_maps(60, 9, 3):
        built.clear()
        p_recursive(m)
        assert built == {
            ("SubgraphScanner", "__init__"): 1,
            ("EmbeddedSubgraph", "__post_init__"): 1,
        }, serialize_map(m)


def test_contraction_deletion_rules():
    rng = random.Random(53)
    x = L.variable("X")
    y = L.variable("Y")
    checked_cd = checked_bridge = checked_loop = 0
    while min(checked_cd, checked_bridge, checked_loop) < 10:
        m = random_map(rng.randint(2, 6), rng)
        g = EmbeddedSubgraph.full(m)
        hom = SurfaceHomology(m)
        p = p_bruteforce(g)
        for e in g.sorted_edges:
            if g.is_loop(e):
                # rule (3) applies only to loops trivial in H1 of the surface
                if hom.is_trivial({e: 1}):
                    assert p == (1 + y) * p_bruteforce(g.delete_edge(e))
                    checked_loop += 1
            elif e in bridges(g):
                assert p == (1 + x) * p_bruteforce(g.contract_edge(e))
                checked_bridge += 1
            else:
                assert p == p_bruteforce(g.delete_edge(e)) + p_bruteforce(
                    g.contract_edge(e)
                )
                checked_cd += 1


def test_tutte_examples(tb2, sb, theta):
    assert tutte(*abstract_graph(tb2)).to_canonical_string() == "1 + 2*Y + Y^2"
    assert tutte(*abstract_graph(sb)).to_canonical_string() == "1 + X"
    # triangle: verify T = Y^g P(X,Y,Y,1/Y) with g = 0
    tri = theta.dual()
    t = tutte(*abstract_graph(tri))
    y = L.variable("Y")
    assert t == p_bruteforce(tri).substitute({"A": y, "B": y ** -1})


def tutte_by_masks(vertices, edges) -> L:
    """Reference Tutte polynomial: one union-find per spanning subgraph,
    counting (c(H), n(H)) over all 2^e edge masks."""
    index = {v: i for i, v in enumerate(dict.fromkeys(vertices))}
    ends = [(index[u], index[w]) for u, w in edges]
    counts: Counter = Counter()
    for mask in range(1 << len(ends)):
        parent = list(range(len(index)))
        c = len(index)
        for i, (u, w) in enumerate(ends):
            if mask >> i & 1:
                while parent[u] != u:
                    u = parent[u]
                while parent[w] != w:
                    w = parent[w]
                if u != w:
                    parent[w] = u
                    c -= 1
        counts[c, bin(mask).count("1") - len(index) + c] += 1
    c_g = min(c for c, _ in counts)  # reached at H = G
    return L(("X", "Y"), {(c - c_g, n): cnt for (c, n), cnt in counts.items()})


def grid(rows: int, cols: int) -> tuple[list, list]:
    vertices = list(itertools.product(range(rows), range(cols)))
    edges = [((i, j), (i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [((i, j), (i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return vertices, edges


def test_tutte_matches_masks_on_every_map_up_to_4_edges(maps_up_to_4):
    for m in maps_up_to_4:
        g = abstract_graph(m)
        assert tutte(*g) == tutte_by_masks(*g)


def test_tutte_matches_masks_on_random_maps():
    # marked subgraphs, extra isolated vertices and disjoint unions too
    rng = random.Random(61)
    for _ in range(320):
        m = random_map(rng.randint(1, 10), rng)
        if rng.random() < 0.3:
            m = CombinatorialMap(dict(m.sigma), dict(m.alpha), rng.randint(1, 2))
        if rng.random() < 0.3:
            m = m.disjoint_union(random_map(rng.randint(1, 3), rng))
        g = random_marking(m, rng) if rng.random() < 0.3 else m
        assert tutte(*abstract_graph(g)) == tutte_by_masks(*abstract_graph(g)), serialize_map(m)


@st.composite
def multigraphs(draw):
    """Vertex names in any order and up to 10 edges between them: loops,
    parallel classes, isolated vertices, several components, or no edge."""
    vertices = [f"v{i}" for i in range(draw(st.integers(0, 6)))]
    if not vertices:
        return vertices, []
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=10))
    return draw(st.permutations(vertices)), edges


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(multigraphs())
def test_tutte_matches_masks_on_multigraphs(graph):
    assert tutte(*graph) == tutte_by_masks(*graph)


def test_tutte_memo_meets_on_a_grid(monkeypatch):
    # on the 3x4 grid, deletion-contraction branches reach equal
    # multigraphs, and each one is expanded only once
    poly_mod = importlib.import_module("surfpoly.polynomials")
    real = poly_mod._tutte_minors
    expanded, reached = [], []

    def spy(edges):
        expanded.append(edges)
        minors = real(edges)
        reached.extend(minor for minor, _ in minors)
        return minors

    monkeypatch.setattr(poly_mod, "_tutte_minors", spy)
    vertices, edges = grid(3, 4)
    assert tutte(vertices, edges) == tutte_by_masks(vertices, edges)
    assert len(set(reached)) < len(reached)
    assert len(expanded) == len(set(expanded))
    # the grid comes first, and every other expanded multigraph is a
    # reached minor; an expansion yields at most two minors
    assert len(expanded[0]) == len(edges)
    assert set(expanded[1:]) == set(reached) - {()}
    assert len(reached) <= 2 * len(expanded)


def test_tutte_matches_networkx():
    pytest.importorskip("networkx")
    import networkx as nx
    from classical_oracle import tutte as oracle_tutte

    graphs = [abstract_graph(m) for m in random_maps(60, 12, seed=67, min_edges=12)]
    for g in (nx.complete_graph(6), nx.petersen_graph()):
        graphs.append((list(g.nodes), list(g.edges)))
    for vertices, edges in graphs:
        mine = sp.sympify(tutte(vertices, edges).to_canonical_string().replace("^", "**"))
        assert sp.expand(mine - oracle_tutte(vertices, edges)) == 0


def test_bollobas_riordan_examples(tb2, sl, sb):
    assert bollobas_riordan(tb2) == 1 + 2 * L.variable("Y") + L.monomial(
        1, {"Y": 2, "Z": 2}
    )
    assert bollobas_riordan(sl).to_canonical_string() == "1 + Y"
    assert bollobas_riordan(sb).to_canonical_string() == "X"


def test_br_z_exponent_is_s():
    rng = random.Random(55)
    for _ in range(10):
        m = random_map(rng.randint(1, 6), rng)
        g = EmbeddedSubgraph.full(m)
        sc = SubgraphScanner(g)
        for mask in range(1 << m.n_edges):
            inv = sc.invariants_of_mask(mask)
            assert inv.c - inv.bc + inv.n == inv.s


def test_p_prime_examples(tb2, sl):
    assert p_prime(tb2) == L.monomial(1, {"B": 2}) + 2 * L.variable("Y") + L.monomial(
        1, {"A": 2, "Y": 2}
    )
    assert p_prime(sl).to_canonical_string() == "1 + Y"


def test_duality_examples(tb2, theta, sb, sl):
    for m in (tb2, theta, sb, sl, theta.dual()):
        assert verify_duality(m).all_passed


def test_theta_triangle_duality_by_hand(theta):
    p_theta = p_bruteforce(theta)
    p_tri = p_bruteforce(theta.dual())
    assert p_theta == p_tri.rename({"X": "Y", "Y": "X", "A": "B", "B": "A"})


def test_specializations_tb2(tb2):
    rep = verify_specializations(tb2)
    assert rep.all_passed, rep.lines()
    y = L.variable("Y")
    z = L.variable("Z")
    p = p_bruteforce(tb2)
    assert y * p.substitute({"A": y, "B": y ** -1}) == tutte(*abstract_graph(tb2))
    assert y * p.substitute(
        {"X": L.variable("X") - 1, "A": y * z * z, "B": y ** -1}
    ) == bollobas_riordan(tb2)


def test_specializations_random():
    rng = random.Random(57)
    for _ in range(12):
        m = random_map(rng.randint(1, 6), rng)
        rep = verify_specializations(m)
        assert rep.all_passed, rep.lines()


def test_ribbon_multiplicativity_vs_embedded_counterexample(tb2, sl, fig2):
    # ribbon graphs: P multiplies over disjoint unions
    union = tb2.disjoint_union(sl)
    assert p_bruteforce(union) == p_bruteforce(tb2) * p_bruteforce(sl)
    # embedded (non-ribbon) mode: the two-loop torus configuration fails it
    g1 = EmbeddedSubgraph(fig2.host, frozenset({1}), frozenset({1}))
    p1 = p_bruteforce(g1)
    assert p_bruteforce(fig2) != p1 * p1
    assert p1 * p1 == (1 + L.variable("B")) ** 2


def test_component_maps(tb2, sl):
    union = tb2.disjoint_union(sl)
    comps = component_maps(union)
    assert len(comps) == 2
    assert sorted(c.n_edges for c in comps) == [1, 2]


def fresh(m: CombinatorialMap) -> CombinatorialMap:
    """An equal map with nothing kept on it: no dual and no histogram."""
    return CombinatorialMap(dict(m.sigma), dict(m.alpha), m.isolated_vertices)


def test_specializations_sweep_a_connected_map_once(monkeypatch, tb2, sl, theta):
    # a map keeps its one histogram and its one dual, so duality and the
    # specializations together sweep m and m* once each; P of a connected
    # map is its own component product, and a disjoint union also sweeps
    # each of its components.  The maps are fresh copies: a session fixture
    # may carry a histogram that an earlier test counted.
    poly_mod = importlib.import_module("surfpoly.polynomials")
    real = poly_mod.histogram
    swept = []
    monkeypatch.setattr(
        poly_mod, "histogram", lambda graph, *a, **k: swept.append(graph) or real(graph, *a, **k)
    )
    for m, sweeps in [
        (fresh(tb2), 2),
        (fresh(theta), 2),
        (fresh(tb2).disjoint_union(sl), 2 + 2),
        (fresh(theta).disjoint_union(sl).disjoint_union(tb2), 2 + 3),
    ]:
        assert m.dual() is m.dual()
        swept.clear()
        for verify in (verify_duality, verify_specializations):
            rep = verify(m)
            assert rep.all_passed, rep.lines()
        assert len(swept) == sweeps, m
        # the kept histogram never gets round a smaller cap
        for fn in (p_bruteforce, bollobas_riordan, p_prime, verify_duality, verify_specializations):
            with pytest.raises(TooManyEdges):
                fn(m, cap=m.n_edges - 1)
        with pytest.raises(TooManyEdges):
            bollobas_riordan(m.dual(), cap=m.n_edges - 1)
        assert len(swept) == sweeps, m



def test_a_failed_count_leaves_no_histogram(monkeypatch, theta):
    # TooManyStates is raised on every call, not kept; once the state limit
    # is back, the same map is counted
    engine = importlib.import_module("surfpoly.invariants")
    m = fresh(theta)
    monkeypatch.setattr(engine, "MAX_STATES", 1)
    for _ in range(2):
        with pytest.raises(TooManyStates):
            p_bruteforce(m)
    monkeypatch.undo()
    assert p_bruteforce(m) == p_bruteforce(fresh(theta))


def test_duality_and_specializations_share_one_p_string(tb2, theta, octagon):
    # P of a map is kept beside its histogram, and a polynomial keeps its
    # canonical string, so both reports of one map hold the same string
    for m in (fresh(tb2), fresh(theta), fresh(octagon), *random_maps(4, 7, 5)):
        p_string = verify_duality(m).polynomials["P_G"]
        assert verify_specializations(m).polynomials["P_G"] is p_string
        assert p_bruteforce(m).to_canonical_string() is p_string


def off_by_one(p: L) -> L:
    """p with the coefficient of its least exponent vector one larger."""
    key = min(p.terms)
    return L(p.variables, {**p.terms, key: p.terms[key] + 1})


def failed_identities(rep) -> list[str]:
    return [v.identity for v in rep.verdicts if not v.passed]


def test_duality_fails_on_one_miscounted_dual_coefficient(monkeypatch, tb2, theta, octagon):
    """One coefficient of P_G* one too large: the duality verdict fails with
    the map as witness, and P_G is reported as before."""
    poly_mod = importlib.import_module("surfpoly.polynomials")
    maps = [fresh(tb2), fresh(theta), fresh(octagon)]
    duals = [m.dual() for m in maps]
    real = poly_mod.p_bruteforce

    def miscount(graph, **kwargs):
        p = real(graph, **kwargs)
        return off_by_one(p) if any(graph is dual for dual in duals) else p

    monkeypatch.setattr(poly_mod, "p_bruteforce", miscount)
    for m, dual in zip(maps, duals):
        rep = verify_duality(m)
        assert failed_identities(rep) == ["duality P_G(X,Y,A,B) = P_G*(Y,X,B,A)"]
        assert rep.verdicts[0].witness == poly_mod._witness(m)
        assert rep.polynomials == {
            "P_G": real(m).to_canonical_string(),
            "P_G*": off_by_one(real(dual)).to_canonical_string(),
        }


def test_specializations_fail_on_a_miscounted_tutte(monkeypatch, tb2, theta, octagon):
    """T_G + 1 fails the Tutte verdict alone, with the map as witness."""
    poly_mod = importlib.import_module("surfpoly.polynomials")
    real = poly_mod.tutte
    monkeypatch.setattr(poly_mod, "tutte", lambda *args, **kwargs: real(*args, **kwargs) + 1)
    for m in (fresh(tb2), fresh(theta), fresh(octagon), fresh(tb2).disjoint_union(theta)):
        rep = verify_specializations(m)
        assert failed_identities(rep) == ["tutte T_G = Y^g P(X,Y,Y,Y^-1)"]
        tutte_verdict = rep.verdicts[0]
        assert tutte_verdict.witness == poly_mod._witness(m)


def test_specializations_fail_on_an_extra_component(monkeypatch, tb2, theta, sb, sl):
    """One single-edge map too many among the components: their product
    gains a factor 1 + X that P lacks, so the multiplicativity verdict alone
    fails, with the map as witness."""
    poly_mod = importlib.import_module("surfpoly.polynomials")
    real = poly_mod.component_maps
    monkeypatch.setattr(poly_mod, "component_maps", lambda m: real(m) + [fresh(sb)])
    for m in (fresh(tb2), fresh(theta), fresh(tb2).disjoint_union(sl)):
        rep = verify_specializations(m)
        assert failed_identities(rep) == ["ribbon multiplicativity over disjoint components"]
        assert rep.verdicts[-1].witness == poly_mod._witness(m)


def test_threads_option_is_refused(capsys, data_dir):
    # --threads had no effect and is gone; argparse refuses it with exit 2
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "poly", str(data_dir / "theta.map")])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def path_map(n_edges: int) -> CombinatorialMap:
    """A path on the sphere: edge i has dart 2i+1 at vertex i and dart 2i+2
    at vertex i+1."""
    sigma = {1: 1, 2 * n_edges: 2 * n_edges}
    for d in range(2, 2 * n_edges, 2):
        sigma[d], sigma[d + 1] = d + 1, d
    alpha = {d: d + 1 if d % 2 else d - 1 for d in range(1, 2 * n_edges + 1)}
    return CombinatorialMap(sigma, alpha, 0)


def test_contraction_deletion_needs_no_call_stack():
    # every edge of a path is a bridge, so contraction-deletion goes 400
    # minors deep; neither evaluator may spend a call frame on each
    m = path_map(400)
    expected = (1 + L.variable("X")) ** 400
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        p = p_recursive(m, cap=None)
        t = tutte(*abstract_graph(m), cap=None)
    finally:
        sys.setrecursionlimit(limit)
    assert p == expected
    assert t == expected


def test_duality_on_a_24_edge_map():
    # 2^24 subgraphs, a size only the frontier DP reaches in a test
    m = random_maps(1, 24, seed=3, min_edges=24)[0]
    assert m.n_edges == 24
    rep = verify_duality(m, cap=24)
    assert rep.all_passed, rep.lines()
    assert sum(p_bruteforce(m, cap=24).terms.values()) == 1 << 24


def test_report_lines_are_the_verdict_lines(theta, data_dir):
    """The bench digests read these strings: one line per verdict, a failed
    one ending in two spaces and its witness."""
    from surfpoly.links import parse_diagram, verify_thistlethwaite

    assert verify_duality(theta).lines() == ["PASS duality P_G(X,Y,A,B) = P_G*(Y,X,B,A)"]
    trefoil = parse_diagram((data_dir / "trefoil.vlk").read_text())
    assert verify_thistlethwaite(trefoil).lines() == [
        "PASS bracket K_D = A^(g+v-c) B^(n-g) d^c Z^g P_G(Bd/A, Ad/B, A/BZ, B/AZ)",
        "PASS per-state correspondences a(S)=e(H), c(S)=bc(H), k(S)=c(H)+k(H), r(S)=l(H)",
    ]
    failed = Verdict("P = Q", False, "subgraph mask 3")
    assert failed.line() == "FAIL P = Q  witness: subgraph mask 3"
    rep = PolynomialReport("two checks", {"P": "1 + X"}, (Verdict("P = P", True), failed))
    assert rep.lines() == ["PASS P = P", "FAIL P = Q  witness: subgraph mask 3"]
    assert not rep.all_passed


def test_failed_verdict_without_a_witness_is_refused():
    with pytest.raises(ValueError, match="^failed verdict requires a witness$"):
        PolynomialReport("one check", verdicts=(Verdict("P = P", True), Verdict("P = Q", False)))
    assert PolynomialReport("one check", verdicts=(Verdict("P = Q", False, ""),)).lines() == [
        "FAIL P = Q  witness: "
    ]
