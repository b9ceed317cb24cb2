"""Acceptance criteria, one test per criterion.

Each test prints one PASS line (with its own elapsed time) on success; a
failure surfaces as a normal pytest assertion with a reproducible witness.
Corpora are seeded and sized at the stated minima; tolerances are exact
(integer polynomial identity) throughout.
"""

import random
import time

import pytest
import sympy as sp

from classical_oracle import bracket as oracle_bracket, jones as oracle_jones
from test_maps import bridges
from surfpoly.corpus import alternating_diagrams, random_maps
from surfpoly.homology import (
    SurfaceHomology,
    image_subspace,
    symplectic_invariants,
    verify_subgroup_duality,
)
from surfpoly.invariants import SubgraphScanner
from surfpoly.laurent import LaurentPolynomial as L
from surfpoly.links import (
    classical_bracket,
    jones,
    kauffman,
    medial_diagram,
    parse_diagram,
    serialize_diagram,
    states,
    verify_thistlethwaite,
)
from surfpoly.maps import EmbeddedSubgraph, parse_map_file, random_map, serialize_map
from surfpoly.multivariate import verify_multivariate_duality
from surfpoly.polynomials import (
    abstract_graph,
    bollobas_riordan,
    p_bruteforce,
    p_prime,
    p_recursive,
    tutte,
)

SEED = 20240
_P_CACHE: dict[int, L] = {}


@pytest.fixture(scope="module")
def corpus_a(maps_up_to_4):
    """Exhaustive: all maps with <= 4 edges up to isomorphism."""
    return maps_up_to_4


@pytest.fixture(scope="module")
def corpus_b():
    """>= 500 seeded random maps with <= 12 edges."""
    return random_maps(500, 12, seed=SEED)


def p_of_b(i: int, m) -> L:
    if i not in _P_CACHE:
        _P_CACHE[i] = p_bruteforce(m)
    return _P_CACHE[i]


def _swap(p: L) -> L:
    return p.rename({"X": "Y", "Y": "X", "A": "B", "B": "A"})


def _passed(n: int, title: str, t0: float) -> None:
    print(f"\nACCEPTANCE {n} PASS: {title} ({time.monotonic() - t0:.1f}s)")


def test_criterion_1_figure2(data_dir):
    t0 = time.monotonic()
    fig2 = parse_map_file((data_dir / "fig2.map").read_text())
    g1 = EmbeddedSubgraph(fig2.host, frozenset({1}), frozenset({1}))
    assert p_bruteforce(g1).to_canonical_string() == "1 + B"
    assert p_bruteforce(fig2).to_canonical_string() == "2 + B + Y"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passed(1, "two-loop torus configuration gives 1 + B and 2 + B + Y", t0)


def test_criterion_2_duality(corpus_a, corpus_b):
    t0 = time.monotonic()
    for m in corpus_a:
        assert p_bruteforce(m) == _swap(p_bruteforce(m.dual())), serialize_map(m)
    for i, m in enumerate(corpus_b):
        assert p_of_b(i, m) == _swap(p_bruteforce(m.dual())), serialize_map(m)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _passed(2, f"duality on {len(corpus_a)} exhaustive + {len(corpus_b)} random maps", t0)


def test_criterion_3_specializations(corpus_b):
    t0 = time.monotonic()
    x, y, z = L.variable("X"), L.variable("Y"), L.variable("Z")
    a, b = L.variable("A"), L.variable("B")
    t_var = L.variable("t")
    xs, ys = L.variable("x"), L.variable("y")
    sq_z = L.monomial(1, {"x": -1, "y": -1})
    for i, m in enumerate(corpus_b):
        g = m.total_genus
        p = p_of_b(i, m)
        assert tutte(*abstract_graph(m)) == (y ** g) * p.substitute(
            {"A": y, "B": y ** -1}
        ), serialize_map(m)
        br = bollobas_riordan(m)
        assert br == (y ** g) * p.substitute(
            {"X": x - 1, "A": y * z * z, "B": y ** -1}
        ), serialize_map(m)
        # partial-duality corollaries
        br_dual = bollobas_riordan(m.dual())
        one_var = {"X": 1 + t_var, "Y": t_var, "Z": t_var ** -1}
        assert br.substitute(one_var) == br_dual.substitute(one_var), serialize_map(m)
        lhs = br.substitute({"X": 1 + xs * xs, "Y": ys * ys, "Z": sq_z})
        rhs = br_dual.substitute({"X": 1 + ys * ys, "Y": xs * xs, "Z": sq_z})
        factor = L.monomial(1, {"x": -2, "y": 2}) ** g
        assert lhs == factor * rhs, serialize_map(m)
        # corrected undoubled-variant relation
        assert p_prime(m) == (y ** g) * p.substitute(
            {"A": a * a * y, "B": b * b * (y ** -1)}
        ), serialize_map(m)
    _passed(3, f"Tutte/BR/P' specializations + BR partial dualities on {len(corpus_b)} maps", t0)


def test_criterion_4_oracle_equivalence(corpus_a, corpus_b):
    t0 = time.monotonic()
    for m in corpus_a:
        assert p_recursive(m) == p_bruteforce(m), serialize_map(m)
    for i, m in enumerate(corpus_b):
        assert p_recursive(m) == p_of_b(i, m), serialize_map(m)
    # contraction-deletion rules on every applicable (map, edge) of corpus a
    one_x = 1 + L.variable("X")
    one_y = 1 + L.variable("Y")
    for m in corpus_a:
        if not m.n_edges:
            continue
        g = EmbeddedSubgraph.full(m)
        hom = SurfaceHomology(m)
        p = p_bruteforce(g)
        for e in g.sorted_edges:
            if g.is_loop(e):
                if hom.is_trivial({e: 1}):
                    assert p == one_y * p_bruteforce(g.delete_edge(e)), (serialize_map(m), e)
            elif e in bridges(g):
                assert p == one_x * p_bruteforce(g.contract_edge(e)), (serialize_map(m), e)
            else:
                assert p == p_bruteforce(g.delete_edge(e)) + p_bruteforce(
                    g.contract_edge(e)
                ), (serialize_map(m), e)
    _passed(4, "recursive evaluator == brute force; contraction-deletion rules", t0)


def test_criterion_5_homology_cross_oracle(corpus_a):
    t0 = time.monotonic()
    maps = list(corpus_a) + random_maps(100, 8, seed=SEED + 1)
    for m in maps:
        g = EmbeddedSubgraph.full(m)
        hom = SurfaceHomology(m)
        sc = SubgraphScanner(g)
        two_g = 2 * m.total_genus
        for mask in range(1 << m.n_edges):
            inv = sc.invariants_of_mask(mask)
            h = [g.sorted_edges[j] for j in range(m.n_edges) if mask >> j & 1]
            v, k = image_subspace(g, h, hom)
            s, s_perp, l = symplectic_invariants(v, hom.form)
            assert (k, s, s_perp, l) == (inv.k, inv.s, inv.s_perp, inv.l), (
                serialize_map(m), mask,
            )
            assert inv.s + inv.s_perp + 2 * inv.l == two_g
            assert inv.k + inv.l + inv.s == inv.n
    _passed(5, f"combinatorial == linear-algebra invariants on {len(maps)} maps", t0)


def test_criterion_6_subgroup_duality():
    t0 = time.monotonic()
    maps = random_maps(100, 8, seed=SEED + 2)
    for m in maps:
        rep = verify_subgroup_duality(m)
        assert rep.all_passed, (serialize_map(m), rep.lines())
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _passed(6, "V(H*) = V(H)^perp via the radial map on 100 random maps", t0)


@pytest.fixture(scope="module")
def alternating_corpus():
    diagrams = [(1, d) for d in alternating_diagrams(30, 1, 6, seed=SEED + 3)]
    diagrams += [(2, d) for d in alternating_diagrams(25, 2, 6, seed=SEED + 4, min_crossings=4)]
    return diagrams


def test_criterion_7_thistlethwaite(data_dir, alternating_corpus):
    t0 = time.monotonic()
    trefoil = parse_diagram((data_dir / "trefoil.vlk").read_text())
    rep = verify_thistlethwaite(trefoil)
    assert rep.all_passed, rep.lines()
    assert len(alternating_corpus) >= 50
    for genus, d in alternating_corpus:
        assert d.genus == genus and 2 <= d.n_crossings <= 6
        rep = verify_thistlethwaite(d)
        assert rep.all_passed, (serialize_diagram(d), rep.lines())
    _passed(7, f"Thistlethwaite identity + per-state data on trefoil and {len(alternating_corpus)} diagrams", t0)


def test_criterion_8_classical_sanity(data_dir, alternating_corpus):
    t0 = time.monotonic()
    A, t, u = sp.Symbol("A"), sp.Symbol("t"), sp.Symbol("u")

    def to_sympy(poly, subs):
        expr = sp.Integer(0)
        for exps, c in poly.terms.items():
            mono = sp.Integer(c)
            for v, e in zip(poly.variables, exps):
                mono *= subs[v] ** e
            expr += mono
        return sp.expand(expr)

    # the right trefoil, from the independent oracle
    trefoil_text = (data_dir / "trefoil.vlk").read_text()
    trefoil = parse_diagram(trefoil_text)
    oracle_j = oracle_jones(trefoil_text)
    assert sp.expand(oracle_j - (-t ** -4 + t ** -3 + t ** -1)) == 0
    mine = to_sympy(jones(trefoil), {"u": u, "Z": sp.Symbol("Z")})
    assert sp.expand(mine.subs(u, t ** sp.Rational(1, 4)) - oracle_j) == 0

    # genus-0 corpus against the oracle (bracket and Jones)
    rng = random.Random(SEED + 5)
    planar = []
    while len(planar) < 15:
        m = random_map(rng.randint(1, 5), rng)
        if m.total_genus == 0:
            planar.append(medial_diagram(m))
    bracket_subs = {"A": A, "B": A ** -1, "d": -(A ** 2) - A ** -2}
    for d in planar:
        text = serialize_diagram(d)
        k = kauffman(d)
        assert "Z" not in k.variables
        assert sp.expand(to_sympy(classical_bracket(d), bracket_subs) - oracle_bracket(text)) == 0
        mj = to_sympy(jones(d), {"u": u, "Z": sp.Symbol("Z")})
        assert sp.expand(mj.subs(u, t ** sp.Rational(1, 4)) - oracle_jones(text)) == 0

    # k(S) + r(S) = c(S) for all states of all corpus diagrams
    bundled = [
        parse_diagram((data_dir / n).read_text())
        for n in ("trefoil.vlk", "vtrefoil.vlk", "torus-alt.vlk")
    ]
    for d in bundled + planar + [d for _, d in alternating_corpus]:
        for st in states(d):
            assert st.k + st.r == st.c, serialize_diagram(d)
    _passed(8, "classical bracket/Jones match the oracle; k + r = c everywhere", t0)


def test_criterion_9_multivariate_duality():
    t0 = time.monotonic()
    maps = random_maps(200, 10, seed=SEED + 6)
    planar_seen = 0
    for m in maps:
        rep = verify_multivariate_duality(m)
        assert rep.all_passed, (serialize_map(m), rep.lines())
        if m.total_genus == 0:
            planar_seen += 1
            assert len(rep.verdicts) == 2  # planar relation checked too
    assert planar_seen > 0
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _passed(9, f"multivariate duality on 200 maps ({planar_seen} planar incl. classical relation)", t0)


def test_criterion_10_ribbon_multiplicativity(data_dir):
    t0 = time.monotonic()
    rng = random.Random(SEED + 7)
    for _ in range(100):
        m1 = random_map(rng.randint(1, 5), rng)
        m2 = random_map(rng.randint(1, 5), rng)
        union = m1.disjoint_union(m2)
        assert p_bruteforce(union) == p_bruteforce(m1) * p_bruteforce(m2), (
            serialize_map(m1), serialize_map(m2),
        )
    # the bundled embedded counterexample: same curves, one surface
    fig2 = parse_map_file((data_dir / "fig2.map").read_text())
    g1 = EmbeddedSubgraph(fig2.host, frozenset({1}), frozenset({1}))
    p1 = p_bruteforce(g1)
    assert p_bruteforce(fig2) != p1 * p1
    _passed(10, "ribbon multiplicativity on 100 pairs; embedded counterexample stays unequal", t0)
