import random

import pytest
from test_laurent import _reference_substitute

from surfpoly.corpus import random_maps_of_genus
from surfpoly.errors import MapFormatError
from surfpoly.invariants import scan
from surfpoly.laurent import LaurentPolynomial as L
from surfpoly.maps import EmbeddedSubgraph, random_map
from surfpoly.multivariate import (
    EdgeWeighting,
    multivariate_tutte,
    p_bar,
    parse_weights_file,
    verify_multivariate_duality,
)
from surfpoly.polynomials import _witness, p_bruteforce


def test_p_bar_sl(sl):
    q = L.variable("q")
    assert p_bar(sl) == q + q * L.variable("v1")


def test_p_bar_tb2(tb2):
    q = L.variable("q")
    expected = (
        q * L.variable("B")
        + q * L.variable("v1")
        + q * L.variable("v3")
        + q * L.monomial(1, {"A": 1, "v1": 1, "v3": 1})
    )
    assert p_bar(tb2) == expected


def test_a_b_one_collapses_to_multivariate_tutte(theta):
    z = multivariate_tutte(theta)
    assert z == p_bar(theta).substitute({"A": 1, "B": 1})
    assert "A" not in z.variables and "B" not in z.variables


def test_specialization_to_p():
    rng = random.Random(61)
    x, y, a, b = (L.variable(v) for v in "XYAB")
    for _ in range(12):
        m = random_map(rng.randint(1, 6), rng)
        subs = {f"v{e}": y for e in m.edge_ids}
        subs.update({"q": x * y, "A": a * y ** -1, "B": b * y})
        lhs = p_bar(m).substitute(subs)
        mono = L.monomial(1, {"X": m.n_components, "Y": m.total_genus + m.n_vertices})
        assert lhs == mono * p_bruteforce(m)


def test_multivariate_duality_examples(tb2, theta):
    assert verify_multivariate_duality(tb2).all_passed
    rep = verify_multivariate_duality(theta)
    assert rep.all_passed
    assert len(rep.verdicts) == 2  # planar relation checked on genus-0 input


def test_multivariate_duality_random():
    rng = random.Random(63)
    for _ in range(20):
        m = random_map(rng.randint(1, 6), rng)
        assert verify_multivariate_duality(m).all_passed


def test_explicit_monomial_weights(tb2):
    g = EmbeddedSubgraph.full(tb2)
    w = EdgeWeighting(g, {1: L.monomial(2, {"w": 1}), 3: "w2"})
    poly = p_bar(tb2, w)
    assert "w" in poly.variables and "w2" in poly.variables
    # duality transport q/v_e stays in the integer Laurent ring only for
    # unit-coefficient weights
    w_unit = EdgeWeighting(g, {1: L.monomial(1, {"w": -2}), 3: "w2"})
    assert verify_multivariate_duality(tb2, w_unit).all_passed
    with pytest.raises(MapFormatError):
        w.inverted()


def test_reserved_names_rejected(tb2):
    g = EmbeddedSubgraph.full(tb2)
    with pytest.raises(MapFormatError):
        EdgeWeighting(g, {1: "q"})
    with pytest.raises(MapFormatError):
        EdgeWeighting(g, {1: L.variable("Z")})


def test_weights_file(tb2):
    g = EmbeddedSubgraph.full(tb2)
    w = parse_weights_file("# torus weights\nedge 1 = 3*w^2\nedge 3 = w^-1\n", g)
    assert w.weight(1) == (3, {"w": 2})
    assert w.weight(3) == (1, {"w": -1})
    with pytest.raises(MapFormatError):
        parse_weights_file("edge 9 = w\n", g)
    with pytest.raises(MapFormatError):
        parse_weights_file("1 = w\n", g)


# -- p_bar against the mask-by-edge loop it replaced ----------------------------


def _reference_p_bar(graph, weighting):
    """Every mask, every edge in it, every variable of its weight."""
    edges = graph.sorted_edges
    names = sorted({"q", "A", "B"}.union(*(exps for _, exps in weighting.assigned.values())))
    index = {v: i for i, v in enumerate(names)}
    terms = {}
    for mask, inv in scan(graph, None):
        vec = [0] * len(names)
        vec[index["q"]], vec[index["A"]], vec[index["B"]] = inv.c, inv.s // 2, inv.s_perp // 2
        coeff = 1
        for i, e in enumerate(edges):
            if mask >> i & 1:
                c, exps = weighting.weight(e)
                coeff *= c
                for v, k in exps.items():
                    vec[index[v]] += k
        key = tuple(vec)
        terms[key] = terms.get(key, 0) + coeff
    return L(tuple(names), terms)


def test_p_bar_matches_mask_by_edge_reference(fig2):
    rng = random.Random(67)
    # 0-9 edges, odd counts included, so the two half tables differ in size
    graphs = [EmbeddedSubgraph.full(random_map(n, rng)) for n in range(10) for _ in range(2)]
    graphs.append(fig2)  # a marked subgraph: only some host edges carry weights
    merged = dropped = 0  # graphs where like terms merged, and where some cancelled
    for g in graphs:
        # coefficients -1, 2 and -3 on monomials in two variables every edge shares
        shared = {
            e: L.monomial(rng.choice([-1, 2, -3]), {"w": rng.randint(-2, 2), "r": rng.randint(-1, 1)})
            for e in g.sorted_edges
        }
        # every edge w: subgraphs of one size with equal invariants share a
        # key; signs alternating along the edges: some of those keys cancel
        same = EdgeWeighting(g, {e: "w" for e in g.sorted_edges})
        signed = EdgeWeighting(g, {e: L.monomial((-1) ** i, {"w": 1}) for i, e in enumerate(g.sorted_edges)})
        for w in (EdgeWeighting(g), EdgeWeighting(g).inverted(), EdgeWeighting(g, shared), same, signed):
            got = p_bar(g, w)
            expected = _reference_p_bar(g, w)
            assert got == expected
            assert got.to_canonical_string() == expected.to_canonical_string()
        n_same, n_signed = (len(p_bar(g, w).terms) for w in (same, signed))
        merged += n_same < 1 << len(g.sorted_edges)
        dropped += n_signed < n_same
    assert merged and dropped


def test_substitute_on_p_bar_output_matches_term_by_term_reference():
    """The duality's swap A -> B/q, B -> A q and the A = B = 1
    specialization, on the 256-term p_bar of an 8-edge genus-2 map, with
    the default weights and with q/v_e, whose v_e exponents are negative."""
    m = random_maps_of_genus(1, 2, 8, 1, min_edges=8)[0]
    q, a, b = L.variable("q"), L.variable("A"), L.variable("B")
    for w in (EdgeWeighting(m), EdgeWeighting(m).inverted()):
        poly = p_bar(m, w)
        assert len(poly.terms) == 256
        for bindings in ({"A": b * q ** -1, "B": a * q}, {"A": 1, "B": 1}):
            got = poly.substitute(bindings)
            expected = _reference_substitute(poly, bindings)
            assert got.variables == expected.variables
            assert got.terms == expected.terms
            assert got.to_canonical_string() == expected.to_canonical_string()


def test_multivariate_duality_fails_on_misplaced_weights(monkeypatch):
    """Swapping the transported weights of two dual edges breaks the identity."""
    m = random_map(5, random.Random(71))
    assert verify_multivariate_duality(m).all_passed
    real = EdgeWeighting.transported

    def rotated(self, dual_graph):
        moved = real(self, dual_graph)
        e1, e2 = dual_graph.sorted_edges[:2]
        moved.assigned[e1], moved.assigned[e2] = moved.assigned[e2], moved.assigned[e1]
        return moved

    monkeypatch.setattr(EdgeWeighting, "transported", rotated)
    rep = verify_multivariate_duality(m)
    duality = rep.verdicts[0]
    assert duality.identity.startswith("multivariate duality")
    assert not duality.passed and duality.witness == _witness(m)
    assert duality.line() == f"FAIL {duality.identity}  witness: {_witness(m)}"


def test_planar_relation_fails_on_a_miscounted_substitution(monkeypatch, theta, sb, sl):
    """On genus-0 maps, 1 added to the A = B = 1 substitution, which only the
    planar relation makes, fails that verdict alone, with the map as
    witness: the prefactor q^(c*-v) (prod v) is not 1, so the two added 1s
    do not cancel."""
    real = L.substitute

    def miscount(self, bindings):
        out = real(self, bindings)
        return out + 1 if bindings == {"A": 1, "B": 1} else out

    maps = [theta, sb, sl, random_map(4, random.Random(2))]
    assert all(m.total_genus == 0 for m in maps)
    monkeypatch.setattr(L, "substitute", miscount)
    for m in maps:
        duality, planar = verify_multivariate_duality(m).verdicts
        assert duality.passed
        assert planar.identity.startswith("planar relation")
        assert not planar.passed and planar.witness == _witness(m)
