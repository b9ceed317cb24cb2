import importlib
import random
from collections import Counter

import pytest
import sympy as sp

from classical_oracle import bracket as oracle_bracket, jones as oracle_jones, writhe as oracle_writhe
from surfpoly.errors import (
    AlphaNotInvolution,
    LinkFormatError,
    MalformedPermutation,
    MapFormatError,
    MissingOrientation,
    NonLaurentResult,
    NotAlternating,
    NotFourValent,
    OverPairNotOpposite,
    TooManyCrossings,
)
from surfpoly.homology import SurfaceHomology, Subspace, orthogonal_complement
from surfpoly.laurent import LaurentPolynomial as L
from surfpoly.links import (
    LinkDiagram,
    _face_walk_to,
    classical_bracket,
    jones,
    kauffman,
    medial_diagram,
    parse_diagram,
    serialize_diagram,
    states,
    tait_cycle_classes,
    tait_graph,
    tilde_kauffman,
    verify_thistlethwaite,
)
from surfpoly.corpus import alternating_diagrams, random_maps
from surfpoly.maps import CombinatorialMap, canonical_code, parse_map_file, random_map
from surfpoly.polynomials import p_bruteforce
from test_polynomials import off_by_one

UNKNOT = "freeloop:\n"
ESSENTIAL = "surface_sigma: (1 3 2 4)\nsurface_alpha: (1 2)(3 4)\nfreeloop: 1\n"
KINK_TORUS = "crossing 1: darts (1 2 3 4) over (1 3)\nalpha: (1 3)(2 4)\norient: 1\n"
KINK_SPHERE = "crossing 1: darts (1 2 3 4) over (1 3)\nalpha: (1 4)(2 3)\norient: 1\n"


def sympy_of(poly, subs):
    expr = sp.Integer(0)
    for exps, c in poly.terms.items():
        mono = sp.Integer(c)
        for v, e in zip(poly.variables, exps):
            mono *= subs[v] ** e
        expr += mono
    return sp.expand(expr)


def test_parse_unknot():
    d = parse_diagram(UNKNOT)
    assert d.n_crossings == 0 and d.genus == 0
    assert len(d.free_loops) == 1


def test_parse_trefoil(data_dir):
    d = parse_diagram((data_dir / "trefoil.vlk").read_text())
    assert d.n_crossings == 3
    assert (d.base.n_vertices, d.base.n_edges, d.base.n_faces) == (3, 6, 5)
    assert d.genus == 0
    assert len(d.strand_components) == 1


def test_parse_virtual_trefoil(data_dir):
    d = parse_diagram((data_dir / "vtrefoil.vlk").read_text())
    assert d.n_crossings == 2 and d.genus == 1


def test_parse_rejects_bad_diagrams():
    with pytest.raises(NotFourValent):
        parse_diagram("crossing 1: darts (1 2 3) over (1 2)\nalpha: (1 2)\n")
    with pytest.raises(OverPairNotOpposite):
        parse_diagram("crossing 1: darts (1 2 3 4) over (1 2)\nalpha: (1 3)(2 4)\n")
    with pytest.raises(LinkFormatError):
        parse_diagram("crossing 1: darts (1 2 3 4) over (1 3)\n")  # no alpha
    with pytest.raises(LinkFormatError):
        # free-loop walks need a crossingless diagram
        parse_diagram(
            "crossing 1: darts (1 2 3 4) over (1 3)\nalpha: (1 3)(2 4)\nfreeloop: 1\n"
        )


def test_serialize_round_trip(data_dir):
    for name in ("trefoil.vlk", "vtrefoil.vlk", "torus-alt.vlk"):
        text = (data_dir / name).read_text()
        d = parse_diagram(text)
        again = parse_diagram(serialize_diagram(d))
        assert again.base == d.base and again.over == d.over


def test_states_examples(tb2):
    st = list(states(parse_diagram(UNKNOT)))
    assert len(st) == 1 and (st[0].c, st[0].r, st[0].k) == (1, 0, 1)
    st = list(states(parse_diagram(ESSENTIAL)))
    assert len(st) == 1 and (st[0].c, st[0].r, st[0].k) == (1, 1, 0)


def test_states_cap_is_checked_at_the_call():
    d = alternating_diagrams(1, 1, 8, seed=5, min_crossings=8)[0]
    assert d.n_crossings == 8
    with pytest.raises(TooManyCrossings):
        states(d, cap=3)  # raised before anything iterates


def test_states_stream_at_twenty_crossings():
    # 2^20 states: the walk yields the first without building the others
    d = alternating_diagrams(1, 2, 20, seed=6, min_crossings=20)[0]
    it = states(d, cap=20)
    first, second = next(it), next(it)
    assert first.choices == (False,) * 20
    assert second.choices == (True,) + (False,) * 19
    assert first.k + first.r == first.c and second.alpha_count == 1


def test_states_trefoil_classical(data_dir):
    d = parse_diagram((data_dir / "trefoil.vlk").read_text())
    for st in states(d):
        assert st.r == 0 and st.k == st.c  # genus 0 forces r = 0


def test_k_plus_r_equals_c_everywhere(data_dir):
    rng = random.Random(71)
    diagrams = [
        parse_diagram((data_dir / n).read_text())
        for n in ("trefoil.vlk", "vtrefoil.vlk", "torus-alt.vlk")
    ]
    diagrams += [medial_diagram(random_map(rng.randint(1, 4), rng)) for _ in range(8)]
    for d in diagrams:
        for st in states(d):
            assert st.k + st.r == st.c
            assert st.alpha_count + st.beta_count == d.n_crossings


def test_kauffman_examples(tb2):
    assert kauffman(parse_diagram(UNKNOT)) == L.variable("d")
    assert kauffman(parse_diagram(ESSENTIAL)) == L.variable("Z")
    kink = parse_diagram(KINK_TORUS)
    assert kauffman(kink) == (L.variable("A") + L.variable("B")) * L.variable("Z")


def test_classical_specialization_is_bracket(data_dir):
    d = parse_diagram((data_dir / "trefoil.vlk").read_text())
    A = sp.Symbol("A")
    mine = sympy_of(
        classical_bracket(d), {"A": A, "B": A ** -1, "d": -(A ** 2) - A ** -2}
    )
    theirs = oracle_bracket((data_dir / "trefoil.vlk").read_text())
    assert sp.expand(mine - theirs) == 0


def test_genus0_diagrams_match_oracle():
    rng = random.Random(73)
    A, t, u = sp.Symbol("A"), sp.Symbol("t"), sp.Symbol("u")
    done = 0
    while done < 12:
        m = random_map(rng.randint(1, 5), rng)
        if m.total_genus != 0:
            continue
        d = medial_diagram(m)
        text = serialize_diagram(d)
        k = kauffman(d)
        assert "Z" not in k.variables  # genus 0: Z never appears
        mine = sympy_of(
            classical_bracket(d), {"A": A, "B": A ** -1, "d": -(A ** 2) - A ** -2}
        )
        assert sp.expand(mine - oracle_bracket(text)) == 0
        mj = sympy_of(jones(d), {"u": u, "Z": sp.Symbol("Z")})
        assert sp.expand(mj.subs(u, t ** sp.Rational(1, 4)) - oracle_jones(text)) == 0
        done += 1


def test_jones_unknot_and_essential():
    assert jones(parse_diagram(UNKNOT)) == 1
    with pytest.raises(NonLaurentResult):
        jones(parse_diagram(ESSENTIAL))
    assert jones(parse_diagram(ESSENTIAL), normalized=False) == L.variable("Z")


def test_jones_right_trefoil(data_dir):
    d = parse_diagram((data_dir / "trefoil.vlk").read_text())
    assert jones(d).to_canonical_string() == "-u^-16 + u^-12 + u^-4"


def test_jones_needs_orientation(data_dir):
    text = (data_dir / "trefoil.vlk").read_text()
    d = parse_diagram("\n".join(l for l in text.splitlines() if not l.startswith("orient")))
    with pytest.raises(MissingOrientation):
        jones(d)


def test_jones_checks_cap_and_orientation_before_the_state_sum(data_dir, monkeypatch):
    # with the walk refused, a diagram without orientation still raises
    # MissingOrientation, and one over the cap TooManyCrossings first
    import dataclasses

    import surfpoly.links as links_module

    def refuse(*args, **kwargs):
        raise AssertionError("the state sum ran before its input was checked")

    monkeypatch.setattr(links_module, "_walk", refuse)
    diagrams = [parse_diagram((data_dir / "trefoil.vlk").read_text())]
    diagrams += alternating_diagrams(1, 2, 9, seed=5, min_crossings=8)
    for d in diagrams:
        bare = dataclasses.replace(d, orientation=None)
        with pytest.raises(MissingOrientation):
            jones(bare)
        with pytest.raises(TooManyCrossings):
            jones(bare, cap=d.n_crossings - 1)


def test_writhe_needs_a_lead_per_component(data_dir):
    # torus-alt has two components; one lead would leave the other unoriented
    text = (data_dir / "torus-alt.vlk").read_text()
    d = parse_diagram(text.replace("orient: 1 5", "orient: 1"))
    with pytest.raises(MissingOrientation):
        jones(d)
    full = parse_diagram(text)
    assert kauffman(d) == kauffman(full)
    assert jones(full).to_canonical_string() == "u^-2 + 2*Z + u^2"


@pytest.mark.parametrize(
    "text, line",
    [
        (KINK_TORUS, "alpha: (1 3)(2 4)"),
        (KINK_TORUS, "alpha: (1 4)(2 3)"),
        (KINK_TORUS, "orient: 2"),
        (ESSENTIAL, "surface_sigma: (1 3 2 4)"),
        (ESSENTIAL, "surface_alpha: (1 2)(3 4)"),
    ],
    ids=["alpha", "other alpha", "orient", "surface_sigma", "surface_alpha"],
)
def test_single_valued_keys_appear_once(text, line):
    key = line.split(":")[0]
    with pytest.raises(LinkFormatError, match=f"duplicate key '{key}'"):
        parse_diagram(text + line + "\n")


def test_freeloop_lines_repeat():
    assert len(parse_diagram(UNKNOT * 3).free_loops) == 3


def test_writhe_matches_oracle():
    rng = random.Random(79)
    for _ in range(10):
        m = random_map(rng.randint(1, 5), rng)
        d = medial_diagram(m)
        assert d.writhe() == oracle_writhe(serialize_diagram(d))


def test_kink_jones_invariance_direction(tb2):
    # writhe of the positive kink is +-1 and flips with the mirror
    k1 = parse_diagram(KINK_SPHERE)
    base = k1.base
    over_m = {
        v: frozenset((base.sigma[min(p)], base.sigma[max(p)])) for v, p in k1.over.items()
    }
    k2 = LinkDiagram(base=base, over=over_m, orientation=k1.orientation)
    assert k1.writhe() == -k2.writhe() and abs(k1.writhe()) == 1
    # both reduce to the unknot's Jones polynomial
    assert jones(k1) == 1 and jones(k2) == 1


def test_tait_graph_trefoil(data_dir, theta):
    d = parse_diagram((data_dir / "trefoil.vlk").read_text())
    t = tait_graph(d)
    tri = theta.dual()
    code = canonical_code(t.map)
    assert code in (canonical_code(theta), canonical_code(tri))
    # shading swap gives the dual Tait graph: mirror the diagram
    base = d.base
    over_m = {
        v: frozenset((base.sigma[min(p)], base.sigma[max(p)])) for v, p in d.over.items()
    }
    t2 = tait_graph(LinkDiagram(base=base, over=over_m))
    assert {code, canonical_code(t2.map)} == {
        canonical_code(theta),
        canonical_code(tri),
    }


def test_tait_graph_torus_diagram(data_dir, tb2):
    d = parse_diagram((data_dir / "torus-alt.vlk").read_text())
    t = tait_graph(d)
    assert t.map.total_genus == 1
    assert canonical_code(t.map) == canonical_code(tb2)


def test_tait_graph_one_crossing_kink(sl, sb):
    # the two shadings of the 1-crossing sphere diagram give the single
    # bridge and the single loop, with P = 1+X and 1+Y side by side
    k1 = parse_diagram(KINK_SPHERE)
    base = k1.base
    over_m = {
        v: frozenset((base.sigma[min(p)], base.sigma[max(p)])) for v, p in k1.over.items()
    }
    k2 = LinkDiagram(base=base, over=over_m, orientation=k1.orientation)
    polys = set()
    for d in (k1, k2):
        t = tait_graph(d)
        assert canonical_code(t.map) in (canonical_code(sl), canonical_code(sb))
        assert verify_thistlethwaite(d).all_passed
        polys.add(p_bruteforce(t.graph).to_canonical_string())
    assert polys == {"1 + X", "1 + Y"}


def test_tait_rejects_non_alternating(data_dir):
    d = parse_diagram((data_dir / "vtrefoil.vlk").read_text())
    assert not d.is_alternating()
    with pytest.raises(NotAlternating):
        tait_graph(d)


def reference_tait(d):
    """The face 2-colouring construction that `tait_graph` replaced: colour
    the faces by a search over their adjacency, shade the class of the
    over darts' faces, and walk each shaded face for its over darts.
    Returns (map, shaded faces, crossing edges, edge base chains)."""
    base = d.base

    def face(f):
        return base.face_cycles[base.face_ids.index(f)]

    color = {}
    for start in base.face_ids:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            f = queue.pop()
            for x in face(f):
                g = base.face_of[base.alpha[x]]
                if g not in color:
                    color[g] = 1 - color[f]
                    queue.append(g)
                assert color[g] != color[f]
    (shade,) = {color[base.face_of[o]] for pair in d.over.values() for o in pair}
    shaded = frozenset(f for f in base.face_ids if color[f] == shade)
    sigma = {}
    for f in shaded:
        local = [x for x in face(f) if d.dart_is_over[x]]
        for i, x in enumerate(local):
            sigma[x] = local[(i + 1) % len(local)]

    def to_corner(o):
        chain = Counter()
        for x in face(base.face_of[o]):
            if x == o:
                return chain
            chain[base.edge_of(x)] += 1 if x == base.edge_of(x) else -1

    alpha, crossing_edge, edge_chain = {}, {}, {}
    for v, pair in d.over.items():
        o1, o2 = sorted(pair)
        alpha[o1], alpha[o2] = o2, o1
        crossing_edge[v] = o1
        chain = to_corner(o1)
        chain.subtract(to_corner(o2))
        edge_chain[o1] = {e: c for e, c in chain.items() if c}
    return CombinatorialMap(sigma, alpha), shaded, crossing_edge, edge_chain


def test_tait_graph_matches_two_colouring_reference(data_dir):
    diagrams = [parse_diagram(p.read_text()) for p in sorted(data_dir.glob("*.vlk"))]
    diagrams = [d for d in diagrams if d.is_alternating()]
    assert len(diagrams) == 2
    for genus in range(4):
        diagrams += alternating_diagrams(8, genus, 9, seed=60 + genus)
    for d in diagrams:
        t = tait_graph(d)
        g_map, shaded, crossing_edge, edge_chain = reference_tait(d)
        assert t.map == g_map
        assert t.map.sigma == {x: d.base.phi(x) for x in d.base.darts if d.dart_is_over[x]}
        assert {d.base.face_of[x] for x in t.map.darts} == shaded
        assert t.crossing_edge == crossing_edge
        for e, chain in edge_chain.items():
            back = [d.base.alpha[x] for x in _face_walk_to(d.base, t.map.alpha[e])]
            assert d.base.chain(_face_walk_to(d.base, e) + back) == chain


def test_tait_graph_of_a_split_diagram(data_dir):
    # each split component's faces get their own 2-colouring, which can put
    # the over darts of the two parts in opposite classes; their faces are
    # still all-over or all-under
    trefoil = parse_diagram((data_dir / "trefoil.vlk").read_text())
    torus = parse_diagram((data_dir / "torus-alt.vlk").read_text())
    s = torus.base.sigma
    mirror = LinkDiagram(
        base=torus.base, over={v: frozenset(s[x] for x in p) for v, p in torus.over.items()}
    )
    for one, two in ((trefoil, mirror), (mirror, trefoil)):
        off = max(one.base.darts)
        over = dict(one.over)
        over.update({v + off: frozenset(x + off for x in p) for v, p in two.over.items()})
        d = LinkDiagram(base=one.base.disjoint_union(two.base), over=over)
        parts = tait_graph(one).map.disjoint_union(tait_graph(two).map)
        assert canonical_code(tait_graph(d).map) == canonical_code(parts)
        assert verify_thistlethwaite(d).all_passed


CROSSING = "crossing 1: darts (1 2 3 4) over (1 3)\n"
SURFACE = "surface_sigma: (1 3 2 4)\n"


@pytest.mark.parametrize(
    "parse, text, error, message",
    [
        (parse_map_file, "sigma: (1 2 3)\nalpha: (1 2 3)\n", AlphaNotInvolution,
         "alpha must be a product of 2-cycles, got cycle (1, 2, 3)"),
        (parse_map_file, "sigma: (1 2)\nalpha: (1)(2)\n", AlphaNotInvolution,
         "alpha must be a product of 2-cycles, got cycle (1,)"),
        (parse_map_file, "sigma: (1 2)(3 4)\nalpha: (1 2)(1 3)\n", MalformedPermutation,
         "dart 1 repeated in alpha"),
        (parse_map_file, "sigma: (1 2)\nalpha: (1 2) x\n", MapFormatError,
         "stray tokens in alpha permutation: 'x'"),
        (parse_map_file, "sigma: (1 2)\nalpha: (1 a)\n", MapFormatError,
         "non-integer dart in alpha: '1 a'"),
        (parse_diagram, CROSSING + "alpha: (1 2 3 4)\n", LinkFormatError,
         "alpha must pair darts along strands"),
        (parse_diagram, CROSSING + "alpha: (1 3)(1 4)\n", MalformedPermutation,
         "dart 1 repeated in alpha"),
        (parse_diagram, CROSSING + "alpha: (1 3)(2 4) 5\n", MapFormatError,
         "stray tokens in alpha permutation: '5'"),
        (parse_diagram, SURFACE + "surface_alpha: (1 2 3 4)\n", LinkFormatError,
         "surface_alpha must be an involution"),
        (parse_diagram, SURFACE + "surface_alpha: (1 2)(1 3)\n", MalformedPermutation,
         "dart 1 repeated in surface_alpha"),
        (parse_diagram, SURFACE + "surface_alpha: (1 2)(3 b)\n", MapFormatError,
         "non-integer dart in surface_alpha: '3 b'"),
    ],
)
def test_malformed_involution_lines_keep_their_errors(parse, text, error, message):
    with pytest.raises(MapFormatError) as info:
        parse(text)
    assert type(info.value) is error and str(info.value) == message


def test_empty_surface_keeps_its_bytes():
    text = "surface_sigma: \nsurface_alpha: \nfreeloop:\n"
    d = parse_diagram("surface_sigma: ()\nsurface_alpha: ()\nfreeloop:\n")
    assert d.surface is not None and serialize_diagram(d) == text
    assert serialize_diagram(parse_diagram(text)) == text


def test_medial_inverts_tait():
    rng = random.Random(83)
    for _ in range(10):
        m = random_map(rng.randint(1, 5), rng)
        d = medial_diagram(m)
        assert d.is_alternating()
        assert d.genus == m.total_genus
        t = tait_graph(d)
        assert canonical_code(t.map) == canonical_code(m)


def test_tilde_kauffman_specializes(data_dir, tb2):
    d = medial_diagram(tb2)
    parts = tilde_kauffman(d)
    spec = sum(
        (poly * L.monomial(1, {"Z": v.dim}) for v, poly in parts), L.zero()
    )
    assert spec == kauffman(d)
    # sphere diagrams: every coefficient is the zero subspace
    tre = parse_diagram((data_dir / "trefoil.vlk").read_text())
    assert all(v.dim == 0 for v, _ in tilde_kauffman(tre))
    # essential loop: single coefficient, the line it spans
    parts = tilde_kauffman(parse_diagram(ESSENTIAL))
    assert len(parts) == 1 and parts[0][0].dim == 1 and parts[0][1] == 1


def state_by_state_brackets(d):
    """kauffman and tilde_kauffman as sums of one monomial
    A^a B^b d^k Z^r per state of `states()`, and the latter grouped by the
    state's subspace, in order of (dim, basis)."""
    total, grouped = L.zero(), {}
    for st in states(d):
        mono = {"A": st.alpha_count, "B": st.beta_count, "d": st.k}
        total += L.monomial(1, {**mono, "Z": st.r})
        grouped[st.subspace] = grouped.get(st.subspace, L.zero()) + L.monomial(1, mono)
    return total, sorted(grouped.items(), key=lambda vp: (vp[0].dim, vp[0].basis))


def test_brackets_equal_the_state_by_state_sums(data_dir):
    diagrams = [parse_diagram(p.read_text()) for p in sorted(data_dir.glob("*.vlk"))]
    assert len(diagrams) == 3
    diagrams += [parse_diagram(UNKNOT), parse_diagram(ESSENTIAL), parse_diagram(ESSENTIAL + "freeloop:\n")]
    diagrams += alternating_diagrams(3, 1, 8, seed=11, min_crossings=5)
    diagrams += alternating_diagrams(3, 2, 8, seed=12, min_crossings=5)
    assert {d.genus for d in diagrams} == {0, 1, 2}
    for d in diagrams:
        total, parts = state_by_state_brackets(d)
        assert kauffman(d) == total
        assert kauffman(d).to_canonical_string() == total.to_canonical_string()
        got = tilde_kauffman(d)
        assert [v for v, _ in got] == [v for v, _ in parts]
        assert [p.to_canonical_string() for _, p in got] == [p.to_canonical_string() for _, p in parts]


def test_brackets_build_no_resolution_state(data_dir, monkeypatch):
    """kauffman, tilde_kauffman, jones and classical_bracket read the count
    of states per key: neither `states()` nor `ResolutionState` runs."""
    import surfpoly.links as links_module

    diagrams = [
        parse_diagram((data_dir / name).read_text()) for name in ("trefoil.vlk", "torus-alt.vlk")
    ]
    diagrams += alternating_diagrams(2, 2, 8, seed=12, min_crossings=5)
    fns = (kauffman, tilde_kauffman, jones, classical_bracket)
    expected = [[fn(d) for fn in fns] for d in diagrams]

    def refuse(*args, **kwargs):
        raise AssertionError("a bracket was built state by state")

    monkeypatch.setattr(links_module, "ResolutionState", refuse)
    monkeypatch.setattr(links_module, "states", refuse)
    assert [[fn(d) for fn in fns] for d in diagrams] == expected


def test_tilde_kauffman_remark1_tait_correspondence():
    # state subspace = V(H) ∩ V(H)^perp for the matching Tait subgraph
    rng = random.Random(89)
    done = 0
    while done < 6:
        m = random_map(rng.randint(1, 4), rng)
        if m.total_genus < 1:
            continue
        d = medial_diagram(m)
        tait = tait_graph(d)
        hom = SurfaceHomology(d.base)
        for st in states(d):
            h = [
                tait.crossing_edge[v]
                for i, v in enumerate(d.crossings)
                if st.choices[i]
            ]
            vh = tait_cycle_classes(d, tait, h, hom)
            expected = vh.intersection(orthogonal_complement(vh, hom.form))
            got = Subspace.from_vectors(
                [hom.project_chain(d.base.chain(c)) for c in st.curves],
                hom.dim,
            )
            assert got == expected
        done += 1


def test_thistlethwaite_trefoil(data_dir):
    d = parse_diagram((data_dir / "trefoil.vlk").read_text())
    assert verify_thistlethwaite(d).all_passed


def test_thistlethwaite_shading_swap_duality(data_dir):
    from surfpoly.polynomials import verify_duality

    d = parse_diagram((data_dir / "torus-alt.vlk").read_text())
    t = tait_graph(d)
    assert verify_duality(t.map).all_passed
    assert verify_duality(t.map.dual()).all_passed


def test_thistlethwaite_random_surfaces():
    rng = random.Random(97)
    done = 0
    while done < 8:
        m = random_map(rng.randint(2, 5), rng)
        if m.total_genus not in (1, 2):
            continue
        assert verify_thistlethwaite(medial_diagram(m)).all_passed
        done += 1


def test_thistlethwaite_sweeps_states_once(data_dir, monkeypatch):
    """One frontier DP over the joint Tait, curve and region union-find
    counts the states; a pass walks no mask, and a failure walks once, up
    to its witness's leaf.  Neither `states()`, `scan()` nor the curves'
    homology walk runs."""
    engine = importlib.import_module("surfpoly.invariants")
    import surfpoly.homology as homology_module
    import surfpoly.links as links_module

    walks, dps = [], []
    real_walk, real_dp = engine.walk, engine.frontier_counts

    def counted(*args):
        i = len(walks)
        walks.append(0)
        for acc in real_walk(*args):
            walks[i] += 1
            yield acc

    def counted_dp(*args):
        dps.append(1)
        return real_dp(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("the Thistlethwaite check swept states or Tait subgraphs again")

    for module in (engine, homology_module, links_module):
        monkeypatch.setattr(module, "walk", counted)
    for module in (engine, links_module):
        monkeypatch.setattr(module, "frontier_counts", counted_dp)
    for module, name in [
        (links_module, "states"),
        (links_module, "ResolutionState"),
        (links_module, "_walk"),
        (engine, "scan"),
        (engine.SubgraphScanner, "codes"),
        (engine.SubgraphScanner, "code_counts"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    genus2 = next(
        m for m in (random_map(n, random.Random(n)) for n in range(4, 40)) if m.total_genus == 2
    )
    diagrams = (parse_diagram((data_dir / "trefoil.vlk").read_text()), medial_diagram(genus2))
    for d in diagrams:
        walks.clear()
        dps.clear()
        assert verify_thistlethwaite(d).all_passed
        assert (walks, dps) == ([], [1])
    # l(H) one too high on every two-edge Tait subgraph: mask 0b11 fails first
    real_decode = engine.SubgraphScanner.decode
    monkeypatch.setattr(
        engine.SubgraphScanner,
        "decode",
        lambda self, code: (lambda inv: inv._replace(l=inv.l + 1) if inv.e == 2 else inv)(
            real_decode(self, code)
        ),
    )
    for d in diagrams:
        walks.clear()
        dps.clear()
        verdict = verify_thistlethwaite(d).verdicts[1]
        assert verdict.witness == f"subgraph mask 3 of {serialize_diagram(d)!r}"
        assert (walks, dps) == ([4], [1])


def test_thistlethwaite_reads_p_off_the_tait_sweep(data_dir, monkeypatch):
    from surfpoly.invariants import SubgraphScanner

    calls = []
    real = SubgraphScanner.code_counts

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(SubgraphScanner, "code_counts", counted)
    for name in ("trefoil.vlk", "torus-alt.vlk"):
        assert verify_thistlethwaite(parse_diagram((data_dir / name).read_text())).all_passed
    assert calls == []


@pytest.mark.parametrize(
    "count, genus, max_edges, seed, min_crossings", [(4, 1, 6, 5, 4), (3, 2, 7, 6, 5)]
)
def test_thistlethwaite_witness_is_the_least_failing_tait_mask(
    monkeypatch, count, genus, max_edges, seed, min_crossings
):
    # with the first and last crossings' Tait edges swapped, states fail the
    # per-state check; the witness names the least failing Tait subgraph mask,
    # found here state by state from the subgraph's own edge set
    import dataclasses

    import surfpoly.links as links_module
    from surfpoly.invariants import SubgraphScanner

    real = links_module.tait_graph

    def swapped(diagram):
        tait = real(diagram)
        first, last = diagram.crossings[0], diagram.crossings[-1]
        edges = dict(tait.crossing_edge)
        edges[first], edges[last] = edges[last], edges[first]
        return dataclasses.replace(tait, crossing_edge=edges)

    monkeypatch.setattr(links_module, "tait_graph", swapped)
    for d in alternating_diagrams(count, genus, max_edges, seed=seed, min_crossings=min_crossings):
        tait = swapped(d)
        sc = SubgraphScanner(tait.graph)
        e = tait.map.n_edges
        failing = []
        for st in states(d):
            h = [tait.crossing_edge[x] for x, chosen in zip(d.crossings, st.choices) if chosen]
            mask = sc.mask_of(h)
            inv = sc.invariants_of_mask(mask)
            if (st.alpha_count, st.beta_count, st.c, st.k, st.r) != (
                inv.e, e - inv.e, inv.bc, inv.c + inv.k, inv.l
            ):
                failing.append(mask)
        verdict = verify_thistlethwaite(d).verdicts[1]
        assert failing and not verdict.passed
        assert verdict.witness == f"subgraph mask {min(failing)} of {serialize_diagram(d)!r}"


@pytest.mark.parametrize(
    "field",
    ["l", "k", "e", "bc"],
    ids=["r(S) = l(H)", "k(S) = c(H) + k(H)", "a(S) = e(H)", "c(S) = bc(H)"],
)
@pytest.mark.parametrize("empty", [True, False], ids=["empty H", "all edges"])
def test_thistlethwaite_fails_on_one_miscounted_tait_invariant(data_dir, monkeypatch, field, empty):
    """A decoded Tait l, k, e or bc one too large on one subgraph, the empty
    one or the full one: only the per-state check on that field can catch
    it, and the witness is that subgraph's mask.  For e that check is
    a(S) = e(H), where a(S) is a field of its own in the joint code."""
    from surfpoly.invariants import SubgraphScanner

    real = SubgraphScanner.decode
    target = {}

    def miscount(self, code):
        inv = real(self, code)
        if inv.e == target["e"]:
            inv = inv._replace(**{field: getattr(inv, field) + 1})
        return inv

    monkeypatch.setattr(SubgraphScanner, "decode", miscount)
    diagrams = [
        parse_diagram((data_dir / name).read_text()) for name in ("trefoil.vlk", "torus-alt.vlk")
    ]
    diagrams += alternating_diagrams(2, 2, 7, seed=6, min_crossings=5)
    for d in diagrams:
        n = d.n_crossings
        target["e"] = 0 if empty else n
        verdict = verify_thistlethwaite(d).verdicts[1]
        assert not verdict.passed
        mask = 0 if empty else (1 << n) - 1
        assert verdict.witness == f"subgraph mask {mask} of {serialize_diagram(d)!r}"


def test_thistlethwaite_fails_on_one_miscounted_p_coefficient(data_dir, monkeypatch):
    """P_G with one coefficient one too large: only the bracket check reads
    it, so that verdict fails with the diagram as witness, K_D is still the
    bracket, and the per-state check passes."""
    import surfpoly.links as links_module

    real = links_module._p_of
    monkeypatch.setattr(links_module, "_p_of", lambda hist: off_by_one(real(hist)))
    diagrams = [
        parse_diagram((data_dir / name).read_text()) for name in ("trefoil.vlk", "torus-alt.vlk")
    ]
    diagrams += alternating_diagrams(2, 2, 7, seed=6, min_crossings=5)
    for d in diagrams:
        rep = verify_thistlethwaite(d)
        bracket, per_state = rep.verdicts
        assert bracket.identity.startswith("bracket K_D")
        assert not bracket.passed and bracket.witness == f"diagram: {serialize_diagram(d)!r}"
        assert per_state.passed
        assert rep.polynomials == {"K_D": kauffman(d).to_canonical_string()}


def test_joint_walk_matches_the_homology_states(data_dir):
    """State by state, the joint union-find's (a, c, k, r) equal those of
    `states()`, whose r is the dimension of the curves' span in H1: the
    region count stays checked against the homology route.  Crossing bit x
    is Tait bit sc.eidx[tait.crossing_edge[x]], and the frontier DP counts
    exactly the joint walk's codes."""
    from surfpoly.invariants import SubgraphScanner, _link, frontier_counts, walk
    from surfpoly.links import _joint_steps

    bundled = [parse_diagram(path.read_text()) for path in sorted(data_dir.glob("*.vlk"))]
    diagrams = [d for d in bundled if d.is_alternating()]
    assert len(diagrams) == 2  # the virtual trefoil has no Tait graph
    for genus in (1, 2, 3):
        diagrams += alternating_diagrams(4, genus, 10, seed=genus, min_crossings=4)
    diagrams += [medial_diagram(m) for m in random_maps(12, 8, 3) if m.n_edges]
    for d in diagrams:
        tait = tait_graph(d)
        sc = SubgraphScanner(tait.graph)
        parent, code, steps, split = _joint_steps(d, tait, sc)
        codes = list(walk(list(parent), code, steps, _link))
        assert frontier_counts(code, steps) == Counter(codes)
        bits = [sc.eidx[tait.crossing_edge[x]] for x in d.crossings]
        for st in states(d):
            mask = sum(1 << bit for i, bit in enumerate(bits) if st.mask >> i & 1)
            _, a, c, k = split(codes[mask])
            assert (a, c, k, c - k) == (st.alpha_count, st.c, st.k, st.r)
