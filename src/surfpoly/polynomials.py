"""The four-variable surface polynomial and its classical specializations.

The central state sum, over spanning subgraphs H of a marked graph G in a
host surface of total genus g:

    P(X,Y,A,B) = sum_H  X^(c(H)-c(G)) * Y^k(H) * A^(s(H)/2) * B^(s_perp(H)/2)

Two evaluators are provided: a projection of the histogram of subgraph
invariants, which the engine counts with a frontier DP edge by edge, and
contraction-deletion over an explicit work stack (on the lowest non-loop
edge: a (1+X) factor for a bridge, delete plus contract otherwise, and at a
leaf the DP over its loops with its forest pinned in and its deletions
out).  The verifiers compute both sides of each published identity
exactly and compare canonical forms.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable, Sequence

from .invariants import DEFAULT_CAP, SubgraphInvariants, SubgraphScanner, check_cap
from .invariants import frontier_counts, histogram
from .laurent import LaurentPolynomial
from .maps import CombinatorialMap, EmbeddedSubgraph, UnionFind, find
from .report import PolynomialReport, Verdict

_PVARS = ("X", "Y", "A", "B")


# -- projections of the invariant histogram -------------------------------------

def _exponents(
    hist: Counter, key: Callable[[SubgraphInvariants, int], tuple[int, ...]]
) -> Counter:
    """Subgraph counts per exponent vector ``key(inv, c(G))``; c(G) is the
    least component count, reached at H = G."""
    c_g = min(inv.c for inv in hist)
    out: Counter = Counter()
    for inv, cnt in hist.items():
        out[key(inv, c_g)] += cnt
    return out


def _p_key(i: SubgraphInvariants, c_g: int) -> tuple[int, ...]:
    return (i.c - c_g, i.k, i.s // 2, i.s_perp // 2)


def _p_of(hist: Counter) -> LaurentPolynomial:
    return LaurentPolynomial(_PVARS, _exponents(hist, _p_key))


def _br_of(hist: Counter) -> LaurentPolynomial:
    counts = _exponents(hist, lambda i, c_g: (i.c - c_g, i.n, i.c - i.bc + i.n))
    x = LaurentPolynomial.variable("X")
    return LaurentPolynomial(("X", "Y", "Z"), counts).substitute({"X": x - 1})


def _p_prime_of(hist: Counter) -> LaurentPolynomial:
    return LaurentPolynomial(
        _PVARS, _exponents(hist, lambda i, c_g: (i.c - c_g, i.n, i.s, i.s_perp))
    )


def _ribbon_histogram(m: CombinatorialMap, cap: int | None) -> Counter:
    """The histogram of the full ribbon graph of m, counted once per map and
    kept on it (a map is immutable).  The cap is checked on every call, and
    a failed count (TooManyStates) leaves nothing behind."""
    check_cap(m.n_edges, cap)
    memo = vars(m)
    if "_ribbon_histogram" not in memo:
        memo["_ribbon_histogram"] = histogram(EmbeddedSubgraph.full(m), None)
    return memo["_ribbon_histogram"]


def _ribbon_p(m: CombinatorialMap, cap: int | None) -> LaurentPolynomial:
    """P of the full ribbon graph of m, read off its kept histogram once and
    kept beside it, so every report of m shares one P and its string."""
    hist = _ribbon_histogram(m, cap)
    memo = vars(m)
    if "_ribbon_p" not in memo:
        memo["_ribbon_p"] = _p_of(hist)
    return memo["_ribbon_p"]


def p_bruteforce(
    graph: EmbeddedSubgraph | CombinatorialMap, cap: int = DEFAULT_CAP
) -> LaurentPolynomial:
    """The state sum over all 2^e spanning subgraphs, read off the invariant
    histogram, which the frontier DP counts edge by edge."""
    if isinstance(graph, CombinatorialMap):
        return _ribbon_p(graph, cap)
    return _p_of(histogram(graph, cap))


def p_recursive(
    graph: EmbeddedSubgraph | CombinatorialMap, cap: int = DEFAULT_CAP
) -> LaurentPolynomial:
    """Contraction-deletion on the lowest non-loop edge e: (1+X) P(G/e) when
    deleting e raises the component count (a bridge), P(G-e) + P(G/e)
    otherwise, and at a minor whose marked edges are all loops, the frontier
    DP's counts of the input's subgraphs with that minor's forest pinned in
    and its deletions pinned out; agrees with p_bruteforce wherever both
    run.  A work stack holds each minor's
    union-find of the marked vertices (a parent dict, joined along its
    contracted edges), its contracted, deleted and loop edges, its pending
    edges and its count b of contracted bridges, edges as indices into the
    input's one :class:`SubgraphScanner`.  A loop stays a loop under
    contraction, so each edge is tested once as it leaves the front of the
    pending edges; the bridge test joins a throwaway copy of the dict along
    the pending edges after e.  The deletion child takes a copy of the dict
    and the contraction child one more union.  Contracting a non-loop edge
    changes none of c, k, s and s_perp, so a leaf's minor is the input with
    its maximal spanning forest pinned in and its deleted edges pinned out
    (:meth:`SubgraphScanner.pinned`): the frontier DP over its loops counts
    input codes, summed per b.  Each distinct code is decoded once at the
    end, c(G) is the least decoded c, and (1+X)^b is expanded by binomials.
    More than ``cap`` edges are refused on entry; a leaf's DP is over fewer
    edges, so it is not capped again."""
    if isinstance(graph, CombinatorialMap):
        graph = EmbeddedSubgraph.full(graph)
    check_cap(len(graph.sorted_edges), cap)
    sc = SubgraphScanner(graph)
    ends = [graph.host.edge_endpoints(e) for e in sc.edges]
    residues: Counter = Counter()  # (b, code) -> subgraph count
    stack = [({v: v for v in graph.g_vertices}, (), (), (), tuple(range(len(ends))), 0)]
    while stack:
        parent, contracted, deleted, loops, pending, bridges = stack.pop()
        for i, edge in enumerate(pending):
            a, b = ends[edge]
            u, w = find(parent, a), find(parent, b)
            if u != w:
                break
        else:
            counts = frontier_counts(*sc.pinned(contracted, deleted, loops + pending))
            for code, cnt in counts.items():
                residues[bridges, code] += cnt
            continue
        loops, rest = loops + pending[:i], pending[i + 1:]
        joined = parent.copy()
        for a, b in map(ends.__getitem__, rest):
            a, b = find(joined, a), find(joined, b)
            joined[b] = a
        if find(joined, u) != find(joined, w):  # a bridge
            parent[w] = u
            stack.append((parent, (*contracted, edge), deleted, loops, rest, bridges + 1))
        else:
            stack.append((parent.copy(), contracted, (*deleted, edge), loops, rest, bridges))
            parent[w] = u
            stack.append((parent, (*contracted, edge), deleted, loops, rest, bridges))
    decoded = {code: sc.decode(code) for _, code in residues}
    c_g = min(inv.c for inv in decoded.values())
    terms: Counter = Counter()
    for (bridges, code), cnt in residues.items():
        x, *yab = _p_key(decoded[code], c_g)
        for j in range(bridges + 1):
            terms[(x + j, *yab)] += math.comb(bridges, j) * cnt
    return LaurentPolynomial(_PVARS, terms)


# -- classical polynomials ----------------------------------------------------

def tutte(
    vertices: Iterable, edges: Sequence[tuple], cap: int = DEFAULT_CAP
) -> LaurentPolynomial:
    """Whitney-rank normalization of the Tutte polynomial of an abstract
    multigraph: sum over spanning H of X^(c(H)-c(G)) Y^(n(H)).

    Deletion-contraction on the multigraph alone, independent of the ribbon
    structure and the subgraph scanner, so that the Tutte identity checks
    the scanner: each loop is a factor (1+Y), and the loopless rest is
    expanded level by level.  ``levels[k]`` maps each pending relabelled
    multigraph with k edges to the summed factors of the branches that
    reach it; levels go from most edges to fewest, so each multigraph is
    expanded by ``_tutte_minors`` once, after every branch into it."""
    edges = list(edges)
    check_cap(len(edges), cap)
    index = {v: i for i, v in enumerate(dict.fromkeys(vertices))}
    ends = [(index[u], index[w]) for u, w in edges]
    loopless = [(u, w) for u, w in ends if u != w]
    loops = len(ends) - len(loopless)
    levels: list[dict[tuple, dict]] = [{} for _ in loopless]
    levels.append({_relabel(loopless): {(0, 0): 1}})
    while len(levels) > 1:
        for graph, terms in levels.pop().items():
            for minor, factor in _tutte_minors(graph):
                _times(levels[len(minor)].setdefault(minor, {}), terms, factor)
    terms = _times({}, levels[0][()], [(0, j, math.comb(loops, j)) for j in range(loops + 1)])
    return LaurentPolynomial(("X", "Y"), terms)


def _tutte_minors(edges: tuple) -> list[tuple[tuple, list[tuple[int, int, int]]]]:
    """The minors of the loopless multigraph ``edges``, relabelled so that
    its first edge is (0, 1), each with its factor as ``_times`` takes it.
    That edge's parallel class of k edges is absent from a subgraph, or
    present with j >= 1 edges, which give sum_j C(k, j) Y^(j-1) times the
    graph with the class contracted (no loop appears).  Absent, it leaves
    the graph with the class deleted, times X if the class is a cut; a
    cut's deletion and contraction differ by a one-point join, which does
    not change the sum, so a cut needs one branch.  Minors keep the input
    edge order, so branches that reach the same multigraph meet."""
    rest = [e for e in edges if e != (0, 1)]
    k = len(edges) - len(rest)
    factor = [(0, j - 1, math.comb(k, j)) for j in range(1, k + 1)]
    parts = UnionFind(range(max(map(max, edges)) + 1))
    for u, w in rest:
        parts.union(u, w)
    minors = [(_relabel(rest, contract=True), factor)]
    if parts.find(0) == parts.find(1):
        minors.append((_relabel(rest), [(0, 0, 1)]))
    else:  # a cut
        factor.append((1, 0, 1))
    return minors


def _relabel(edges: list[tuple[int, int]], contract: bool = False) -> tuple:
    """``edges`` in the same order, with vertex 1 merged into vertex 0 if
    ``contract``, and the vertices renumbered by first appearance."""
    names: dict[int, int] = {}
    out = []
    for u, w in edges:
        if contract:
            u, w = u if u != 1 else 0, w if w != 1 else 0
        u, w = names.setdefault(u, len(names)), names.setdefault(w, len(names))
        out.append((u, w) if u < w else (w, u))
    return tuple(out)


def _times(out: dict, terms: dict, factor: list[tuple[int, int, int]]) -> dict:
    """Add ``terms`` times the polynomial sum c X^i Y^j over ``factor``'s
    (i, j, c) into ``out``, and return it."""
    for (i, j), c in terms.items():
        for di, dj, f in factor:
            key = (i + di, j + dj)
            out[key] = out.get(key, 0) + c * f
    return out


def abstract_graph(graph: EmbeddedSubgraph | CombinatorialMap) -> tuple[list, list]:
    """Underlying abstract multigraph of the marked graph (isolated host
    vertices included as extra degree-0 vertices)."""
    if isinstance(graph, CombinatorialMap):
        graph = EmbeddedSubgraph.full(graph)
    verts: list = sorted(graph.g_vertices)
    verts.extend(("iso", i) for i in range(graph.host.isolated_vertices))
    edges = [graph.host.edge_endpoints(e) for e in graph.sorted_edges]
    return verts, edges


def bollobas_riordan(m: CombinatorialMap, cap: int = DEFAULT_CAP) -> LaurentPolynomial:
    """BR(X,Y,Z) = sum_H (X-1)^(r(G)-r(H)) Y^n(H) Z^(c(H)-bc(H)+n(H)) over
    spanning subgraphs of the ribbon graph; the Z exponent equals s(H)."""
    return _br_of(_ribbon_histogram(m, cap))


def p_prime(m: CombinatorialMap, cap: int = DEFAULT_CAP) -> LaurentPolynomial:
    """Combinatorial variant for ribbon graphs with undoubled exponents:
    sum_H X^(c(H)-c(G)) Y^n(H) A^s(H) B^(s_perp(H))."""
    return _p_prime_of(_ribbon_histogram(m, cap))


# -- verifiers ------------------------------------------------------------------

def _witness(m: CombinatorialMap) -> str:
    from .maps import serialize_map

    return serialize_map(m, canonical=True).replace("\n", "; ")


def verify_duality(m: CombinatorialMap, cap: int = DEFAULT_CAP) -> PolynomialReport:
    """P_G(X,Y,A,B) = P_{G*}(Y,X,B,A), both sides computed independently."""
    p = p_bruteforce(m, cap=cap)
    dual = m.dual()
    p_dual = p_bruteforce(dual, cap=cap)
    swapped = p_dual.rename({"X": "Y", "Y": "X", "A": "B", "B": "A"})
    ok = p == swapped
    return PolynomialReport(
        description=f"duality on {m!r}",
        polynomials={
            "P_G": p.to_canonical_string(),
            "P_G*": p_dual.to_canonical_string(),
        },
        verdicts=(
            Verdict(
                "duality P_G(X,Y,A,B) = P_G*(Y,X,B,A)",
                ok,
                None if ok else _witness(m),
            ),
        ),
    )


def component_maps(m: CombinatorialMap) -> list[CombinatorialMap]:
    """Connected components as standalone maps (isolated vertices last)."""
    out = []
    for comp in m.dart_components:
        sigma = {d: m.sigma[d] for d in comp}
        alpha = {d: m.alpha[d] for d in comp}
        out.append(CombinatorialMap(sigma, alpha, 0))
    for _ in range(m.isolated_vertices):
        out.append(CombinatorialMap({}, {}, 1))
    return out


def verify_specializations(m: CombinatorialMap, cap: int = DEFAULT_CAP) -> PolynomialReport:
    """All specialization identities of the surface polynomial on one ribbon
    graph: Tutte, Bollobas-Riordan, both partial BR dualities (directly and
    through the main duality), the undoubled-variant relation, and component
    multiplicativity."""
    g = m.total_genus
    # P, BR and P' are read from the one histogram kept on m
    hist = _ribbon_histogram(m, cap)
    p = _ribbon_p(m, cap)
    y = LaurentPolynomial.variable("Y")
    verdicts = []

    def check(name: str, ok: bool) -> None:
        verdicts.append(Verdict(name, ok, None if ok else _witness(m)))

    # T_G = Y^g P(X, Y, Y, Y^-1)
    t = tutte(*abstract_graph(m), cap=cap)
    spec = (y ** g) * p.substitute({"A": y, "B": y ** -1})
    check("tutte T_G = Y^g P(X,Y,Y,Y^-1)", t == spec)

    # BR_G = Y^g P(X-1, Y, Y Z^2, Y^-1)
    br = _br_of(hist)
    x = LaurentPolynomial.variable("X")
    z = LaurentPolynomial.variable("Z")
    spec = (y ** g) * p.substitute({"X": x - 1, "A": y * z * z, "B": y ** -1})
    check("bollobas-riordan BR_G = Y^g P(X-1,Y,YZ^2,Y^-1)", br == spec)

    dual = m.dual()
    br_dual = bollobas_riordan(dual, cap=cap)
    t_var = LaurentPolynomial.variable("t")
    one_var = {
        "X": 1 + t_var,
        "Y": t_var,
        "Z": t_var ** -1,
    }
    br_one_var = br.substitute(one_var)
    check(
        "BR partial duality BR_G(1+t,t,1/t) = BR_G*(1+t,t,1/t)",
        br_one_var == br_dual.substitute(one_var),
    )
    # same relation as a consequence of the main duality through the BR lemma
    check(
        "BR(1+t,t,1/t) = t^g P_G(t,t,1/t,1/t)",
        br_one_var
        == (t_var ** g) * p.substitute({v: t_var if v in ("X", "Y") else t_var ** -1 for v in _PVARS}),
    )

    # two-variable duality with (XY)^(-1/2): check on the square sublattice
    # X = x^2, Y = y^2 where every exponent is integral
    xs = LaurentPolynomial.variable("x")
    ys = LaurentPolynomial.variable("y")
    lhs = br.substitute(
        {"X": 1 + xs * xs, "Y": ys * ys, "Z": LaurentPolynomial.monomial(1, {"x": -1, "y": -1})}
    )
    rhs = br_dual.substitute(
        {"X": 1 + ys * ys, "Y": xs * xs, "Z": LaurentPolynomial.monomial(1, {"x": -1, "y": -1})}
    )
    factor = LaurentPolynomial.monomial(1, {"x": -2, "y": 2}) ** g
    check(
        "BR 2-variable duality BR_G(1+X,Y,(XY)^-1/2) = (Y/X)^g BR_G*(1+Y,X,(XY)^-1/2)",
        lhs == factor * rhs,
    )

    # corrected undoubled-variant relation (integral version of the paper's
    # half-integer substitution)
    pp = _p_prime_of(hist)
    a = LaurentPolynomial.variable("A")
    b = LaurentPolynomial.variable("B")
    check(
        "P' relation P'(X,Y,A,B) = Y^g P(X,Y,A^2 Y,B^2 Y^-1)",
        pp == (y ** g) * p.substitute({"A": a * a * y, "B": b * b * (y ** -1)}),
    )

    # multiplicativity over ribbon components; a connected map is its own
    # only component, so its product is p and is not swept again
    comps = component_maps(m)
    product = p if len(comps) == 1 else math.prod(
        (p_bruteforce(comp, cap=cap) for comp in comps), start=LaurentPolynomial.constant(1)
    )
    check("ribbon multiplicativity over disjoint components", p == product)

    return PolynomialReport(
        description=f"specializations on {m!r}",
        polynomials={
            "P_G": p.to_canonical_string(),
            "T_G": t.to_canonical_string(),
            "BR_G": br.to_canonical_string(),
            "P'_G": pp.to_canonical_string(),
        },
        verdicts=tuple(verdicts),
    )
