"""Link diagrams on surfaces: brackets, Jones polynomials, Tait graphs.

A diagram is a 4-valent map whose vertices are crossings, decorated with the
opposite dart pair of the over-strand; capping the faces with disks yields
the ambient surface (per virtual-link irreducibility, every complementary
face is a disk).  Crossingless unknot components are special-cased as free
loops: closed dart walks on an explicitly given surface map (a crossingless
curve cannot itself cellulate a positive-genus surface).

State sums follow the two smoothings of each crossing.  The type-(1)
("A") smoothing joins each over dart to its rotation successor; this is the
smoothing that joins the two shaded corners of a checkerboard-colored
alternating diagram, which is exactly what the Tait-graph correspondence
requires (the acceptance suite pins the convention by forcing the
Thistlethwaite-type identity to hold).

The brackets read one count of the states per (a(S), span, c(S)) off the
walk that `states()` streams, a key standing for A^a B^(n-a) d^(c-r) Z^r.
The Thistlethwaite check counts the states by one frontier DP instead, on
the Tait scanner's union-find joined to one of the curves and the regions,
where k(S) is a region count; the homology walk is its oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    LinkFormatError,
    InternalInvariantError,
    MissingOrientation,
    NotAlternating,
    NotFourValent,
    OverPairNotOpposite,
    TooManyCrossings,
)
from .homology import Subspace, SurfaceHomology, radial_map
from .homology import _cycle_span, _links, _Spans, _walk
from .invariants import DEFAULT_CAP, SubgraphScanner, _lift, _link, first_failing, frontier_counts, walk
from .laurent import LaurentPolynomial
from .maps import (
    CombinatorialMap,
    EmbeddedSubgraph,
    _cycles,
    _cycles_to_text,
    _orbits,
    _parse_involution,
    _parse_perm_text,
    _perm_from_cycles,
)
from .polynomials import _p_of
from .report import PolynomialReport, Verdict


@dataclass(frozen=True)
class LinkDiagram:
    """A link diagram on its capped surface.

    ``over`` maps each crossing (vertex id of ``base``) to the dart pair of
    the over-strand; ``free_loops`` are closed dart walks on the ambient
    surface (empty walk = null-homotopic circle); ``surface`` carries the
    ambient cellulation for crossingless diagrams and must be omitted
    otherwise; ``orientation`` lists one outgoing dart per link component.
    """

    base: CombinatorialMap
    over: dict[int, frozenset[int]]
    free_loops: tuple[tuple[int, ...], ...] = ()
    surface: CombinatorialMap | None = None
    orientation: tuple[int, ...] | None = None

    def __post_init__(self):
        base = self.base
        for cyc in base.vertex_cycles:
            if len(cyc) != 4:
                raise NotFourValent(f"vertex {cyc[0]} has {len(cyc)} darts")
        if set(self.over) != set(base.vertex_ids):
            raise LinkFormatError("over-strand data must cover exactly the crossings")
        for v, pair in self.over.items():
            pair = tuple(sorted(pair))
            if len(pair) != 2 or base.vertex_of.get(pair[0]) != v or base.vertex_of.get(pair[1]) != v:
                raise LinkFormatError(f"over pair {pair} not at crossing {v}")
            if base.sigma[base.sigma[pair[0]]] != pair[1]:
                raise OverPairNotOpposite(
                    f"over pair {pair} is not opposite in the rotation at {v}"
                )
        if self.surface is not None and base.darts:
            raise LinkFormatError(
                "explicit surface is only allowed for crossingless diagrams"
            )
        surf = self.surface_map
        for walk in self.free_loops:
            if walk and not base.darts:
                for i, d in enumerate(walk):
                    nxt = walk[(i + 1) % len(walk)]
                    if d not in surf.sigma:
                        raise LinkFormatError(f"free loop dart {d} not on the surface")
                    if surf.vertex_of[surf.alpha[d]] != surf.vertex_of[nxt]:
                        raise LinkFormatError("free loop walk is not closed")
            elif walk:
                raise LinkFormatError(
                    "free loop walks need a crossingless diagram; "
                    "inside a disk face a loop is null-homotopic (use an empty walk)"
                )
        if self.orientation is not None:
            comps = self.strand_components
            seen = set()
            for d in self.orientation:
                ci = next((i for i, comp in enumerate(comps) if d in comp), None)
                if ci is None:
                    raise LinkFormatError(f"orientation dart {d} not in any strand")
                if ci in seen:
                    raise LinkFormatError("two orientation darts on one strand")
                seen.add(ci)

    @cached_property
    def surface_map(self) -> CombinatorialMap:
        if self.base.darts:
            return self.base
        return self.surface if self.surface is not None else CombinatorialMap({}, {})

    @property
    def crossings(self) -> tuple[int, ...]:
        return self.base.vertex_ids

    @property
    def n_crossings(self) -> int:
        return len(self.base.vertex_ids)

    @cached_property
    def genus(self) -> int:
        return self.surface_map.total_genus

    @cached_property
    def strand_components(self) -> tuple[frozenset[int], ...]:
        """Dart sets of the link components, in order of their least dart."""
        return _strands(self.base)

    def is_alternating(self) -> bool:
        base = self.base
        over = self.dart_is_over
        return all(over[d] != over[base.alpha[d]] for d in base.darts)

    @cached_property
    def dart_is_over(self) -> dict[int, bool]:
        return {
            d: d in self.over[self.base.vertex_of[d]] for d in self.base.darts
        }

    def writhe(self) -> int:
        """Signed crossing count; positive when the over-strand exits along
        the rotation successor of the under-strand exit (the convention
        compatible with the type-(1) smoothing rule: knots get integral
        Jones exponents in t = u^4)."""
        base = self.base
        if not base.darts:
            return 0
        if self.orientation is None or len(self.orientation) != len(self.strand_components):
            raise MissingOrientation("writhe needs one orientation lead per strand component")
        out: set[int] = set()
        for lead in self.orientation:
            d = lead
            while d not in out:
                out.add(d)
                d = base.sigma[base.sigma[base.alpha[d]]]
        w = 0
        for v in base.vertex_ids:
            o1, o2 = sorted(self.over[v])
            o_out = o1 if o1 in out else o2
            u1, u2 = base.sigma[o1], base.sigma[o2]
            u_out = u1 if u1 in out else u2
            w += 1 if base.sigma[u_out] == o_out else -1
        return w


@dataclass(frozen=True)
class ResolutionState:
    """One smoothing choice per crossing, as ``mask`` (bit i set = type (1)
    = A at crossing i), and the homology data of the state's curves:
    ``subspace`` is the span of the curve classes in H1 of the surface, r
    its dimension; k + r = c always.  ``choices`` and ``curves`` are built
    on first access."""

    mask: int
    c: int
    subspace: Subspace
    diagram: LinkDiagram = field(repr=False, compare=False)

    @cached_property
    def choices(self) -> tuple[bool, ...]:
        return tuple(bool(self.mask >> i & 1) for i in range(self.diagram.n_crossings))

    @property
    def alpha_count(self) -> int:
        return self.mask.bit_count()

    @property
    def beta_count(self) -> int:
        return self.diagram.n_crossings - self.mask.bit_count()

    @property
    def r(self) -> int:
        return self.subspace.dim

    @property
    def k(self) -> int:
        return self.c - self.subspace.dim

    @cached_property
    def curves(self) -> tuple[tuple[int, ...], ...]:
        """The curves as dart cycles (dart, then the dart its edge leads to
        through the smoothing, ...), in order of their least dart, each
        traced from that dart; free loops are not listed."""
        base = self.diagram.base
        alpha = base.alpha
        tau: dict[int, int] = {}
        for i, smoothing in enumerate(_smoothings(self.diagram)):
            for x, y in smoothing[self.mask >> i & 1]:
                tau[x] = y
                tau[y] = x
        seen: set[int] = set()
        curves = []
        for start in base.darts:
            if start in seen:
                continue
            cycle = [start]
            while (d := tau[alpha[cycle[-1]]]) != start:
                cycle.append(d)
            seen.update(cycle, map(alpha.get, cycle))
            curves.append(tuple(cycle))
        return tuple(curves)


def _strands(m: CombinatorialMap) -> tuple[frozenset[int], ...]:
    """Strands go straight through crossings: d ~ alpha(d) and d ~ sigma^2(d)."""
    return _orbits(m.darts, m.alpha, {d: m.sigma[m.sigma[d]] for d in m.darts})


def _smoothings(diagram: LinkDiagram) -> list[tuple[tuple[tuple[int, int], ...], ...]]:
    """Per crossing, the dart pairs that its type-(2) and its type-(1)
    smoothing join."""
    sigma = diagram.base.sigma
    out = []
    for v in diagram.crossings:
        o1, o2 = sorted(diagram.over[v])
        s1, s2 = sigma[o1], sigma[o2]
        out.append((((o1, s2), (o2, s1)), ((o1, s1), (o2, s2))))
    return out


def _check_crossings(diagram: LinkDiagram, cap: int | None) -> None:
    """Refuse a 2^n state sum above ``cap`` crossings (None means no cap)."""
    n = diagram.n_crossings
    if cap is not None and n > cap:
        raise TooManyCrossings(f"{n} crossings exceeds cap {cap}")


def _curve_links(diagram: LinkDiagram, cap: int | None) -> tuple[_Spans, list, list]:
    """Checks the cap; then the span table of H1 of the surface, and the base
    links and per-crossing steps of the states' union-find of darts: an edge
    links its two darts with the class of the edge, a smoothing links the
    darts it joins with class 0, so each curve is a cycle, closed by exactly
    one link whose potential sum is its class; a free loop closes at once."""
    _check_crossings(diagram, cap)
    base = diagram.base
    surf = diagram.surface_map
    hom = SurfaceHomology(surf)
    links = [
        (~i, ~i, hom.chain_class(surf.chain(walk)))
        for i, walk in enumerate(diagram.free_loops)
    ]
    links += [(e, base.alpha[e], hom.packed[e]) for e in base.edge_ids]
    steps = [
        tuple([(x, y, 0) for x, y in pairs] for pairs in smoothing)
        for smoothing in _smoothings(diagram)
    ]
    return _Spans(hom.dim), links, steps


def states(diagram: LinkDiagram, cap: int = DEFAULT_CAP) -> Iterator[ResolutionState]:
    """All 2^n resolutions with curve counts and homology ranks, lazily, in
    increasing order of the mask whose bit i is the choice at crossing i:
    each state reads its (span id, c(S)) off one `_walk` of `_curve_links`,
    in which each curve closes one cycle.  The cap is checked at the call."""
    spans, links, steps = _curve_links(diagram, cap)
    return (
        ResolutionState(mask, c, spans.spaces[v], diagram)
        for mask, (v, c) in enumerate(_walk(links, steps, spans))
    )


def _state_counts(diagram: LinkDiagram, cap: int | None) -> tuple[_Spans, Counter]:
    """The span table, and how many states reach each (a(S), (span id,
    c(S))), a(S) being the number of type-(1) smoothings: one count of the
    mask bit counts zipped with one `_walk` of `_curve_links`."""
    spans, links, steps = _curve_links(diagram, cap)
    leaves = zip(map(int.bit_count, range(1 << len(steps))), _walk(links, steps, spans))
    return spans, Counter(leaves)


def _kauffman_of(n: int, spans: _Spans, counts: dict) -> LaurentPolynomial:
    """The state sum of a count of (a(S), (span id, c(S))) over n crossings:
    a key is A^a B^(n-a) d^(c-r) Z^r, r being the dimension of the span."""
    terms: Counter = Counter()
    for (a, (span, c)), count in counts.items():
        r = spans.spaces[span].dim
        terms[a, n - a, c - r, r] += count
    return LaurentPolynomial(("A", "B", "d", "Z"), terms)


def kauffman(diagram: LinkDiagram, cap: int = DEFAULT_CAP) -> LaurentPolynomial:
    """Four-variable bracket: sum over states of A^a B^b d^k Z^r, read off
    the count of states per (a(S), span, c(S)).

    Setting Z = d and dividing by d gives the classical bracket of the
    underlying virtual link.
    """
    return _kauffman_of(diagram.n_crossings, *_state_counts(diagram, cap))


def classical_bracket(diagram: LinkDiagram, cap: int = DEFAULT_CAP) -> LaurentPolynomial:
    """d^-1 K(A, B, d, d): the classical (virtual) Kauffman bracket."""
    k = kauffman(diagram, cap=cap)
    dvar = LaurentPolynomial.variable("d")
    return (k.substitute({"Z": dvar})) * dvar ** -1


def tilde_kauffman(
    diagram: LinkDiagram, cap: int = DEFAULT_CAP
) -> list[tuple[Subspace, LaurentPolynomial]]:
    """Bracket with subgroup coefficients: the count of states per (a(S),
    span, c(S)) grouped by the span i_*(H1(S)) in H1 of the surface, in
    order of (dim, basis); specializing [V] -> Z^dim V recovers kauffman.
    """
    spans, counts = _state_counts(diagram, cap)
    grouped: dict[Subspace, dict] = {}
    for key, count in counts.items():
        grouped.setdefault(spans.spaces[key[1][0]], {})[key] = count
    return [
        (v, _kauffman_of(diagram.n_crossings, spans, grouped[v]).substitute({"Z": 1}))
        for v in sorted(grouped, key=lambda v: (v.dim, v.basis))
    ]


def jones(
    diagram: LinkDiagram, cap: int = DEFAULT_CAP, normalized: bool = True
) -> LaurentPolynomial:
    """Two-variable Jones polynomial in u (t = u^4) and Z:

        (-1)^w u^{3w} K(u^-1, u, -u^2 - u^-2, Z)

    With ``normalized`` (default) one factor of d is divided out first so
    the crossingless unknot maps to 1; this matches the classical
    normalization on every genus-0 diagram and raises NonLaurentResult for
    exotic diagrams with a k = 0 state (use normalized=False there, which is
    the verbatim state-sum polynomial).
    """
    return _jones_of(*_bracket_and_writhe(diagram, cap), normalized)


def _bracket_and_writhe(diagram: LinkDiagram, cap: int | None) -> tuple[LaurentPolynomial, int]:
    """The bracket and the writhe; the cap and the orientation go first."""
    _check_crossings(diagram, cap)
    w = diagram.writhe()
    return kauffman(diagram, cap=cap), w


def _jones_of(k: LaurentPolynomial, w: int, normalized: bool) -> LaurentPolynomial:
    """The Jones image of a four-variable bracket ``k`` of writhe ``w``."""
    if normalized:
        k = k * LaurentPolynomial.variable("d") ** -1
    u = LaurentPolynomial.variable("u")
    image = k.substitute({"A": u ** -1, "B": u, "d": -(u ** 2) - u ** -2})
    return LaurentPolynomial.monomial((-1) ** (w % 2), {"u": 3 * w}) * image


# -- Tait graphs -----------------------------------------------------------------

@dataclass(frozen=True)
class TaitGraph:
    """Tait graph of an alternating diagram.

    The graph is returned as its own cellulation of the same surface; edges
    correspond one-to-one with crossings, each Tait edge named by the
    smaller over dart of its crossing.
    """

    graph: EmbeddedSubgraph
    crossing_edge: dict[int, int]

    @property
    def map(self) -> CombinatorialMap:
        return self.graph.host


def tait_graph(diagram: LinkDiagram) -> TaitGraph:
    """The shaded faces are those joined by the type-(1) smoothing: one Tait
    vertex per shaded face and one edge per crossing, with the ribbon
    structure of the face walks.

    A crossing's rotation alternates over and under darts, and alternation
    makes alpha flip the kind, so phi = sigma∘alpha keeps it: every face is
    all-over or all-under.  The shaded faces are the faces of the over
    darts, the Tait rotation is phi on them and its alpha is sigma^2."""
    base = diagram.base
    if not base.darts or diagram.free_loops:
        raise NotAlternating("Tait graph needs a diagram with crossings only")
    if not diagram.is_alternating():
        raise NotAlternating("diagram is not alternating on its surface")
    rotation = {d: base.phi(d) for d in base.darts if diagram.dart_is_over[d]}
    g_map = CombinatorialMap(rotation, {d: base.sigma[base.sigma[d]] for d in rotation})
    if g_map.total_genus != base.total_genus:
        raise InternalInvariantError("Tait graph genus differs from the diagram's")
    crossing_edge = {v: min(pair) for v, pair in diagram.over.items()}
    return TaitGraph(graph=EmbeddedSubgraph.full(g_map), crossing_edge=crossing_edge)


def _face_walk_to(m: CombinatorialMap, corner_dart: int) -> list[int]:
    """The face walk from its start (the face id) up to the corner of
    ``corner_dart`` (the turn right before that dart is traversed); two
    corners of the same face at the same vertex get distinct stops, which is
    what keeps Tait loop edges homologically honest."""
    walk, d = [], m.face_of[corner_dart]
    while d != corner_dart:
        walk.append(d)
        d = m.phi(d)
    return walk


def tait_cycle_classes(
    diagram: LinkDiagram,
    tait: TaitGraph,
    h_edges: Iterable[int],
    hom: SurfaceHomology,
) -> Subspace:
    """V(H) of a Tait spanning subgraph in the diagram surface's H1: Tait edge
    e is e's face walk up to its crossing, then alpha(e)'s walk back."""
    base = diagram.base
    classes = {}
    for e in h_edges:
        back = [base.alpha[d] for d in _face_walk_to(base, tait.map.alpha[e])]
        classes[e] = hom.chain_class(base.chain(_face_walk_to(base, e) + back))
    return _cycle_span(_links(tait.map, classes, classes), hom.dim)[0]


# -- the Thistlethwaite-type identity ---------------------------------------------

def _joint_steps(diagram: LinkDiagram, tait: TaitGraph, sc: SubgraphScanner) -> tuple:
    """The Tait scanner's union-find joined to the states' (its base, base
    code and steps) and ``split`` of a code into (Tait code, a, c, k).

    Nodes: the scanner's, one per dart of ``base`` (an edge links its two
    darts) and one per face.  Crossing x sits at its Tait edge's index.
    With over darts o1 < o2, s1 = sigma o1 and s2 = sigma o2, the out step
    gains links (o1, s2), (o2, s1) and face(s1)-face(s2); the in step gains
    (o1, s1), (o2, s2), face(o2)-face(o1) and 1 in a(S).  Above the Tait
    code: a(S), the curve merges (c(S) = darts - merges) and the region
    merges (k(S) = faces - merges - components of ``base``)."""
    base = diagram.base
    dart = {d: len(sc.base) + i for i, d in enumerate(base.darts)}
    face = {f: len(sc.base) + len(dart) + i for i, f in enumerate(base.face_ids)}
    region = {d: face[base.face_of[d]] for d in base.darts}
    s_a = sc.shifts[3] + sc.masks[3].bit_length()
    s_curve = s_a + len(sc.edges).bit_length()
    s_region = s_curve + len(dart).bit_length()
    w_curve = 1 << s_curve
    parent = [*sc.base, *range(len(sc.base), len(sc.base) + len(dart) + len(face))]
    code = _link(parent, sc.base_code, (0, [(dart[d], dart[base.alpha[d]], w_curve) for d in base.edge_ids]))
    steps: list = [None] * len(sc.edges)
    for x, (outs, ins) in zip(diagram.crossings, _smoothings(diagram)):
        (o1, s2), (o2, s1) = outs
        i = sc.eidx[tait.crossing_edge[x]]
        steps[i] = tuple(
            _lift(parent, plus + (bit << s_a), [
                *links, *((dart[p], dart[q], w_curve) for p, q in pairs),
                (region[y], region[z], 1 << s_region),
            ])
            for bit, (plus, links), pairs, (y, z) in zip((0, 1), sc.steps[i], (outs, ins), ((s1, s2), (o2, o1)))
        )
    m_tait, m_a, m_curve = (1 << s_a) - 1, (1 << s_curve - s_a) - 1, (1 << s_region - s_curve) - 1
    k_base = len(face) - base.n_components

    def split(key: int) -> tuple[int, int, int, int]:
        c = len(dart) - (key >> s_curve & m_curve)
        return key & m_tait, key >> s_a & m_a, c, k_base - (key >> s_region)

    return parent, code, steps, split


def verify_thistlethwaite(diagram: LinkDiagram, cap: int = DEFAULT_CAP) -> PolynomialReport:
    """K_D(A,B,d,Z) = A^(g+v-c) B^(n-g) d^c Z^g P_G(Bd/A, Ad/B, A/(BZ), B/(AZ))
    for the Tait graph G, plus the per-state proof correspondences
    alpha(S(H)) = e(H), c(S) = bc(H), k(S) = c(H)+k(H), r(S) = l(H).

    One :func:`~surfpoly.invariants.frontier_counts` over `_joint_steps`
    counts the states per joint code, whose (Tait code, a, c, k) give r(S) =
    c(S) - k(S); each distinct Tait code is decoded once and each distinct
    joint code checked once.  P_G and K_D (key A^a B^(n-a) d^k Z^r) are read
    off that count.  Only a failure walks the joint steps, up to the first
    leaf with a failing code: the least failing Tait subgraph mask."""
    tait = tait_graph(diagram)
    _check_crossings(diagram, cap)
    g_map, g = tait.map, diagram.genus
    v, c, e = g_map.n_vertices, g_map.n_components, g_map.n_edges
    n = e - v + c
    sc = SubgraphScanner(tait.graph)
    parent, code, steps, split = _joint_steps(diagram, tait, sc)
    counts = frontier_counts(code, steps)
    decoded = {t: sc.decode(t) for t in {split(key)[0] for key in counts}}
    state_terms: Counter = Counter()
    tait_counts: Counter = Counter()
    bad = set()
    for key, cnt in counts.items():
        t, a_count, c_s, k_s = split(key)
        inv = decoded[t]
        state_terms[a_count, e - a_count, k_s, c_s - k_s] += cnt
        tait_counts[inv] += cnt
        if not (a_count == inv.e and c_s == inv.bc and k_s == inv.c + inv.k and c_s - k_s == inv.l):
            bad.add(key)
    failed = first_failing(lambda: walk(list(parent), code, steps, _link), bad)
    k_poly = LaurentPolynomial(("A", "B", "d", "Z"), state_terms)
    p = _p_of(tait_counts)
    mono = LaurentPolynomial.monomial
    bound = p.substitute(
        {
            "X": mono(1, {"B": 1, "d": 1, "A": -1}),
            "Y": mono(1, {"A": 1, "d": 1, "B": -1}),
            "A": mono(1, {"A": 1, "B": -1, "Z": -1}),
            "B": mono(1, {"B": 1, "A": -1, "Z": -1}),
        }
    )
    rhs = mono(1, {"A": g + v - c, "B": n - g, "d": c, "Z": g}) * bound
    ok_main = k_poly == rhs
    return PolynomialReport(
        description=f"thistlethwaite on {diagram.n_crossings}-crossing diagram, genus {g}",
        polynomials={"K_D": k_poly.to_canonical_string()},
        verdicts=(
            Verdict(
                "bracket K_D = A^(g+v-c) B^(n-g) d^c Z^g P_G(Bd/A, Ad/B, A/BZ, B/AZ)",
                ok_main,
                None if ok_main else f"diagram: {serialize_diagram(diagram)!r}",
            ),
            Verdict(
                "per-state correspondences a(S)=e(H), c(S)=bc(H), k(S)=c(H)+k(H), r(S)=l(H)",
                failed is None,
                None if failed is None else f"subgraph mask {failed} of {serialize_diagram(diagram)!r}",
            ),
        ),
    )


# -- alternating diagrams from maps (medial construction) --------------------------

def medial_diagram(m: CombinatorialMap) -> LinkDiagram:
    """The alternating diagram on the same surface whose Tait graph is m:
    crossings sit on the edges of m (quadrilaterals of the radial map), and
    the over strands are chosen so the type-(1) smoothing joins the
    vertex-type faces."""
    radial, _, _ = radial_map(m)
    medial = radial.dual()
    relabel = {d: i + 1 for i, d in enumerate(medial.darts)}
    inverse = {relabel[d]: d for d in relabel}
    medial = medial.relabeled(relabel)
    over: dict[int, frozenset[int]] = {}
    for cyc in medial.vertex_cycles:
        # odd original ids are the vertex-side radial darts; their corners
        # lie in the vertex-type faces of the medial
        odd = [d for d in cyc if inverse[d] % 2 == 1]
        if len(odd) != 2:
            raise InternalInvariantError("medial quad without opposite vertex corners")
        over[cyc[0]] = frozenset(odd)
    lead = tuple(min(comp) for comp in _strands(medial))
    diagram = LinkDiagram(base=medial, over=over, orientation=lead)
    if not diagram.is_alternating():
        raise InternalInvariantError("medial construction is not alternating")
    if diagram.genus != m.total_genus:
        raise InternalInvariantError("medial diagram genus mismatch")
    return diagram


# -- text format -------------------------------------------------------------------

def parse_diagram(text: str) -> LinkDiagram:
    """Parse the .vlk format.

    Grammar (whitespace-insensitive, '#' comments):

        crossing <id>: darts (d1 d2 d3 d4) over (di dk)
        alpha: (a b)(c d)...
        orient: d5 d12              # optional, one leading dart per strand
        freeloop: [dart walk]       # crossingless unknot component
        surface_sigma: (...)        # ambient surface, crossingless files only
        surface_alpha: (...)
    """
    import re

    crossing_re = re.compile(
        r"^crossing\s+(\d+)\s*:\s*darts\s*\(([^()]*)\)\s*over\s*\(([^()]*)\)$",
        re.IGNORECASE,
    )
    sigma: dict[int, int] = {}
    over_pairs: dict[int, tuple[int, int]] = {}  # crossing id -> over darts
    once = ("alpha", "orient", "surface_sigma", "surface_alpha")  # keys that may appear once
    fields: dict = {}
    free_loops: list[tuple[int, ...]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        mobj = crossing_re.match(line)
        if mobj:
            cid = int(mobj.group(1))
            if cid in over_pairs:
                raise LinkFormatError(f"crossing {cid} is given twice")
            try:
                darts = [int(t) for t in mobj.group(2).split()]
                over = [int(t) for t in mobj.group(3).split()]
            except ValueError as exc:
                raise LinkFormatError(f"bad crossing line {line!r}") from exc
            if len(darts) != 4:
                raise NotFourValent(f"crossing needs 4 darts, got {darts}")
            if len(over) != 2 or not set(over) <= set(darts):
                raise LinkFormatError(f"bad over pair in {line!r}")
            for i, d in enumerate(darts):
                if d in sigma:
                    raise LinkFormatError(f"dart {d} appears in two crossings")
                sigma[d] = darts[(i + 1) % 4]
            over_pairs[cid] = (over[0], over[1])
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "freeloop":
            free_loops.append(_dart_ids(key, value))
        elif key not in once:
            raise LinkFormatError(f"unrecognized line {line!r}")
        elif key in fields:
            raise LinkFormatError(f"duplicate key {key!r}")
        else:
            fields[key] = _dart_ids(key, value) if key == "orient" else value
    alpha_text, orient, surf_sigma, surf_alpha = map(fields.get, once)

    if sigma:
        if alpha_text is None:
            raise LinkFormatError("missing alpha: line")
        alpha = _parse_involution(
            alpha_text, "alpha", LinkFormatError, "alpha must pair darts along strands"
        )
        if set(alpha) != set(sigma):
            raise LinkFormatError("alpha and crossing darts disagree")
        darts = sorted(sigma)
        if darts != list(range(1, len(darts) + 1)):
            raise LinkFormatError("dart ids must be exactly 1..4n with no gaps")
        base = CombinatorialMap(sigma, alpha)
    else:
        base = CombinatorialMap({}, {})
    surface = None
    if surf_sigma is not None or surf_alpha is not None:
        if surf_sigma is None or surf_alpha is None:
            raise LinkFormatError("surface_sigma and surface_alpha go together")
        s_cycles = _parse_perm_text(surf_sigma, "surface_sigma")
        s_alpha = _parse_involution(
            surf_alpha, "surface_alpha", LinkFormatError, "surface_alpha must be an involution"
        )
        surface = CombinatorialMap(_perm_from_cycles(s_cycles, "surface_sigma"), s_alpha)
    over: dict[int, frozenset[int]] = {}
    for o1, o2 in over_pairs.values():
        over[base.vertex_of[o1]] = frozenset((o1, o2))
    return LinkDiagram(
        base=base,
        over=over,
        free_loops=tuple(free_loops),
        surface=surface,
        orientation=orient,
    )


def _dart_ids(key: str, value: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in value.split())
    except ValueError as exc:
        raise LinkFormatError(f"{key}: expects dart ids") from exc


def serialize_diagram(diagram: LinkDiagram, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    base = diagram.base
    for i, cyc in enumerate(base.vertex_cycles, start=1):
        o1, o2 = sorted(diagram.over[cyc[0]])
        darts = " ".join(map(str, cyc))
        lines.append(f"crossing {i}: darts ({darts}) over ({o1} {o2})")
    if base.darts:
        lines.append(f"alpha: {_cycles_to_text(_cycles(base.alpha))}")
    surf = diagram.surface
    if surf is not None:
        # an empty surface keeps its lines empty after the colon
        sigma_text = _cycles_to_text(surf.vertex_cycles) if surf.darts else ""
        alpha_text = _cycles_to_text(_cycles(surf.alpha)) if surf.darts else ""
        lines.append(f"surface_sigma: {sigma_text}")
        lines.append(f"surface_alpha: {alpha_text}")
    for walk in diagram.free_loops:
        lines.append("freeloop:" + (" " + " ".join(map(str, walk)) if walk else ""))
    if diagram.orientation is not None:
        lines.append("orient: " + " ".join(map(str, diagram.orientation)))
    return "\n".join(lines) + "\n"
