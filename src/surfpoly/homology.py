"""Exact first homology of surface cellulations and its symplectic structure.

This is the linear-algebra oracle for the combinatorial invariants: it
computes H1 of the host surface from the chain complex of the map, the image
V(H) of a subgraph's cycle space, the intersection form via chord-diagram
interleaving on a one-vertex reduction, symplectic orthogonal complements,
the subgroup-coefficient polynomial, and the subgroup-level duality check
through the radial map.

All arithmetic is exact and elimination is fraction-free (Bareiss, Math.
Comp. 1968): rows are scaled to integers, cross-multiplied, and divided by
their gcd, so a subspace is held as its RREF with each row scaled to a
primitive integer row.  Elimination is one step, `_insert`, which adds one
integer row to such canonical rows (or leaves them as they are when the row
is in their span); `_eliminate` folds it over a matrix.
`fractions.Fraction` appears only where a rational result is asked for:
`Subspace.basis` (the canonical RREF, which orders and prints subspaces),
`rref`'s one final division by the pivots, and `project_chain` of a
rational chain.  Classes of integral cycles are integers.

Coordinates: a spanning forest of the host is contracted, leaving one vertex
per component so that every 1-chain is a cycle; H1 coordinates are the free
columns of the reduced face-boundary space in row echelon form.  Chains over
host edges map into these coordinates by dropping the forest coordinates
(the contraction chain map) and reducing modulo face boundaries.  The map is
linear, so one class per host edge fixes it (`edge_class`): zero on the
forest, a unit vector on a free loop, minus the free part of its boundary
row on a pivot loop.  These are integral: in the oriented one-vertex
reduction each loop meets the face boundaries once with +1 and once with -1,
so the face-loop matrix is the incidence matrix of a directed graph, totally
unimodular, and its RREF has entries in {-1, 0, 1} (`_build` checks this).
V(H) is spanned by the classes of the cycles that one potential union-find
pass over H's edges closes (`_cycles`), each class packed into one int.  A
state sum over all 2^e subgraphs runs that union-find, on a list of its
own, over the masks (`_walk`) on the engine's one walker,
`surfpoly.invariants.walk`, and keeps each span as an id into a table of
interned subspaces (`_Spans`), which grows a span by inserting one new class
into its rows.  A walk tracks one subgraph: tilde-P counts its leaves against
the frontier DP, and subgroup duality zips a walk of H with one of H*, checks
each distinct key once, and walks again only to find the least failing mask
(`first_failing`).  The links' state walk is the Thistlethwaite DP's oracle.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DimensionMismatch, InternalInvariantError, RadicalNotBoundaries
from .invariants import DEFAULT_CAP, check_cap, first_failing, histogram, walk
from .laurent import LaurentPolynomial
from .maps import CombinatorialMap, EmbeddedSubgraph, UnionFind
from .report import PolynomialReport, Verdict

Vector = tuple[Fraction, ...]
Class = tuple[int, ...]  # an integral H1 class
Chain = dict[int, int]  # edge id -> integer coefficient
Link = tuple[int, int, int]  # (tail, head, packed class) of an edge


# -- exact linear algebra ----------------------------------------------------

def _integral(rows: Iterable[Sequence[Fraction | int]]) -> list[list[int]]:
    """Each row scaled by the lcm of its denominators to an integer row."""
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _insert(rows: list[Sequence[int]], pivots: list[int], x: Sequence[int]) -> bool:
    """Insert the integer row ``x`` into the canonical rows ``rows`` with
    pivot columns ``pivots``, in place; False, with both unchanged, when x
    is in their span.

    Canonical rows are primitive, with a positive pivot, zero in the other
    rows' pivot columns, and ordered by pivot, so dividing each by its
    pivot gives the RREF: one form per row space.  x is reduced to zero in
    every pivot column; if anything is left, its first nonzero column is a
    new pivot, which is cleared from the other rows (Bareiss's fraction-free
    step, each row then divided by its gcd)."""
    for row, p in zip(rows, pivots):
        f = x[p]
        if f:
            a = row[p]
            x = [a * u - f * w for u, w in zip(x, row)]
            g = gcd(*x)
            if g > 1:
                x = [u // g for u in x]
    q = next((c for c, u in enumerate(x) if u), None)
    if q is None:
        return False
    g = gcd(*x) if x[q] > 0 else -gcd(*x)
    if g != 1:
        x = [u // g for u in x]
    p = x[q]
    for i, row in enumerate(rows):
        f = row[q]
        if f:
            row = [p * u - f * w for u, w in zip(row, x)]
            g = gcd(*row)
            rows[i] = [u // g for u in row] if g > 1 else row
    i = bisect(pivots, q)
    rows.insert(i, x)
    pivots.insert(i, q)
    return True


def _eliminate(mat: Iterable[Sequence[int]]) -> tuple[list[Sequence[int]], list[int]]:
    """The canonical rows of the span of integer rows, and their pivot
    columns: the rows inserted one at a time by :func:`_insert`."""
    rows: list[Sequence[int]] = []
    pivots: list[int] = []
    for x in mat:
        _insert(rows, pivots, x)
    return rows, pivots


def rref(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).  The
    elimination runs on integers; each row is divided by its pivot once, at
    the end."""
    red, pivots = _eliminate(_integral(rows))
    return [[Fraction(x, row[pc]) for x in row] for row, pc in zip(red, pivots)], pivots


def nullspace(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> list[list[int]]:
    """An integer basis of the right kernel {x : M x = 0}: one vector per
    free column, the RREF one scaled by the lcm of the pivots."""
    red, pivots = _eliminate(_integral(rows))
    scale = lcm(*(row[pc] for row, pc in zip(red, pivots)))
    basis = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        vec = [0] * ncols
        vec[fc] = scale
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class Subspace:
    """A subspace of H1, held as the rows of :func:`_eliminate`: its RREF
    with each row scaled to a primitive integer row.  These rows are
    canonical, so equality and hashing are on them; ``basis`` is the RREF
    over ``Fraction``."""

    ambient: int
    rows: tuple[Class, ...]

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[Fraction | int]], ambient: int) -> "Subspace":
        rows = _integral(vectors)
        for v in rows:
            if len(v) != ambient:
                raise DimensionMismatch(f"vector length {len(v)} != ambient {ambient}")
        red, _ = _eliminate(rows)
        return cls(ambient, tuple(map(tuple, red)))

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each row, its first nonzero one."""
        return tuple(next(c for c, x in enumerate(row) if x) for row in self.rows)

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        """The canonical RREF basis over ``Fraction``."""
        out = []
        for row in self.rows:
            p = next(filter(None, row))
            out.append(tuple(Fraction(x, p) for x in row))
        return tuple(out)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.ambient, self.rows))

    def intersection(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        k, m = self.dim, other.dim
        if k == 0 or m == 0:
            return Subspace(self.ambient, ())
        # lambda*A = mu*B  <=>  (lambda, mu) in ker [A^T | -B^T]
        a, b = self.rows, other.rows
        rows = [[r[i] for r in a] + [-r[i] for r in b] for i in range(self.ambient)]
        vectors = [
            [sum(x * r[i] for x, r in zip(sol, a) if x) for i in range(self.ambient)]
            for sol in nullspace(rows, k + m)
        ]
        return Subspace.from_vectors(vectors, self.ambient)

    def __str__(self) -> str:
        rows = ["[" + " ".join(str(x) for x in row) + "]" for row in self.basis]
        return f"dim={self.dim} basis=[{', '.join(rows)}]"


@dataclass(frozen=True)
class SymplecticSpace:
    """H1 of the surface with the Gram matrix of the intersection form."""

    dimension: int
    gram: tuple[tuple[int, ...], ...]


def orthogonal_complement(v: Subspace, sp: SymplecticSpace) -> Subspace:
    """Symplectic orthogonal complement within H1."""
    if v.ambient != sp.dimension:
        raise DimensionMismatch(
            f"subspace ambient {v.ambient} != symplectic dimension {sp.dimension}"
        )
    gram = sp.gram
    rows = [
        [sum(x * gram[i][j] for i, x in enumerate(b) if x) for j in range(sp.dimension)]
        for b in v.rows
    ]
    return Subspace.from_vectors(nullspace(rows, sp.dimension), sp.dimension)


def symplectic_invariants(v: Subspace, sp: SymplecticSpace) -> tuple[int, int, int]:
    """(s, s_perp, l) of a subgroup V: dimensions of V/(V∩V⊥), V⊥/(V∩V⊥),
    and V∩V⊥."""
    perp = orthogonal_complement(v, sp)
    l = v.intersection(perp).dim
    return v.dim - l, perp.dim - l, l


# -- homology of a map ---------------------------------------------------------

class SurfaceHomology:
    """H1 coordinates, projection of cycles, and the intersection form for
    one host map."""

    def __init__(self, m: CombinatorialMap):
        self.map = m
        self.dim = 2 * m.total_genus
        self._build()

    def _build(self) -> None:
        m = self.map
        # spanning forest over the map's vertices
        uf = UnionFind(m.vertex_ids)
        forest: list[int] = []
        for e in m.edge_ids:
            u, w = m.edge_endpoints(e)
            if uf.find(u) != uf.find(w):
                uf.union(u, w)
                forest.append(e)
        self.forest = frozenset(forest)
        reduced = m.contract(forest)
        self.reduced = reduced
        if reduced.vertex_cycles and any(
            len({reduced.vertex_of[d] for d in comp}) != 1
            for comp in reduced.dart_components
        ):
            raise InternalInvariantError("forest contraction left several vertices")
        self.loops = tuple(reduced.edge_ids)  # edge ids survive contraction
        self.loop_index = {e: i for i, e in enumerate(self.loops)}

        boundary_rows = [self._face_boundary(cyc) for cyc in reduced.face_cycles]
        self.boundary_rref, self.boundary_pivots = _eliminate(boundary_rows)
        if any(row[pc] != 1 for row, pc in zip(self.boundary_rref, self.boundary_pivots)):
            raise InternalInvariantError("face boundary RREF is not integral")
        free = [c for c in range(len(self.loops)) if c not in self.boundary_pivots]
        self.free_cols = free
        if len(free) != self.dim:
            raise InternalInvariantError(
                f"H1 dimension {len(free)} does not match 2*genus {self.dim}"
            )
        self.edge_class: dict[int, Class] = dict.fromkeys(forest, (0,) * self.dim)
        for j, c in enumerate(free):
            self.edge_class[self.loops[c]] = tuple(int(i == j) for i in range(self.dim))
        for row, pc in zip(self.boundary_rref, self.boundary_pivots):
            self.edge_class[self.loops[pc]] = tuple(-row[c] for c in free)
        self.packed = {e: _pack(cls) for e, cls in self.edge_class.items()}

        omega = self._chord_pairing()
        for row in self.boundary_rref:
            for j in range(len(self.loops)):
                val = sum(row[i] * omega[i][j] for i in range(len(self.loops)) if row[i])
                if val != 0:
                    raise RadicalNotBoundaries(
                        "face boundary pairs nonzero with a cycle"
                    )
        gram = tuple(
            tuple(omega[i][j] for j in free) for i in free
        )
        self.form = SymplecticSpace(self.dim, gram)
        rank = len(_eliminate(gram)[0])
        if rank != self.dim:
            raise InternalInvariantError("intersection form is degenerate")

    def _face_boundary(self, face_cycle: tuple[int, ...]) -> list[int]:
        """Boundary of a reduced-map face as a vector over loop edges; a face
        walk traverses dart d away from its vertex, so d contributes +e when
        it is the edge's orientation dart (the smaller one)."""
        vec = [0] * len(self.loops)
        for e, c in self.reduced.chain(face_cycle).items():
            vec[self.loop_index[e]] = c
        return vec

    def _chord_pairing(self) -> list[list[int]]:
        """Signed interleaving counts of loop dart pairs in the one-vertex
        rotations: cyclic pattern a b a b -> +1, a b' a b' -> -1."""
        red = self.reduced
        n = len(self.loops)
        omega = [[0] * n for _ in range(n)]
        for cyc in red.vertex_cycles:
            pos = {d: i for i, d in enumerate(cyc)}
            length = len(cyc)
            local = [e for e in self.loops if e in pos]
            for a in local:
                pa1, pa2 = pos[a], pos[red.alpha[a]]
                arc = (pa2 - pa1) % length
                for b in local:
                    if b <= a or b not in pos:
                        continue
                    b1_in = (pos[b] - pa1) % length < arc
                    b2_in = (pos[red.alpha[b]] - pa1) % length < arc
                    if b1_in == b2_in:
                        continue
                    sign = 1 if b1_in else -1
                    i, j = self.loop_index[a], self.loop_index[b]
                    omega[i][j] = sign
                    omega[j][i] = -sign
        return omega

    # -- projection to H1 coordinates ----------------------------------------

    def project_chain(self, chain: Mapping[int, Fraction | int]) -> Vector:
        """Class of a cycle given as a chain over host edges."""
        vec = [Fraction(0)] * self.dim
        for e, coeff in chain.items():
            cls = self.edge_class.get(e)
            if cls is None:
                raise InternalInvariantError(f"unknown edge {e} in chain")
            coeff = Fraction(coeff)
            for i, x in enumerate(cls):
                if x:
                    vec[i] += coeff * x
        return tuple(vec)

    def chain_class(self, chain: Mapping[int, int]) -> int:
        """Packed class (see `_pack`) of a cycle given as an integral chain
        over host edges."""
        total = 0
        for e, coeff in chain.items():
            cls = self.packed.get(e)
            if cls is None:
                raise InternalInvariantError(f"unknown edge {e} in chain")
            total += coeff * cls
        return total

    def is_trivial(self, chain: Mapping[int, Fraction | int]) -> bool:
        return not any(self.project_chain(chain))

    def basis_cycles(self) -> list[Chain]:
        """Host-edge cycles representing the chosen H1 basis: the
        fundamental cycle (through the spanning forest) of each free loop
        edge, in coordinate order."""
        g = EmbeddedSubgraph.full(self.map)
        cycles = fundamental_cycles(g, self.map.edge_ids)
        rest = [e for e in self.map.edge_ids if e not in self.forest]
        by_edge = dict(zip(rest, cycles))
        return [by_edge[self.loops[c]] for c in self.free_cols]


def h1(m: CombinatorialMap) -> SurfaceHomology:
    """Homology data of the host surface; dim equals twice the total genus."""
    return SurfaceHomology(m)


def intersection_form(m: CombinatorialMap) -> SymplecticSpace:
    return SurfaceHomology(m).form


# -- subgraph cycle spaces ------------------------------------------------------

_WIDTH = 64  # bits per coordinate of a packed class


def _pack(vec: Sequence[int]) -> int:
    """An integral vector as one int, coordinate i in signed field i.  Sums
    of packed vectors stay exact while no coordinate reaches 2^63: entries
    are packed only below 2^32, and a cycle sums fewer than 2^31 of them."""
    if any(abs(x) >= 1 << 32 for x in vec):
        raise InternalInvariantError(f"{vec} is not a small integral vector")
    return sum(x << (_WIDTH * i) for i, x in enumerate(vec))


def _unpack(x: int, dim: int) -> Class:
    out = []
    for _ in range(dim):
        x, digit = divmod(x + (1 << _WIDTH - 1), 1 << _WIDTH)
        out.append(digit - (1 << _WIDTH - 1))
    return tuple(out)


def _cycles(edges: Iterable[Link]) -> Iterator[int]:
    """The packed class of the cycle each (tail, head, packed class) edge
    closes with the forest of the edges before it, in edge order.  In the
    union-find ``up[x]`` holds x's parent and the class of the path from the
    parent to x, so summing to the root gives pot(x), the class of the path
    from the root; the cycle is pot(tail) + class - pot(head)."""
    up: dict[int, tuple[int, int]] = {}
    for u, w, cls in edges:
        pot_u = pot_w = 0
        while u in up:
            u, off = up[u]
            pot_u += off
        while w in up:
            w, off = up[w]
            pot_w += off
        cls += pot_u - pot_w
        if u != w:
            up[w] = (u, cls)
        else:
            yield cls


class _Spans:
    """Interned subspaces of one H1, each known by its index in ``spaces``.
    ``extend`` memoises the span of a subspace and one more packed class,
    found by inserting the class into the subspace's rows; a class already
    in the subspace gives the subspace's own index."""

    def __init__(self, dim: int):
        self.dim = dim
        self.spaces: list[Subspace] = []
        self.index: dict[Subspace, int] = {}
        self._ext: list[dict[int, int]] = []
        self.add(Subspace(dim, ()))

    def add(self, v: Subspace) -> int:
        i = self.index.setdefault(v, len(self.spaces))
        if i == len(self.spaces):
            self.spaces.append(v)
            self._ext.append({})
        return i

    def extend(self, i: int, x: int) -> int:
        j = self._ext[i].get(x)
        if j is None:
            v = self.spaces[i]
            rows, pivots = list(v.rows), list(v.pivots)
            if _insert(rows, pivots, _unpack(x, self.dim)):
                j = self.add(Subspace(self.dim, tuple(map(tuple, rows))))
            else:
                j = i
            self._ext[i][x] = j
        return j


def _walk(
    base: Iterable[Link], steps: Sequence[tuple[Sequence[Link], Sequence[Link]]], spans: _Spans
) -> Iterator[tuple[int, int]]:
    """(span id, nullity) of every mask over ``steps``, masks in increasing
    order, from one :func:`~surfpoly.invariants.walk` of a potential
    union-find.  A link (tail, head, packed class) joins two nodes, as in
    `_cycles`; a link that closes a cycle extends the span in ``spans`` by
    the cycle's class and adds one to the nullity.  The ``base`` links are
    applied once; then step i applies its out links (bit i clear) or its in
    links (bit i set).  The n nodes are renumbered densely, so the
    union-find is one list of 2n entries: node x's parent at ``uf[x]`` and
    the class of the path from that parent to x at ``uf[n + x]``.
    """
    index: dict[int, int] = {}

    def dense(links: Iterable[Link]) -> list[Link]:
        return [
            (index.setdefault(u, len(index)), index.setdefault(w, len(index)), cls)
            for u, w, cls in links
        ]

    base = dense(base)
    steps = [(dense(out), dense(in_)) for out, in_ in steps]
    n = len(index)
    extend = spans.extend

    def apply(uf: list[int], state: tuple[int, int], links: list[Link]) -> tuple[int, int]:
        for u, w, cls in links:
            while uf[u] != u:
                cls += uf[n + u]
                u = uf[u]
            while uf[w] != w:
                cls -= uf[n + w]
                w = uf[w]
            if u != w:
                uf[w] = u
                uf[n + w] = cls
            else:
                state = (extend(state[0], cls), state[1] + 1)
        return state

    uf = [*range(n), *[0] * n]
    return walk(uf, apply(uf, (0, 0), base), steps, apply)


def fundamental_cycles(
    graph: EmbeddedSubgraph, h_edges: Iterable[int]
) -> list[Chain]:
    """One cycle per non-forest edge of the spanning subgraph H, as chains
    over host edges (edge oriented from the vertex of its smaller dart)."""
    h = sorted(set(h_edges))
    units = [(*graph.host.edge_endpoints(e), 1 << (_WIDTH * i)) for i, e in enumerate(h)]
    return [
        {e: x for e, x in zip(h, _unpack(c, len(h))) if x}
        for c in _cycles(units)
    ]


def _cycle_span(edges: Iterable[Link], dim: int) -> tuple[Subspace, int]:
    """V(H) from H's (tail, head, packed class) edges, and H's nullity."""
    cycles = [_unpack(x, dim) for x in _cycles(edges)]
    return Subspace.from_vectors(cycles, dim), len(cycles)


def _links(ends: CombinatorialMap, classes: Mapping[int, int], edges: Iterable[int]) -> list[Link]:
    """(tail, head, packed class) of each edge, tail and head in ``ends``."""
    return [(*ends.edge_endpoints(e), classes[e]) for e in edges]


def image_subspace(
    graph: EmbeddedSubgraph,
    h_edges: Iterable[int],
    hom: SurfaceHomology | None = None,
) -> tuple[Subspace, int]:
    """V(H) = image of H's cycle space in H1(Σ), and k(H) = n(H) - dim V."""
    hom = hom or SurfaceHomology(graph.host)
    v, nullity = _cycle_span(_links(graph.host, hom.packed, h_edges), hom.dim)
    return v, nullity - v.dim


# -- subgroup-coefficient polynomial ---------------------------------------------

def tilde_p(
    graph: EmbeddedSubgraph, cap: int = DEFAULT_CAP
) -> list[tuple[Subspace, LaurentPolynomial]]:
    """The subgroup-coefficient refinement: sum over spanning H of
    [V(H)] * X^{c(H)-c(G)} * Y^{k(H)}, merged by equal subspace, from a count
    of |H| zipped with a `_walk`'s V(H) and n(H): with v marked plus isolated
    vertices, c(H) - c(G) = v - c(G) - |H| + n(H), k(H) = n(H) - dim V(H).
    Their counts must equal the frontier DP's.  Specializing each [V] to
    A^{s/2} B^{s_perp/2} recovers the four-variable surface polynomial."""
    check_cap(len(graph.sorted_edges), cap)
    hom = SurfaceHomology(graph.host)
    steps = [((), (link,)) for link in _links(graph.host, hom.packed, graph.sorted_edges)]
    c_g = graph.components_count()
    shift = len(graph.g_vertices) + graph.host.isolated_vertices - c_g
    spans = _Spans(hom.dim)
    grouped: defaultdict[int, Counter] = defaultdict(Counter)
    leaves = zip(map(int.bit_count, range(1 << len(steps))), _walk((), steps, spans))
    for (h, (v, nullity)), cnt in Counter(leaves).items():
        grouped[v][shift - h + nullity, nullity - spans.spaces[v].dim] += cnt
    counts = sum(grouped.values(), Counter())
    for inv, cnt in histogram(graph, None).items():
        counts[inv.c - c_g, inv.k] -= cnt
    if any(counts.values()):
        raise InternalInvariantError("tilde-P exponent counts differ from the frontier DP's")
    parts = [(spans.spaces[v], LaurentPolynomial(("X", "Y"), b)) for v, b in grouped.items()]
    return sorted(parts, key=lambda vp: (vp[0].dim, vp[0].basis))


def tilde_p_specialized(parts: list[tuple[Subspace, LaurentPolynomial]], sp: SymplecticSpace) -> LaurentPolynomial:
    """Collapse subgroup coefficients to A^{s/2} B^{s_perp/2}."""
    total = LaurentPolynomial.zero()
    for v, poly in parts:
        s, s_perp, _ = symplectic_invariants(v, sp)
        total = total + poly * LaurentPolynomial.monomial(
            1, {"A": s // 2, "B": s_perp // 2}
        )
    return total


# -- radial map and the subgroup duality check -----------------------------------

def radial_map(
    m: CombinatorialMap,
) -> tuple[CombinatorialMap, dict[int, Chain], dict[int, Chain]]:
    """The radial map R(m) (one vertex per vertex-or-face of m, one
    quadrilateral face per edge) together with the chain maps taking primal
    and dual edges to 2-paths across their quadrilateral.

    Primal edge e runs tail -> left face -> head; dual edge e* runs across
    the head-side corner of the same quadrilateral.  The alternative corner
    choices differ by quadrilateral boundaries, so the induced maps on H1
    are independent of them.
    """
    darts = m.darts
    idx = {d: i for i, d in enumerate(darts)}
    rv = {d: 2 * idx[d] + 1 for d in darts}
    rf = {d: 2 * idx[d] + 2 for d in darts}
    # the radial edge r_d is the corner between d and sigma(d): it joins the
    # vertex of d to the center of the face whose phi-orbit contains d; the
    # face-side rotation must follow phi^-1 so that sigma_R∘alpha_R squares
    # to the identity on quadrilaterals ((sigma alpha sigma^-1)^2 = id)
    sig_inv = m.sigma_inv
    sigma: dict[int, int] = {}
    alpha: dict[int, int] = {}
    for d in darts:
        sigma[rv[d]] = rv[m.sigma[d]]
        sigma[rf[d]] = rf[m.alpha[sig_inv[d]]]
        alpha[rv[d]] = rf[d]
        alpha[rf[d]] = rv[d]
    radial = CombinatorialMap(sigma, alpha, m.isolated_vertices)
    if radial.n_faces - radial.isolated_vertices != m.n_edges:
        raise InternalInvariantError("radial map faces do not match edges")
    if radial.total_genus != m.total_genus:
        raise InternalInvariantError("radial map genus mismatch")

    # rv[d] -> rf[d] runs from the vertex of d to its face: a 2-path leaves
    # along the corner of e (primal) or of alpha(e) (dual), and comes back
    # from the face along the corner of phi(e), at the head of e
    primal = {e: radial.chain((rv[e], rf[m.phi(e)])) for e in m.edge_ids}
    dualc = {e: radial.chain((rv[m.alpha[e]], rf[m.phi(e)])) for e in m.edge_ids}
    return radial, primal, dualc


def _radial_links(
    m: CombinatorialMap, dual_m: CombinatorialMap
) -> tuple[SurfaceHomology, list[Link], list[Link]]:
    """H1 of m's radial map, and the (tail, head, packed class) of each edge
    of m in m and of its dual edge in ``dual_m``, in sorted edge order."""
    radial, primal_chain, dual_chain = radial_map(m)
    hom = SurfaceHomology(radial)
    edges = m.edge_ids
    primal = _links(m, {e: hom.chain_class(primal_chain[e]) for e in edges}, edges)
    dual = _links(dual_m, {e: hom.chain_class(dual_chain[e]) for e in edges}, edges)
    return hom, primal, dual


def _subgroup_walk(
    primal: Sequence[Link], dual: Sequence[Link], spans: _Spans
) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """((V(H) id, n(H)), (V(H*) id, n(H*))) of every mask, in increasing
    mask order: a `_walk` of H, where bit i in adds primal edge i, zipped
    with a `_walk` of H*, where bit i out adds dual edge i."""
    return zip(
        _walk((), [((), (link,)) for link in primal], spans),
        _walk((), [((link,), ()) for link in dual], spans),
    )


def verify_subgroup_duality(m: CombinatorialMap, cap: int = DEFAULT_CAP) -> PolynomialReport:
    """Check V(H*) = V(H)^perp (as canonical RREF matrices in the radial
    map's H1 coordinates) and the component/kernel exponent swaps, for every
    spanning subgraph H of the cellulation m, where H* holds the duals of the
    edges not in H.  The walks give each side's span V and nullity n; with
    e edges, |H| = mask.bit_count(), n(G) = e - v + c, n(G*) = e - f + c:
    k(H) = n(H) - dim V(H), c(H) - c(G) = (e - |H|) - n(G) + n(H),
    k(H*) = n(H*) - dim V(H*), c(H*) - c(G*) = |H| - n(G*) + n(H*).  Each
    distinct key (|H|, both sides' (span id, nullity)) is checked once; only
    a failure walks again, to the least failing mask, the witness."""
    check_cap(m.n_edges, cap)
    hom, primal, dual = _radial_links(m, m.dual())
    e, c = m.n_edges, m.n_components
    n_g, n_gs = e - m.n_vertices + c, e - m.n_faces + c
    spans = _Spans(hom.dim)

    def leaves():
        return zip(map(int.bit_count, range(1 << e)), _subgroup_walk(primal, dual, spans))

    # V(H) id -> (V(H)^perp id, -1 if the dims do not sum to dim H1; both dims)
    perps: dict[int, tuple[int, int, int]] = {}
    bad = set()
    for key in set(leaves()):
        h, ((v_h, n_h), (v_hs, n_hs)) = key
        if v_h not in perps:
            v = spans.spaces[v_h]
            w = orthogonal_complement(v, hom.form)
            perps[v_h] = (spans.add(w) if v.dim + w.dim == hom.dim else -1, v.dim, w.dim)
        perp, dim_h, dim_hs = perps[v_h]
        if (
            v_hs != perp
            or h - n_gs + n_hs != n_h - dim_h
            or e - h - n_g + n_h != n_hs - dim_hs
        ):
            bad.add(key)
    failed = first_failing(leaves, bad)
    witness = None if failed is None else f"map={m!r} mask={failed}"
    verdict = Verdict("subgroup duality V(H*) = V(H)^perp", witness is None, witness)
    return PolynomialReport(description=f"subgroup duality on {m!r}", verdicts=(verdict,))
