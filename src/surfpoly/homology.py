"""Exact first homology of surface cellulations and its symplectic structure.

This is the linear-algebra oracle for the combinatorial invariants: it
computes H1 of the host surface from the chain complex of the map, the image
V(H) of a subgraph's cycle space, the intersection form via chord-diagram
interleaving on a one-vertex reduction, symplectic orthogonal complements,
the subgroup-coefficient polynomial, and the subgroup-level duality check
through the radial map.

All arithmetic is exact: subspaces are canonical RREF matrices over
`fractions.Fraction`, and classes of integral cycles are integers.

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
pass over H's edges closes (`_cycles`), each class packed into one int.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DimensionMismatch, InternalInvariantError, RadicalNotBoundaries
from .invariants import DEFAULT_CAP, scan
from .laurent import LaurentPolynomial
from .maps import CombinatorialMap, EmbeddedSubgraph, UnionFind
from .report import PolynomialReport, Verdict

Vector = tuple[Fraction, ...]
Class = tuple[int, ...]  # an integral H1 class
Chain = dict[int, Fraction]  # edge id -> coefficient


# -- exact linear algebra ----------------------------------------------------

def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
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


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel {x : M x = 0}."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class Subspace:
    """A subspace of H1 in canonical reduced-row-echelon form; equality of
    subspaces is equality of the frozen basis matrices."""

    ambient: int
    basis: tuple[Vector, ...]

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[Fraction]], ambient: int) -> "Subspace":
        rows = [list(v) for v in vectors]
        for v in rows:
            if len(v) != ambient:
                raise DimensionMismatch(f"vector length {len(v)} != ambient {ambient}")
        red, _ = rref(rows)
        return cls(ambient, tuple(tuple(r) for r in red))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.ambient, self.basis))

    def intersection(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        k, m = self.dim, other.dim
        if k == 0 or m == 0:
            return Subspace.from_vectors([], self.ambient)
        # lambda*A = mu*B  <=>  (lambda, mu) in ker [A^T | -B^T]
        rows = []
        for i in range(self.ambient):
            rows.append(
                [self.basis[j][i] for j in range(k)]
                + [-other.basis[j][i] for j in range(m)]
            )
        vectors = []
        for sol in nullspace(rows, k + m):
            vec = [Fraction(0)] * self.ambient
            for j in range(k):
                if sol[j]:
                    vec = [a + sol[j] * b for a, b in zip(vec, self.basis[j])]
            vectors.append(vec)
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
    rows = []
    for b in v.basis:
        rows.append(
            [sum(x * sp.gram[i][j] for i, x in enumerate(b) if x) for j in range(sp.dimension)]
        )
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
        rows, self.boundary_pivots = rref(boundary_rows)
        if any(x.denominator != 1 for row in rows for x in row):
            raise InternalInvariantError("face boundary RREF is not integral")
        self.boundary_rref = [list(map(int, row)) for row in rows]
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
        rank = len(rref([[Fraction(x) for x in row] for row in gram])[0])
        if rank != self.dim:
            raise InternalInvariantError("intersection form is degenerate")

    def _face_boundary(self, face_cycle: tuple[int, ...]) -> list[Fraction]:
        """Boundary of a reduced-map face as a vector over loop edges; a face
        walk traverses dart d away from its vertex, so d contributes +e when
        it is the edge's orientation dart (the smaller one)."""
        red = self.reduced
        vec = [Fraction(0)] * len(self.loops)
        for d in face_cycle:
            e = red.edge_of(d)
            vec[self.loop_index[e]] += 1 if d == e else -1
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


def _pack(vec: Sequence[Fraction | int]) -> int:
    """An integral vector as one int, coordinate i in signed field i.  Sums
    of packed vectors stay exact while no coordinate reaches 2^63: entries
    are packed only below 2^32, and a cycle sums fewer than 2^31 of them."""
    if any(x.denominator != 1 or abs(x) >= 1 << 32 for x in vec):
        raise InternalInvariantError(f"{vec} is not a small integral vector")
    return sum(int(x) << (_WIDTH * i) for i, x in enumerate(vec))


def _unpack(x: int, dim: int) -> Class:
    out = []
    for _ in range(dim):
        x, digit = divmod(x + (1 << _WIDTH - 1), 1 << _WIDTH)
        out.append(digit - (1 << _WIDTH - 1))
    return tuple(out)


def _cycles(edges: Iterable[tuple[int, int, int]]) -> Iterator[int]:
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


def fundamental_cycles(
    graph: EmbeddedSubgraph, h_edges: Iterable[int]
) -> list[Chain]:
    """One cycle per non-forest edge of the spanning subgraph H, as chains
    over host edges (edge oriented from the vertex of its smaller dart)."""
    h = sorted(set(h_edges))
    units = [(*graph.host.edge_endpoints(e), 1 << (_WIDTH * i)) for i, e in enumerate(h)]
    return [
        {e: Fraction(x) for e, x in zip(h, _unpack(c, len(h))) if x}
        for c in _cycles(units)
    ]


def _span(classes: Iterable[int], dim: int, memo: dict) -> Subspace:
    """The span of packed classes.  ``memo`` maps each set of nonzero
    classes, and each subspace, to the one object kept per distinct
    subspace: a span is built once per set, and equal spans are identical."""
    key = frozenset(filter(None, classes))
    v = memo.get(key)
    if v is None:
        v = Subspace.from_vectors([_unpack(x, dim) for x in key], dim)
        v = memo[key] = memo.setdefault(v, v)
    return v


def _cycle_span(edges: Iterable[tuple[int, int, int]], dim: int, memo: dict) -> tuple[Subspace, int]:
    """V(H) from H's (tail, head, packed class) edges, and H's nullity."""
    cycles = list(_cycles(edges))
    return _span(cycles, dim, memo), len(cycles)


def _packed_edges(
    ends: CombinatorialMap, classes: Mapping[int, Sequence[Fraction | int]], edges: Iterable[int]
) -> list[tuple[int, int, int]]:
    """(tail, head, packed class) of each edge, tail and head in ``ends``."""
    return [(*ends.edge_endpoints(e), _pack(classes[e])) for e in edges]


def image_subspace(
    graph: EmbeddedSubgraph,
    h_edges: Iterable[int],
    hom: SurfaceHomology | None = None,
) -> tuple[Subspace, int]:
    """V(H) = image of H's cycle space in H1(Σ), and k(H) = n(H) - dim V."""
    hom = hom or SurfaceHomology(graph.host)
    v, nullity = _cycle_span(_packed_edges(graph.host, hom.edge_class, h_edges), hom.dim, {})
    return v, nullity - v.dim


# -- subgroup-coefficient polynomial ---------------------------------------------

def tilde_p(
    graph: EmbeddedSubgraph, cap: int = DEFAULT_CAP
) -> list[tuple[Subspace, LaurentPolynomial]]:
    """The subgroup-coefficient refinement: sum over spanning H of
    [V(H)] * X^{c(H)-c(G)} * Y^{k(H)}, merged by equal subspace.

    Specializing each [V] to A^{s/2} B^{s_perp/2} recovers the four-variable
    surface polynomial.
    """
    subgraphs = scan(graph, cap)
    hom = SurfaceHomology(graph.host)
    edges = _packed_edges(graph.host, hom.edge_class, graph.sorted_edges)
    c_g = graph.components_count()
    spans: dict = {}
    grouped: dict[Subspace, dict[tuple[int, ...], int]] = {}
    for mask, inv in subgraphs:
        v, nullity = _cycle_span((e for i, e in enumerate(edges) if mask >> i & 1), hom.dim, spans)
        k = nullity - v.dim
        if k != inv.k:
            raise InternalInvariantError(
                f"kernel mismatch: algebra {k} vs combinatorial {inv.k}"
            )
        exps = (inv.c - c_g, k)
        bucket = grouped.setdefault(v, {})
        bucket[exps] = bucket.get(exps, 0) + 1
    out = []
    for v in sorted(grouped, key=lambda s: (s.dim, s.basis)):
        out.append((v, LaurentPolynomial(("X", "Y"), grouped[v])))
    return out


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

    def redge(d: int) -> int:
        return rv[d]  # rv < rf, so rv(d) is the radial edge id

    primal: dict[int, Chain] = {}
    dualc: dict[int, Chain] = {}
    one = Fraction(1)
    for e in m.edge_ids:
        d = e
        turn = m.sigma[m.alpha[d]]  # phi(d): corner dart at the head, same face
        chain: Chain = {redge(d): one}
        chain[redge(turn)] = chain.get(redge(turn), 0) - one
        primal[e] = {k: v for k, v in chain.items() if v}
        chain = {redge(m.alpha[d]): one}
        chain[redge(turn)] = chain.get(redge(turn), 0) - one
        dualc[e] = {k: v for k, v in chain.items() if v}
    return radial, primal, dualc


def verify_subgroup_duality(m: CombinatorialMap, cap: int = DEFAULT_CAP) -> PolynomialReport:
    """Check V(H*) = V(H)^perp (as canonical RREF matrices in the radial
    map's H1 coordinates) and the component/kernel exponent swaps, for every
    spanning subgraph of the cellulation m."""
    g_full = EmbeddedSubgraph.full(m)
    subgraphs = scan(g_full, cap)
    dual_m = m.dual()
    radial, primal_chain, dual_chain = radial_map(m)
    hom = SurfaceHomology(radial)
    g_dual = EmbeddedSubgraph.full(dual_m)
    # dual edges keep their ids, so H* = the duals of the edges not in H
    # is the mask complement in the dual sweep
    dual_invs = [inv for _, inv in scan(g_dual, cap)]
    edges = g_full.sorted_edges
    full = (1 << len(edges)) - 1
    primal = _packed_edges(m, {e: hom.project_chain(c) for e, c in primal_chain.items()}, edges)
    dual = _packed_edges(dual_m, {e: hom.project_chain(c) for e, c in dual_chain.items()}, edges)
    c_g = g_full.components_count()
    c_gs = g_dual.components_count()
    spans: dict = {}
    perps: dict[Subspace, Subspace] = {}
    verdicts = []
    ok = True
    witness = None
    for mask, inv_h in subgraphs:
        v_h, _ = _cycle_span((e for i, e in enumerate(primal) if mask >> i & 1), hom.dim, spans)
        v_hs, _ = _cycle_span((e for i, e in enumerate(dual) if not mask >> i & 1), hom.dim, spans)
        perp = perps.get(v_h)
        if perp is None:
            perp = orthogonal_complement(v_h, hom.form)
            perp = perps[v_h] = spans.setdefault(perp, perp)
        inv_hs = dual_invs[full ^ mask]
        if (
            v_hs != perp
            or v_h.dim + v_hs.dim != hom.dim
            or inv_hs.c - c_gs != inv_h.k
            or inv_h.c - c_g != inv_hs.k
        ):
            ok = False
            witness = f"map={m!r} mask={mask}"
            break
    verdicts.append(Verdict("subgroup duality V(H*) = V(H)^perp", ok, witness))
    return PolynomialReport(
        description=f"subgroup duality on {m!r}", verdicts=tuple(verdicts)
    )
