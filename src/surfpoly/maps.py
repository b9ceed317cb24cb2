"""Oriented combinatorial maps (rotation systems) and marked subgraphs.

A map is a dart set with two permutations: ``sigma`` (counterclockwise
successor around the incident vertex) and ``alpha`` (fixed-point-free
involution pairing the two darts of each edge).  Orbits of ``sigma`` are
vertices, orbits of ``alpha`` are edges, and orbits of ``phi = sigma∘alpha``
are faces; capping each face with a disk realizes the map as a cellulation
of a closed oriented surface.

Conventions used throughout the package:

* phi(d) = sigma[alpha[d]]; a face walk traverses dart d from the vertex of
  d toward the vertex of alpha(d), keeping the face on its left.
* vertex id = smallest dart of the sigma-orbit, edge id = smallest dart of
  the alpha-orbit, face id = smallest dart of the phi-orbit.
* an edge is oriented from the vertex of its smaller dart to the other, so
  the 1-chain of a dart walk (`chain`) counts +1 for a smaller dart and -1
  for the other.
* isolated vertices carry no darts and are tracked by count; each one is a
  sphere component of the surface and is always part of the marked graph.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    AlphaNotInvolution,
    DanglingDart,
    EdgeNotInGraph,
    InternalEulerParity,
    LoopContraction,
    MalformedPermutation,
    MapFormatError,
    NotSpanning,
)

Perm = dict[int, int]

MAX_ISOLATED = 4096  # isolated vertices a .map file may declare


def _cycles(perm: Perm) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of a permutation, each rotated to start at its
    minimum, sorted by that minimum."""
    seen: set[int] = set()
    out: list[tuple[int, ...]] = []
    for start in sorted(perm):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        d = perm[start]
        while d != start:
            cyc.append(d)
            seen.add(d)
            d = perm[d]
        out.append(tuple(cyc))
    return tuple(out)


def find(parent: dict, x):
    """The root of x in the union-find forest ``parent`` (a dict from each
    element to its parent), halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


class UnionFind:
    """Plain union-find over arbitrary hashable elements."""

    def __init__(self, elements: Iterable = ()):
        self.parent = {x: x for x in elements}

    def find(self, x):
        return find(self.parent, x)

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def n_classes(self) -> int:
        return sum(1 for x in self.parent if self.parent[x] == x)


def _orbits(darts: Iterable[int], *perms: Perm) -> tuple[frozenset[int], ...]:
    """Orbits of the group that ``perms`` generate on ``darts``, in order of
    their least dart."""
    seen: set[int] = set()
    out = []
    for start in sorted(darts):
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for d in orbit:  # grows while it is read: a search from start
            for perm in perms:
                x = perm[d]
                if x not in seen:
                    seen.add(x)
                    orbit.append(x)
        out.append(frozenset(orbit))
    return tuple(out)


@dataclass(frozen=True)
class CombinatorialMap:
    """An oriented surface cellulation, immutable after construction."""

    sigma: Perm
    alpha: Perm
    isolated_vertices: int = 0

    def __post_init__(self):
        sig, alp = self.sigma, self.alpha
        if set(sig) != set(alp):
            raise DanglingDart("sigma and alpha must act on the same dart set")
        if sorted(sig.values()) != sorted(sig):
            raise MalformedPermutation("sigma is not a bijection on the darts")
        for d, d2 in alp.items():
            if d2 == d or alp.get(d2) != d:
                raise AlphaNotInvolution(
                    f"alpha is not a fixed-point-free involution at dart {d}"
                )
        if self.isolated_vertices < 0:
            raise MapFormatError("isolated vertex count must be nonnegative")
        if any(d < 1 for d in sig):
            raise MapFormatError("dart ids must be positive integers")

    # -- basic structure ---------------------------------------------------

    @cached_property
    def darts(self) -> tuple[int, ...]:
        return tuple(sorted(self.sigma))

    @cached_property
    def sigma_inv(self) -> Perm:
        return {v: k for k, v in self.sigma.items()}

    def phi(self, d: int) -> int:
        return self.sigma[self.alpha[d]]

    @cached_property
    def vertex_cycles(self) -> tuple[tuple[int, ...], ...]:
        return _cycles(self.sigma)

    @cached_property
    def face_cycles(self) -> tuple[tuple[int, ...], ...]:
        return _cycles({d: self.phi(d) for d in self.sigma})

    @cached_property
    def vertex_of(self) -> dict[int, int]:
        return {d: cyc[0] for cyc in self.vertex_cycles for d in cyc}

    @cached_property
    def face_of(self) -> dict[int, int]:
        return {d: cyc[0] for cyc in self.face_cycles for d in cyc}

    def edge_of(self, d: int) -> int:
        return min(d, self.alpha[d])

    def chain(self, darts: Iterable[int]) -> dict[int, int]:
        """Signed 1-chain (edge id -> coefficient) of a dart sequence: +1
        for an edge's smaller dart, -1 for the other, zeros dropped.  A
        path taken in reverse is its darts under alpha."""
        chain: dict[int, int] = {}
        for d in darts:
            e = self.edge_of(d)
            chain[e] = chain.get(e, 0) + (1 if d == e else -1)
        return {e: c for e, c in chain.items() if c}

    @cached_property
    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(cyc[0] for cyc in self.vertex_cycles)

    @cached_property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(sorted(d for d in self.sigma if d < self.alpha[d]))

    @cached_property
    def face_ids(self) -> tuple[int, ...]:
        return tuple(cyc[0] for cyc in self.face_cycles)

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        """(tail, head) vertex ids; tail is the vertex of the smaller dart."""
        return (self.vertex_of[e], self.vertex_of[self.alpha[e]])

    @cached_property
    def n_vertices(self) -> int:
        return len(self.vertex_cycles) + self.isolated_vertices

    @cached_property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    @cached_property
    def n_faces(self) -> int:
        # each isolated vertex is a sphere component with one (empty) face
        return len(self.face_cycles) + self.isolated_vertices

    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Partition of the darts into phi-orbits."""
        return self.face_cycles

    # -- components / genus ------------------------------------------------

    @cached_property
    def dart_components(self) -> tuple[frozenset[int], ...]:
        return _orbits(self.sigma, self.sigma, self.alpha)

    @cached_property
    def n_components(self) -> int:
        return len(self.dart_components) + self.isolated_vertices

    def genus(self) -> tuple[list[int], int]:
        """Per-component genus list (dart components in min-dart order, then
        one 0 per isolated vertex) and the total genus; each component's
        v - e + f is counted off the ids labelled by component."""
        label = {d: i for i, comp in enumerate(self.dart_components) for d in comp}
        chi = [0] * len(self.dart_components)
        for ids, sign in ((self.vertex_ids, 1), (self.edge_ids, -1), (self.face_ids, 1)):
            for x in ids:
                chi[label[x]] += sign
        genera: list[int] = []
        for c in chi:
            two_g = 2 - c
            if two_g % 2 or two_g < 0:
                raise InternalEulerParity(
                    f"component has Euler defect {two_g}; map is corrupted"
                )
            genera.append(two_g // 2)
        genera.extend([0] * self.isolated_vertices)
        return genera, sum(genera)

    @cached_property
    def total_genus(self) -> int:
        return self.genus()[1]

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    # -- derived maps --------------------------------------------------------

    def dual(self) -> "CombinatorialMap":
        """Dual map: vertices are the faces of self, alpha is shared, so
        edges correspond one to one and dual(dual(m)) == m exactly.  It is
        built once per map, so its own derived structure is shared too."""
        return self._dual

    @cached_property
    def _dual(self) -> "CombinatorialMap":
        phi = {d: self.phi(d) for d in self.sigma}
        return CombinatorialMap(phi, dict(self.alpha), self.isolated_vertices)

    def contract(self, forest: Iterable[int]) -> "CombinatorialMap":
        """Contract a forest of edges in one pass.

        Each surviving dart's new rotation successor is its old one, with
        contracted darts skipped along sigma∘alpha.  The surface is
        unchanged (v and e drop together, faces are preserved); a tree
        that keeps no dart becomes an isolated vertex.
        """
        uf, gone = UnionFind(self.vertex_ids), set()
        for e in forest:
            if e not in self.alpha or self.alpha[e] < e:
                raise EdgeNotInGraph(f"edge {e} not in map")
            u, w = self.edge_endpoints(e)
            if uf.find(u) == uf.find(w):
                raise LoopContraction(f"edge {e} closes a cycle")
            uf.union(u, w)
            gone.update((e, self.alpha[e]))
        sigma = {}
        for d, x in self.sigma.items():
            if d not in gone:
                while x in gone:
                    x = self.sigma[self.alpha[x]]
                sigma[d] = x
        trees = {uf.find(self.vertex_of[d]) for d in gone}
        trees.difference_update(uf.find(self.vertex_of[d]) for d in sigma)
        return CombinatorialMap(
            sigma, {d: self.alpha[d] for d in sigma}, self.isolated_vertices + len(trees)
        )

    def relabeled(self, mapping: Mapping[int, int]) -> "CombinatorialMap":
        sigma = {mapping[d]: mapping[v] for d, v in self.sigma.items()}
        alpha = {mapping[d]: mapping[v] for d, v in self.alpha.items()}
        return CombinatorialMap(sigma, alpha, self.isolated_vertices)

    def disjoint_union(self, other: "CombinatorialMap") -> "CombinatorialMap":
        offset = max(self.darts, default=0)
        other = other.relabeled({d: d + offset for d in other.darts})
        sigma = dict(self.sigma)
        sigma.update(other.sigma)
        alpha = dict(self.alpha)
        alpha.update(other.alpha)
        return CombinatorialMap(
            sigma, alpha, self.isolated_vertices + other.isolated_vertices
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CombinatorialMap)
            and self.sigma == other.sigma
            and self.alpha == other.alpha
            and self.isolated_vertices == other.isolated_vertices
        )

    def __hash__(self) -> int:
        return hash(
            (tuple(sorted(self.sigma.items())), self.isolated_vertices)
        )

    def __repr__(self) -> str:
        return (
            f"CombinatorialMap(v={self.n_vertices}, e={self.n_edges}, "
            f"f={self.n_faces}, genus={self.total_genus})"
        )


@dataclass(frozen=True)
class EmbeddedSubgraph:
    """A marked graph G inside a host cellulation of the surface.

    ``g_vertices``/``g_edges`` are subsets of the host's vertex and edge ids;
    endpoints of marked edges must be marked.  Isolated host vertices are
    implicitly marked.  With everything marked the subgraph *is* the
    cellulation (ribbon-graph mode).
    """

    host: CombinatorialMap
    g_vertices: frozenset[int]
    g_edges: frozenset[int]

    def __post_init__(self):
        vids = set(self.host.vertex_ids)
        eids = set(self.host.edge_ids)
        if not self.g_vertices <= vids:
            raise MapFormatError("graph_vertices contains unknown vertex ids")
        if not self.g_edges <= eids:
            raise MapFormatError("graph_edges contains unknown edge ids")
        for e in self.g_edges:
            u, w = self.host.edge_endpoints(e)
            if u not in self.g_vertices or w not in self.g_vertices:
                raise NotSpanning(f"edge {e} has an endpoint outside graph_vertices")

    @classmethod
    def full(cls, host: CombinatorialMap) -> "EmbeddedSubgraph":
        return cls(host, frozenset(host.vertex_ids), frozenset(host.edge_ids))

    @property
    def is_cellulation(self) -> bool:
        return len(self.g_vertices) == len(self.host.vertex_ids) and len(
            self.g_edges
        ) == len(self.host.edge_ids)

    @cached_property
    def sorted_edges(self) -> tuple[int, ...]:
        return tuple(sorted(self.g_edges))

    def is_loop(self, e: int) -> bool:
        u, w = self.host.edge_endpoints(e)
        return u == w

    def components_count(self, edges: Iterable[int] | None = None) -> int:
        """Components of the spanning subgraph on the given edges (all marked
        edges by default), isolated host vertices included."""
        uf = UnionFind(self.g_vertices)
        for e in self.g_edges if edges is None else edges:
            u, w = self.host.edge_endpoints(e)
            uf.union(u, w)
        return uf.n_classes() + self.host.isolated_vertices

    def delete_edge(self, e: int) -> "EmbeddedSubgraph":
        """Remove e from the marked graph; the host surface stays fixed."""
        if e not in self.g_edges:
            raise EdgeNotInGraph(f"edge {e} not in marked graph")
        return EmbeddedSubgraph(self.host, self.g_vertices, self.g_edges - {e})

    def contract_edge(self, e: int) -> "EmbeddedSubgraph":
        """Contract a non-loop marked edge in both the graph and the host."""
        if e not in self.g_edges:
            raise EdgeNotInGraph(f"edge {e} not in marked graph")
        if self.is_loop(e):
            raise LoopContraction(f"edge {e} is a loop")
        old, host = self.host, self.host.contract((e,))
        vids = {host.vertex_of[d] for d in host.sigma if old.vertex_of[d] in self.g_vertices}
        return EmbeddedSubgraph(host, frozenset(vids), self.g_edges - {e})

    # -- canonical codes ---------------------------------------------------

    def canonical_code(self) -> bytes:
        """Isomorphism-invariant code of (host, marks).

        Two subgraphs get equal codes iff a host isomorphism matches the
        marked vertex and edge sets: the code is the lexicographic minimum
        over root darts of a breadth-first relabeling trace recording sigma,
        alpha and the marks.
        """
        code, _ = self._canonical_code_and_labels()
        return repr(code).encode()

    def _canonical_code_and_labels(self):
        host = self.host
        vmark = {d: host.vertex_of[d] in self.g_vertices for d in host.sigma}
        emark = {d: host.edge_of(d) in self.g_edges for d in host.sigma}
        comp_codes = []
        for comp in host.dart_components:
            best = None
            best_order = None
            for root in sorted(comp):
                order = self._bfs_order(root)
                label = {d: i + 1 for i, d in enumerate(order)}
                trace = tuple(
                    (label[host.sigma[d]], label[host.alpha[d]], vmark[d], emark[d])
                    for d in order
                )
                if best is None or trace < best:
                    best, best_order = trace, order
            comp_codes.append((best, best_order))
        comp_codes.sort(key=lambda t: t[0])
        code = (tuple(c for c, _ in comp_codes), self.host.isolated_vertices)
        relabel: dict[int, int] = {}
        next_id = 1
        for _, order in comp_codes:
            for d in order:
                relabel[d] = next_id
                next_id += 1
        return code, relabel

    def _bfs_order(self, root: int) -> list[int]:
        host = self.host
        order = [root]
        seen = {root}
        i = 0
        while i < len(order):
            d = order[i]
            i += 1
            for nb in (host.sigma[d], host.alpha[d]):
                if nb not in seen:
                    seen.add(nb)
                    order.append(nb)
        return order

    def canonical_form(self) -> "EmbeddedSubgraph":
        """Relabel darts to 1..2m in canonical (code-minimizing) order."""
        _, relabel = self._canonical_code_and_labels()
        host = self.host.relabeled(relabel)
        vmap = {}
        for cyc in self.host.vertex_cycles:
            vmap[cyc[0]] = min(relabel[d] for d in cyc)
        emap = {e: min(relabel[e], relabel[self.host.alpha[e]]) for e in self.host.edge_ids}
        return EmbeddedSubgraph(
            host,
            frozenset(vmap[v] for v in self.g_vertices),
            frozenset(emap[e] for e in self.g_edges),
        )

    def __repr__(self) -> str:
        return (
            f"EmbeddedSubgraph({self.host!r}, vertices={sorted(self.g_vertices)}, "
            f"edges={sorted(self.g_edges)})"
        )


def canonical_code(obj: CombinatorialMap | EmbeddedSubgraph) -> bytes:
    if isinstance(obj, CombinatorialMap):
        obj = EmbeddedSubgraph.full(obj)
    return obj.canonical_code()


# -- text format -----------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_perm_text(text: str, what: str) -> list[list[int]]:
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise MapFormatError(f"stray tokens in {what} permutation: {stripped.strip()!r}")
    cycles = []
    for body in _CYCLE_RE.findall(text):
        if not body.strip():
            continue
        try:
            cyc = [int(tok) for tok in body.split()]
        except ValueError as exc:
            raise MapFormatError(f"non-integer dart in {what}: {body!r}") from exc
        cycles.append(cyc)
    return cycles


def _perm_from_cycles(cycles: list[list[int]], what: str) -> Perm:
    perm: Perm = {}
    for cyc in cycles:
        for i, d in enumerate(cyc):
            if d in perm:
                raise MalformedPermutation(f"dart {d} repeated in {what}")
            perm[d] = cyc[(i + 1) % len(cyc)]
    return perm


def _parse_involution(text: str, what: str, error: type[MapFormatError], message: str) -> Perm:
    """An involution written as 2-cycles; any other cycle raises ``error``
    with ``message``, where ``{}`` stands for the cycle."""
    cycles = _parse_perm_text(text, what)
    for cyc in cycles:
        if len(cyc) != 2:
            raise error(message.format(tuple(cyc)))
    return _perm_from_cycles(cycles, what)


def parse_map_file(text: str) -> EmbeddedSubgraph:
    """Parse the .map format into a host map with marked subgraph.

    Grammar (one key per line, '#' starts a comment, whitespace-insensitive):

        sigma: (1 3 2 4)
        alpha: (1 2)(3 4)
        isolated: 0
        graph_vertices: *   | space-separated vertex ids
        graph_edges: *      | space-separated edge ids

    Dart ids must be exactly 1..2m.  ``isolated`` is at most
    :data:`MAX_ISOLATED`.  ``graph_vertices`` cannot address isolated
    vertices; those are always part of the marked graph.
    """
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise MapFormatError(f"expected 'key: value', got {line!r}")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key in fields:
            raise MapFormatError(f"duplicate key {key!r}")
        fields[key] = value.strip()
    for required in ("sigma", "alpha"):
        if required not in fields:
            raise MapFormatError(f"missing {required!r} line")
    unknown = set(fields) - {"sigma", "alpha", "isolated", "graph_vertices", "graph_edges"}
    if unknown:
        raise MapFormatError(f"unknown keys: {sorted(unknown)}")

    sigma_cycles = _parse_perm_text(fields["sigma"], "sigma")
    message = "alpha must be a product of 2-cycles, got cycle {}"
    alpha = _parse_involution(fields["alpha"], "alpha", AlphaNotInvolution, message)
    sigma = _perm_from_cycles(sigma_cycles, "sigma")
    if set(sigma) != set(alpha):
        raise DanglingDart("sigma and alpha mention different dart sets")
    darts = sorted(sigma)
    if darts != list(range(1, len(darts) + 1)):
        raise MapFormatError("dart ids must be exactly 1..2m with no gaps")
    try:
        isolated = int(fields.get("isolated", "0"))
    except ValueError as exc:
        raise MapFormatError("isolated: expects an integer") from exc
    if isolated > MAX_ISOLATED:
        raise MapFormatError(f"isolated: {isolated} exceeds the bound {MAX_ISOLATED}")
    host = CombinatorialMap(sigma, alpha, isolated)

    def id_list(key: str, universe: tuple[int, ...], what: str) -> frozenset[int]:
        value = fields.get(key, "*")
        if value == "*":
            return frozenset(universe)
        try:
            listed = sorted(int(tok) for tok in value.split())
        except ValueError as exc:
            raise MapFormatError(f"{key}: expects '*' or integer ids") from exc
        repeated = sorted({a for a, b in zip(listed, listed[1:]) if a == b})
        if repeated:
            raise MapFormatError(f"{key}: repeated {what} ids {repeated}")
        ids = frozenset(listed)
        if not ids <= set(universe):
            raise MapFormatError(f"{key}: unknown {what} ids {sorted(ids - set(universe))}")
        return ids

    g_vertices = id_list("graph_vertices", host.vertex_ids, "vertex")
    g_edges = id_list("graph_edges", host.edge_ids, "edge")
    return EmbeddedSubgraph(host, g_vertices, g_edges)


def parse_map(text: str) -> CombinatorialMap:
    """Parse a .map file and return just the host map."""
    return parse_map_file(text).host


def _cycles_to_text(cycles: Iterable[tuple[int, ...]]) -> str:
    parts = ["(" + " ".join(map(str, cyc)) + ")" for cyc in cycles]
    return "".join(parts) if parts else "()"


def serialize_map(
    obj: CombinatorialMap | EmbeddedSubgraph,
    canonical: bool = False,
    comment: str | None = None,
) -> str:
    """Serialize to the .map format (deterministic; round-trips exactly on
    canonical forms)."""
    sub = EmbeddedSubgraph.full(obj) if isinstance(obj, CombinatorialMap) else obj
    if canonical:
        sub = sub.canonical_form()
    host = sub.host
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"sigma: {_cycles_to_text(host.vertex_cycles)}")
    lines.append(f"alpha: {_cycles_to_text(_cycles(host.alpha))}")
    lines.append(f"isolated: {host.isolated_vertices}")
    if set(sub.g_vertices) == set(host.vertex_ids):
        lines.append("graph_vertices: *")
    else:
        lines.append("graph_vertices: " + " ".join(map(str, sorted(sub.g_vertices))))
    if set(sub.g_edges) == set(host.edge_ids):
        lines.append("graph_edges: *")
    else:
        lines.append("graph_edges: " + " ".join(map(str, sorted(sub.g_edges))))
    return "\n".join(lines) + "\n"


# -- random maps -----------------------------------------------------------

def standard_alpha(n_edges: int) -> Perm:
    """alpha = (1 2)(3 4)...(2m-1 2m)."""
    alpha: Perm = {}
    for i in range(n_edges):
        a, b = 2 * i + 1, 2 * i + 2
        alpha[a] = b
        alpha[b] = a
    return alpha


def random_rotation(n_edges: int, rng: random.Random) -> list[int]:
    """A uniform random rotation on darts 1..2*n_edges, drawn by one
    shuffle: the list of sigma's images, sigma(d) at index d - 1."""
    images = list(range(1, 2 * n_edges + 1))
    rng.shuffle(images)
    return images


def rotation_map(images: list[int]) -> CombinatorialMap:
    """The map of a rotation list with the standard alpha."""
    darts = range(1, len(images) + 1)
    return CombinatorialMap(dict(zip(darts, images)), standard_alpha(len(images) // 2))


def random_map(n_edges: int, rng: random.Random) -> CombinatorialMap:
    """Uniform random rotation system on 2*n_edges darts with the standard
    alpha; every such pair is a cellulation of some oriented surface."""
    return rotation_map(random_rotation(n_edges, rng))


def _n_cycles(perm: list[int]) -> int:
    """Cycles of a permutation of 1..n given as the list [0, p(1), ..., p(n)]."""
    seen = bytearray(len(perm))
    count = 0
    for start in range(1, len(perm)):
        if not seen[start]:
            count += 1
            d = start
            while not seen[d]:
                seen[d] = 1
                d = perm[d]
    return count


def rotation_has_genus(images: list[int], genus: int) -> bool:
    """Whether ``rotation_map(images)`` has total genus ``genus``, counted
    on the list without building the map.

    Euler's formula over the c components reads v - e + f = 2c - 2g, with
    v the cycles of sigma and f those of phi(d) = sigma(alpha(d)), so the
    genus is g exactly when v + f - e + 2g = 2c.  A map with darts has
    c >= 1, so the components are searched only when v + f - e + 2g
    reaches 2; the empty rotation has c = 0.
    """
    sigma = [0, *images]
    # the standard alpha swaps 2i - 1 and 2i, so phi(2i - 1) = sigma(2i)
    # and phi(2i) = sigma(2i - 1)
    phi = sigma[:]
    phi[1::2], phi[2::2] = images[1::2], images[0::2]
    two_c = _n_cycles(sigma) + _n_cycles(phi) - len(images) // 2 + 2 * genus  # 2c that g needs
    if images and two_c < 2:
        return False
    alpha = standard_alpha(len(images) // 2)
    return two_c == 2 * len(_orbits(alpha, sigma, alpha))
