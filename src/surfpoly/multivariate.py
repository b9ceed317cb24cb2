"""Edge-weighted (multivariate) version of the surface polynomial.

    Pbar(q, v, A, B) = sum_H  q^c(H) * A^(s(H)/2) * B^(s_perp(H)/2)
                              * prod_{e in H} v_e

Setting A = B = 1 gives the multivariate Tutte partition function; setting
every v_e = Y and q = XY recovers X^c(G) Y^(g+v(G)) times the four-variable
polynomial.  Duality transports the weight of e to e* and replaces it by
q/v_e.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import add, mul
from typing import Mapping

from .errors import MapFormatError
from .laurent import LaurentPolynomial
from .invariants import DEFAULT_CAP, SubgraphScanner, check_cap
from .maps import CombinatorialMap, EmbeddedSubgraph
from .polynomials import _witness
from .report import PolynomialReport, Verdict

RESERVED_NAMES = frozenset("q A B X Y Z d u t x y".split())

#: a weight is a Laurent monomial: (coefficient, {variable: exponent})
Monomial = tuple[int, dict[str, int]]


def _as_monomial(value) -> Monomial:
    if isinstance(value, str):
        return (1, {value: 1})
    if isinstance(value, LaurentPolynomial):
        if not value.is_monomial():
            raise MapFormatError(f"edge weight must be a monomial, got {value}")
        (exps, coeff), = value.terms.items()
        return (coeff, dict(zip(value.variables, exps)))
    raise MapFormatError(f"cannot interpret edge weight {value!r}")


class EdgeWeighting:
    """Assignment of one Laurent-monomial weight per marked edge.

    Defaults to a fresh commuting indeterminate ``v<edgeid>`` per edge.
    Weight variable names must avoid the reserved polynomial variables.
    """

    def __init__(
        self,
        graph: EmbeddedSubgraph | CombinatorialMap,
        weights: Mapping[int, object] | None = None,
        _allow_q: bool = False,
    ):
        if isinstance(graph, CombinatorialMap):
            graph = EmbeddedSubgraph.full(graph)
        self.graph = graph
        weights = dict(weights or {})
        unknown = set(weights) - set(graph.sorted_edges)
        if unknown:
            raise MapFormatError(f"weights for unknown edges {sorted(unknown)}")
        assigned = {e: _as_monomial(weights.get(e, f"v{e}")) for e in graph.sorted_edges}
        reserved = RESERVED_NAMES - ({"q"} if _allow_q else set())
        for coeff, exps in assigned.values():
            bad = set(exps) & reserved
            if bad:
                raise MapFormatError(f"weight uses reserved variable names {sorted(bad)}")
        self.assigned = assigned

    def weight(self, e: int) -> Monomial:
        return self.assigned[e]

    def inverted(self) -> "EdgeWeighting":
        """Weights q/v_e, used by the duality relation."""
        flipped = {}
        for e, (coeff, exps) in self.assigned.items():
            if coeff not in (1, -1):
                raise MapFormatError(f"cannot invert weight coefficient {coeff}")
            mono = {v: -k for v, k in exps.items()}
            mono["q"] = mono.get("q", 0) + 1
            flipped[e] = LaurentPolynomial.monomial(coeff, mono)
        return EdgeWeighting(self.graph, flipped, _allow_q=True)

    def transported(self, dual_graph: EmbeddedSubgraph) -> "EdgeWeighting":
        """Same weights on the dual, through the shared-id e <-> e* pairing."""
        return EdgeWeighting(
            dual_graph,
            {e: LaurentPolynomial.monomial(c, x) for e, (c, x) in self.assigned.items()},
        )

    def product(self) -> LaurentPolynomial:
        """prod v_e as one monomial: exponents summed, coefficients multiplied."""
        coeff, exps = 1, Counter()
        for c, x in self.assigned.values():
            coeff *= c
            exps.update(x)
        return LaurentPolynomial.monomial(coeff, exps)


def p_bar(
    graph: EmbeddedSubgraph | CombinatorialMap,
    weighting: EdgeWeighting | None = None,
    cap: int = DEFAULT_CAP,
) -> LaurentPolynomial:
    """The edge-weighted state sum over all spanning subgraphs."""
    if isinstance(graph, CombinatorialMap):
        graph = EmbeddedSubgraph.full(graph)
    weighting = weighting or EdgeWeighting(graph)
    edges = graph.sorted_edges
    check_cap(len(edges), cap)
    sc = SubgraphScanner(graph)
    codes = sc.codes()
    qab = {"q": {}, "A": {}, "B": {}}  # the (q, A, B) part of a term, by code
    for code in set(codes):
        inv = sc.decode(code)
        qab["q"][code], qab["A"][code], qab["B"][code] = inv.c, inv.s // 2, inv.s_perp // 2
    # sorted, as LaurentPolynomial keeps them, so its terms are not re-keyed
    names = sorted({"q", "A", "B"}.union(*(exps for _, exps in weighting.assigned.values())))

    def table(half):
        """Exponent columns, one per name, and coefficients of the subsets
        of ``half``, by mask."""
        columns, coeffs = [[0] for _ in names], [1]
        for e in half:
            coeff, exps = weighting.weight(e)
            for v, col in zip(names, columns):
                col += [x + exps[v] for x in col] if v in exps else col
            coeffs += [c * coeff for c in coeffs]
        return columns, coeffs

    # block r holds the masks whose high half is row r: columns of 2^(e/2), never 2^e
    h = (len(edges) + 1) // 2
    (lo, lo_coeffs), (hi, hi_coeffs) = table(edges[:h]), table(edges[h:])
    size, terms = len(lo_coeffs), {}
    for r, c in enumerate(hi_coeffs):
        block = codes[r * size:(r + 1) * size]
        columns = []
        for v, low, high in zip(names, lo, hi):
            col = map(add, low, repeat(high[r])) if high[r] else low
            columns.append(map(add, col, map(qab[v].__getitem__, block)) if v in qab else col)
        for key, k in zip(zip(*columns), lo_coeffs if c == 1 else map(mul, lo_coeffs, repeat(c))):
            terms[key] = terms.get(key, 0) + k
    return LaurentPolynomial(tuple(names), terms)


def multivariate_tutte(
    graph: EmbeddedSubgraph | CombinatorialMap,
    weighting: EdgeWeighting | None = None,
    cap: int = DEFAULT_CAP,
) -> LaurentPolynomial:
    """Z_G(q, v): the A = B = 1 specialization."""
    return p_bar(graph, weighting, cap=cap).substitute({"A": 1, "B": 1})


def verify_multivariate_duality(
    m: CombinatorialMap,
    weighting: EdgeWeighting | None = None,
    cap: int = DEFAULT_CAP,
) -> PolynomialReport:
    """Pbar_{G*}(q, v, A, B) = q^(c(G*) - v(G) - g) * (prod v_e)
    * Pbar_G(q, q/v, B/q, A q), with the classical planar relation recovered
    at genus zero and A = B = 1."""
    graph = EmbeddedSubgraph.full(m)
    weighting = weighting or EdgeWeighting(graph)
    dual = m.dual()
    dual_graph = EmbeddedSubgraph.full(dual)
    g = m.total_genus

    lhs = p_bar(dual_graph, weighting.transported(dual_graph), cap=cap)
    q, a, b = map(LaurentPolynomial.variable, "qAB")
    inner = p_bar(graph, weighting.inverted(), cap=cap)
    prefactor = (q ** (dual.n_components - m.n_vertices - g)) * weighting.product()
    rhs = prefactor * inner.substitute({"A": b * q ** -1, "B": a * q})
    ok = lhs == rhs
    witness = None if ok else _witness(m)
    verdicts = [Verdict("multivariate duality Pbar_G* = q^(c*-v-g) (prod v) Pbar_G(q, q/v, B/q, Aq)", ok, witness)]

    if g == 0:  # the prefactor is q^(c(G*)-v(G)) (prod v)
        ok2 = lhs.substitute({"A": 1, "B": 1}) == prefactor * inner.substitute({"A": 1, "B": 1})
        planar = "planar relation Z_G* = q^(c(G*)-v(G)) (prod v) Z_G(q, q/v)"
        verdicts.append(Verdict(planar, ok2, None if ok2 else _witness(m)))
    return PolynomialReport(
        description=f"multivariate duality on {m!r}",
        polynomials={"Pbar_G*": lhs.to_canonical_string()},
        verdicts=tuple(verdicts),
    )


def parse_weights_file(text: str, graph: EmbeddedSubgraph) -> EdgeWeighting:
    """Weights file: lines ``edge <id> = <monomial>``, where the monomial is
    e.g. ``3*w^2`` or ``q*v1^-1``; '#' starts a comment."""
    weights: dict[int, LaurentPolynomial] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("=", 1)
        if len(parts) != 2 or not parts[0].strip().lower().startswith("edge"):
            raise MapFormatError(f"expected 'edge <id> = <monomial>', got {line!r}")
        try:
            eid = int(parts[0].strip().split()[1])
        except (IndexError, ValueError) as exc:
            raise MapFormatError(f"bad edge id in {line!r}") from exc
        if eid in weights:
            raise MapFormatError(f"edge {eid} is weighted twice")
        weights[eid] = _parse_monomial(parts[1].strip())
    return EdgeWeighting(graph, weights)


def _parse_monomial(text: str) -> LaurentPolynomial:
    coeff = 1
    exps: dict[str, int] = {}
    for factor in text.replace(" ", "").split("*"):
        if not factor:
            raise MapFormatError(f"empty factor in monomial {text!r}")
        if factor.lstrip("+-").isdigit():
            coeff *= int(factor)
            continue
        if "^" in factor:
            name, _, power = factor.partition("^")
            try:
                k = int(power)
            except ValueError as exc:
                raise MapFormatError(f"bad exponent in {factor!r}") from exc
        else:
            name, k = factor, 1
        if not name.isidentifier():
            raise MapFormatError(f"bad variable name {name!r}")
        exps[name] = exps.get(name, 0) + k
    return LaurentPolynomial.monomial(coeff, exps)
