"""Seeded inputs and per-item calls of the four benchmark workloads.

Every workload is a pool of items built with :mod:`surfpoly.corpus` from the
seed alone.  The pool interleaves fixed strata (edge count, genus, vertex
count, kind), and the seed only picks the maps inside each stratum,
so every seed gives the same mix of sizes and a run that stops part-way
through the pool still sees every stratum.  See ``README.md`` for why each
workload exists.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass

from surfpoly import corpus
from surfpoly.links import LinkDiagram
from surfpoly.maps import CombinatorialMap

# Fetched by full name because ``surfpoly.invariants`` is shadowed by a
# function on the package; called through the module at call time, so the
# tracer's wrappers are seen.
homology, links, multivariate, polynomials = (
    importlib.import_module("surfpoly." + name)
    for name in ("homology", "links", "multivariate", "polynomials")
)

# (label, input source, parameters, items per stratum) for each workload and
# size.  A 25 s run may wrap around its pool; replays are shifted copies (see
# Item.fresh).  Each workload's strata lie in one band of item cost, so the
# median and the tail item fall inside the band rather than in a gap
# between bands, where they would jump from seed to seed.
STRATA = {
    ("spec", "full"): [("map e=10 g=3", "genus", {"edges": 10, "genus": 3}, 80)],
    ("spec", "tiny"): [(f"map e={e}", "maps", {"edges": e}, 2) for e in (4, 5)],
    ("mdual", "full"): [(f"map e=8 g={g}", "genus", {"edges": 8, "genus": g}, 60) for g in (2, 3)],
    ("mdual", "tiny"): [(f"map e={e}", "maps", {"edges": e}, 2) for e in (3, 4)],
    ("recursive", "full"): [
        ("genus-1 e=12", "genus", {"edges": 12, "genus": 1}, 300),
        ("random e=12 v=3", "vertices", {"edges": 12, "vertices": 3}, 300),
    ],
    ("recursive", "tiny"): [
        ("genus-1 e=6", "genus", {"edges": 6, "genus": 1}, 2),
        ("random e=5 v=2", "vertices", {"edges": 5, "vertices": 2}, 2),
    ],
    ("homology", "full"): [
        stratum
        for n in (7, 8)
        for g in (1, 2)
        for stratum in (
            (f"diagram g={g} n={n}", "diagram", {"edges": n, "genus": g}, 28),
            (f"map g={g} e={n}", "genus", {"edges": n, "genus": g}, 28),
        )
    ],
    ("homology", "tiny"): [
        ("diagram g=1 n=3", "diagram", {"edges": 3, "genus": 1}, 2),
        ("map g=1 e=3", "genus", {"edges": 3, "genus": 1}, 2),
    ],
}


@dataclass(frozen=True)
class Item:
    """One input of a workload: a map or an alternating diagram."""

    stratum: str
    value: CombinatorialMap | LinkDiagram

    def fresh(self, shift: int = 0) -> CombinatorialMap | LinkDiagram:
        """A copy with no cached properties and every dart id raised by
        ``shift``.  A uniform shift keeps every sorted order, so the work is
        the same, but the copy is not equal to earlier ones: surfpoly keeps
        one SubgraphScanner per equal marked graph for the life of the
        process, and a replayed item must not find its scanners built."""
        return _shifted(self.value, shift)


@dataclass(frozen=True)
class Outcome:
    """What one item returned: its verdicts and the digest of its canonical
    strings."""

    verdicts: int
    failed_verdicts: int
    digest: str
    problem: str | None = None


def _shifted_map(m: CombinatorialMap, shift: int) -> CombinatorialMap:
    return CombinatorialMap(
        {d + shift: x + shift for d, x in m.sigma.items()},
        {d + shift: x + shift for d, x in m.alpha.items()},
        m.isolated_vertices,
    )


def _shifted(v: CombinatorialMap | LinkDiagram, shift: int) -> CombinatorialMap | LinkDiagram:
    if isinstance(v, CombinatorialMap):
        return _shifted_map(v, shift)
    return LinkDiagram(
        base=_shifted_map(v.base, shift),
        over={c + shift: frozenset(d + shift for d in pair) for c, pair in v.over.items()},
        free_loops=tuple(tuple(d + shift for d in walk) for walk in v.free_loops),
        surface=None if v.surface is None else _shifted_map(v.surface, shift),
        orientation=None if v.orientation is None else tuple(d + shift for d in v.orientation),
    )


def _stratum_seed(seed: int, index: int) -> int:
    return seed * 1009 + index


def _build_stratum(source: str, params: dict, count: int, seed: int) -> list:
    e = params["edges"]
    if source == "maps":
        return corpus.random_maps(count, e, seed, min_edges=e)
    if source == "genus":
        return corpus.random_maps_of_genus(count, params["genus"], e, seed, min_edges=e)
    if source == "diagram":
        return corpus.alternating_diagrams(count, params["genus"], e, seed, min_crossings=e)
    if source == "vertices":
        # random_maps filtered to one vertex count: the cost of p_recursive
        # follows the nullity e - v + 1, so fixing v steadies the item cost.
        # Small batches keep the rejected maps out of the run's peak memory.
        out: list = []
        batch = 0
        while len(out) < count:
            for m in corpus.random_maps(64, e, seed + 7919 * batch, min_edges=e):
                if m.n_vertices == params["vertices"] and m.n_components == 1:
                    out.append(_shifted(m, 0))
            batch += 1
        return out[:count]
    raise ValueError(f"unknown input source {source!r}")


def build_pool(workload: str, seed: int, size: str = "full") -> list[Item]:
    """The workload's items for ``seed``, strata interleaved in proportion
    to their counts (item j of a stratum of n sits at (j + 1/2) / n)."""
    keyed = []
    for index, (label, source, params, count) in enumerate(STRATA[(workload, size)]):
        values = _build_stratum(source, params, count, _stratum_seed(seed, index))
        # stored without the properties that sampling cached, to keep the
        # pool's memory small next to an item's
        keyed.extend(((j + 0.5) / count, index, Item(label, _shifted(v, 0))) for j, v in enumerate(values))
    keyed.sort(key=lambda t: t[:2])
    return [item for _, _, item in keyed]


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _report_outcome(*reports) -> Outcome:
    verdicts = [v for r in reports for v in r.verdicts]
    failed = sum(1 for v in verdicts if not v.passed)
    parts = []
    for r in reports:
        parts.append(r.description)
        parts.extend(f"{k}={v}" for k, v in sorted(r.polynomials.items()))
        parts.extend(r.lines())
    problem = None
    if failed:
        problem = next(v.line() for v in verdicts if not v.passed)
    return Outcome(len(verdicts), failed, _digest(parts), problem)


def run_item(workload: str, value, shift: int = 0) -> Outcome:
    """Take one input through its workload's calls and return the verdicts.
    ``shift`` is the dart shift of ``value`` (see Item.fresh)."""
    if workload == "spec":
        return _report_outcome(
            polynomials.verify_duality(value), polynomials.verify_specializations(value)
        )
    if workload == "mdual":
        # the default weights v<edge id>, named by the unshifted ids so that
        # a shifted copy has the same variables and canonical strings
        weights = multivariate.EdgeWeighting(value, {e: f"v{e - shift}" for e in value.edge_ids})
        return _report_outcome(multivariate.verify_multivariate_duality(value, weights))
    if workload == "recursive":
        p = polynomials.p_recursive(value)
        # P(1,1,1,1) counts the spanning subgraphs: one per edge subset
        ok = sum(p.terms.values()) == 1 << value.n_edges
        problem = None if ok else f"coefficient sum of P is not 2^{value.n_edges}"
        return Outcome(1, 0 if ok else 1, _digest([p.to_canonical_string()]), problem)
    if workload == "homology":
        if isinstance(value, LinkDiagram):
            return _report_outcome(links.verify_thistlethwaite(value))
        return _report_outcome(homology.verify_subgroup_duality(value))
    raise ValueError(f"unknown workload {workload!r}")
