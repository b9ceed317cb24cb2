"""In-memory span tracer that wraps surfpoly's public functions from outside.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces selected
module functions and class methods with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back.  Each wrapped call records
one span (name, start, end, parent span, item id) in flat arrays, so even the
per-mask spans of a long run stay a few tens of MB.  Self time is computed at
the end as a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# ``surfpoly.invariants`` is shadowed by the function of that name on the
# package, so the modules are fetched by their full names.
homology, invariants, laurent, links, maps, multivariate, polynomials = (
    importlib.import_module("surfpoly." + name)
    for name in ("homology", "invariants", "laurent", "links", "maps", "multivariate", "polynomials")
)

LP = laurent.LaurentPolynomial
ES = maps.EmbeddedSubgraph

#: span layer name -> (owner, attribute) pairs it wraps.  Owners are classes
#: or modules; a module function is replaced in every surfpoly module that
#: imported it by name.
SPANS = {
    "laurent.substitute": [(LP, "substitute")],
    "laurent.mul": [(LP, "__mul__"), (LP, "__rmul__")],
    "laurent.add": [(LP, "__add__"), (LP, "__radd__")],
    "laurent.canonical_string": [(LP, "to_canonical_string")],
    "invariants.scanner_init": [(invariants.SubgraphScanner, "__init__")],
    "invariants.mask": [(invariants.SubgraphScanner, "invariants_of_mask")],
    "invariants.invariants": [(invariants, "invariants")],
    "maps.canonical_code": [(ES, "canonical_code")],
    "maps.minor": [(ES, "delete_edge"), (ES, "contract_edge")],
    "maps.dual": [(maps.CombinatorialMap, "dual")],
    "polynomials.p_bruteforce": [(polynomials, "p_bruteforce")],
    "polynomials.p_recursive": [(polynomials, "p_recursive")],
    "polynomials.verify": [
        (polynomials, "verify_duality"),
        (polynomials, "verify_specializations"),
    ],
    "polynomials.classical": [
        (polynomials, "tutte"),
        (polynomials, "bollobas_riordan"),
        (polynomials, "p_prime"),
    ],
    "multivariate.p_bar": [(multivariate, "p_bar")],
    "multivariate.verify": [(multivariate, "verify_multivariate_duality")],
    "homology.surface_init": [(homology.SurfaceHomology, "__init__")],
    "homology.project_chain": [(homology.SurfaceHomology, "project_chain")],
    "homology.subspace": [(homology.Subspace, "from_vectors")],
    "homology.orthogonal_complement": [(homology, "orthogonal_complement")],
    "homology.verify_subgroup_duality": [(homology, "verify_subgroup_duality")],
    "links.states": [(links, "states")],
    "links.tait_graph": [(links, "tait_graph")],
    "links.kauffman": [(links, "kauffman")],
    "links.verify_thistlethwaite": [(links, "verify_thistlethwaite")],
}

GENERATORS = {"links.states"}
ITEM_SPAN = "bench.item"


def _edge_count(graph) -> int:
    return len(graph.sorted_edges) if isinstance(graph, ES) else graph.n_edges


class Tracer:
    """Records spans while installed; one instance per traced phase."""

    def __init__(self):
        self.names: list[str] = [ITEM_SPAN]
        self.name_id = {ITEM_SPAN: 0}
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self.stack: list[int] = []
        self.current_item = -1
        # per-span payloads recorded by hooks: span index -> value
        self.edges: dict[int, int] = {}
        self.terms_in = 0
        self.terms_out = 0
        self.yielded = 0
        self.codes: set[tuple[int, bytes]] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def item_span(self, item_id: int):
        """The root span of one benchmark item."""
        self.current_item = item_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self.current_item = -1

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        open_, close = self._open, self._close
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        if name in GENERATORS:
            tracer = self

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = open_(nid)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    tracer.yielded += 1
                    yield value

            return gen_wrapper

        if hook is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

            return wrapper

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            hook(idx, args, result)
            return result

        return hooked

    def _hook_laurent_substitute(self, idx, args, result):
        self.terms_in += len(args[0].terms)

    def _hook_maps_canonical_code(self, idx, args, result):
        self.codes.add((self.current_item, result))

    def _hook_polynomials_p_bruteforce(self, idx, args, result):
        self.edges[idx] = _edge_count(args[0])

    def _hook_multivariate_p_bar(self, idx, args, result):
        self.terms_out += len(result.terms)

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if n == "surfpoly" or n.startswith("surfpoly.")]
        for name, targets in SPANS.items():
            for owner, attr in targets:
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._saved.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                orig = getattr(owner, attr)
                new = self._wrap(name, orig)
                for mod in mods:
                    if getattr(mod, attr, None) is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self and inclusive nanoseconds, plus the time and
        the largest edge count of the residue sums under p_recursive."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        incl_ns = defaultdict(int)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_ns[name] += dur[i] - child[i]
            incl_ns[name] += dur[i]
        rec = self.name_id.get("polynomials.p_recursive")
        residue_ns = 0
        residue_max = 0
        for idx, edges in self.edges.items():
            p = parent[idx]
            if p >= 0 and self.span_name[p] == rec:
                residue_ns += dur[idx]
                residue_max = max(residue_max, edges)
        return {
            "spans": n,
            "calls": dict(calls),
            "self_ns": dict(self_ns),
            "incl_ns": dict(incl_ns),
            "residue_ns": residue_ns,
            "residue_max_edges": residue_max,
        }

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\titem\n")
            fh.writelines(
                f"{i}\t{names[self.span_name[i]]}\t{self.start[i]}\t{self.end[i]}"
                f"\t{self.parent[i]}\t{self.item[i]}\n"
                for i in range(len(self.start))
            )
