"""Command-line interface.

One subcommand per computation or verification; text output is canonical
and byte-stable for golden-file testing (--json mirrors it for machines).
Exit codes: 0 success / all identities pass, 1 verification failure,
2 bad input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from . import corpus as corpus_mod
from .errors import NonLaurentResult, SurfPolyError
from .homology import tilde_p, verify_subgroup_duality
from .invariants import DEFAULT_CAP, scan
from .laurent import LaurentPolynomial
from .links import (
    LinkDiagram,
    _jones_of,
    kauffman,
    parse_diagram,
    serialize_diagram,
    tait_graph,
    verify_thistlethwaite,
)
from .maps import CombinatorialMap, EmbeddedSubgraph, parse_map_file, serialize_map
from .multivariate import parse_weights_file, p_bar, verify_multivariate_duality
from .polynomials import (
    abstract_graph,
    bollobas_riordan,
    p_bruteforce,
    p_prime,
    p_recursive,
    tutte,
    verify_duality,
    verify_specializations,
)
from .report import PolynomialReport

DATA_DIR = Path(__file__).parent / "data"
BUNDLED_MAPS = ("tb2.map", "sl.map", "sb.map", "theta.map", "fig2.map")
BUNDLED_LINKS = ("trefoil.vlk", "vtrefoil.vlk", "torus-alt.vlk")


def _read(path: str | Path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_graph(path: str | Path) -> EmbeddedSubgraph:
    return parse_map_file(_read(path))


def _load_map(path: str | Path) -> CombinatorialMap:
    return _load_graph(path).host


def _load_diagram(path: str | Path) -> LinkDiagram:
    return parse_diagram(_read(path))


def _weighting(path: str | None, graph: EmbeddedSubgraph):
    return parse_weights_file(_read(path), graph) if path else None


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _report_output(args, reports: list[tuple[str, PolynomialReport]]) -> int:
    lines = []
    ok = True
    payload = {"reports": []}
    for name, rep in reports:
        for v in rep.verdicts:
            lines.append(f"{'PASS' if v.passed else 'FAIL'} [{name}] {v.identity}")
            if not v.passed:
                lines.append(f"  witness: {v.witness}")
                ok = False
        payload["reports"].append(
            {
                "input": name,
                "verdicts": [
                    {"identity": v.identity, "passed": v.passed, "witness": v.witness}
                    for v in rep.verdicts
                ],
                "polynomials": rep.polynomials,
            }
        )
    payload["all_passed"] = ok
    _emit(args, payload, lines)
    return 0 if ok else 1


# -- subcommand handlers ------------------------------------------------------

def _value(key: str, compute):
    """Handler of a subcommand with one value: ``compute(args)`` returns a
    polynomial, printed as its canonical string, or map text, printed
    without its trailing newline; --json emits ``{key: value}``."""

    def handler(args) -> int:
        value = compute(args)
        if not isinstance(value, str):
            value = value.to_canonical_string()
        _emit(args, {key: value}, [value.rstrip("\n")])
        return 0

    return handler


def _poly(args) -> LaurentPolynomial:
    evaluate = p_recursive if args.recursive else p_bruteforce
    return evaluate(_load_graph(args.file), cap=args.cap)


def _pbar(args) -> LaurentPolynomial:
    graph = _load_graph(args.file)
    return p_bar(graph, _weighting(args.weights, graph), cap=args.cap)


def cmd_tildep(args) -> int:
    parts = tilde_p(_load_graph(args.file), cap=args.cap)
    parts = [(v, poly.to_canonical_string()) for v, poly in parts]
    rows = [
        {"dim": v.dim, "basis": [[str(x) for x in row] for row in v.basis], "poly": s}
        for v, s in parts
    ]
    _emit(args, {"tilde_p": rows}, [f"{v} :: {s}" for v, s in parts])
    return 0


INVARIANT_FIELDS = ("bitmask", "c", "n", "bc", "s", "s_perp", "k", "l")


def cmd_invariants(args) -> int:
    graph = _load_graph(args.file)
    edges = graph.sorted_edges
    rows = [
        {f: mask if f == "bitmask" else getattr(inv, f) for f in INVARIANT_FIELDS}
        for mask, inv in scan(graph, args.cap)
    ]
    lines = [f"# {' '.join(INVARIANT_FIELDS)}  (bit i = edge {' '.join(map(str, edges))})"]
    lines += [" ".join(str(row[f]) for f in INVARIANT_FIELDS) for row in rows]
    _emit(args, {"edges": list(edges), "subgraphs": rows}, lines)
    return 0


def cmd_jones(args) -> int:
    d = _load_diagram(args.file)
    bracket, w = kauffman(d, cap=args.cap), d.writhe()
    try:
        # the unnormalized image never raises: d occurs with exponents k >= 0
        poly = _jones_of(bracket, w, normalized=not args.raw)
    except NonLaurentResult:
        print(
            "note: diagram has a state with k=0; printing the unnormalized polynomial",
            file=sys.stderr,
        )
        poly = _jones_of(bracket, w, normalized=False)
    s = poly.to_canonical_string()
    _emit(args, {"jones": s}, [s])
    return 0


# The subcommands on one input file, in --help order: name -> (help, handler).
# Rows look library names up when called, so tests can patch them.
FILE_COMMANDS = {
    "poly": ("four-variable surface polynomial P(X,Y,A,B)", _value("poly", _poly)),
    "tutte": (
        "Tutte polynomial (Whitney-rank normalization)",
        _value("tutte", lambda a: tutte(*abstract_graph(_load_graph(a.file)), cap=a.cap)),
    ),
    "br": (
        "Bollobas-Riordan polynomial BR(X,Y,Z)",
        _value("bollobas_riordan", lambda a: bollobas_riordan(_load_map(a.file), cap=a.cap)),
    ),
    "pprime": (
        "undoubled combinatorial variant P'(X,Y,A,B)",
        _value("p_prime", lambda a: p_prime(_load_map(a.file), cap=a.cap)),
    ),
    "pbar": ("edge-weighted polynomial Pbar(q,v,A,B)", _value("p_bar", _pbar)),
    "tildep": ("subgroup-coefficient polynomial", cmd_tildep),
    "invariants": ("per-subgraph invariant table", cmd_invariants),
    "dual": (
        "dual map, canonical form",
        _value("dual", lambda a: serialize_map(_load_map(a.file).dual(), canonical=True)),
    ),
    "canon": (
        "canonical form of the map file",
        _value("canonical", lambda a: serialize_map(_load_graph(a.file), canonical=True)),
    ),
    "bracket": (
        "four-variable Kauffman bracket K(A,B,d,Z)",
        _value("kauffman", lambda a: kauffman(_load_diagram(a.file), cap=a.cap)),
    ),
    "jones": ("Jones polynomial in u (t = u^4) and Z", cmd_jones),
    "tait": (
        "Tait graph of an alternating diagram",
        _value("tait", lambda a: serialize_map(tait_graph(_load_diagram(a.file)).graph, canonical=True)),
    ),
}

# verify <what> -> (loader of the input file, verifier of (input, cap, weights file))
VERIFIERS = {
    "duality": (_load_map, lambda m, cap, weights: verify_duality(m, cap=cap)),
    "special": (_load_map, lambda m, cap, weights: verify_specializations(m, cap=cap)),
    "mduality": (
        _load_map,
        lambda m, cap, weights: verify_multivariate_duality(
            m, _weighting(weights, EmbeddedSubgraph.full(m)), cap=cap
        ),
    ),
    "subgroup-duality": (_load_map, lambda m, cap, weights: verify_subgroup_duality(m, cap=cap)),
    "thistlethwaite": (_load_diagram, lambda d, cap, weights: verify_thistlethwaite(d, cap=cap)),
}


def cmd_verify(args) -> int:
    if args.what == "all":
        return _report_output(args, _verify_all(args))
    load, verify = VERIFIERS[args.what]
    return _report_output(args, [(args.file, verify(load(args.file), args.cap, args.weights))])


def _verify_all(args) -> list[tuple[str, PolynomialReport]]:
    """Every verifier over the bundled examples plus a seeded corpus; no
    weights file is read."""
    links = [(name, _load_diagram(DATA_DIR / name)) for name in BUNDLED_LINKS]
    inputs = (
        [(name, _load_map(DATA_DIR / name)) for name in BUNDLED_MAPS]
        + [(name, d) for name, d in links if d.is_alternating()]
        + [(f"random-{i}", m) for i, m in enumerate(corpus_mod.random_maps(8, 6, seed=args.seed))]
        + [
            (f"alt-g{g}-{i}", d)
            for g in (1, 2)
            for i, d in enumerate(corpus_mod.alternating_diagrams(2, g, 5, seed=args.seed + g))
        ]
    )
    # a diagram gets the verifiers that load diagrams, a map the other four
    return [
        (name, verify(x, args.cap, None))
        for name, x in inputs
        for load, verify in VERIFIERS.values()
        if (load is _load_diagram) == isinstance(x, LinkDiagram)
    ]


def cmd_corpus(args) -> int:
    # edge counts are drawn from [least, --max-edges]: a genus-g map has at
    # least 2g edges, and a diagram at least 2 crossings
    if args.kind == "diagrams" and args.genus < 0:
        raise SurfPolyError(f"--genus must be at least 0, not {args.genus}")
    least = 1 if args.kind == "maps" else max(2, 2 * args.genus)
    if args.max_edges < least:
        raise SurfPolyError(f"--max-edges must be at least {least}, not {args.max_edges}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "maps":
        items = corpus_mod.random_maps(args.count, args.max_edges, seed=args.seed)
        name, serialize, tag = "map_{:04d}.map", partial(serialize_map, canonical=True), ""
    else:
        items = corpus_mod.alternating_diagrams(args.count, args.genus, args.max_edges, seed=args.seed)
        name, serialize, tag = "diagram_{:04d}.vlk", serialize_diagram, f" genus={args.genus}"
    written = []
    for i, item in enumerate(items):
        path = out / name.format(i)
        path.write_text(serialize(item, comment=f"seed={args.seed}{tag} index={i}"))
        written.append(str(path))
    _emit(args, {"written": written}, written)
    return 0


class _RemovedOption(argparse.Action):
    """A removed option, kept only to refuse it by name: without it,
    ``--threads 2 poly`` would read ``2`` as the subcommand."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs="?", help=argparse.SUPPRESS)

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} was removed: every command runs in one process")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfpoly",
        description=(
            "Exact polynomial invariants of graphs embedded in closed orientable "
            "surfaces, and of link diagrams on them."
        ),
        epilog=(
            "Map files (.map): 'sigma: (1 3 2 4)', 'alpha: (1 2)(3 4)', optional "
            "'isolated: N', 'graph_vertices: * | ids', 'graph_edges: * | ids'.  "
            "Link files (.vlk): 'crossing 1: darts (1 2 3 4) over (1 3)' lines, "
            "'alpha: (...)...', optional 'orient: d ...', 'freeloop: [walk]', "
            "'surface_sigma/alpha' for crossingless diagrams.  '#' starts a comment."
        ),
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--cap", type=int, default=DEFAULT_CAP, help=f"state-sum size cap (default {DEFAULT_CAP})"
    )
    parser.add_argument("--seed", type=int, default=2024, help="corpus seed")
    parser.add_argument("--threads", action=_RemovedOption)
    sub = parser.add_subparsers(dest="command", required=True)

    parsers = {}
    for name, (help_, fn) in FILE_COMMANDS.items():
        parsers[name] = p = sub.add_parser(name, help=help_)
        p.add_argument("file")
        p.set_defaults(fn=fn)
    p = parsers["poly"]
    p.add_argument("--recursive", action="store_true", help="contraction-deletion evaluator")
    p.add_argument("--bruteforce", dest="recursive", action="store_false")
    p.set_defaults(recursive=False)
    parsers["pbar"].add_argument("--weights", help="weights file: lines 'edge <id> = <monomial>'")
    parsers["jones"].add_argument("--raw", action="store_true", help="skip the d-normalization")
    p = sub.add_parser("verify", help="machine-check the identities")
    p.add_argument("what", choices=[*VERIFIERS, "all"])
    p.add_argument("file", nargs="?", help="input file (not used by 'all')")
    p.add_argument("--weights", help="weights file for mduality")
    p.set_defaults(fn=cmd_verify)
    p = sub.add_parser("corpus", help="generate seeded corpora")
    p.add_argument("kind", choices=["maps", "diagrams"])
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--max-edges", type=int, default=8)
    p.add_argument("--genus", type=int, default=1)
    p.set_defaults(fn=cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.what != "all" and not args.file:
        parser.error(f"verify {args.what} needs an input file")
    try:
        return args.fn(args)
    except (SurfPolyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
