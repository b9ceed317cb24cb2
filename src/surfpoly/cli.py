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
from pathlib import Path

from . import corpus as corpus_mod
from .errors import NonLaurentResult, SurfPolyError
from .homology import tilde_p, verify_subgroup_duality
from .invariants import DEFAULT_CAP, scan
from .links import (
    _jones_of,
    kauffman,
    parse_diagram,
    serialize_diagram,
    tait_graph,
    verify_thistlethwaite,
)
from .maps import EmbeddedSubgraph, parse_map_file, serialize_map
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


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_graph(path: str) -> EmbeddedSubgraph:
    return parse_map_file(_read(path))


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

def cmd_poly(args) -> int:
    graph = _load_graph(args.file)
    if args.recursive:
        poly = p_recursive(graph, cap=args.cap)
    else:
        poly = p_bruteforce(graph, cap=args.cap)
    s = poly.to_canonical_string()
    _emit(args, {"poly": s}, [s])
    return 0


def cmd_tutte(args) -> int:
    graph = _load_graph(args.file)
    s = tutte(*abstract_graph(graph), cap=args.cap).to_canonical_string()
    _emit(args, {"tutte": s}, [s])
    return 0


def cmd_br(args) -> int:
    m = _load_graph(args.file).host
    s = bollobas_riordan(m, cap=args.cap).to_canonical_string()
    _emit(args, {"bollobas_riordan": s}, [s])
    return 0


def cmd_pprime(args) -> int:
    m = _load_graph(args.file).host
    s = p_prime(m, cap=args.cap).to_canonical_string()
    _emit(args, {"p_prime": s}, [s])
    return 0


def cmd_pbar(args) -> int:
    graph = _load_graph(args.file)
    weighting = None
    if args.weights:
        weighting = parse_weights_file(_read(args.weights), graph)
    s = p_bar(graph, weighting, cap=args.cap).to_canonical_string()
    _emit(args, {"p_bar": s}, [s])
    return 0


def cmd_tildep(args) -> int:
    graph = _load_graph(args.file)
    parts = tilde_p(graph, cap=args.cap)
    lines = [f"{v} :: {poly.to_canonical_string()}" for v, poly in parts]
    payload = {
        "tilde_p": [
            {
                "dim": v.dim,
                "basis": [[str(x) for x in row] for row in v.basis],
                "poly": poly.to_canonical_string(),
            }
            for v, poly in parts
        ]
    }
    _emit(args, payload, lines)
    return 0


def cmd_invariants(args) -> int:
    graph = _load_graph(args.file)
    subgraphs = scan(graph, args.cap)
    edges = graph.sorted_edges
    lines = ["# bitmask c n bc s s_perp k l  (bit i = edge " + " ".join(map(str, edges)) + ")"]
    rows = []
    for mask, inv in subgraphs:
        lines.append(
            f"{mask} {inv.c} {inv.n} {inv.bc} {inv.s} {inv.s_perp} {inv.k} {inv.l}"
        )
        rows.append(
            {
                "bitmask": mask,
                "c": inv.c,
                "n": inv.n,
                "bc": inv.bc,
                "s": inv.s,
                "s_perp": inv.s_perp,
                "k": inv.k,
                "l": inv.l,
            }
        )
    _emit(args, {"edges": list(edges), "subgraphs": rows}, lines)
    return 0


def cmd_dual(args) -> int:
    m = _load_graph(args.file).host
    text = serialize_map(m.dual(), canonical=True)
    _emit(args, {"dual": text}, [text.rstrip("\n")])
    return 0


def cmd_canon(args) -> int:
    graph = _load_graph(args.file)
    text = serialize_map(graph, canonical=True)
    _emit(args, {"canonical": text}, [text.rstrip("\n")])
    return 0


def cmd_bracket(args) -> int:
    d = parse_diagram(_read(args.file))
    s = kauffman(d, cap=args.cap).to_canonical_string()
    _emit(args, {"kauffman": s}, [s])
    return 0


def cmd_jones(args) -> int:
    d = parse_diagram(_read(args.file))
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


def cmd_tait(args) -> int:
    d = parse_diagram(_read(args.file))
    t = tait_graph(d)
    text = serialize_map(t.graph, canonical=True)
    _emit(args, {"tait": text}, [text.rstrip("\n")])
    return 0


def cmd_verify(args) -> int:
    what = args.what
    reports: list[tuple[str, PolynomialReport]] = []
    if what in ("duality", "special", "mduality", "subgroup-duality"):
        graph = _load_graph(args.file)
        m = graph.host
        if what == "duality":
            reports.append((args.file, verify_duality(m, cap=args.cap)))
        elif what == "special":
            reports.append((args.file, verify_specializations(m, cap=args.cap)))
        elif what == "mduality":
            weighting = None
            if args.weights:
                weighting = parse_weights_file(
                    _read(args.weights), EmbeddedSubgraph.full(m)
                )
            reports.append(
                (args.file, verify_multivariate_duality(m, weighting, cap=args.cap))
            )
        else:
            reports.append((args.file, verify_subgroup_duality(m, cap=args.cap)))
    elif what == "thistlethwaite":
        d = parse_diagram(_read(args.file))
        reports.append((args.file, verify_thistlethwaite(d, cap=args.cap)))
    elif what == "all":
        reports = _verify_all(args)
    return _report_output(args, reports)


def _verify_all(args) -> list[tuple[str, PolynomialReport]]:
    """Every verifier over the bundled examples plus a seeded corpus."""
    reports = []
    for name in BUNDLED_MAPS:
        m = parse_map_file((DATA_DIR / name).read_text()).host
        reports.append((name, verify_duality(m, cap=args.cap)))
        reports.append((name, verify_specializations(m, cap=args.cap)))
        reports.append((name, verify_multivariate_duality(m, cap=args.cap)))
        reports.append((name, verify_subgroup_duality(m, cap=args.cap)))
    for name in BUNDLED_LINKS:
        d = parse_diagram((DATA_DIR / name).read_text())
        if d.is_alternating():
            reports.append((name, verify_thistlethwaite(d, cap=args.cap)))
    for i, m in enumerate(corpus_mod.random_maps(8, 6, seed=args.seed)):
        tag = f"random-{i}"
        reports.append((tag, verify_duality(m, cap=args.cap)))
        reports.append((tag, verify_specializations(m, cap=args.cap)))
        reports.append((tag, verify_multivariate_duality(m, cap=args.cap)))
        reports.append((tag, verify_subgroup_duality(m, cap=args.cap)))
    for g in (1, 2):
        for i, d in enumerate(
            corpus_mod.alternating_diagrams(2, g, 5, seed=args.seed + g)
        ):
            reports.append((f"alt-g{g}-{i}", verify_thistlethwaite(d, cap=args.cap)))
    return reports


def cmd_corpus(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if args.kind == "maps":
        maps = corpus_mod.random_maps(args.count, args.max_edges, seed=args.seed)
        for i, m in enumerate(maps):
            path = out / f"map_{i:04d}.map"
            path.write_text(
                serialize_map(m, canonical=True, comment=f"seed={args.seed} index={i}")
            )
            written.append(str(path))
    else:
        diagrams = corpus_mod.alternating_diagrams(
            args.count, args.genus, args.max_edges, seed=args.seed
        )
        for i, d in enumerate(diagrams):
            path = out / f"diagram_{i:04d}.vlk"
            path.write_text(
                serialize_diagram(d, comment=f"seed={args.seed} genus={args.genus} index={i}")
            )
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

    def add(name, fn, help_, file_arg=True):
        p = sub.add_parser(name, help=help_)
        if file_arg:
            p.add_argument("file")
        p.set_defaults(fn=fn)
        return p

    p = add("poly", cmd_poly, "four-variable surface polynomial P(X,Y,A,B)")
    p.add_argument("--recursive", action="store_true", help="contraction-deletion evaluator")
    p.add_argument("--bruteforce", dest="recursive", action="store_false")
    p.set_defaults(recursive=False)
    add("tutte", cmd_tutte, "Tutte polynomial (Whitney-rank normalization)")
    add("br", cmd_br, "Bollobas-Riordan polynomial BR(X,Y,Z)")
    add("pprime", cmd_pprime, "undoubled combinatorial variant P'(X,Y,A,B)")
    p = add("pbar", cmd_pbar, "edge-weighted polynomial Pbar(q,v,A,B)")
    p.add_argument("--weights", help="weights file: lines 'edge <id> = <monomial>'")
    add("tildep", cmd_tildep, "subgroup-coefficient polynomial")
    add("invariants", cmd_invariants, "per-subgraph invariant table")
    add("dual", cmd_dual, "dual map, canonical form")
    add("canon", cmd_canon, "canonical form of the map file")
    add("bracket", cmd_bracket, "four-variable Kauffman bracket K(A,B,d,Z)")
    p = add("jones", cmd_jones, "Jones polynomial in u (t = u^4) and Z")
    p.add_argument("--raw", action="store_true", help="skip the d-normalization")
    add("tait", cmd_tait, "Tait graph of an alternating diagram")
    p = sub.add_parser("verify", help="machine-check the identities")
    p.add_argument(
        "what",
        choices=["duality", "special", "mduality", "subgroup-duality", "thistlethwaite", "all"],
    )
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
    except SurfPolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
