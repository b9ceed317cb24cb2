import importlib
import json
import re
import subprocess
import sys

import pytest

from surfpoly.cli import main
from surfpoly.errors import (
    AlphaNotInvolution,
    DanglingDart,
    LinkFormatError,
    MalformedPermutation,
    MapFormatError,
    NotCellulation,
    NotFourValent,
    NotSpanning,
)
from surfpoly.invariants import dual_subgraph
from surfpoly.laurent import LaurentPolynomial
from surfpoly.links import LinkDiagram, parse_diagram
from surfpoly.maps import MAX_ISOLATED, CombinatorialMap, EmbeddedSubgraph
from surfpoly.multivariate import EdgeWeighting


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poly_golden(capsys, data_dir):
    code, out, _ = run_cli(capsys, "poly", str(data_dir / "tb2.map"))
    assert code == 0 and out == "2 + A + B\n"
    code, out, _ = run_cli(capsys, "poly", str(data_dir / "fig2.map"))
    assert code == 0 and out == "2 + B + Y\n"


def test_poly_recursive_flag(capsys, data_dir):
    code, out, _ = run_cli(capsys, "poly", "--recursive", str(data_dir / "theta.map"))
    assert code == 0 and out == "3 + X + 3*Y + Y^2\n"


def test_polynomial_subcommands_golden(capsys, data_dir):
    tb2 = str(data_dir / "tb2.map")
    for cmd, expected in [
        ("tutte", "1 + 2*Y + Y^2\n"),
        ("br", "1 + 2*Y + Y^2*Z^2\n"),
        ("pprime", "2*Y + B^2 + A^2*Y^2\n"),
        ("pbar", "B*q + q*v1 + q*v3 + A*q*v1*v3\n"),
    ]:
        code, out, _ = run_cli(capsys, cmd, tb2)
        assert code == 0 and out == expected, (cmd, out)


def test_invariants_table(capsys, data_dir):
    code, out, _ = run_cli(capsys, "invariants", str(data_dir / "sl.map"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "0 1 0 1 0 0 0 0"
    assert lines[2] == "1 1 1 2 0 0 1 0"


def test_dual_and_canon(capsys, data_dir):
    code, out, _ = run_cli(capsys, "dual", str(data_dir / "sb.map"))
    assert code == 0
    assert "sigma: (1 2)" in out
    code, out2, _ = run_cli(capsys, "canon", str(data_dir / "sl.map"))
    assert code == 0 and "sigma: (1 2)" in out2


def test_bracket_and_jones_golden(capsys, data_dir):
    code, out, _ = run_cli(capsys, "bracket", str(data_dir / "trefoil.vlk"))
    assert code == 0
    assert out == "3*A*B^2*d + 3*A^2*B*d^2 + B^3*d^2 + A^3*d^3\n"
    code, out, _ = run_cli(capsys, "jones", str(data_dir / "trefoil.vlk"))
    assert code == 0 and out == "-u^-16 + u^-12 + u^-4\n"


def test_jones_raw_fallback(capsys, data_dir, monkeypatch):
    # count bracket state sums whichever module calls kauffman
    links_mod = importlib.import_module("surfpoly.links")
    cli_mod = importlib.import_module("surfpoly.cli")
    real = links_mod.kauffman
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(links_mod, "kauffman", counting)
    monkeypatch.setattr(cli_mod, "kauffman", counting)
    code, out, err = run_cli(capsys, "jones", str(data_dir / "vtrefoil.vlk"))
    assert code == 0
    assert "unnormalized" in err
    assert len(calls) == 1  # the fallback reuses the bracket
    code, out2, err2 = run_cli(capsys, "jones", "--raw", str(data_dir / "vtrefoil.vlk"))
    assert code == 0 and out2 == out and err2 == ""


def test_jones_without_orientation_exits_2_before_the_state_sum(capsys, data_dir, tmp_path, monkeypatch):
    links_mod = importlib.import_module("surfpoly.links")

    def refuse(*args, **kwargs):
        raise AssertionError("the state sum ran before the orientation check")

    monkeypatch.setattr(links_mod, "_walk", refuse)
    bare = tmp_path / "trefoil.vlk"
    bare.write_text((data_dir / "trefoil.vlk").read_text().replace("orient: 1\n", ""))
    code, out, err = run_cli(capsys, "jones", str(bare))
    assert (code, out) == (2, "")
    assert err == "error: writhe needs one orientation lead per strand component\n"
    code, out, err = run_cli(capsys, "--cap", "2", "jones", str(bare))
    assert (code, out, err) == (2, "", "error: 3 crossings exceeds cap 2\n")


def test_tait_output(capsys, data_dir, tb2):
    from surfpoly.maps import serialize_map

    code, out, _ = run_cli(capsys, "tait", str(data_dir / "torus-alt.vlk"))
    assert code == 0
    assert out == serialize_map(tb2, canonical=True)


def test_verify_subcommands(capsys, data_dir):
    tb2 = str(data_dir / "tb2.map")
    for what in ("duality", "special", "mduality", "subgroup-duality"):
        code, out, _ = run_cli(capsys, "verify", what, tb2)
        assert code == 0, (what, out)
        assert "FAIL" not in out
    code, out, _ = run_cli(capsys, "verify", "thistlethwaite", str(data_dir / "trefoil.vlk"))
    assert code == 0 and "FAIL" not in out


def test_verify_mduality_with_weights_file(capsys, data_dir, tmp_path):
    wfile = tmp_path / "weights.txt"
    wfile.write_text("edge 1 = w^2\nedge 3 = w3^-1\n")
    code, out, _ = run_cli(
        capsys, "verify", "mduality", str(data_dir / "tb2.map"), "--weights", str(wfile)
    )
    assert code == 0 and "FAIL" not in out
    code, out, _ = run_cli(capsys, "pbar", str(data_dir / "tb2.map"), "--weights", str(wfile))
    assert code == 0 and "w^2" in out


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "--seed", "7", "verify", "all")
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_verify_failure_exits_1_with_witness(capsys, data_dir, monkeypatch):
    from surfpoly.report import PolynomialReport, Verdict

    failing = PolynomialReport(
        "stub",
        verdicts=(
            Verdict("P(m) = P(m*)", True),
            Verdict("X = Y", False, witness="X != Y at edge 1"),
        ),
    )
    cli_mod = importlib.import_module("surfpoly.cli")
    monkeypatch.setattr(cli_mod, "verify_duality", lambda m, cap: failing)
    tb2 = str(data_dir / "tb2.map")
    code, out, _ = run_cli(capsys, "verify", "duality", tb2)
    assert code == 1
    assert out.splitlines() == [
        f"PASS [{tb2}] P(m) = P(m*)",
        f"FAIL [{tb2}] X = Y",
        "  witness: X != Y at edge 1",
    ]
    code, out, _ = run_cli(capsys, "--json", "verify", "duality", tb2)
    assert code == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert payload["reports"][0]["verdicts"][1] == {
        "identity": "X = Y",
        "passed": False,
        "witness": "X != Y at edge 1",
    }


def test_json_mode(capsys, data_dir):
    code, out, _ = run_cli(capsys, "--json", "poly", str(data_dir / "tb2.map"))
    assert code == 0
    assert json.loads(out) == {"poly": "2 + A + B"}
    code, out, _ = run_cli(capsys, "--json", "verify", "duality", str(data_dir / "tb2.map"))
    payload = json.loads(out)
    assert payload["all_passed"] is True


@pytest.mark.parametrize(
    "cmd, name, keys",
    [
        ("poly", "theta.map", ["poly"]),
        ("tutte", "theta.map", ["tutte"]),
        ("br", "theta.map", ["bollobas_riordan"]),
        ("pprime", "theta.map", ["p_prime"]),
        ("pbar", "tb2.map", ["p_bar"]),
        ("tildep", "fig2.map", ["tilde_p"]),
        ("invariants", "sl.map", ["edges", "subgraphs"]),
        ("dual", "sb.map", ["dual"]),
        ("canon", "fig2.map", ["canonical"]),
        ("bracket", "trefoil.vlk", ["kauffman"]),
        ("jones", "trefoil.vlk", ["jones"]),
        ("tait", "torus-alt.vlk", ["tait"]),
    ],
    ids=lambda x: x if isinstance(x, str) else None,
)
def test_json_mirrors_text_output(capsys, data_dir, cmd, name, keys):
    path = str(data_dir / name)
    code, text, _ = run_cli(capsys, cmd, path)
    assert code == 0
    code, out, _ = run_cli(capsys, "--json", cmd, path)
    payload = json.loads(out)
    assert code == 0 and sorted(payload) == keys
    if cmd == "tildep":
        lines = [
            f"dim={r['dim']} basis=[{', '.join('[' + ' '.join(row) + ']' for row in r['basis'])}]"
            f" :: {r['poly']}"
            for r in payload["tilde_p"]
        ]
    elif cmd == "invariants":
        fields = ("bitmask", "c", "n", "bc", "s", "s_perp", "k", "l")
        lines = [f"# {' '.join(fields)}  (bit i = edge {' '.join(map(str, payload['edges']))})"]
        lines += [" ".join(str(row[f]) for f in fields) for row in payload["subgraphs"]]
    else:
        lines = [payload[keys[0]].rstrip("\n")]
    assert text == "".join(line + "\n" for line in lines)


def test_corpus_command(capsys, tmp_path):
    out_dir = tmp_path / "corpus"
    code, out, _ = run_cli(
        capsys, "corpus", "maps", "--out", str(out_dir), "--count", "3", "--max-edges", "4"
    )
    assert code == 0
    files = sorted(out_dir.glob("*.map"))
    assert len(files) == 3
    code2, out2, _ = run_cli(capsys, "poly", str(files[0]))
    assert code2 == 0
    code, out, _ = run_cli(
        capsys,
        "--seed", "5",
        "corpus", "diagrams", "--out", str(out_dir), "--count", "2",
        "--genus", "1", "--max-edges", "4",
    )
    assert code == 0
    assert len(sorted(out_dir.glob("*.vlk"))) == 2


def test_corpus_maps_of_a_genus(capsys, tmp_path):
    from surfpoly.corpus import random_maps
    from surfpoly.maps import parse_map, serialize_map

    code, out, _ = run_cli(
        capsys, "--seed", "4", "corpus", "maps", "--out", str(tmp_path / "any"), "--count", "5"
    )
    assert code == 0
    # without --genus the maps are random_maps' own, in canonical form
    assert [open(path).read() for path in out.split()] == [
        serialize_map(m, canonical=True, comment=f"seed=4 index={i}")
        for i, m in enumerate(random_maps(5, 8, seed=4))
    ]
    for genus, max_edges in [(0, 3), (2, 6)]:
        code, out, _ = run_cli(
            capsys, "corpus", "maps", "--out", str(tmp_path / f"g{genus}"),
            "--count", "6", "--max-edges", str(max_edges), "--genus", str(genus),
        )
        assert code == 0
        for i, path in enumerate(out.split()):
            text = open(path).read()
            assert text.startswith(f"# seed=2024 genus={genus} index={i}\n")
            assert parse_map(text).total_genus == genus


@pytest.mark.parametrize(
    "argv",
    [
        ["maps", "--max-edges", "0"],
        ["diagrams", "--max-edges", "1"],
        ["diagrams", "--genus", "3", "--max-edges", "5"],
        ["diagrams", "--genus", "-1"],
        ["maps", "--count", "-3"],
        ["maps", "--genus", "-1"],
        ["maps", "--genus", "3", "--max-edges", "5"],
    ],
    ids=" ".join,
)
def test_corpus_rejects_out_of_range_options(capsys, tmp_path, argv):
    out_dir = tmp_path / "corpus"
    code, out, err = run_cli(capsys, "corpus", *argv, "--out", str(out_dir))
    assert code == 2 and out == "" and not out_dir.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "duality", "tb2.map"],
        ["verify", "special", "tb2.map"],
        ["verify", "subgroup-duality", "tb2.map"],
        ["verify", "thistlethwaite", "trefoil.vlk"],
        ["verify", "all"],
    ],
    ids=" ".join,
)
def test_verify_refuses_weights_it_does_not_read(capsys, data_dir, tmp_path, argv):
    argv = [str(data_dir / a) if "." in a else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--weights", str(tmp_path / "missing.txt"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "--weights" in err


@pytest.mark.parametrize(
    "argv",
    [["canon"], ["dual"], ["tait"], ["poly"], ["verify", "duality"], ["verify", "all"]],
    ids=" ".join,
)
def test_negative_cap_exits_2_before_reading_a_file(capsys, tmp_path, argv):
    # the input does not exist: the cap is refused before it is opened
    missing = [] if argv == ["verify", "all"] else [str(tmp_path / "missing.map")]
    code, out, err = run_cli(capsys, "--cap", "-1", *argv, *missing)
    assert (code, out, err) == (2, "", "error: --cap must be at least 0, not -1\n")


@pytest.mark.parametrize(
    "argv", [["pbar", "tb2.map"], ["verify", "mduality", "tb2.map"]], ids=" ".join
)
def test_empty_weights_value_is_refused(capsys, data_dir, argv):
    # an empty path is a typo, not "no weights file"
    argv = [str(data_dir / a) if "." in a else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--weights", "")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "--weights" in err


@pytest.mark.parametrize(
    "cmd, name, old, new",
    [
        ("jones", "torus-alt.vlk", "orient: 1 5", "orient: 1"),
        ("bracket", "trefoil.vlk", "orient: 1", "orient: 1\nalpha: (1 12)(2 3)(4 5)(6 7)(8 9)(10 11)"),
        ("jones", "trefoil.vlk", "orient: 1", "orient: 1\norient: 2"),
    ],
    ids=["one lead for two components", "second alpha", "second orient"],
)
def test_malformed_link_files_exit_2(capsys, data_dir, tmp_path, cmd, name, old, new):
    bad = tmp_path / name
    bad.write_text((data_dir / name).read_text().replace(old, new))
    code, out, err = run_cli(capsys, cmd, str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_SURFACE = "surface_sigma: (1 3 5)(2 6 4)\nsurface_alpha: (1 2)(3 4)(5 6)"


_MALFORMED = [
    # .map files: (name, old, new) edits a bundled file; name None writes `new` as is
    ("poly", None, None, "sigma (1 3 2 4)\nalpha: (1 2)(3 4)", "expected 'key: value', got 'sigma (1 3 2 4)'"),
    ("poly", "tb2.map", "isolated: 0", "isolated: 0\nsigma: (1 2)", "duplicate key 'sigma'"),
    ("poly", "tb2.map", "isolated: 0", "isolated: 0\ngenus: 1", "unknown keys: ['genus']"),
    ("poly", "tb2.map", "isolated: 0", "isolated: one", "isolated: expects an integer"),
    ("poly", "tb2.map", "isolated: 0", "isolated: -1", "isolated vertex count must be nonnegative"),
    ("poly", "tb2.map", "graph_edges: *", "graph_edges: x", "graph_edges: expects '*' or integer ids"),
    ("poly", "tb2.map", "graph_edges: *", "graph_edges: 9", "graph_edges: unknown edge ids [9]"),
    ("poly", "theta.map", "graph_vertices: *", "graph_vertices: 1", "edge 1 has an endpoint outside graph_vertices"),
    # .vlk files
    ("bracket", "trefoil.vlk", "(1 12 7 10)", "(1 12 7 x)", "bad crossing line 'crossing 1: darts (1 12 7 x) over (1 7)'"),
    ("bracket", "trefoil.vlk", "(1 12 7 10)", "(1 12 7)", "crossing needs 4 darts, got [1, 12, 7]"),
    ("bracket", "trefoil.vlk", "over (1 7)", "over (1 2)", "bad over pair in 'crossing 1: darts (1 12 7 10) over (1 2)'"),
    ("bracket", "trefoil.vlk", "(2 5 4 11) over (5 11)", "(2 5 4 1) over (5 1)", "dart 1 appears in two crossings"),
    ("bracket", "trefoil.vlk", "orient: 1", "orient: 1\nframing: 0", "unrecognized line 'framing: 0'"),
    ("bracket", "trefoil.vlk", "alpha:", "# alpha:", "missing alpha: line"),
    ("bracket", "trefoil.vlk", "(11 12)\n", "(11 13)\n", "alpha and crossing darts disagree"),
    ("bracket", "trefoil.vlk", "12", "14", "dart ids must be exactly 1..4n with no gaps"),
    ("bracket", None, None, "freeloop:\nsurface_sigma: (1 2)", "surface_sigma and surface_alpha go together"),
    ("bracket", "trefoil.vlk", "orient: 1", "orient: x", "orient: expects dart ids"),
    ("bracket", "trefoil.vlk", "over (1 7)", "over (1 1)", "over pair (1,) not at crossing 1"),
    ("bracket", "trefoil.vlk", "over (1 7)", "over (1 12)", "over pair (1, 12) is not opposite in the rotation at 1"),
    ("bracket", "trefoil.vlk", "orient: 1", f"orient: 1\n{_SURFACE}", "explicit surface is only allowed for crossingless diagrams"),
    ("bracket", None, None, f"{_SURFACE}\nfreeloop: 9", "free loop dart 9 not on the surface"),
    ("bracket", None, None, f"{_SURFACE}\nfreeloop: 1", "free loop walk is not closed"),
    (
        "bracket", "trefoil.vlk", "orient: 1", "orient: 1\nfreeloop: 1 2",
        "free loop walks need a crossingless diagram; inside a disk face a loop is null-homotopic (use an empty walk)",
    ),
    ("bracket", "trefoil.vlk", "orient: 1", "orient: 99", "orientation dart 99 not in any strand"),
    ("bracket", "trefoil.vlk", "orient: 1", "orient: 1 2", "two orientation darts on one strand"),
    ("tait", None, None, "freeloop:", "Tait graph needs a diagram with crossings only"),
    ("verify thistlethwaite", None, None, "freeloop:", "Tait graph needs a diagram with crossings only"),
    # weights files, for tb2.map
    ("pbar --weights", None, None, "edge x = w", "bad edge id in 'edge x = w'"),
    ("pbar --weights", None, None, "edge 1 = w**2", "empty factor in monomial 'w**2'"),
    ("pbar --weights", None, None, "edge 1 = w^x", "bad exponent in 'w^x'"),
    ("pbar --weights", None, None, "edge 1 = 2w", "bad variable name '2w'"),
]


@pytest.mark.parametrize(
    "cmd, name, old, new, message",
    _MALFORMED,
    ids=[" ".join(re.findall(r"[\w.]+", f"{case[0]} {case[-1]}")) for case in _MALFORMED],
)
def test_malformed_input_exits_2_with_one_error_line(capsys, data_dir, tmp_path, cmd, name, old, new, message):
    # no traceback: the error is one line on stderr, and nothing is printed
    text = new + "\n" if name is None else (data_dir / name).read_text().replace(old, new)
    assert name is None or text != (data_dir / name).read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    if cmd == "pbar --weights":
        argv = ["pbar", str(data_dir / "tb2.map"), "--weights", str(bad)]
    else:
        argv = [*cmd.split(), str(bad)]
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


# checks that no input file reaches, since the parsers refuse first:
# build(tb2, trefoil) must raise the error with exactly this message
_CONSTRUCTED = [
    (DanglingDart, "sigma and alpha must act on the same dart set",
     lambda m, d: CombinatorialMap({1: 2, 2: 1}, {1: 2, 2: 1, 3: 4, 4: 3})),
    (MalformedPermutation, "sigma is not a bijection on the darts",
     lambda m, d: CombinatorialMap({1: 1, 2: 1}, {1: 2, 2: 1})),
    (AlphaNotInvolution, "alpha is not a fixed-point-free involution at dart 1",
     lambda m, d: CombinatorialMap({1: 2, 2: 1}, {1: 1, 2: 2})),
    (MapFormatError, "dart ids must be positive integers",
     lambda m, d: CombinatorialMap({-1: 1, 1: -1}, {-1: 1, 1: -1})),
    (MapFormatError, "graph_vertices contains unknown vertex ids",
     lambda m, d: EmbeddedSubgraph(m, frozenset({99}), frozenset())),
    (MapFormatError, "graph_edges contains unknown edge ids",
     lambda m, d: EmbeddedSubgraph(m, frozenset(m.vertex_ids), frozenset({99}))),
    (NotFourValent, "vertex 1 has 2 darts",
     lambda m, d: LinkDiagram(CombinatorialMap({1: 2, 2: 1}, {1: 2, 2: 1}), {1: frozenset({1, 2})})),
    (LinkFormatError, "over-strand data must cover exactly the crossings",
     lambda m, d: LinkDiagram(d.base, {})),
    (MapFormatError, "edge weight must be a monomial, got 1 + w",
     lambda m, d: EdgeWeighting(m, {1: LaurentPolynomial.variable("w") + 1})),
    (MapFormatError, "cannot interpret edge weight 2.5",
     lambda m, d: EdgeWeighting(m, {1: 2.5})),
    (NotCellulation, "dual subgraph needs the full cellulation as graph",
     lambda m, d: dual_subgraph(EmbeddedSubgraph(m, frozenset(m.vertex_ids), frozenset({1})), [1])),
    (NotSpanning, "unknown edges [99]",
     lambda m, d: dual_subgraph(m, [1, 99])),
]


@pytest.mark.parametrize(
    "error, message, build",
    _CONSTRUCTED,
    ids=[" ".join(re.findall(r"[\w.]+", case[1])) for case in _CONSTRUCTED],
)
def test_constructors_refuse_what_no_file_reaches(tb2, data_dir, error, message, build):
    trefoil = parse_diagram((data_dir / "trefoil.vlk").read_text())
    with pytest.raises(error) as info:
        build(tb2, trefoil)
    assert str(info.value) == message


def test_verify_without_a_file_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "duality"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.splitlines()[-1] == "surfpoly: error: verify duality needs an input file"
    assert "Traceback" not in out.err


@pytest.mark.parametrize("argv", [["pbar"], ["verify", "mduality"]], ids=" ".join)
def test_repeated_edge_weight_exits_2(capsys, data_dir, tmp_path, argv):
    wfile = tmp_path / "weights.txt"
    wfile.write_text("edge 1 = w\nedge 1 = z\n")
    code, out, err = run_cli(capsys, *argv, str(data_dir / "tb2.map"), "--weights", str(wfile))
    assert (code, out, err) == (2, "", "error: edge 1 is weighted twice\n")


@pytest.mark.parametrize(
    "cmd, name, old, new, message",
    [
        ("bracket", "trefoil.vlk", "crossing 2:", "crossing 1:", "crossing 1 is given twice"),
        ("verify thistlethwaite", "trefoil.vlk", "crossing 3:", "crossing 1:", "crossing 1 is given twice"),
        ("poly", "tb2.map", "graph_vertices: *", "graph_vertices: 1 1", "graph_vertices: repeated vertex ids [1]"),
        ("poly", "tb2.map", "graph_edges: *", "graph_edges: 3 1 3", "graph_edges: repeated edge ids [3]"),
    ],
    ids=["bracket crossing", "thistlethwaite crossing", "graph_vertices", "graph_edges"],
)
def test_repeated_ids_exit_2(capsys, data_dir, tmp_path, cmd, name, old, new, message):
    bad = tmp_path / name
    bad.write_text((data_dir / name).read_text().replace(old, new))
    code, out, err = run_cli(capsys, *cmd.split(), str(bad))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [["poly", "BAD"], ["bracket", "BAD"], ["pbar", "tb2.map", "--weights", "BAD"]],
    ids=["poly", "bracket", "pbar --weights"],
)
def test_non_utf8_input_exits_2(capsys, data_dir, tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe" + "edge 1 = w\n".encode("utf-16-le"))  # a UTF-16 byte order mark
    argv = [str(bad) if a == "BAD" else str(data_dir / a) if "." in a else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"


@pytest.mark.parametrize("cmd", ["canon", "poly"])
def test_isolated_count_above_the_bound_exits_2(capsys, tmp_path, cmd):
    path = tmp_path / "isolated.map"
    path.write_text(f"sigma: (1 2)\nalpha: (1 2)\nisolated: {MAX_ISOLATED}\n")
    code, out, err = run_cli(capsys, cmd, str(path))
    assert code == 0 and out and err == ""
    path.write_text(f"sigma: (1 2)\nalpha: (1 2)\nisolated: {MAX_ISOLATED + 1}\n")
    code, out, err = run_cli(capsys, cmd, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: isolated: {MAX_ISOLATED + 1} exceeds the bound {MAX_ISOLATED}\n"


def test_poly_bruteforce_alias_is_gone(capsys, data_dir):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--bruteforce", str(data_dir / "theta.map")])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and "--bruteforce" in out.err


def test_error_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text("sigma: (1 2)\nalpha: (1 2)(3 4)\n")
    code, _, err = run_cli(capsys, "poly", str(bad))
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "poly", str(tmp_path / "missing.map"))
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["poly"],
        ["poly", "--recursive"],
        ["tutte"],
        ["br"],
        ["pprime"],
        ["pbar"],
        ["tildep"],
        ["invariants"],
        ["verify", "duality"],
        ["verify", "special"],
        ["verify", "mduality"],
        ["verify", "subgroup-duality"],
    ],
    ids=" ".join,
)
def test_cap_refuses_large_maps(capsys, tmp_path, argv):
    from surfpoly.corpus import random_maps
    from surfpoly.maps import serialize_map

    big = tmp_path / "big.map"
    big.write_text(serialize_map(random_maps(1, 24, seed=3, min_edges=24)[0]))
    code, out, err = run_cli(capsys, *argv, str(big))
    assert code == 2 and "error:" in err and out == ""


@pytest.mark.parametrize("argv", [["--threads", "2"], ["--threads=2"]], ids=" ".join)
def test_removed_threads_option_is_named(capsys, data_dir, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "poly", str(data_dir / "theta.map")])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "--threads was removed" in out.err and "invalid choice" not in out.err


def test_frontier_state_limit_exits_2(capsys, monkeypatch, data_dir):
    # the package attribute ``surfpoly.invariants`` is the function of that
    # name, so the module is fetched by its full name
    engine = importlib.import_module("surfpoly.invariants")
    monkeypatch.setattr(engine, "MAX_STATES", 1)
    code, out, err = run_cli(capsys, "poly", str(data_dir / "theta.map"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "1 states" in err


def test_determinism_across_runs(data_dir):
    cmd = [sys.executable, "-m", "surfpoly.cli", "poly", str(data_dir / "tb2.map")]
    runs = {subprocess.run(cmd, capture_output=True, text=True).stdout for _ in range(2)}
    assert runs == {"2 + A + B\n"}
