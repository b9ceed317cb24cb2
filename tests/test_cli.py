import importlib
import json
import subprocess
import sys

import pytest

from surfpoly.cli import main


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


@pytest.mark.parametrize(
    "argv",
    [
        ["maps", "--max-edges", "0"],
        ["diagrams", "--max-edges", "1"],
        ["diagrams", "--genus", "3", "--max-edges", "5"],
        ["diagrams", "--genus", "-1"],
    ],
    ids=" ".join,
)
def test_corpus_rejects_out_of_range_options(capsys, tmp_path, argv):
    out_dir = tmp_path / "corpus"
    code, out, err = run_cli(capsys, "corpus", *argv, "--out", str(out_dir))
    assert code == 2 and out == "" and not out_dir.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


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
