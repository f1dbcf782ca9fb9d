"""CLI behavior: verbs, formats, determinism, exit codes."""

import json

import pytest

from htspec import core
from htspec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_h3(tmp_path):
    path = tmp_path / "h3.json"
    H = core.build(
        3, 11, [[1, 2, 3], [1, 4, 7], [2, 5, 8], [3, 6, 9], [1, 10, 11]]
    )
    path.write_text(core.dumps(H))
    return str(path)


def test_gen_comb3_is_canonical(capsys):
    code, out, _ = run(capsys, "gen", "comb", "3")
    assert code == 0
    assert out == (
        '{"k": 3, "n": 9, "edges": [[1, 2, 3], [1, 4, 7], [2, 5, 8], '
        '[3, 6, 9]]}\n'
    )


def test_matchpoly_h3(capsys, tmp_path):
    code, out, _ = run(capsys, "matchpoly", write_h3(tmp_path))
    assert code == 0
    assert out.strip() == "x^9 - 5x^6 + 5x^3 - 2"


def test_matchpoly_json(capsys, tmp_path):
    code, out, _ = run(capsys, "matchpoly", write_h3(tmp_path), "--format", "json")
    blob = json.loads(out)
    assert blob["counts"] == ["1", "5", "5", "2"]
    assert blob["alpha_coeffs"] == ["-2", "5", "-5", "1"]


def test_subtrees_json(capsys, tmp_path):
    code, out, _ = run(capsys, "subtrees", write_h3(tmp_path), "--format", "json")
    blob = json.loads(out)
    assert len(blob["distinct_polys"]) == 7
    assert len(blob["subtrees"]) == 21


def test_spectrum_csv_header_and_size(capsys, tmp_path):
    code, out, _ = run(capsys, "spectrum", write_h3(tmp_path), "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,source_poly,alpha_re,alpha_im"
    assert len(lines) == 1 + 40  # 13 alpha roots * 3 lifts + zero


def test_roots_csv_equals_spectrum_csv(capsys, tmp_path):
    path = write_h3(tmp_path)
    _, a, _ = run(capsys, "spectrum", path, "--format", "csv")
    _, b, _ = run(capsys, "roots-csv", path)
    assert a == b


def test_radius(capsys, tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(core.dumps(core.loose_path(2, 3)))
    code, out, _ = run(capsys, "radius", str(path))
    assert code == 0
    assert float(out) == pytest.approx(2 ** (1 / 3), abs=1e-12)


def test_radius_float_overflow_exits_3(capsys, tmp_path):
    path = tmp_path / "p100.json"
    path.write_text(core.dumps(core.loose_path(100, 3)))
    code, out, err = run(capsys, "radius", str(path))
    assert code == 3
    assert out == "" and err.startswith("error:") and "degree 50" in err


def test_ispower_reports_agreement(capsys, tmp_path):
    path = tmp_path / "h1.json"
    path.write_text(core.dumps(core.comb(3)))
    code, out, _ = run(capsys, "ispower", str(path), "--format", "json")
    blob = json.loads(out)
    assert blob == {
        "structural_power_tree": False,
        "cyclotomic_spectrum": False,
        "agreement": True,
    }


def test_cyclotomic_text(capsys, tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(core.dumps(core.star(3, 3)))
    code, out, _ = run(capsys, "cyclotomic", str(path))
    assert code == 0 and out.strip() == "true"


def test_eigvec_default_is_spectral_radius_vector(capsys, tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(core.dumps(core.loose_path(1, 3)))
    code, out, _ = run(capsys, "eigvec", str(path), "--format", "json")
    blob = json.loads(out)
    assert blob["lambda"]["re"] == pytest.approx(1.0, abs=1e-10)
    assert blob["residual"] <= 1e-10
    assert len(blob["x"]) == 3


def test_eigvec_explicit_lambda_and_branch(capsys, tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(core.dumps(core.loose_path(2, 3)))
    lam = 2 ** (1 / 3)
    code, out, _ = run(
        capsys, "eigvec", str(path), "--lam", f"{lam},0", "--format", "json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["residual"] <= 1e-8
    # pick a non-principal branch of the same alpha root
    code, out, _ = run(
        capsys, "eigvec", str(path), "--branch", "1", "--format", "json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["lambda"]["im"] != 0
    assert blob["residual"] <= 1e-8
    code, _, err = run(capsys, "eigvec", str(path), "--lam", "banana")
    assert code == 2 and "re,im" in err
    code, _, err = run(capsys, "eigvec", str(path), "--branch", "7")
    assert code == 2


def test_subtrees_and_eigvec_text_output(capsys, tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(core.dumps(core.loose_path(2, 3)))
    code, out, _ = run(capsys, "subtrees", str(path))
    assert code == 0
    assert "3 connected edge subsets, 2 distinct matching polynomials" in out
    assert "α - 2" in out
    code, out, _ = run(capsys, "eigvec", str(path))
    assert code == 0 and "lambda" in out and "x_5" in out
    h3 = write_h3(tmp_path)
    _, text, _ = run(capsys, "subtrees", h3)
    _, blob, _ = run(capsys, "subtrees", h3, "--format", "json")
    catalog = json.loads(blob)
    per_poly = [
        sum(s["phi_alpha"] == poly for s in catalog["subtrees"])
        for poly in catalog["distinct_polys"]
    ]
    lines = text.splitlines()
    assert len(lines) == 1 + len(per_poly)
    assert [int(line.rsplit("[", 1)[1].split()[0]) for line in lines[1:]] == per_poly


def test_check_paper_passes(capsys):
    code, out, _ = run(capsys, "check-paper", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert [f["fixture"] for f in blob["fixtures"]] == ["H1", "H2", "H3"]
    h3 = blob["fixtures"][2]
    assert h3["multiplicities"]["x^9 - 5x^6 + 5x^3 - 2"] == 243


def test_identical_invocations_are_byte_identical(capsys, tmp_path):
    path = write_h3(tmp_path)
    _, a, _ = run(capsys, "spectrum", path, "--format", "json", "--seed", "5")
    _, b, _ = run(capsys, "spectrum", path, "--format", "json", "--seed", "5")
    assert a == b


def test_generator_roundtrip_never_errors(capsys, tmp_path, monkeypatch):
    import io
    import sys

    specs = [
        ["comb", "3"],
        ["comb", "4"],
        ["comb", "6"],
        ["path", "1", "3"],
        ["path", "3", "4"],
        ["path", "6", "6"],
        ["star", "3", "3"],
        ["star", "6", "5"],
        ["power", "5", "path", "2", "3"],
        ["power", "4", "star", "2", "2"],
        ["power", "6", "comb", "3"],
        ["random", "4", "3"],
    ]
    verbs = [
        "matchpoly",
        "subtrees",
        "spectrum",
        "radius",
        "ispower",
        "cyclotomic",
        "eigvec",
        "roots-csv",
    ]
    for spec in specs:
        code = main(["gen", *spec])
        blob = capsys.readouterr().out
        assert code == 0
        for verb in verbs:
            monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
            assert main([verb, "-"]) == 0, (spec, verb)
            capsys.readouterr()


def test_validation_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 3, "n": 3, "edges": [[1, 2, 2]]}')
    code, _, err = run(capsys, "matchpoly", str(bad))
    assert code == 2 and "distinct vertices" in err

    notjson = tmp_path / "nope.json"
    notjson.write_text("{oops")
    code, _, err = run(capsys, "spectrum", str(notjson))
    assert code == 2 and "malformed JSON" in err

    code, _, err = run(capsys, "matchpoly", str(tmp_path / "missing.json"))
    assert code == 2

    code, _, err = run(capsys, "gen", "pentagon", "3")
    assert code == 2 and "generator" in err


def test_long_path_has_no_recursion_limit(capsys, tmp_path):
    path = tmp_path / "p1500.json"
    path.write_text(core.dumps(core.loose_path(1500, 3)))
    code, _, err = run(capsys, "subtrees", str(path), "--max-subsets", "5000")
    assert code == 2 and "more than 5000 connected edge subsets" in err
    code, out, _ = run(capsys, "matchpoly", str(path))
    assert code == 0 and out.startswith("x^2250 - 1500x^2247 + 1122751x^2244 ")


def test_cycle_input_exits_2(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text('{"k": 3, "n": 4, "edges": [[1, 2, 3], [1, 2, 4]]}')
    code, _, err = run(capsys, "matchpoly", str(path))
    assert code == 2 and "hyperforest" in err
    code, _, err = run(capsys, "spectrum", str(path))
    assert code == 2
