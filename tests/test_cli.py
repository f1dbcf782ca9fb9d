"""CLI behavior: verbs, formats, determinism, exit codes."""

import cmath
import json
import math
import os
import re
import subprocess
import sys

import pytest

import helpers
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


def test_gen_seed_default_is_the_clis_own(capsys, monkeypatch):
    from htspec import spectra

    _, want, _ = run(capsys, "gen", "--seed", "24301", "random", "6", "3")
    monkeypatch.setattr(spectra, "DEFAULT_SEED", 1)
    assert run(capsys, "gen", "random", "6", "3") == (0, want, "")


def test_gen_refuses_a_malformed_spec(capsys):
    for spec, invariant in (
        (["power", "3"], "generator spec"),
        (["path", "3"], "generator spec"),
        (["path", "x", "3"], "generator spec"),
        (["comb", "3", "extra"], "trailing generator tokens ['extra']"),
    ):
        code, out, err = run(capsys, "gen", *spec)
        assert (code, out) == (2, ""), spec
        assert invariant in err, spec


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


def test_radius(capsys, tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(core.dumps(core.loose_path(2, 3)))
    code, out, _ = run(capsys, "radius", str(path))
    assert code == 0
    assert float(out) == pytest.approx(2 ** (1 / 3), abs=1e-12)
    assert run(capsys, "radius", str(path), "--format", "json") == (
        0, json.dumps({"spectral_radius": float(out)}) + "\n", ""
    )


def test_alpha_index_on_a_100_edge_path_takes_the_closed_form_root(capsys, tmp_path):
    # alpha roots 4cos^2(j pi / 102), j = 1..50; the smallest (j = 50) is
    # also a root of the 49-edge subpath (50/102 = 25/51), so the
    # elimination meets an exact pole there, while the largest is rho^3
    path = tmp_path / "p100.json"
    path.write_text(core.dumps(core.loose_path(100, 3)))
    code, out, err = run(capsys, "eigvec", str(path), "--alpha-index", "0")
    assert code == 3
    assert out == "" and err.startswith("error:") and "meets a pole" in err
    lam = complex(re.search(r"lambda = (\(.*\))", err).group(1))
    assert lam.imag == 0
    assert lam.real**3 == pytest.approx(4 * math.cos(50 * math.pi / 102) ** 2, rel=1e-13)
    code, out, _ = run(
        capsys, "eigvec", str(path), "--alpha-index", "49", "--format", "json"
    )
    assert code == 0
    lam = json.loads(out)["lambda"]
    assert lam["im"] == 0
    assert lam["re"] ** 3 == pytest.approx(4 * math.cos(math.pi / 102) ** 2, rel=1e-14)
    code, out, _ = run(capsys, "radius", str(path))
    assert float(out) == pytest.approx(lam["re"], rel=1e-15)


def test_alpha_index_exits_3_when_roots_contradict_the_sturm_count(
    capsys, tmp_path, monkeypatch
):
    from htspec import spectra

    helpers.clear_root_memos()
    monkeypatch.setattr(spectra, "_aberth", helpers.upper_half_plane_roots)
    path = tmp_path / "h1.json"
    path.write_text(core.dumps(core.comb(3)))
    code, out, err = run(capsys, "eigvec", str(path), "--alpha-index", "0")
    assert code == 3
    assert out == "" and "conjugate pairs" in err
    # the radius never solves for roots
    code, out, _ = run(capsys, "radius", str(path))
    assert code == 0 and float(out) ** 3 == pytest.approx(3.14789904, abs=1e-8)


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
    path.write_text(core.dumps(core.loose_path(30, 3)))
    code, out, _ = run(capsys, "ispower", str(path), "--format", "json")
    assert json.loads(out) == {
        "structural_power_tree": True,
        "cyclotomic_spectrum": True,
        "agreement": True,
    }


def test_cyclotomic_text(capsys, tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(core.dumps(core.star(3, 3)))
    code, out, _ = run(capsys, "cyclotomic", str(path))
    assert code == 0 and out.strip() == "true"
    path.write_text(core.dumps(core.comb(3)))
    code, out, _ = run(capsys, "cyclotomic", str(path), "--format", "json")
    assert (code, out) == (0, '{"cyclotomic_spectrum": false}\n')


def test_eigvec_default_is_spectral_radius_vector(capsys, tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(core.dumps(core.loose_path(1, 3)))
    code, out, _ = run(capsys, "eigvec", str(path), "--format", "json")
    blob = json.loads(out)
    assert blob["lambda"]["re"] == pytest.approx(1.0, abs=1e-10)
    assert blob["residual"] <= 1e-10
    assert len(blob["x"]) == 3
    # the 30-edge path: the largest real root is no longer lost
    path.write_text(core.dumps(core.loose_path(30, 3)))
    code, out, _ = run(capsys, "eigvec", str(path), "--format", "json")
    assert code == 0
    blob = json.loads(out)
    rho = (4 * math.cos(math.pi / 32) ** 2) ** (1 / 3)
    assert blob["lambda"]["re"] == pytest.approx(rho, rel=1e-12)
    assert blob["residual"] <= 1e-8


def test_eigvec_branches_of_a_long_path_rotate_the_real_vector(capsys, tmp_path):
    # an elimination at rho * zeta^b, some ulps off the root, left
    # residual 1.28e-8 on branch 2 of this path
    path = tmp_path / "p600.json"
    path.write_text(core.dumps(core.loose_path(600, 3)))
    _, out, _ = run(capsys, "eigvec", str(path), "--format", "json")
    real = json.loads(out)
    for branch in (1, 2):
        code, out, err = run(
            capsys, "eigvec", str(path), "--branch", str(branch), "--format", "json"
        )
        assert code == 0, err
        blob = json.loads(out)
        zeta = cmath.exp(2j * cmath.pi * branch / 3)
        lam = real["lambda"]["re"] * zeta
        assert blob["lambda"] == {"re": lam.real, "im": lam.imag}
        assert blob["residual"] <= 1e-8
        assert blob["x"][0] == {"re": 1.0, "im": 0.0}
        moduli = [abs(complex(v["re"], v["im"])) for v in blob["x"]]
        assert moduli == pytest.approx(
            [abs(complex(v["re"], v["im"])) for v in real["x"]], rel=1e-12
        )


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
    # --lam names the eigenvalue itself, so a root or branch beside it is
    # a contradiction, not something to ignore
    for extra, flag in (
        (["--branch", "7", "--alpha-index", "99"], "--alpha-index"),
        (["--branch", "0"], "--branch"),
        (["--alpha-index", "0"], "--alpha-index"),
    ):
        code, out, err = run(capsys, "eigvec", str(path), "--lam=1.5,0", *extra)
        assert code == 2 and out == "", extra
        assert f"--lam cannot be given with {flag}" in err
    # a negative real part goes after '=', or argparse reads it as a flag
    lam = 2 ** (1 / 3) * cmath.exp(2j * cmath.pi / 3)
    code, out, _ = run(
        capsys, "eigvec", str(path), f"--lam={lam.real!r},{lam.imag!r}",
        "--format", "json",
    )
    assert code == 0 and lam.real < 0
    blob = json.loads(out)
    assert blob["lambda"] == {"re": lam.real, "im": lam.imag}
    assert blob["residual"] <= 1e-8


def test_eigvec_non_finite_lambda_exits_2_and_nan_residual_exits_3(
    capsys, tmp_path
):
    path = tmp_path / "comb3.json"
    path.write_text(core.dumps(core.comb(3)))
    for lam in ("nan,0", "inf,0", "0,-inf"):
        code, out, err = run(capsys, "eigvec", str(path), f"--lam={lam}")
        assert code == 2 and out == "", lam
        assert "lambda must be finite" in err, lam
    # a finite lambda whose powers overflow gives a nan residual, not 0
    code, out, err = run(capsys, "eigvec", str(path), "--lam=1e308,1e308")
    assert code == 3 and out == ""
    assert "residual nan" in err


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


def test_check_paper_walks_each_host_once(capsys, monkeypatch):
    from htspec import spectra, subtrees

    walked = helpers.count_walks(monkeypatch)
    catalogs, folds = [], []
    real_counts, real_polys = subtrees._subtree_counts, subtrees._distinct_polys

    def counted_catalog(*args):
        catalogs.append(1)
        return real_counts(*args)

    def counted_fold(*args):
        folds.append(1)
        return real_polys(*args)

    monkeypatch.setattr(subtrees, "_subtree_counts", counted_catalog)
    monkeypatch.setattr(subtrees, "_distinct_polys", counted_fold)
    monkeypatch.setattr(spectra, "_distinct_polys", counted_fold)
    code, _, _ = run(capsys, "check-paper")
    assert code == 0
    # H1-H3, and one witness subtree per distinct polynomial: 4 + 5 + 7
    assert len(walked) == len({id(H) for H in walked}) == 3 + 16
    # one catalog per fixture, whose polynomials the spectrum reuses
    assert len(catalogs) == 3 and not folds


def test_ispower_walks_its_host_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "host.json"
    walked = helpers.count_walks(monkeypatch)
    # a power tree, then one with a power_obstruction edge
    for host, verdicts in ((core.loose_path(30, 3), "true"), (core.comb(3), "false")):
        path.write_text(core.dumps(host))
        before = len(walked)
        code, out, _ = run(capsys, "ispower", str(path))
        assert code == 0 and len(walked) == before + 1
        assert [line.split()[-1] for line in out.splitlines()] == [
            verdicts, verdicts, "true"
        ]


def test_check_paper_columns_report_their_own_check(capsys, monkeypatch):
    from htspec import fixtures
    from htspec.errors import NoConvergence

    real = fixtures.find_totally_nonzero_eigenvector
    calls = []

    def first_fails(*args):
        calls.append(1)
        if len(calls) == 1:
            raise NoConvergence("planted pole")
        return real(*args)

    monkeypatch.setattr(fixtures, "find_totally_nonzero_eigenvector", first_fails)
    code, out, _ = run(capsys, "check-paper", "--format", "json")
    assert code == 2
    h1, *rest = json.loads(out)["fixtures"]
    assert h1["factor_bases"] is True and h1["spectrum_set"] is False
    assert "planted pole" in h1["detail"]
    assert all(f["factor_bases"] and f["spectrum_set"] for f in rest)


def test_check_paper_at_a_coarse_tol_fails_in_its_report(capsys):
    # every nonzero value of H1-H3 has modulus below 10, so the first
    # lift of each fixture is within tol of 0 and has no witness
    code, out, err = run(capsys, "check-paper", "--tol", "10")
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert [row.split() for row in lines[1::2]] == [
        [name, "pass", "pass", "FAIL", "pass"] for name in ("H1", "H2", "H3")
    ]
    for name, detail in zip(("H1", "H2", "H3"), lines[2::2]):
        assert detail.strip().startswith(f"{name}: no witness for lambda = (")
        assert detail.endswith("|lambda| > tol 10")


def test_check_paper_reports_a_dropped_base_in_its_own_columns(capsys, monkeypatch):
    helpers.tamper_h1(monkeypatch)
    code, out, _ = run(capsys, "check-paper", "--format", "json")
    assert code == 2
    blob = json.loads(out)
    h1, *rest = blob["fixtures"]
    assert blob["ok"] is False
    # the bases mismatch leaves the witness check to run on the same catalog
    assert h1["factor_bases"] is False and h1["spectrum_set"] is True
    assert h1["divisibility"] is False and h1["multiplicities"]["x^3 - 1"] == 0
    assert all(f["factor_bases"] and f["divisibility"] for f in rest)


def test_identical_invocations_are_byte_identical(capsys, tmp_path):
    path = write_h3(tmp_path)
    _, a, _ = run(capsys, "spectrum", path, "--format", "json")
    _, b, _ = run(capsys, "spectrum", path, "--format", "json")
    assert a == b
    # the fixed residual target of the root refinement is still reported
    assert json.loads(a)["root_tol"] == 1e-12


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

    # a directory and a file that is not UTF-8 name the path, no traceback
    latin = tmp_path / "latin1.json"
    latin.write_bytes(b'{"k": 3, "n": 3, "edges": [[1, 2, 3]]} \xe9')
    for unreadable in (tmp_path, latin):
        code, _, err = run(capsys, "matchpoly", str(unreadable))
        assert code == 2 and f"cannot read {unreadable}" in err

    code, _, err = run(capsys, "gen", "pentagon", "3")
    assert code == 2 and "generator" in err

    lone = tmp_path / "lone.json"
    lone.write_text('{"k": 3, "n": 1, "edges": []}')
    code, _, err = run(capsys, "eigvec", str(lone), "--alpha-index", "0")
    assert code == 2 and "the matching polynomial has no alpha roots" in err
    code, out, err = run(capsys, "radius", str(lone))
    assert (code, out) == (2, "")
    assert "spectral radius needs at least one edge" in err

    comb3 = tmp_path / "comb3.json"
    comb3.write_text(core.dumps(core.comb(3)))
    code, out, err = run(capsys, "eigvec", str(comb3), "--alpha-index", "9")
    assert (code, out) == (2, "")
    assert "--alpha-index 9 outside 0..2" in err


def test_malformed_vertex_labels_exit_2(capsys, monkeypatch):
    import io
    import sys

    for label in ("[1]", '{"a": 1}', "true"):
        blob = '{"k": 3, "n": 3, "edges": [[%s, 2, 3]]}' % label
        monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
        code, _, err = run(capsys, "matchpoly", "-")
        assert code == 2 and "is not an integer" in err, label
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"k": 3, "n": true, "edges": []}'))
    code, _, err = run(capsys, "matchpoly", "-")
    assert code == 2 and "k and n must be integers" in err


def test_tolerances_must_be_finite_and_positive(capsys, tmp_path):
    path = write_h3(tmp_path)
    for verb, flag in (
        ("spectrum", "--tol"),
        ("eigvec", "--tol"),
        ("check-paper", "--tol"),
    ):
        head = [verb] if verb == "check-paper" else [verb, path]
        for value in ("-1", "0", "nan"):
            with pytest.raises(SystemExit) as exc:
                main(head + [flag, value])
            assert exc.value.code == 2, (verb, flag, value)
            err = capsys.readouterr().err
            assert f"argument {flag}: expected a finite number > 0" in err
    for verb in ("subtrees", "spectrum", "ispower"):
        for value in ("-1", "0", "1.5"):
            with pytest.raises(SystemExit) as exc:
                main([verb, path, "--max-subsets", value])
            assert exc.value.code == 2, (verb, value)
            err = capsys.readouterr().err
            assert "argument --max-subsets: expected an integer >= 1" in err


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


COMMON_FLAGS = {"--tol", "--root-tol", "--seed", "--format", "--max-subsets"}
NUMERIC = {"--tol"}
VERB_FLAGS = {
    "gen": {"--seed"},
    "matchpoly": {"--format"},
    "subtrees": {"--format", "--max-subsets"},
    "spectrum": NUMERIC | {"--format", "--max-subsets"},
    "radius": {"--format"},
    "ispower": {"--format", "--max-subsets"},
    "cyclotomic": {"--format", "--max-subsets"},
    "eigvec": NUMERIC | {"--format"},
    "check-paper": NUMERIC | {"--format"},
}


def test_verbs_take_only_the_common_flags_they_read(capsys, tmp_path):
    path = write_h3(tmp_path)
    head = {"gen": ["gen", "comb", "3"], "check-paper": ["check-paper"]}
    for verb, flags in VERB_FLAGS.items():
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert set(re.findall(r"--[a-z-]+", help_text)) & COMMON_FLAGS == flags
        assert ("csv}" in help_text) == (verb == "spectrum"), verb
        for flag in COMMON_FLAGS - flags:
            with pytest.raises(SystemExit) as exc:
                main(head.get(verb, [verb, path]) + [flag, "json"])
            assert exc.value.code == 2, (verb, flag)
            assert "unrecognized arguments" in capsys.readouterr().err
        if "--format" in flags and verb != "spectrum":
            with pytest.raises(SystemExit) as exc:
                main(head.get(verb, [verb, path]) + ["--format", "csv"])
            assert exc.value.code == 2
            capsys.readouterr()


def test_import_loads_no_numpy():
    import htspec

    src = os.path.dirname(os.path.dirname(htspec.__file__))
    code = "import sys, htspec; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "False\n"


def test_closed_stdout_ends_quietly(tmp_path):
    import htspec

    src = os.path.dirname(os.path.dirname(htspec.__file__))
    path = tmp_path / "path.json"
    path.write_text(core.dumps(core.loose_path(1000, 3)))
    # About 80 KB of vector lines, more than a 64 KiB pipe buffer holds,
    # so the writer is still printing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "htspec", "eigvec", str(path)],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline().startswith("lambda = ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err, err
