"""Command-line behavior: exit codes, output documents, round trips."""
import json

import numpy as np
import pytest

from seakit import fuzzy as fz
from seakit.cli import main
from seakit.spectral import family_from_json, reconstruct
from seakit.verify import control_omitted


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def eff_path(tmp_path):
    return write(tmp_path / "eff.json",
                 {"re": [[0.2, 0.0], [0.0, 0.7]]})


def test_validate_classifies(tmp_path, eff_path, capsys):
    assert main(["validate", "--input", eff_path]) == 0
    assert capsys.readouterr().out.strip() == "effect"
    proj = write(tmp_path / "p.json", {"re": [[1.0, 0.0], [0.0, 0.0]]})
    assert main(["validate", "--input", proj]) == 0
    assert capsys.readouterr().out.strip() == "projection"
    sharp = write(tmp_path / "s.json", {"values": [0.0, 1.0]})
    assert main(["validate", "--input", sharp]) == 0
    assert capsys.readouterr().out.strip() == "projection"


def test_validate_rejects_out_of_range(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"re": [[1.5, 0.0], [0.0, 0.2]]})
    assert main(["validate", "--input", bad]) == 1
    assert "not an effect" in capsys.readouterr().out
    bad = write(tmp_path / "badf.json", {"values": [0.5, 1.2]})
    assert main(["validate", "--input", bad]) == 1
    for x in (float("nan"), float("inf")):
        for doc in ({"re": [[x, 0.0], [0.0, 0.5]]}, {"values": [x, 0.5]}):
            bad = write(tmp_path / "nonfinite.json", doc)
            capsys.readouterr()
            for verb in ("validate", "spectrum"):
                assert main([verb, "--input", bad]) == 1
                out = capsys.readouterr().out
                assert "not an effect" in out and out.count("\n") == 1


def test_usage_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["validate", "--input", missing]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["validate", "--input", str(garbled)]) == 2
    lopsided = write(tmp_path / "l.json", {"re": [[0.1, 0.2]]})
    assert main(["validate", "--input", lopsided]) == 2
    mismatch = write(tmp_path / "m.json",
                     {"dim": 3, "re": [[0.1, 0.0], [0.0, 0.2]]})
    assert main(["validate", "--input", mismatch]) == 2
    assert main(["verify", "--suite", "bogus"]) == 2
    assert main(["verify", "--suite", "sea", "--samples", "0"]) == 2
    for suite in ("sea", "all"):
        assert main(["verify", "--suite", suite, "--seed", "-1"]) == 2
    assert main(["verify", "--suite", "sea", "--dim", "0"]) == 2
    for size in ("0", "1025"):
        assert main(["verify", "--suite", "sea", "--model", "mv",
                     "--size", size]) == 2
    capsys.readouterr()
    # At dimension 1 the Jordan control cannot fail; run_all leaves it out
    # for the same reason.
    assert main(["verify", "--suite", "sea", "--product", "jordan",
                 "--dim", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {control_omitted('sea', 'matrix', 1)}\n"
    assert main(["verify", "--suite", "sea", "--product", "lukasiewicz",
                 "--model", "mv", "--size", "1", "--samples", "4"]) == 1
    eff = write(tmp_path / "e.json", {"re": [[0.2, 0.0], [0.0, 0.7]]})
    capsys.readouterr()
    for mesh in ("nan", "inf", "1e-320", "5e-324"):
        assert main(["spectrum", "--input", eff, "--mesh", mesh]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    for flag in ("--tol-psd", "--tol-comm", "--tol-cluster"):
        for value in ("nan", "inf", "-1"):
            for args in (["spectrum", "--input", eff],
                         ["verify", "--suite", "sea", "--samples", "1"]):
                assert main(args + [flag, value]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1
    oversized = write(tmp_path / "o.json", {"values": [0.5] * 1025})
    for args in (["validate", "--input", oversized],
                 ["spectrum", "--input", oversized],
                 ["approx", "--input", oversized],
                 ["decompose", "--input", oversized],
                 ["witness", "--input", oversized, oversized],
                 ["mv", "--input", oversized]):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_spectrum_round_trip(tmp_path, eff_path, capsys):
    out = tmp_path / "fam.json"
    assert main(["spectrum", "--input", eff_path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    csv = (tmp_path / "fam.csv").read_text().splitlines()
    assert csv[0] == "lambda,rank"
    assert doc["bounds"] == {"L": 0.2, "U": 0.7}
    assert doc["eigenvalues"] == pytest.approx([0.2, 0.7])
    fam = family_from_json(doc["family"])
    rebuilt = reconstruct(fam)
    gap = float(np.abs(rebuilt - np.diag([0.2, 0.7])).max())
    assert gap <= doc["breakpoint_residual"] + 1e-12
    assert doc["reconstruction_residual"] <= doc["mesh"]
    capsys.readouterr()


def test_spectrum_stdout_and_mesh_validation(tmp_path, eff_path, capsys):
    assert main(["spectrum", "--input", eff_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"] == "matrix"
    assert main(["spectrum", "--input", eff_path, "--mesh", "-1"]) == 2


def test_approx_levels(tmp_path, eff_path, capsys):
    assert main(["approx", "--input", eff_path, "--levels", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["level"] for r in doc["levels"]] == [1, 2, 3, 4]
    for row in doc["levels"]:
        assert row["gap"] <= row["bound"] + 1e-8
    assert main(["approx", "--input", eff_path, "--levels", "0"]) == 2


def test_decompose(tmp_path, capsys):
    herm = write(tmp_path / "h.json", {"re": [[0.3, 0.0], [0.0, -0.4]]})
    assert main(["decompose", "--input", herm]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v_plus"]["re"] == [[0.3, 0.0], [0.0, 0.0]]
    assert doc["v_minus"]["re"] == [[0.0, 0.0], [0.0, 0.4]]
    assert doc["projection"]["re"] == [[1.0, 0.0], [0.0, 0.0]]
    skew = write(tmp_path / "skew.json", {"re": [[0.0, 1.0], [0.0, 0.0]]})
    assert main(["decompose", "--input", skew]) == 1
    for doc in ({"re": [[float("nan"), 0.0], [0.0, 0.5]]},
                {"values": [float("inf"), 0.5]}):
        assert main(["decompose", "--input",
                     write(tmp_path / "nonfinite.json", doc)]) == 1
    capsys.readouterr()


def test_witness_pair(tmp_path, capsys):
    e = write(tmp_path / "e.json", {"re": [[0.3, 0.0], [0.0, 0.6]]})
    f = write(tmp_path / "f.json", {"re": [[0.5, 0.0], [0.0, 0.4]]})
    assert main(["witness", "--input", e, f]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p"]["re"] == [[1.0, 0.0], [0.0, 0.0]]
    g = write(tmp_path / "g.json",
              {"re": [[0.5, 0.12], [0.12, 0.4]],
               "im": [[0.0, 0.05], [-0.05, 0.0]]})
    h = write(tmp_path / "h.json", {"re": [[0.7, 0.0], [0.0, 0.2]]})
    assert main(["witness", "--input", g, h]) == 1
    assert "do not commute" in capsys.readouterr().out
    assert main(["witness", "--input", e]) == 2


def test_mv_reports(tmp_path, capsys):
    fuzzy = write(tmp_path / "a.json", {"values": [0.25, 0.5, 0.5, 1.0]})
    assert main(["mv", "--input", fuzzy]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mu"] == [0.25, 0.5, 1.0]
    assert doc["parts"] == [[0], [1, 2], [3]]
    assert doc["sharp"] is False
    matrix = write(tmp_path / "m.json", {"re": [[0.2, 0.0], [0.0, 0.7]]})
    assert main(["mv", "--input", matrix]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree"] == 6
    assert doc["values"] == pytest.approx([0.2, 0.7])
    assert doc["mult_residual"] <= 1e-8


def test_mv_matches_the_level_set_closed_form(tmp_path, capsys,
                                               level_set_family):
    """``mv`` on distinct, repeated and sharp values: the engine's reduced
    representation and family equal the level-set closed form."""
    for values in ([0.7, 0.125, 0.3, 0.9], [0.25, 0.5, 0.5, 1.0, 0.25, 0.0],
                   [1.0, 0.0, 1.0, 1.0]):
        path = write(tmp_path / "a.json", {"values": values})
        assert main(["mv", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        closed = level_set_family(fz.FuzzySet(np.array(values)))
        assert doc["mu"] == list(closed.breakpoints)
        assert doc["parts"] == [
            [i for i, x in enumerate(values) if x == mu] for mu in doc["mu"]]
        assert doc["family"]["breakpoints"] == doc["mu"]
        assert [p["values"] for p in doc["family"]["projections"]] == [
            step.tolist() for step in closed.projections]
        assert doc["sharp"] == (set(values) <= {0.0, 1.0})


@pytest.mark.parametrize("e,f,message", [
    ({"values": [0.5, 0.25]}, {"values": [0.5, 0.25, 0.75]},
     "spaces differ"),
    ({"re": [[0.3, 0.0], [0.0, 0.6]]},
     {"re": [[0.3, 0.0, 0.0], [0.0, 0.6, 0.0], [0.0, 0.0, 0.1]]},
     "dimensions differ"),
], ids=["pointwise", "matrix"])
def test_witness_rejects_inputs_of_different_sizes(tmp_path, capsys, e, f,
                                                  message):
    e = write(tmp_path / "e.json", e)
    f = write(tmp_path / "f.json", f)
    assert main(["witness", "--input", e, f]) == 1
    assert message in capsys.readouterr().out


def test_verify_suite_exit_codes(tmp_path, capsys):
    args = ["verify", "--suite", "sea", "--dim", "2", "--samples", "10",
            "--seed", "3"]
    assert main(args) == 0
    assert "verdict: pass" in capsys.readouterr().out
    control = ["verify", "--suite", "sea", "--dim", "3", "--samples", "40",
               "--seed", "5", "--product", "jordan"]
    assert main(control) == 1
    out = capsys.readouterr().out
    assert "verdict: fail" in out and "S3" in out
    assert main(["verify", "--suite", "compression", "--product",
                 "jordan"]) == 2
    assert main(["verify", "--suite", "sea", "--model", "mv", "--product",
                 "jordan"]) == 2
    capsys.readouterr()


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path in paths:
        args = ["verify", "--suite", "all", "--dim", "2", "--samples", "8",
                "--seed", "17", "--out", str(path)]
        assert main(args) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
