"""Command-line behavior: exit codes, output documents, round trips."""
import contextlib
import enum
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seakit import cli
from seakit import matrices as mx
from seakit.cli import main
from seakit.config import DEFAULT
from seakit.linalg import frobenius
from seakit.spectral import SpectralFamily, reconstruct
from seakit.verify import control_omitted, run_all
from test_verify import rounded


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
    skew = write(tmp_path / "skew.json", {"re": [[0.5, 1e160], [-1e160, 0.5]]})
    assert main(["validate", "--input", skew]) == 1
    assert "not Hermitian" in capsys.readouterr().out
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
    for dim in ("0", str(mx.MAX_DIM + 1)):
        assert main(["verify", "--suite", "sea", "--dim", dim]) == 2
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
    # Too many values, a nested value list, and an integer too large for
    # a float, in each kind of document.
    huge = 10 ** 400
    for doc in ({"values": [0.5] * 1025}, {"values": [[0.2], [0.3]]},
                {"values": [huge, 0.5]}, {"re": [[huge, 0.0], [0.0, 0.5]]},
                {"re": [[0.5, 0.0], [0.0, 0.5]],
                 "im": [[0.0, huge], [-huge, 0.0]]}):
        bad = write(tmp_path / "bad.json", doc)
        for args in (["validate", "--input", bad],
                     ["spectrum", "--input", bad],
                     ["approx", "--input", bad],
                     ["decompose", "--input", bad],
                     ["witness", "--input", bad, bad],
                     ["mv", "--input", bad]):
            assert main(args) == 2, (doc, args)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "[" * 5000,
    '{"re": ' + "[" * 3000 + "]" * 3000 + "}",
    '{"re": ' + "[" * 3000,
], ids=["bare-5000", "re-3000-closed", "re-3000-open"])
def test_documents_nested_too_deeply_are_usage_errors(tmp_path, capsys,
                                                      text):
    """JSON nested deeper than the interpreter's recursion limit is a
    usage error with one line, never a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    path = str(deep)
    for args in (["validate", "--input", path],
                 ["spectrum", "--input", path],
                 ["approx", "--input", path],
                 ["decompose", "--input", path],
                 ["witness", "--input", path, path],
                 ["mv", "--input", path]):
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err == f"error: {path} is nested too deeply to read\n"


def test_spectrum_round_trip(tmp_path, eff_path, capsys):
    out = tmp_path / "fam.json"
    assert main(["spectrum", "--input", eff_path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    csv = (tmp_path / "fam.csv").read_text().splitlines()
    assert csv[0] == "lambda,rank"
    assert doc["bounds"] == {"L": 0.2, "U": 0.7}
    assert doc["eigenvalues"] == pytest.approx([0.2, 0.7])
    ctx = mx.MatrixContext()
    fam = SpectralFamily(tuple(doc["family"]["breakpoints"]), tuple(
        ctx.read(p) for p in doc["family"]["projections"]))
    rebuilt = reconstruct(fam)
    gap = float(np.abs(rebuilt - np.diag([0.2, 0.7])).max())
    assert gap <= doc["breakpoint_residual"] + 1e-12
    assert doc["reconstruction_residual"] <= doc["mesh"]
    capsys.readouterr()


def test_spectrum_out_must_differ_from_its_csv(tmp_path, eff_path, capsys):
    """The rank CSV goes beside the JSON report, with the extension
    replaced by .csv; an --out already ending in .csv would be
    overwritten by it."""
    out = tmp_path / "fam.csv"
    assert main(["spectrum", "--input", eff_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert not out.exists()


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
    capsys.readouterr()
    # Symmetrizing 1e308 overflows to inf, which the input check rejects.
    for doc in ({"re": [[float("nan"), 0.0], [0.0, 0.5]]},
                {"values": [float("inf"), 0.5]},
                {"re": [[1e308, 0.0], [0.0, 1e308]]}):
        assert main(["decompose", "--input",
                     write(tmp_path / "nonfinite.json", doc)]) == 1
        assert capsys.readouterr().out.count("\n") == 1
    # Large entries are decomposed, and the split holds to rounding at
    # the scale of the largest entry.
    for top in (1e10, 1e200):
        v = np.array([[1.0, 0.3], [0.3, -1.0]]) * top
        path = write(tmp_path / "large.json", {"re": v.tolist()})
        assert main(["decompose", "--input", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        v_plus = np.array(doc["v_plus"]["re"]) / top
        v_minus = np.array(doc["v_minus"]["re"]) / top
        assert frobenius(v_plus - v_minus - v / top) <= DEFAULT.check
        assert np.all(np.linalg.eigvalsh(v_plus) >= -DEFAULT.check)
        assert np.all(np.linalg.eigvalsh(v_minus) >= -DEFAULT.check)


def test_decompose_near_the_float_limit_writes_no_warning(tmp_path):
    """Overflow on entries near the float limit is refused with one line
    and exit 1, whether the input check sees it (1e308 symmetrized) or
    only the split does (8.9e307, whose parts overflow to inf and NaN),
    and entries of 1e200 are decomposed; a ``seakit`` process, which shows
    numpy's warnings as a user's would, writes nothing to stderr in any
    case."""
    env = dict(os.environ, PYTHONPATH=str(Path(mx.__file__).parents[1]))
    for doc, code in (({"re": [[1e308, 0.0], [0.0, 1e308]]}, 1),
                      ({"re": [[8.9e307, 8.9e307], [8.9e307, -8.9e307]]}, 1),
                      ({"re": [[1e200, 3e199], [3e199, -1e200]]}, 0)):
        path = write(tmp_path / "huge.json", doc)
        proc = subprocess.run(
            [sys.executable, "-W", "always::RuntimeWarning", "-m",
             "seakit.cli", "decompose", "--input", path],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code
        if code:
            assert proc.stdout.count("\n") == 1
        assert proc.stderr == ""


def test_validate_names_overflow_apart_from_non_finite_entries(tmp_path):
    """Entries of 1e308 are finite; only their symmetrization overflows,
    and ``validate`` says so: exit 1, one line, no traceback or warning.
    NaN input keeps the non-finite wording."""
    env = dict(os.environ, PYTHONPATH=str(Path(mx.__file__).parents[1]))
    for doc, wording in (
            ({"re": [[1e308, 0.0], [0.0, 1e308]]},
             "not an effect (matrix entries overflow when symmetrized)\n"),
            ({"re": [[float("nan"), 0.0], [0.0, 0.5]]},
             "not an effect (matrix has non-finite entries)\n")):
        path = write(tmp_path / "doc.json", doc)
        proc = subprocess.run(
            [sys.executable, "-W", "always::RuntimeWarning", "-m",
             "seakit.cli", "validate", "--input", path],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == wording
        assert proc.stderr == ""


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


def test_witness_without_a_valid_projection_exits_one(tmp_path, capsys):
    """No cluster of e - f straddles the kernel, however wide the
    clustering width: its values -0.3 and 0.6 give p = diag(1, 0) at
    widths 0.5 and 1e9 alike.  A value of e - f just under tol.kernel is
    kept in p, and when rounding in the compressions takes it past
    tol.check the projection fails its defining order: one line and
    exit 1, never a traceback."""
    e = write(tmp_path / "e.json", {"re": [[0.2, 0.0], [0.0, 0.9]]})
    f = write(tmp_path / "f.json", {"re": [[0.5, 0.0], [0.0, 0.3]]})
    for width in ("0.5", "1e9"):
        assert main(["witness", "--input", e, f, "--tol-cluster", width]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p"]["re"] == [[1.0, 0.0], [0.0, 0.0]]
    # e - f has the values -0.60000001 and 9.99999991e-09
    e = write(tmp_path / "e.json", {"re": [[0.1, 0.1], [0.1, 0.1]]})
    f = write(tmp_path / "f.json",
              {"re": [[0.4, -0.20000001], [-0.20000001, 0.4]]})
    assert main(["witness", "--input", e, f]) == 1
    out = capsys.readouterr().out
    assert "defining order" in out and out.count("\n") == 1


# Entries of the property inputs: values at and around 0 and tol.kernel
# (1e-8) as well as arbitrary ones, so that clusters of both signs meet.
_ENTRIES = (st.sampled_from([0.0, 1e-8, -1e-8, 5e-9, -5e-9, 2e-8, 0.3, -0.3,
                             0.6, 1.0, -1.0])
            | st.floats(-1.0, 1.0, allow_subnormal=False))
_WIDTHS = st.sampled_from(["0", "1e-8", "2", "1e9", "1e300"])


@st.composite
def _hermitian(draw):
    """A Hermitian 2x2 to 4x4 element document: diagonal half the time,
    so its eigenvalues are the drawn entries, and otherwise with the upper
    triangle drawn and mirrored exactly."""
    n = draw(st.integers(2, 4))
    re = [[0.0] * n for _ in range(n)]
    im = [[0.0] * n for _ in range(n)]
    diagonal = draw(st.booleans())
    for i in range(n):
        re[i][i] = draw(_ENTRIES)
        for j in range(i + 1, n) if not diagonal else ():
            re[i][j] = re[j][i] = draw(_ENTRIES)
            im[i][j] = draw(_ENTRIES)
            im[j][i] = -im[i][j]
    return {"re": re, "im": im}


def _run_main(argv: list) -> tuple:
    """``main``'s exit code and its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=150)
@given(_hermitian(), _WIDTHS)
@example({"re": [[-0.3, 0.0], [0.0, 0.6]]}, "1e9")
@example({"re": [[5e-9, 0.0], [0.0, -0.3]]}, "2")
def test_decompose_splits_into_positive_parts_at_any_width(doc, width):
    """No cluster straddles the kernel, so at any clustering width
    ``decompose`` gives v = v⁺ - v⁻ within tol.psd, with v⁺ >= 0 within
    tol.psd and v⁻ >= 0 within tol.kernel: v⁻ carries the values that
    count as zero, |λ| <= tol.kernel, under 1 - p (tol.psd is the
    smaller); or it exits 1."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "v.json", doc)
        code, out = _run_main(["decompose", "--input", path,
                               "--tol-cluster", width])
    assert code in (0, 1)
    if code == 1:
        return
    ctx = mx.MatrixContext(DEFAULT)
    split = json.loads(out)
    v = ctx.read(doc)
    v_plus, v_minus = ctx.read(split["v_plus"]), ctx.read(split["v_minus"])
    assert frobenius(v - (v_plus - v_minus)) <= DEFAULT.psd
    assert np.linalg.eigvalsh(v_plus)[0] >= -DEFAULT.psd
    assert np.linalg.eigvalsh(v_minus)[0] >= -DEFAULT.kernel


@settings(max_examples=150)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(*[st.lists(
    st.floats(0.0, 1.0) | st.sampled_from([0.0, 5e-9, 1e-8, 2e-8]),
    min_size=n, max_size=n)] * 2)), _WIDTHS)
@example(([0.2, 0.9], [0.5, 0.3]), "1e9")
def test_witness_of_a_commuting_pair_meets_its_order_at_any_width(
        pair, width):
    """For e and f diagonal, so commuting exactly, ``witness`` exits 0 at
    any clustering width with a diagonal 0/1 projection p under which
    e <= f, and over whose complement f <= e, within tol.check."""
    a, b = (np.array(x) for x in pair)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [write(Path(tmp) / f"{name}.json",
                       {"re": np.diag(x).tolist()})
                 for name, x in (("e", a), ("f", b))]
        code, out = _run_main(["witness", "--input", *paths,
                               "--tol-cluster", width])
    assert code == 0, out
    p = np.array(json.loads(out)["p"]["re"])
    keep = np.diag(p)
    assert np.array_equal(p, np.diag(keep)) and set(keep) <= {0.0, 1.0}
    assert np.all(np.where(keep == 1.0, a - b, b - a) <= DEFAULT.check)


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
        closed = level_set_family(np.array(values))
        assert doc["mu"] == list(closed.breakpoints)
        assert doc["parts"] == [
            [i for i, x in enumerate(values) if x == mu] for mu in doc["mu"]]
        assert doc["family"]["breakpoints"] == doc["mu"]
        assert [p["values"] for p in doc["family"]["projections"]] == [
            step.tolist() for step in closed.projections]
        assert doc["sharp"] == (set(values) <= {0.0, 1.0})


@pytest.mark.parametrize("e,f,message", [
    ({"values": [0.5, 0.25]}, {"values": [0.5, 0.25, 0.75]},
     "dimensions differ: 2 vs 3"),
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


def test_mv_verify_is_exact_at_any_cluster_width(capsys):
    """The mv model compares exactly, so ``--tol-cluster`` leaves its
    clusters as they are: the suites pass at a wide width too."""
    for width in ("0.01", "0.5", "1e9"):
        assert main(["verify", "--suite", "all", "--model", "mv", "--size",
                     "8", "--samples", "12", "--tol-cluster", width]) == 0
    assert main(["verify", "--suite", "all", "--model", "mv", "--size", "8",
                 "--samples", "20", "--tol-cluster", "0.01"]) == 0
    capsys.readouterr()


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path in paths:
        args = ["verify", "--suite", "all", "--dim", "2", "--samples", "8",
                "--seed", "17", "--out", str(path)]
        assert main(args) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_one_parser_serves_every_call_in_any_order(tmp_path, capsys):
    """The parser is built once per process and keeps no state between
    calls: a parse error, a domain failure and one good call of each verb
    give the same exit code and output in either order."""
    e = write(tmp_path / "e.json", {"re": [[0.3, 0.0], [0.0, 0.6]]})
    f = write(tmp_path / "f.json", {"re": [[0.5, 0.0], [0.0, 0.4]]})
    bad = write(tmp_path / "bad.json", {"re": [[1.5, 0.0], [0.0, 0.2]]})
    calls = [["approx", "--input", e, "--levels", "many"],
             ["validate", "--input", bad],
             ["validate", "--input", e],
             ["spectrum", "--input", e],
             ["approx", "--input", e, "--levels", "3"],
             ["decompose", "--input", e],
             ["witness", "--input", e, f],
             ["mv", "--input", e],
             ["verify", "--suite", "sea", "--dim", "2", "--samples", "4"]]
    assert cli.build_parser() is cli.build_parser()
    runs = []
    for order in (calls, calls[::-1]):
        seen = {}
        for argv in order:
            code = main(argv)
            seen[tuple(argv)] = (code, *capsys.readouterr())
        runs.append(seen)
    assert runs[0] == runs[1]
    assert [runs[0][tuple(argv)][0] for argv in calls] == [2, 1] + [0] * 7
    assert runs[0][tuple(calls[0])][2].startswith("usage: seakit approx")


def test_main_looks_up_the_verb_when_called(monkeypatch, eff_path, capsys):
    """``main`` finds ``cmd_<verb>`` in the module when it runs, so a
    function rebound after the parser was built (a tracer's wrapper) is
    the one called."""
    assert main(["spectrum", "--input", eff_path]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_spectrum",
                        lambda args: seen.append(args.input) or 7)
    assert main(["spectrum", "--input", eff_path]) == 7
    assert seen == [[eff_path]]
    capsys.readouterr()


def test_verify_looks_up_the_suite_runner_when_called(monkeypatch, capsys):
    """``verify --suite`` finds its runner on ``seakit.verify`` when it
    runs, so a runner rebound there (a tracer's wrapper) is the one
    called."""
    from seakit import verify
    seen = []
    original = verify.run_sea_suite

    def recording(*args, **kwargs):
        seen.append(args[:4])
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "run_sea_suite", recording)
    assert main(["verify", "--suite", "sea", "--samples", "2"]) == 0
    assert seen == [("matrix", 4, 2, 42)]
    capsys.readouterr()


# The modules only some verbs need; start-up loads none of them.
_DEFERRED = ("seakit.fuzzy", "seakit.report", "seakit.tables",
             "seakit.verify", "seakit.sampling", "dataclasses",
             "numpy.random")
# Imports the command line and builds its parser, then runs each call of
# the JSON list in argv[1]; prints, as JSON, the deferred modules loaded
# after start-up and, for each call, its exit code and those loaded then.
_LOAD_PROBE = f"""
import contextlib, io, json, sys
import seakit.cli
seakit.cli.build_parser()
loaded = lambda: [m for m in {_DEFERRED!r} if m in sys.modules]
steps = [loaded()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        steps.append([seakit.cli.main(argv), loaded()])
print(json.dumps(steps))
"""


def test_a_verb_loads_only_what_it_runs(tmp_path):
    """In a fresh interpreter, start-up and the element verbs on matrices
    load none of the verifier, its tables and reports, its samplers,
    ``dataclasses``, ``numpy.random`` or the pointwise model; ``mv`` on
    either kind of document loads the model alone, and ``verify`` all of
    them."""
    e = write(tmp_path / "e.json", {"re": [[0.3, 0.0], [0.0, 0.6]]})
    f = write(tmp_path / "f.json", {"re": [[0.5, 0.0], [0.0, 0.4]]})
    values = write(tmp_path / "v.json", {"values": [0.25, 0.5, 1.0]})
    calls = [["validate", "--input", e], ["spectrum", "--input", e],
             ["approx", "--input", e], ["decompose", "--input", e],
             ["witness", "--input", e, f], ["mv", "--input", e],
             ["mv", "--input", values],
             ["verify", "--suite", "all", "--dim", "2", "--samples", "8"]]
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", _LOAD_PROBE,
                           json.dumps(calls)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    steps = json.loads(proc.stdout)
    assert steps[0] == []
    assert steps[1:6] == [[0, []]] * 5
    assert steps[6:8] == [[0, ["seakit.fuzzy"]]] * 2
    assert steps[8] == [0, list(_DEFERRED)]


class _Level(enum.IntEnum):
    LOW = -1
    HIGH = 3


# Leaves of the documents the JSON writer is compared on: floats of every
# kind (NaN, ±inf, -0.0, subnormals, numpy scalars), ints past 2**53 and
# ``IntEnum`` members, and text with control and non-ASCII characters.
_LEAVES = (st.floats() | st.sampled_from([-0.0, 5e-324, float("nan")])
           | st.floats().map(np.float64)
           | st.integers(-2 ** 70, 2 ** 70) | st.sampled_from(_Level)
           | st.booleans() | st.none() | st.text())
_ROWS = st.lists(st.floats(allow_nan=False, allow_infinity=False)
                 | st.floats(allow_nan=False).map(np.float64), min_size=1)


@settings(max_examples=400)
@given(st.recursive(
    _LEAVES | _ROWS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=4)
                  | st.dictionaries(st.integers(-3, 3), kids, max_size=2)),
    max_leaves=30))
@example(0.1)
@example(-0.0)
@example(float("-inf"))
@example(np.float64(0.1))
@example(np.float64("nan"))
@example(2 ** 70)
@example(_Level.HIGH)
@example(True)
@example(None)
@example("\u00e9\n\"")
def test_json_writer_matches_json_dumps(doc):
    """The writer is ``json.dumps(indent=2, sort_keys=True)``, byte for
    byte, on any document of JSON types, and on a scalar alone: one of
    exact type, or a subclass the writer hands to ``json``."""
    assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def _is_canonical(text: str) -> bool:
    doc = json.loads(text)
    return text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# every element verb's output, pinned

# Input documents, written into the working directory of every case.
CLI_DOCS = {
    "m2.json": {"re": [[0.3, 0.1], [0.1, 0.5]]},
    "m3.json": {"dim": 3,
                "re": [[0.5, 0.25, 0.0], [0.25, 0.5, 0.0], [0.0, 0.0, 0.75]],
                "im": [[0.0, 0.125, 0.0], [-0.125, 0.0, 0.0],
                       [0.0, 0.0, 0.0]]},
    "mp.json": {"re": [[0.5, 0.5], [0.5, 0.5]]},
    "mbad.json": {"re": [[1.5, 0.0], [0.0, 0.2]]},
    "msigned.json": {"re": [[0.3, 0.2, 0.0], [0.2, -0.4, 0.0],
                            [0.0, 0.0, 0.0]],
                     "im": [[0.0, 0.1, 0.0], [-0.1, 0.0, 0.0],
                            [0.0, 0.0, 0.0]]},
    "mhuge.json": {"re": [[1e308, 0.0], [0.0, 1e308]]},
    "me.json": {"re": [[0.3, 0.0], [0.0, 0.6]]},
    "mf.json": {"re": [[0.5, 0.0], [0.0, 0.4]]},
    "mtie.json": {"re": [[0.3, 0.0], [0.0, 0.7]]},
    "f4.json": {"values": [0.25, 0.5, 0.5, 1.0]},
    "fspace.json": {"space": 4, "values": [0.7, 0.125, 0.3, 0.9]},
    "fsharp.json": {"values": [1.0, 0.0, 1.0]},
    "fbad.json": {"values": [0.5, 1.25]},
    "fsigned.json": {"values": [0.5, -0.25, 0.0, -1.0]},
    "fe.json": {"values": [0.5, 0.25, 0.75]},
    "ff.json": {"values": [0.25, 0.25, 1.0]},
}

# Case -> the arguments of one ``seakit`` call; a case whose inputs are
# all pointwise (``f*.json``) is hashed exactly.
CLI_CASES = {
    "validate-m3": ["validate", "--input", "m3.json", "--out", "v.json"],
    "validate-mp": ["validate", "--input", "mp.json", "--out", "v.json"],
    "validate-mbad": ["validate", "--input", "mbad.json", "--out", "v.json"],
    "validate-f4": ["validate", "--input", "f4.json", "--out", "v.json"],
    "validate-fsharp": ["validate", "--input", "fsharp.json"],
    "validate-fbad": ["validate", "--input", "fbad.json", "--out", "v.json"],
    "spectrum-m2": ["spectrum", "--input", "m2.json"],
    "spectrum-m3": ["spectrum", "--input", "m3.json", "--out", "fam.json"],
    "spectrum-mp": ["spectrum", "--input", "mp.json", "--mesh", "0.1"],
    "spectrum-f4": ["spectrum", "--input", "f4.json", "--out", "fam.json"],
    "spectrum-fspace": ["spectrum", "--input", "fspace.json"],
    "spectrum-f4-csv": ["spectrum", "--input", "f4.json", "--out",
                        "fam.csv"],
    "approx-m2": ["approx", "--input", "m2.json", "--out", "a.json"],
    "approx-m3": ["approx", "--input", "m3.json", "--levels", "3"],
    "approx-fspace": ["approx", "--input", "fspace.json", "--levels", "5",
                      "--out", "a.json"],
    "decompose-msigned": ["decompose", "--input", "msigned.json"],
    "decompose-m2": ["decompose", "--input", "m2.json"],
    "decompose-mhuge": ["decompose", "--input", "mhuge.json"],
    "decompose-fsigned": ["decompose", "--input", "fsigned.json"],
    "witness-m": ["witness", "--input", "me.json", "mf.json"],
    "witness-mtie": ["witness", "--input", "me.json", "mtie.json"],
    "witness-f": ["witness", "--input", "fe.json", "ff.json", "--out",
                  "w.json"],
    "mv-m3": ["mv", "--input", "m3.json"],
    "mv-f4": ["mv", "--input", "f4.json", "--out", "mv.json"],
    "mv-fsharp": ["mv", "--input", "fsharp.json"],
}

_NUMBER = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")


def _canonical(text: str, exact: bool) -> str:
    """The text itself, or with every float rounded to 6 places: a JSON
    document through ``rounded``, other text number by number."""
    if exact:
        return text
    try:
        return json.dumps(rounded(json.loads(text)), indent=2,
                          sort_keys=True)
    except json.JSONDecodeError:
        return _NUMBER.sub(lambda m: repr(round(float(m.group()), 6)), text)


def run_cli_case(name: str, workdir: Path) -> tuple:
    """Run one case in an empty ``workdir``: what a user sees, as (exit
    code, stdout, stderr, {name: text} of every file the call wrote).  A
    call that raises is recorded by the exception's type, as a traceback
    would show it.  Warnings are left out: Python shows each once per
    process and source line, so whether one appears depends on what ran
    before."""
    argv = CLI_CASES[name]
    for doc_name, doc in CLI_DOCS.items():
        (workdir / doc_name).write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main(list(argv))
            except Exception as exc:  # noqa: BLE001 - pinned as a traceback
                code = f"raised {type(exc).__name__}"
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_text()
             for p in sorted(workdir.iterdir()) if p.name not in CLI_DOCS}
    return code, out.getvalue(), err.getvalue(), files


def cli_case_sha256(name: str, workdir: Path, exact: bool | None = None
                    ) -> str:
    """The sha256 of what ``run_cli_case`` records, with every float
    rounded unless ``exact``; by default a case is exact when all its
    inputs are pointwise."""
    if exact is None:
        exact = all(a.startswith("f") for a in CLI_CASES[name]
                    if a.endswith(".json") and a in CLI_DOCS)
    code, out, err, files = run_cli_case(name, workdir)
    seen = {"exit": code, "stdout": _canonical(out, exact), "stderr": err,
            "files": {k: _canonical(v, exact) for k, v in files.items()}}
    text = json.dumps(seen, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digests():
    """Print the sha256 of every case, unrounded.  A change that must keep
    the element verbs byte-identical prints the same lines before and
    after: ``PYTHONPATH=src:tests python -c "import test_cli;
    test_cli.cli_digests()"``."""
    for name in sorted(CLI_CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(name, cli_case_sha256(name, Path(tmp), exact=True))


CLI_GOLDEN = {
    "approx-fspace": "00f0ad9f2641fc6a29c98290d299b25b04b63ce0161f3982ec6fe22c1823bfa3",
    "approx-m2": "e1b3277717d0ff26eced6520441f9bef328fa669b9463ab0dcefd2d80354c491",
    "approx-m3": "89e19aecb57579c197e0b8d391d2476fd8a83545cdd15b39cd16d595557d182f",
    "decompose-fsigned": "6c4e53f55f4c934c9d7442721ef3511ef7f69a538d5ec4b6a972702c8b4f4ce6",
    "decompose-m2": "de71ffdf1b9d99bbf7da958fb77728c5c5d22122ac55082e958bb8ff5f14c5e5",
    "decompose-mhuge": "c3992fa4ea40708125f6382bca55be829f2bf8f64fd79e676f40240cfa1331ed",
    "decompose-msigned": "ff496a4afc1501f71d110355d157ea2f3304de0cce53334461f3ba5650336280",
    "mv-f4": "063ed41914082af36d23f660860b44bdcd8b605e3ebfe086ec8c15b2f180da19",
    "mv-fsharp": "079c3a77768704ae19a1bdcdab4998885ede323ab36cbcffce9efc11da306500",
    "mv-m3": "210acb4a4f2ff856cbda72346401cd0747e873fe665d522b970adb38b2be0e06",
    "spectrum-f4": "ca62ff227c2f93f399d7a4c7a6ac4f1b77ad12a2bb36b0b0ea5fcf05074155c7",
    "spectrum-f4-csv": "d46fee23f0fc594acd443effce4b2c99ed336991b72176985565c9091cde8b47",
    "spectrum-fspace": "b89947dd165a90bfe7075105791be7b0b1e9fe6151a8e4f7cc225e2e5184c703",
    "spectrum-m2": "a76bc0ea5e83f2095325c53243ffc477f32e5aaff8dc895b3e8642e3d8fd172b",
    "spectrum-m3": "498e36fb61c7282fbeafdb2c46d78f62c820bf7dd4e8af9a4a7a869f049514fc",
    "spectrum-mp": "a1abd260b49d57987eee13213464512aa7a7a14711052912d18d322ca808de4d",
    "validate-f4": "8ce06b57df0608de155e5035479d7cd2f59048812feaa9ebf0d2b35fd0a955db",
    "validate-fbad": "edadc7f1b0c609196111d3629776fef62914c831ad3bbb65aca380c47ff45d3c",
    "validate-fsharp": "0643332e0979ba29bc648224050eb1612920318495562ade872f6538beee1e0c",
    "validate-m3": "64926ab3105f1257f623a54b232fb4af52099bb53e61f81f899e7f7b46f4e517",
    "validate-mbad": "7fd05706455e7cf171a6bff8af06cc74f7cc9840f3c33e22e75673ec5f430973",
    "validate-mp": "71e0f31e98da937a31b92a5f8b56f4c22d8275cdf9ed1629aab0d5f192f8a22f",
    "witness-f": "fca38e2799d3faf4fa3627b7033b3149198667d61b1aa996b894f5675785bf02",
    "witness-m": "0d3ee7e445cfd463a803102fdd9c4d0a6093af9df9f23db924213ca39fe3889d",
    "witness-mtie": "176c15ad26fed201e7586f57f7122d93e00b7a4519f2bc3cf47d5bbfc0552bb6",
}


def test_element_verbs_are_golden(tmp_path):
    """Matrix outputs are hashed with every float rounded to 6 places, as
    ``MATRIX_GOLDEN`` is, because LAPACK bits depend on the build;
    pointwise outputs exactly.

    Recorded before the engine took its context as an argument; since
    then only the two error cases have changed, on purpose:
    ``decompose-mhuge`` exits 1 with one line instead of raising (a line
    that now says the symmetrization overflows, not that the entries are
    non-finite), and ``spectrum-f4-csv`` exits 2 instead of writing its
    CSV over its JSON.
    """
    digests = {}
    for name in sorted(CLI_CASES):
        workdir = tmp_path / name
        workdir.mkdir()
        digests[name] = cli_case_sha256(name, workdir)
    assert digests == CLI_GOLDEN


def test_every_json_output_is_canonical(tmp_path):
    """Every JSON document a case writes, to a file or to stdout, and a
    ``verify --out`` report of each model are the bytes of
    ``json.dumps(indent=2, sort_keys=True)`` and a newline.  The matrix
    goldens hash a rounded re-dump, so only this pins the writer's bytes
    on matrix outputs."""
    checked = 0
    for name in sorted(CLI_CASES):
        workdir = tmp_path / name
        workdir.mkdir()
        code, out, _, files = run_cli_case(name, workdir)
        texts = [text for file, text in files.items()
                 if file.endswith(".json")]
        if code == 0 and CLI_CASES[name][0] != "validate" \
                and "--out" not in CLI_CASES[name]:
            texts.append(out)
        for text in texts:
            assert _is_canonical(text), name
            checked += 1
    assert checked == 22             # 11 files, 11 documents on stdout
    for model in (["--dim", "3"], ["--model", "mv", "--size", "8"]):
        report = tmp_path / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--suite", "all", *model, "--samples",
                         "8", "--out", str(report)]) == 0
        assert _is_canonical(report.read_text()), model


def test_eigh_operands_are_exactly_hermitian(tmp_path, monkeypatch, capsys):
    """``linalg.eigh`` neither checks nor symmetrizes its operand, so each
    matrix LAPACK sees, alone or as a member of a stack, must be finite
    and bitwise equal to its conjugate transpose: over the verifier's
    reports, every element-verb case, and the verbs on an input that is
    Hermitian only within the input check's tolerance, which they use as
    the check symmetrized it."""
    seen = 0
    failures = []
    original = np.linalg.eigh

    def recording(a, *args, **kwargs):
        nonlocal seen
        m = np.asarray(a)
        seen += int(np.prod(m.shape[:-2]))
        if not (np.all(np.isfinite(m))
                and np.array_equal(m, m.conj().swapaxes(-1, -2))):
            failures.append(m)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    for dim in (1, 2, 3, 4, 8):
        for seed in (1, 7, 42):
            run_all("matrix", dim, 12, seed)
    for name in sorted(CLI_CASES):
        workdir = tmp_path / name
        workdir.mkdir()
        cli_case_sha256(name, workdir)
    tilted = write(tmp_path / "tilted.json",
                   {"re": [[0.3, 0.1], [0.1 + 1e-12, 0.5]]})
    for verb in ("validate", "spectrum", "approx", "decompose", "mv"):
        assert main([verb, "--input", tilted]) == 0
    # 15,274 when the engine stopped checking its own answers
    assert seen > 15250
    assert failures == []
