"""Command-line behavior: exit codes, output documents, round trips."""
import contextlib
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

from seakit import matrices as mx
from seakit.cli import main
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
        ctx.read(p) for p in doc["family"]["projections"]), "matrix")
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
    # Symmetrizing 1e308 overflows to inf, which the input check rejects;
    # on large entries the engine's identity checks miss their absolute
    # bound (by 2.3e-6 at 1e10, by inf at 1e200).
    for doc in ({"re": [[float("nan"), 0.0], [0.0, 0.5]]},
                {"values": [float("inf"), 0.5]},
                {"re": [[1e308, 0.0], [0.0, 1e308]]},
                {"re": [[1e10, 3e9], [3e9, -1e10]]},
                {"re": [[1e200, 3e199], [3e199, -1e200]]}):
        assert main(["decompose", "--input",
                     write(tmp_path / "nonfinite.json", doc)]) == 1
        assert capsys.readouterr().out.count("\n") == 1


def test_decompose_near_the_float_limit_writes_no_warning(tmp_path):
    """Overflow on entries near the float limit is refused with one line
    and exit 1; a ``seakit`` process, which shows numpy's warnings as a
    user's would, writes nothing to stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(mx.__file__).parents[1]))
    for doc in ({"re": [[1e308, 0.0], [0.0, 1e308]]},
                {"re": [[1e200, 3e199], [3e199, -1e200]]}):
        path = write(tmp_path / "huge.json", doc)
        proc = subprocess.run(
            [sys.executable, "-W", "always::RuntimeWarning", "-m",
             "seakit.cli", "decompose", "--input", path],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout.count("\n") == 1
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


def cli_case_sha256(name: str, workdir: Path, exact: bool | None = None
                    ) -> str:
    """Run one case in an empty ``workdir`` and hash what a user sees: the
    exit code, stdout, stderr and every file the call wrote.  A call that
    raises is recorded by the exception's type, as a traceback would
    show it.  Warnings are left out: Python shows each once per process
    and source line, so whether one appears depends on what ran before."""
    argv = CLI_CASES[name]
    if exact is None:
        exact = all(a.startswith("f") for a in argv if a.endswith(".json")
                    and a in CLI_DOCS)
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
    files = {p.name: _canonical(p.read_text(), exact)
             for p in sorted(workdir.iterdir()) if p.name not in CLI_DOCS}
    seen = {"exit": code, "stdout": _canonical(out.getvalue(), exact),
            "stderr": err.getvalue(), "files": files}
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
    "decompose-mhuge": "825483113973f6b87fac55eb60ddb32f4ac38dc8f18d9c766ede39659c7d36a5",
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
    ``decompose-mhuge`` exits 1 with one line instead of raising, and
    ``spectrum-f4-csv`` exits 2 instead of writing its CSV over its JSON.
    """
    digests = {}
    for name in sorted(CLI_CASES):
        workdir = tmp_path / name
        workdir.mkdir()
        digests[name] = cli_case_sha256(name, workdir)
    assert digests == CLI_GOLDEN


def test_eigh_operands_are_exactly_hermitian(tmp_path, monkeypatch, capsys):
    """``linalg.eigh`` neither checks nor symmetrizes its operand, so each
    matrix LAPACK sees must be finite and bitwise equal to its conjugate
    transpose: over the verifier's reports, every element-verb case, and
    the verbs on an input that is Hermitian only within the input check's
    tolerance, which they use as the check symmetrized it."""
    seen = 0
    failures = []
    original = np.linalg.eigh

    def recording(a, *args, **kwargs):
        nonlocal seen
        seen += 1
        m = np.asarray(a)
        if not (np.all(np.isfinite(m)) and np.array_equal(m, m.conj().T)):
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
    assert seen > 20000
    assert failures == []
