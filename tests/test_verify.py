"""Suite runner behavior: passing runs, failing controls, determinism."""
import hashlib
import json
from fractions import Fraction

import pytest

from seakit.report import CheckResult, SuiteReport, merge_reports
from seakit.verify import (
    REQUIRED_STATEMENTS,
    covered_statements,
    five_way_statements,
    run_all,
    run_compression_suite,
    run_context_suite,
    run_sea_suite,
    run_spectrality_suite,
    run_table_suite,
    _lagrange_basis,
    _meet_headroom,
    _run_statement,
)
from seakit.cli import main
from seakit.config import DEFAULT
from seakit import fuzzy as fz
from seakit import matrices as mx
from seakit import spectral as sp
import numpy as np


def failing_ids(report):
    return {r.statement_id for r in report.results
            if r.passed < r.samples}


def test_sea_suite_passes_both_models():
    assert run_sea_suite("matrix", 2, samples=25, seed=3).verdict
    assert run_sea_suite("mv", 4, samples=25, seed=3).verdict


def test_symmetrized_product_breaks_the_kernel_axiom():
    report = run_sea_suite("matrix", 3, samples=40, seed=5,
                           product="jordan")
    assert not report.verdict
    assert report.metadata["negative_control"]
    bad = failing_ids(report)
    assert "S3" in bad
    s3 = next(r for r in report.results if r.statement_id == "S3")
    assert s3.witness is not None
    assert "min_eigenvalue" in s3.witness


def test_truncated_sum_product_breaks_distributivity():
    report = run_sea_suite("mv", 6, samples=40, seed=5,
                           product="lukasiewicz")
    assert not report.verdict
    assert "S1" in failing_ids(report)


def test_compression_suite_and_soft_focus_control():
    assert run_compression_suite("matrix", 3, samples=20, seed=2).verdict
    assert run_compression_suite("mv", 5, samples=20, seed=2).verdict
    soft = run_compression_suite("matrix", 3, samples=20, seed=2,
                                 focus="soft")
    assert not soft.verdict
    assert "de:compr" in failing_ids(soft)


def test_spectrality_suite_and_cover_control():
    assert run_spectrality_suite("matrix", 4, samples=12, seed=7).verdict
    assert run_spectrality_suite("mv", 6, samples=12, seed=7).verdict
    broken = run_spectrality_suite("matrix", 4, samples=12, seed=7,
                                   floor_mode="cover")
    assert not broken.verdict
    assert "lemma:floor" in failing_ids(broken)


def test_context_suite_and_merge_control():
    assert run_context_suite("matrix", 4, samples=15, seed=11).verdict
    assert run_context_suite("mv", 6, samples=15, seed=11).verdict
    merged = run_context_suite("matrix", 4, samples=15, seed=11,
                               merge_delta=0.25)
    assert not merged.verdict
    assert "thm:contexts" in failing_ids(merged)


def test_table_suite_and_corrupted_control():
    assert run_table_suite(seed=1).verdict
    broken = run_table_suite(seed=1, corrupted=True)
    assert not broken.verdict
    assert {"E1", "E4"} <= failing_ids(broken)


def test_five_way_agreement_on_hand_cases():
    p = mx.Projection(np.diag([1.0, 0.0]))
    below = mx.validate_effect(np.diag([0.3, 0.5]))
    flags = five_way_statements(p, below)
    keys = ("compress_below", "block_sum", "interval_sum", "mackey", "meet")
    assert all(flags[k] for k in keys)
    tilted = mx.validate_effect(np.array([[0.5, 0.3], [0.3, 0.5]]))
    flags = five_way_statements(p, tilted)
    assert not any(flags[k] for k in keys)


def test_run_all_covers_every_required_statement():
    reports = run_all("matrix", 3, samples=12, seed=13)
    merged = merge_reports(reports)
    assert merged["verdict"] == "pass"
    assert set(REQUIRED_STATEMENTS) <= covered_statements(reports)
    controls = [r for r in reports if r.metadata.get("negative_control")]
    assert len(controls) == 5
    assert all(not c.verdict for c in controls)


def test_runs_are_deterministic():
    one = run_sea_suite("matrix", 3, samples=15, seed=9).to_json()
    two = run_sea_suite("matrix", 3, samples=15, seed=9).to_json()
    assert one == two


def test_merged_verdict_requires_failing_controls():
    healthy = SuiteReport(suite="s", model="matrix", seed=0)
    healthy.add(CheckResult("S1", "matrix", 5, 5))
    stuck = SuiteReport(suite="c", model="matrix", seed=0,
                        metadata={"negative_control": True})
    stuck.add(CheckResult("S1", "matrix", 5, 5))
    merged = merge_reports([healthy, stuck])
    assert merged["verdict"] == "fail"
    stuck_fixed = SuiteReport(suite="c", model="matrix", seed=0,
                              metadata={"negative_control": True})
    stuck_fixed.add(CheckResult("S1", "matrix", 5, 3,
                                witness={"a": "x"}))
    merged = merge_reports([healthy, stuck_fixed])
    assert merged["verdict"] == "pass"


def test_check_result_invariants():
    with pytest.raises(ValueError):
        CheckResult("S1", "matrix", 5, 6)
    with pytest.raises(ValueError):
        CheckResult("S1", "matrix", 5, 4)
    with pytest.raises(ValueError):
        CheckResult("S1", "matrix", 5, 5, witness={"a": 1})
    report = SuiteReport(suite="s", model="matrix", seed=0)
    report.add(CheckResult("S2", "matrix", 5, 5))
    report.add(CheckResult("S1", "matrix", 5, 5))
    ids = [r["statement_id"] for r in report.to_dict()["results"]]
    assert ids == ["S1", "S2"]


# name -> (suite runner, model, broken configuration).
CONTROLS = {
    "matrix-sea": (run_sea_suite, "matrix", {"product": "jordan"}),
    "matrix-compression": (run_compression_suite, "matrix",
                           {"focus": "soft"}),
    "matrix-spectrality": (run_spectrality_suite, "matrix",
                           {"floor_mode": "cover"}),
    "matrix-context": (run_context_suite, "matrix", {"merge_delta": 0.25}),
    "mv-sea": (run_sea_suite, "mv", {"product": "lukasiewicz"}),
    "mv-compression": (run_compression_suite, "mv", {"focus": "soft"}),
    "mv-spectrality": (run_spectrality_suite, "mv",
                       {"floor_mode": "cover"}),
    "mv-context": (run_context_suite, "mv", {"merge_delta": 0.25}),
}


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_every_control_fails_for_every_seed(name):
    # run_all gives controls samples // 4 samples, so small runs see 1-3.
    run, model, broken = CONTROLS[name]
    passed = [(dim, samples, seed)
              for dim in (2, 3, 4) for samples in (1, 2, 3)
              for seed in range(10)
              if run(model, dim, samples, seed, **broken).verdict]
    assert passed == []


ROUTE_FAILURES = {"coro:limit", "eq:spectprojs", "eq:spectresV",
                  "thm:contexts", "thm:contexts.functions",
                  "thm:contexts.reduced"}


@pytest.mark.parametrize("model,model_context,failures", [
    ("matrix", sp.MatrixContext, ROUTE_FAILURES | {"prop:decomp"}),
    ("mv", fz.FuzzyContext, ROUTE_FAILURES),
], ids=["matrix", "mv"])
def test_verifier_catches_a_wrong_eigenprojection_route(
        monkeypatch, model, model_context, failures):
    original = model_context.eigenprojections

    def reversed_projections(self, v):
        values, projs = original(self, v)
        return values, projs[::-1]

    monkeypatch.setattr(model_context, "eigenprojections",
                        reversed_projections)
    spectral = run_spectrality_suite(model, 4, 12, 7)
    context = run_context_suite(model, 4, 12, 7)
    assert failing_ids(spectral) | failing_ids(context) == failures


def test_barycentric_basis_is_exact():
    def direct(xs, i, x):
        out = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                out *= (x - xj) / (xs[i] - xj)
        return out

    rng = np.random.default_rng(4)
    node_sets = [[0.4, 0.5]]
    for n in range(1, 13):
        for _ in range(3):
            ticks = rng.choice(257, size=n, replace=False)
            node_sets.append(sorted(ticks / 256))
    for nodes in node_sets:
        points = list(nodes) + list(rng.integers(0, 257, 6) / 256) \
            + [0.4, 0.5]
        xs = [Fraction(x) for x in nodes]
        expected = [[direct(xs, i, Fraction(p)) for i in range(len(xs))]
                    for p in points]
        assert _lagrange_basis(nodes, points) == expected


MV_GOLDEN = {
    (4, 1): "2648ea999971beecf263f31e63d1903c213f78a60103ad65f6cad174a7a6b249",
    (4, 7): "f2723c47e0e00ffc0e768a4dc745a52f6bb86b7eb7597985ad75e55c6b97d08e",
    (4, 42): "7fe3c5b765ea032437ba2f72d71e0a631f9e6fc43902f966bdab459b45786f58",
    (8, 1): "c12229d3eac8a66d955ad81a030074ed57d50a3ce1829a90afad1192a439ee47",
    (8, 7): "469c2c74e7f4de17e5e8e8613e8289852c0db43816f7f1c85fd86b426cc98e76",
    (8, 42): "cf24eb67c1264598000e83fc2abed85d6e2894c8d8af7507771b16acbc739fcc",
    (32, 1): "938027d0d7e9addf7e6ae8e46dbef29738b573a8608657476021b09dd84a823c",
    (32, 7): "9633e91c598a1b1fbf345a739cd2b85701350120c50ab7d050c830590b76ee42",
    (32, 42): "cf3c140e4f3ee3a864ce83e540c590e038dbf68a951a0cf98b0562970d184fa7",
}


@pytest.mark.parametrize("size,seed", sorted(MV_GOLDEN))
def test_mv_reports_are_golden(size, seed):
    """The mv model is exact dyadic arithmetic on a PCG64 stream, so its
    merged report, hashed as ``verify --out`` writes it, does not depend on
    the host.  Regenerate a hash with
    ``seakit verify --suite all --model mv --size SIZE --samples 12
    --seed SEED --out r.json`` and ``sha256sum r.json``."""
    doc = merge_reports(run_all("mv", size, 12, seed))
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == MV_GOLDEN[size, seed]


def rounded(x, places=6):
    if isinstance(x, float):
        return round(x, places)
    if isinstance(x, dict):
        return {k: rounded(v, places) for k, v in x.items()}
    if isinstance(x, list):
        return [rounded(v, places) for v in x]
    return x


def matrix_report_sha256(dim, seed):
    doc = rounded(merge_reports(run_all("matrix", dim, 12, seed)))
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


MATRIX_GOLDEN = {
    (2, 1): "d1a13ba898e07cd97492452f4f6debf658904673fcc27d72534353fa9409c24d",
    (2, 7): "4a206d698b764f4dbb95a4ee7d9562ea905cf81c3a0f73a8213321bd61f2d539",
    (2, 42): "983703fec3a3fca7e4e600d5731e2046b35d6cea277fb27f5bc89d68eb36ccae",
    (3, 1): "9241f93d70abc458f89dc7e7802e89b32f5a0bae1c5fecca0c544b8050edf4bc",
    (3, 7): "706ee319a53a99940e3e8f2d85e14b86faed3efd144b2ea501b96832cdcd78ed",
    (3, 42): "8277571f537b506003df670e17ced47a0ee64f9610fdea7e43473660a90fed53",
    (4, 1): "56b58711ecb90ed8c65095db43e3538fe7d9837af03014016a4f311ff4f6714c",
    (4, 7): "2353a8b11de2e1f2e405fda4cdf9b2585f288bafd6cc820edfd38d8ab7fb0a7d",
    (4, 42): "5e02e4bcdc4f8ca947a9a245a5fa09117037b06a2dd339dce12481b9e7e8a123",
}


@pytest.mark.parametrize("dim,seed", sorted(MATRIX_GOLDEN))
def test_matrix_reports_are_golden(dim, seed):
    """Matrix residuals move in their last digits between LAPACK builds,
    so the merged report is hashed with every float rounded to 6 decimal
    places.  Regenerate a hash with
    ``PYTHONPATH=src:tests python -c "import test_verify as t;
    print(t.matrix_report_sha256(DIM, SEED))"``."""
    assert matrix_report_sha256(dim, seed) == MATRIX_GOLDEN[dim, seed]


def test_mv_verify_runs_at_the_largest_size(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", "--model", "mv", "--size",
                 "1024", "--samples", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    suites = json.loads(out.read_text())["suites"]
    assert len(suites) == 10
    for doc in suites:
        control = doc["metadata"].get("negative_control", False)
        assert (doc["verdict"] == "fail") == control, doc["suite"]


def test_a_crashing_statement_reports_where_it_raised():
    def body(t):
        raise ZeroDivisionError("planted")

    report = SuiteReport(suite="s", model="mv", seed=0)
    _run_statement(report, "S1", "mv", body)
    (result,) = report.results
    assert result.samples == 1 and result.passed == 0
    line = body.__code__.co_firstlineno + 1
    assert result.witness == {"error": "ZeroDivisionError: planted",
                              "at": f"test_verify.py:{line}"}


@pytest.mark.parametrize("argv", [["--dim", "1"],
                                  ["--model", "mv", "--size", "1"]],
                         ids=["matrix", "mv"])
def test_suite_all_passes_at_dimension_one(argv, tmp_path, capsys):
    """With one point the merge control has no second spectral value to
    merge, and the Jordan product of 1x1 matrices is the sequential
    product, so neither control can fail; run_all leaves them out and the
    suite they control says why."""
    for seed in range(10):
        out = tmp_path / f"{seed}.json"
        assert main(["verify", "--suite", "all", *argv, "--samples", "8",
                     "--seed", str(seed), "--out", str(out)]) == 0, seed
        suites = json.loads(out.read_text())["suites"]
        controls = [d["suite"] for d in suites
                    if d["metadata"].get("negative_control")]
        omitted = {d["suite"]: d["metadata"]["control_omitted"]
                   for d in suites if "control_omitted" in d["metadata"]}
        assert "context" not in controls
        assert omitted["context"].startswith("merge_delta=")
        if argv[0] == "--dim":
            assert "sea" not in controls
            assert omitted["sea"].startswith("product=jordan")
        else:
            assert "sea" in controls and "sea" not in omitted
    capsys.readouterr()


def test_trusted_constructors_receive_exactly_hermitian_matrices(
        monkeypatch):
    """``validate=False`` copies the matrix without symmetrizing it, which
    keeps every result bit only if each caller passes an exactly
    Hermitian matrix."""
    checked = []
    failures = []
    original = mx.Effect.__init__

    def recording(self, matrix, *, validate=True, **kwargs):
        if not validate:
            m = np.asarray(matrix, dtype=np.complex128)
            checked.append(m.shape)
            if not np.array_equal(m, m.conj().T):
                failures.append(m)
        original(self, matrix, validate=validate, **kwargs)

    monkeypatch.setattr(mx.Effect, "__init__", recording)
    for dim in (1, 2, 3, 4):
        for seed in (0, 1, 2):
            run_all("matrix", dim, 6, seed)
    assert len(checked) > 1000
    assert failures == []


def _matrices_in(witness) -> int:
    return sum(isinstance(v, dict) and "re" in v for v in witness.values())


def test_work_per_request_is_pinned(call_counter):
    """Counts of one matrix ``verify`` request, which do not depend on the
    machine: one LAPACK call per eigensystem, clustered decompositions
    only where eigenvectors are used, and witness matrices encoded only
    for the witnesses a report records."""
    calls = call_counter("numpy.linalg.eigh",
                         "seakit.linalg.decomposition_from",
                         "seakit.verify._mat")
    reports = run_all("matrix", 4, 12, 42)
    assert calls["numpy.linalg.eigh"] == 1561
    assert calls["seakit.linalg.decomposition_from"] <= 2700
    recorded = sum(_matrices_in(r.witness) for rep in reports
                   for r in rep.results if r.witness is not None)
    assert recorded > 0
    assert calls["seakit.verify._mat"] == recorded


def scalar_headroom(pvals, avals, psd):
    """The le:sharp.vi oracle's bisection as a loop over probes, raising
    one coordinate of a copied candidate per step."""
    cand = np.minimum(pvals, avals)
    out = []
    for probe in range(len(pvals)):
        lo_t, hi_t = 0.0, 1.0
        for _ in range(30):
            mid = (lo_t + hi_t) / 2.0
            trial = cand.copy()
            trial[probe] += mid
            if np.all(trial <= pvals + psd) \
                    and np.all(trial <= avals + psd):
                lo_t = mid
            else:
                hi_t = mid
        out.append(lo_t)
    return out


def test_meet_headroom_matches_the_scalar_bisection():
    rng = np.random.default_rng(31)
    slacks = (0.0, DEFAULT.psd, 0.1, 0.5)
    for i in range(200):
        dim = 1 + i % 6
        psd = slacks[i // 6 % len(slacks)]
        if i % 2 == 0:
            pvals = rng.integers(0, 2, dim).astype(float)
            if not pvals.any():
                pvals[0] = 1.0
        else:
            pvals = rng.uniform(0.0, 1.0, dim)
        avals = rng.uniform(0.0, 1.0, dim)
        expected = np.array(scalar_headroom(pvals, avals, psd))
        got = _meet_headroom(pvals, avals, psd)
        assert got.dtype == np.float64 and got.shape == (dim,)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        worst = 0.0
        for lo_t in expected:
            worst = max(worst, lo_t)
        assert float(np.max(got)).hex() == float(worst).hex()
