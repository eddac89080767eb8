"""Suite runner behavior: passing runs, failing controls, determinism."""
import hashlib
import inspect
import json
import re
from pathlib import Path

import pytest

from seakit.report import CheckResult, SuiteReport, merge_reports
from seakit.verify import (
    STATEMENTS,
    control_omitted,
    five_way_statements,
    run_all,
    run_compression_suite,
    run_context_suite,
    run_sea_suite,
    run_spectrality_suite,
    run_table_suite,
    _lagrange,
    _meet_headroom,
    _run_statement,
)
from seakit.cli import main
from seakit.config import DEFAULT
from seakit import fuzzy as fz
from seakit import matrices as mx
from seakit import spectral as sp
from seakit import tables as tb
import numpy as np


def failing_ids(report):
    return {r.statement_id for r in report.results
            if r.passed < r.samples}


def _public_methods(cls) -> dict:
    """Public method name -> parameter names."""
    return {name: list(inspect.signature(fn).parameters)
            for name, fn in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(fn)}


def test_models_share_one_protocol():
    """Each statement has one body over the model protocol, so a sampler
    of either model offers the same draws with the same parameters, and
    both contexts the same operations; no model needs an adapter."""
    draws = _public_methods(mx.EffectSampler)
    assert draws == _public_methods(fz.FuzzySampler)
    assert {"scalar", "frame", "effect", "projection", "simple", "signed",
            "with_values", "with_top", "commuting_with", "split_effect",
            "orthogonal_pair", "summable_pair", "refined_commuting",
            "span", "commuting"} <= draws.keys()
    def operations(cls) -> set:
        return {name for name in dir(cls)
                if not name.startswith("_") and callable(getattr(cls, name))}

    assert operations(mx.MatrixContext) == operations(fz.FuzzyContext)
    assert {"encode", "mul", "extremes", "unit", "element", "complement",
            "scale"} <= operations(mx.MatrixContext)
    # one module per model: its context and its sampler live together
    assert mx.MatrixContext.__module__ == mx.EffectSampler.__module__
    assert fz.FuzzyContext.__module__ == fz.FuzzySampler.__module__


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
    p = mx.validate_effect(np.diag([1.0, 0.0]))
    below = mx.validate_effect(np.diag([0.3, 0.5]))
    flags = five_way_statements(p, below)
    keys = ("compress_below", "block_sum", "interval_sum", "mackey", "meet")
    assert all(flags[k] for k in keys)
    tilted = mx.validate_effect(np.array([[0.5, 0.3], [0.3, 0.5]]))
    flags = five_way_statements(p, tilted)
    assert not any(flags[k] for k in keys)


def _axiom_ids() -> set:
    """The ids ``tables.check_ea_axioms`` reports, read from its results."""
    alg = tb.builtin_table(tb.BUILTIN_NAMES[0])
    return {r.statement_id for r in tb.check_ea_axioms(alg).results}


def test_run_all_reports_exactly_the_statement_table():
    """Every suite, normal and control, reports exactly its rows of
    ``STATEMENTS``; the tables suite adds the axiom checks, and its
    corrupted control reports those alone."""
    ids = [sid for rows in STATEMENTS.values() for sid, _ in rows]
    assert len(ids) == len(set(ids))
    for model, n in (("matrix", 3), ("mv", 4)):
        reports = run_all(model, n, samples=12, seed=13)
        assert merge_reports(reports)["verdict"] == "pass"
        controls = [r for r in reports if r.metadata.get("negative_control")]
        assert len(controls) == 5
        assert all(not c.verdict for c in controls)
        for rep in reports:
            rows = {sid for sid, _ in STATEMENTS[rep.suite]}
            if rep.suite == "tables":
                rows = (_axiom_ids() if rep.metadata.get("negative_control")
                        else rows | _axiom_ids())
            assert {r.statement_id for r in rep.results} == rows, rep.suite


def test_readme_lists_every_statement_with_its_suite():
    """The README's statement table names every row, and the axiom
    checks, in full and with the suite that reports it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Statement identifiers", 1)[1]
    section = section.split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", section,
                            flags=re.M))
    expected = {(sid, suite) for suite, rows in STATEMENTS.items()
                for sid, _ in rows}
    expected |= {(sid, "tables") for sid in _axiom_ids()}
    assert listed == expected


# run -> (suite, the controls it cannot fail at dimension 1, by model)
CONTROLS_AT_ONE = {
    run_sea_suite: ("sea", {"matrix": {"product": "jordan"}}),
    run_context_suite: ("context", {"matrix": {"merge_delta": 0.25},
                                    "mv": {"merge_delta": 0.25}}),
}


@pytest.mark.parametrize("run", [run_sea_suite, run_compression_suite,
                                 run_spectrality_suite, run_context_suite])
def test_suites_reject_bad_arguments_up_front(run):
    for bad in ({"samples": 0}, {"seed": -1}):
        with pytest.raises(ValueError):
            run("mv", 4, **bad)
    for model, n in (("matrix", 0), ("matrix", mx.MAX_DIM + 1), ("mv", 0),
                     ("mv", fz.MAX_SPACE + 1)):
        with pytest.raises(ValueError):
            run(model, n, samples=2, seed=1)
    # A control that cannot fail is refused, with the reason run_all
    # records, before anything is drawn.
    suite, controls = CONTROLS_AT_ONE.get(run, ("", {}))
    for model, config in controls.items():
        with pytest.raises(ValueError) as info:
            run(model, 1, samples=2, seed=1, **config)
        assert str(info.value) == control_omitted(suite, model, 1)
    if run is run_sea_suite:
        # a product that is not the model's control names the control
        for model, other, control in (("matrix", "lukasiewicz", "jordan"),
                                      ("mv", "jordan", "lukasiewicz")):
            with pytest.raises(ValueError, match=f"'{control}'"):
                run(model, 4, samples=2, seed=1, product=other)


def test_runs_are_deterministic():
    one = run_sea_suite("matrix", 3, samples=15, seed=9).to_dict()
    two = run_sea_suite("matrix", 3, samples=15, seed=9).to_dict()
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


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
                  "lemma:covex_floor", "thm:contexts",
                  "thm:contexts.functions", "thm:contexts.reduced"}


@pytest.mark.parametrize("model,model_context,failures", [
    ("matrix", mx.MatrixContext, ROUTE_FAILURES | {"prop:decomp"}),
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


# name -> (suite runner, model); the normal configuration of each control.
NORMALS = {name: (run, model) for name, (run, model, _) in CONTROLS.items()}


@pytest.mark.parametrize("name", sorted(NORMALS))
def test_every_normal_suite_passes_for_every_seed(name):
    run, model = NORMALS[name]
    failed = [(dim, samples, seed)
              for dim in (2, 3, 4) for samples in (1, 2, 3)
              for seed in range(10)
              if not run(model, dim, samples, seed).verdict]
    assert failed == []


def test_lagrange_basis_is_exact_at_the_nodes():
    """On the mv model a's values are the nodes, where the product form
    gives exactly 0 and 1: the indicators of the level sets."""
    rng = np.random.default_rng(4)
    ctx = fz.FuzzyContext(DEFAULT)
    for size in (1, 2, 5, 17, 64):
        for _ in range(20):
            a = rng.integers(0, 257, size) / 256
            nodes = sorted(set(a.tolist()))
            for i, x in enumerate(nodes):
                assert np.array_equal(_lagrange(ctx, a, nodes, i),
                                      (a == x).astype(float))
    ctx = mx.MatrixContext(DEFAULT)
    a = mx.EffectSampler(5, 3).with_values([0.25, 0.5, 0.5])
    for i, x in enumerate((0.25, 0.5)):
        expected = sp.eigenprojection(a, x, ctx).matrix
        assert np.allclose(_lagrange(ctx, a, [0.25, 0.5], i), expected,
                           atol=1e-12)


def report_sha256(doc):
    """The sha256 of a report as ``verify --out`` writes it."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def mv_report_sha256(size, seed):
    return report_sha256(merge_reports(run_all("mv", size, 12, seed)))


def rounded(x, places=6):
    if isinstance(x, float):
        return round(x, places)
    if isinstance(x, dict):
        return {k: rounded(v, places) for k, v in x.items()}
    if isinstance(x, list):
        return [rounded(v, places) for v in x]
    return x


def matrix_report_sha256(dim, seed):
    return report_sha256(rounded(merge_reports(
        run_all("matrix", dim, 12, seed))))


def print_goldens():
    """Print ``MV_GOLDEN`` and ``MATRIX_GOLDEN`` as recorded by this build,
    ready to paste over both dicts after a deliberate change of the
    reports: ``PYTHONPATH=src:tests python -c "import test_verify;
    test_verify.print_goldens()"``."""
    for name, keys, sha in (("MV_GOLDEN", MV_GOLDEN, mv_report_sha256),
                            ("MATRIX_GOLDEN", MATRIX_GOLDEN,
                             matrix_report_sha256)):
        print(f"{name} = {{")
        for key in sorted(keys):
            print(f'    {key!r}: "{sha(*key)}",')
        print("}")


def test_no_statement_writes_into_an_mv_element(monkeypatch):
    """mv elements are plain, writable arrays.  With every sampler draw
    made read-only, a statement that wrote into an element would crash
    and report a crash witness, so the reports would change."""
    seeds = (1, 7, 42)
    free = [mv_report_sha256(8, seed) for seed in seeds]

    def frozen(draw):
        def draw_read_only(*args, **kwargs):
            out = draw(*args, **kwargs)
            for x in out if isinstance(out, tuple) else (out,):
                if isinstance(x, np.ndarray):
                    x.flags.writeable = False
            return out
        return draw_read_only

    for name in _public_methods(fz.FuzzySampler):
        monkeypatch.setattr(fz.FuzzySampler, name,
                            frozen(getattr(fz.FuzzySampler, name)))
    assert not fz.FuzzySampler(1, 3).effect().flags.writeable
    assert [mv_report_sha256(8, seed) for seed in seeds] == free


def report_digests():
    """Print the sha256 of each merged ``run_all`` report at 12 samples,
    unrounded, on matrix dims 2-4 and mv sizes 4, 8 and 32 at seeds 1, 7
    and 42.  A change that must keep the reports byte-identical prints the
    same 18 lines before and after: ``PYTHONPATH=src:tests python -c
    "import test_verify; test_verify.report_digests()"``."""
    for model, sizes in (("matrix", (2, 3, 4)), ("mv", (4, 8, 32))):
        for n in sizes:
            for seed in (1, 7, 42):
                doc = merge_reports(run_all(model, n, 12, seed))
                print(model, n, seed, report_sha256(doc))


MV_GOLDEN = {
    (4, 1): "96128ccbe4a046038ed3f58f823a64b45ab54f97e9e8c1711e597e723ae24e48",
    (4, 7): "15e218d7c3272d30eb8fb1efa0357f59c592be087d9286efe9d874d2b01173d3",
    (4, 42): "820f49550913dce415463e9d75c421aa887a143d595e7b5b6a42ebdffcee13b5",
    (8, 1): "6bf7105ed2dcaaec6387d818f48c75b11e757f15c552c8998f98d991faee580b",
    (8, 7): "0659900261d296ce4c4a06bc11ce2ad14f6b6f6034d87d0ef4b533138d63747b",
    (8, 42): "20c4cb8ffc380467693b069ee7431d59b43678f4911563a0d223fd9e960e8ca9",
    (32, 1): "f2924a83f9fe732cb2c22a5047d8695310070551ff4f11c9d5df739631046451",
    (32, 7): "9c894b8b75f8ef19dbfa0015e616c7e197850f9a9472a8530872a57b3d48ba87",
    (32, 42): "0ec1ccf8acef7712cb9c43a7019506b1f5796ed11096a7e00a3623cba45c8540",
}


@pytest.mark.parametrize("size,seed", sorted(MV_GOLDEN))
def test_mv_reports_are_golden(size, seed):
    """The mv model is exact dyadic arithmetic on a PCG64 stream, so its
    merged report, hashed as ``verify --out`` writes it, does not depend on
    the host.  Regenerate the dict with ``print_goldens`` above.

    Last re-recorded when every law got one body over both models: the
    mv draws changed, and the tolerances block lost its unread ``trace``.
    """
    assert mv_report_sha256(size, seed) == MV_GOLDEN[size, seed]


MATRIX_GOLDEN = {
    (2, 1): "47701d5050f5414fbaf84a814c571cd8411252f55a66e02fd3a48f4db889b178",
    (2, 7): "ecdd8459f71db5df6f0011a0f4ac3d727ea465575c82e8eb64b66b40fc177692",
    (2, 42): "ccb113a4ad0a2bb92a1bcb0dcbc4e2a8ce7ca2be0239eab5007d75a8fdadc7a1",
    (3, 1): "7810da1ad79cace045aa45ad16fd640f0743e8b20d041170dcfb1795229e5d43",
    (3, 7): "2027dcde9883f7798ede7206f8035d43512493d3ac811d96ec65baa2d58af596",
    (3, 42): "0eed8f9ca2d91511cfbb04bc0271cd8abea807cd3ab728e2fa9d6711e9e66ee2",
    (4, 1): "dd5895c32fe8b75e8188788bf40cd22ff364a62786ec75e5fdde4188c02d6cea",
    (4, 7): "5463859e869f14ad95cfe4690deabe41691f573f0b7750b411aa448e11cb1a87",
    (4, 42): "5310d582358775518012d400494b9e08590f6f9165dd3cf98e28db4ea514a681",
}


@pytest.mark.parametrize("dim,seed", sorted(MATRIX_GOLDEN))
def test_matrix_reports_are_golden(dim, seed):
    """Matrix residuals move in their last digits between LAPACK builds,
    so the merged report is hashed with every float rounded to 6 decimal
    places.  Regenerate the dict with ``print_goldens`` above.

    Last re-recorded with ``MV_GOLDEN``, for the tolerances block alone:
    on this grid every matrix statement kept its samples, passes, verdict
    and witness, as the matrix draws and operations did not change.
    """
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
    _run_statement(report, "S1", body)
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
    """``Effect`` copies its matrix without checking or symmetrizing it,
    which keeps every result bit only if each caller passes an exactly
    Hermitian matrix; ``validate_effect`` passes the symmetrized one."""
    checked = []
    failures = []
    original = mx.Effect.__init__

    def recording(self, matrix, **kwargs):
        m = np.asarray(matrix, dtype=np.complex128)
        checked.append(m.shape)
        if not np.array_equal(m, m.conj().T):
            failures.append(m)
        original(self, matrix, **kwargs)

    monkeypatch.setattr(mx.Effect, "__init__", recording)
    for dim in (1, 2, 3, 4):
        for seed in (0, 1, 2):
            run_all("matrix", dim, 6, seed)
    assert len(checked) > 1000
    assert failures == []


def _matrices_in(witness) -> int:
    return sum(isinstance(v, dict) and "re" in v for v in witness.values())


def test_work_per_request_is_pinned(call_counter, monkeypatch):
    """Counts of one matrix ``verify`` request, which do not depend on the
    machine: one LAPACK call per eigensystem, no check of a matrix the
    verifier built, clustered decompositions only where eigenvectors are
    used, and witness matrices encoded only for the witnesses a report
    records."""
    calls = call_counter("numpy.linalg.eigh",
                         "seakit.linalg.decomposition_from",
                         "seakit.linalg.require_hermitian")
    encoded = 0
    encode = mx.MatrixContext.encode

    def counted(self, v):
        nonlocal encoded
        encoded += 1
        return encode(self, v)

    monkeypatch.setattr(mx.MatrixContext, "encode", counted)
    reports = run_all("matrix", 4, 12, 42)
    assert calls["numpy.linalg.eigh"] == 1561
    assert calls["seakit.linalg.require_hermitian"] == 0
    assert calls["seakit.linalg.decomposition_from"] <= 2700
    recorded = sum(_matrices_in(r.witness) for rep in reports
                   for r in rep.results if r.witness is not None)
    assert recorded > 0
    assert encoded == recorded


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
